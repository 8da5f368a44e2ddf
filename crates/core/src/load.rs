//! The live load board: per-resource admission-queue depths.
//!
//! Placement wants to know how contended each storage resource is *right
//! now*, but the queues themselves live above this crate (in the
//! scheduler). The [`LoadBoard`] is the meeting point: the scheduler books
//! each request with [`LoadBoard::enqueue`] and releases it with
//! [`LoadBoard::dequeue`], and the AUTO placement policy reads the depths
//! to inflate each candidate's eq. (2) price. Outside a scheduler every
//! depth is zero and scored placement reduces to pure predicted time.
//!
//! Depths are kept in fixed per-kind atomic counters, so reading one is
//! lock-free O(1) and never serializes placement behind the dispatcher,
//! which updates the board once per served request.

use crate::tenant::TenantId;
use msr_storage::StorageKind;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn slot(kind: StorageKind) -> usize {
    match kind {
        StorageKind::LocalDisk => 0,
        StorageKind::RemoteDisk => 1,
        StorageKind::RemoteTape => 2,
    }
}

/// One depth counter per storage kind.
#[derive(Debug, Default)]
struct Depths([AtomicUsize; 3]);

impl Depths {
    fn get(&self, kind: StorageKind) -> usize {
        self.0[slot(kind)].load(Ordering::Relaxed)
    }

    fn incr(&self, kind: StorageKind) -> usize {
        self.0[slot(kind)].fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Saturating-at-zero decrement; returns the new depth.
    fn decr(&self, kind: StorageKind) -> usize {
        let cell = &self.0[slot(kind)];
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(1);
            match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return next,
                Err(seen) => cur = seen,
            }
        }
    }
}

/// Live per-tenant usage, charged at enqueue and released at dequeue.
/// The admission controller compares this against the tenant's
/// [`crate::TenantQuota`] before letting another session in.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TenantUsage {
    /// Engine requests the tenant currently has queued.
    pub queued: usize,
}

/// Shared per-resource pending-request counts. Clones observe the same
/// board. The depths (the admission queues) feed scored placement.
///
/// Two mutex-guarded maps ride alongside the lock-free depth counters:
/// per-tenant usage (for quota checks) and per-kind predicted backlog
/// seconds (the eq. (2) numerator admission pricing reads). Both are
/// only written from the scheduler's single dispatcher thread, so the
/// mutexes are uncontended and the values deterministic; they are maps
/// rather than atomics because tenants are open-ended and the backlog is
/// an `f64` sum that must fold in a fixed order.
#[derive(Debug, Clone, Default)]
pub struct LoadBoard {
    depths: Arc<Depths>,
    tenants: Arc<Mutex<BTreeMap<TenantId, TenantUsage>>>,
    backlog: Arc<Mutex<BTreeMap<StorageKind, f64>>>,
}

impl LoadBoard {
    /// A board with every depth at zero.
    pub fn new() -> LoadBoard {
        LoadBoard::default()
    }

    /// Requests currently queued for `kind`.
    pub fn depth(&self, kind: StorageKind) -> usize {
        self.depths.get(kind)
    }

    /// Book one request entering `kind`'s queue: one more of depth, one
    /// more queued for `tenant`, and `secs` of predicted service time on
    /// `kind`'s backlog. Returns the new depth.
    pub fn enqueue(&self, kind: StorageKind, tenant: TenantId, secs: f64) -> usize {
        self.tenants.lock().entry(tenant).or_default().queued += 1;
        *self.backlog.lock().entry(kind).or_default() += secs;
        self.depths.incr(kind)
    }

    /// Release one request [`enqueue`](Self::enqueue) booked. Every ledger
    /// saturates at zero rather than panicking on a double release (the
    /// backlog also clamps float residue). Returns the new depth.
    pub fn dequeue(&self, kind: StorageKind, tenant: TenantId, secs: f64) -> usize {
        let mut tenants = self.tenants.lock();
        let u = tenants.entry(tenant).or_default();
        u.queued = u.queued.saturating_sub(1);
        let mut backlog = self.backlog.lock();
        let b = backlog.entry(kind).or_default();
        *b = (*b - secs).max(0.0);
        self.depths.decr(kind)
    }

    /// `tenant`'s current usage (zero if it never enqueued anything).
    pub fn tenant_usage(&self, tenant: TenantId) -> TenantUsage {
        self.tenants
            .lock()
            .get(&tenant)
            .copied()
            .unwrap_or_default()
    }

    /// Predicted service seconds queued against `kind` — the backlog term
    /// the admission controller prices incoming sessions against.
    pub fn predicted_backlog(&self, kind: StorageKind) -> f64 {
        self.backlog.lock().get(&kind).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enqueue_and_dequeue_move_every_ledger() {
        let board = LoadBoard::new();
        let t = TenantId(3);
        assert_eq!(board.enqueue(StorageKind::RemoteTape, t, 4.0), 1);
        assert_eq!(board.enqueue(StorageKind::RemoteTape, t, 1.0), 2);
        assert_eq!(board.enqueue(StorageKind::LocalDisk, TenantId(0), 1.0), 1);
        assert_eq!(board.tenant_usage(t).queued, 2);
        assert_eq!(board.predicted_backlog(StorageKind::RemoteTape), 5.0);
        assert_eq!(board.dequeue(StorageKind::RemoteTape, t, 1.5), 1);
        assert_eq!(board.tenant_usage(t).queued, 1);
        assert_eq!(board.predicted_backlog(StorageKind::RemoteTape), 3.5);
        // Other kinds and tenants are untouched.
        assert_eq!(board.depth(StorageKind::LocalDisk), 1);
        assert_eq!(board.depth(StorageKind::RemoteDisk), 0);
        assert_eq!(board.predicted_backlog(StorageKind::LocalDisk), 1.0);
        assert_eq!(board.tenant_usage(TenantId(0)).queued, 1);
    }

    #[test]
    fn clones_share_one_board_and_releases_saturate() {
        let board = LoadBoard::new();
        let other = board.clone();
        let t = TenantId(1);
        board.enqueue(StorageKind::RemoteTape, t, 2.0);
        assert_eq!(other.depth(StorageKind::RemoteTape), 1);
        // Over-release saturates instead of wrapping; float residue clamps.
        assert_eq!(other.dequeue(StorageKind::RemoteTape, t, 99.0), 0);
        assert_eq!(other.dequeue(StorageKind::RemoteTape, t, 1.0), 0);
        assert_eq!(board.depth(StorageKind::RemoteTape), 0);
        assert_eq!(board.tenant_usage(t), TenantUsage::default());
        assert_eq!(board.predicted_backlog(StorageKind::RemoteTape), 0.0);
    }
}
