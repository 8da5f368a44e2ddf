//! The live load board: per-resource admission-queue depths.
//!
//! Placement wants to know how contended each storage resource is *right
//! now*, but the queues themselves live above this crate (in the
//! scheduler). The [`LoadBoard`] is the meeting point: the scheduler
//! increments a resource's depth when it enqueues a request and decrements
//! it on completion, and the AUTO placement policy reads the depths to
//! inflate each candidate's eq. (2) score. Outside a scheduler every depth
//! is zero and scored placement reduces to pure predicted time.
//!
//! Depths are kept in fixed per-kind atomic counters, so every operation
//! is lock-free O(1): the event-driven dispatcher updates the board once
//! per served request and a 10k-session drain must not serialize on a
//! mutex (or rebuild a map) to do it.

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

    fn add(&self, kind: StorageKind, n: usize) -> usize {
        self.0[slot(kind)].fetch_add(n, Ordering::Relaxed) + n
    }

    /// Saturating-at-zero subtract; returns the new depth.
    fn sub(&self, kind: StorageKind, n: usize) -> usize {
        let cell = &self.0[slot(kind)];
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(n);
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

    /// Record `n` requests entering `kind`'s queue; returns the new depth.
    pub fn enqueued(&self, kind: StorageKind, n: usize) -> usize {
        self.depths.add(kind, n)
    }

    /// Record `n` requests leaving `kind`'s queue; returns the new depth.
    /// Saturates at zero rather than panicking on double-completion.
    pub fn dequeued(&self, kind: StorageKind, n: usize) -> usize {
        self.depths.sub(kind, n)
    }

    /// Charge `n` queued requests to `tenant`.
    pub fn tenant_enqueued(&self, tenant: TenantId, n: usize) {
        self.tenants.lock().entry(tenant).or_default().queued += n;
    }

    /// Release requests previously charged to `tenant`. Saturates at zero
    /// rather than panicking.
    pub fn tenant_dequeued(&self, tenant: TenantId, n: usize) {
        let mut tenants = self.tenants.lock();
        let u = tenants.entry(tenant).or_default();
        u.queued = u.queued.saturating_sub(n);
    }

    /// `tenant`'s current usage (zero if it never enqueued anything).
    pub fn tenant_usage(&self, tenant: TenantId) -> TenantUsage {
        self.tenants
            .lock()
            .get(&tenant)
            .copied()
            .unwrap_or_default()
    }

    /// Add `secs` of predicted service time to `kind`'s backlog.
    pub fn backlog_enqueued(&self, kind: StorageKind, secs: f64) {
        *self.backlog.lock().entry(kind).or_default() += secs;
    }

    /// Remove `secs` of predicted service time from `kind`'s backlog,
    /// clamping at zero against float residue.
    pub fn backlog_dequeued(&self, kind: StorageKind, secs: f64) {
        let mut backlog = self.backlog.lock();
        let b = backlog.entry(kind).or_default();
        *b = (*b - secs).max(0.0);
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
    fn depths_track_enqueue_and_dequeue() {
        let board = LoadBoard::new();
        assert_eq!(board.depth(StorageKind::LocalDisk), 0);
        assert_eq!(board.enqueued(StorageKind::LocalDisk, 3), 3);
        assert_eq!(board.enqueued(StorageKind::RemoteDisk, 1), 1);
        assert_eq!(board.dequeued(StorageKind::LocalDisk, 2), 1);
        assert_eq!(board.depth(StorageKind::LocalDisk), 1);
        assert_eq!(board.depth(StorageKind::RemoteTape), 0);
    }

    #[test]
    fn clones_share_one_board_and_dequeue_saturates() {
        let board = LoadBoard::new();
        let other = board.clone();
        board.enqueued(StorageKind::RemoteTape, 2);
        assert_eq!(other.depth(StorageKind::RemoteTape), 2);
        assert_eq!(other.dequeued(StorageKind::RemoteTape, 5), 0);
        assert_eq!(board.depth(StorageKind::RemoteTape), 0);
    }

    #[test]
    fn tenant_usage_charges_and_releases() {
        let board = LoadBoard::new();
        let t = TenantId(3);
        assert_eq!(board.tenant_usage(t), TenantUsage::default());
        board.tenant_enqueued(t, 4);
        board.tenant_enqueued(t, 1);
        assert_eq!(board.tenant_usage(t).queued, 5);
        // Over-release saturates instead of wrapping.
        board.tenant_dequeued(t, 9);
        assert_eq!(board.tenant_usage(t), TenantUsage::default());
        // Other tenants are untouched.
        assert_eq!(board.tenant_usage(TenantId(0)), TenantUsage::default());
    }

    #[test]
    fn backlog_tracks_predicted_seconds_per_kind() {
        let board = LoadBoard::new();
        assert_eq!(board.predicted_backlog(StorageKind::RemoteTape), 0.0);
        board.backlog_enqueued(StorageKind::RemoteTape, 4.0);
        board.backlog_enqueued(StorageKind::LocalDisk, 1.0);
        assert_eq!(board.predicted_backlog(StorageKind::RemoteTape), 4.0);
        board.backlog_dequeued(StorageKind::RemoteTape, 1.5);
        assert_eq!(board.predicted_backlog(StorageKind::RemoteTape), 2.5);
        // Float residue clamps at zero.
        board.backlog_dequeued(StorageKind::RemoteTape, 99.0);
        assert_eq!(board.predicted_backlog(StorageKind::RemoteTape), 0.0);
        assert_eq!(board.predicted_backlog(StorageKind::LocalDisk), 1.0);
    }
}
