//! Connection/handle keep-alive for any storage resource.
//!
//! Eq. (1) charges `T_conn + T_open` at the head of every access chain and
//! `T_close + T_connclose` at its tail. Contiguous batches against the same
//! server should pay the connection setup once: the keep-alive stage of a
//! [`Front`](crate::Front), instead of tearing a connection down on
//! `disconnect`, parks it in a virtual-time [`LeasePool`]. A `connect`
//! that arrives while the lease is warm cancels the parked teardown and
//! costs nothing, provided the device confirms the connection is still
//! usable; a lease that lapses settles the real `disconnect` lazily, off
//! the caller's critical path (the time is tracked as deferred teardown,
//! visible through [`KeepAliveHandle::deferred_teardown`]).
//!
//! Read-mode opens get the same treatment per path: re-opening a path for
//! reading within the TTL — with no intervening write or delete to it — is
//! charged zero open time. The device's `open` is **still called**, so the
//! resource hands back a real handle and native-call statistics and jitter
//! streams stay in the exact order an unfronted run would produce; only
//! the charged time changes.
//!
//! Resilience integration: [`KeepAliveHandle::drop_pooled`] flags every
//! lease for immediate settlement — the circuit-breaker `HealthTracker`
//! calls it when a resource trips, so a faulty server never serves from a
//! stale warm connection. The flag is reaped lazily on the next native call
//! to avoid lock-order coupling between the health map and the resource.

use crate::resource::{FileHandle, OpenMode};
use msr_net::LeasePool;
use msr_obs::{ops, Layer, Recorder};
use msr_sim::{Clock, SimDuration};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Lease key for the resource's single client connection.
const CONN_KEY: &str = "conn";

fn open_key(path: &str) -> String {
    format!("open:{path}")
}

/// Snapshot of one resource's keep-alive accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KeepAliveStats {
    /// `connect` calls that re-used a warm connection (setup skipped).
    pub conn_hits: u64,
    /// Read-mode `open` calls served at zero cost from an open lease.
    pub open_hits: u64,
    /// Leases that lapsed or were dropped (TTL, mutation, breaker trip).
    pub expirations: u64,
    /// Teardown time settled off the critical path.
    pub deferred_teardown: SimDuration,
}

#[derive(Debug, Default)]
struct HandleState {
    stats: KeepAliveStats,
    drop_requested: AtomicBool,
}

/// Clonable external handle onto a resource's keep-alive stage: cumulative
/// stats plus the breaker-trip hook.
#[derive(Debug, Clone, Default)]
pub struct KeepAliveHandle {
    state: Arc<Mutex<HandleState>>,
}

impl KeepAliveHandle {
    /// Cumulative hit/expiry accounting.
    pub fn stats(&self) -> KeepAliveStats {
        self.state.lock().stats
    }

    /// Teardown time the stage settled off the critical path so far.
    pub fn deferred_teardown(&self) -> SimDuration {
        self.state.lock().stats.deferred_teardown
    }

    /// Flag every pooled lease for settlement on the resource's next native
    /// call. Safe to invoke from health-tracker callbacks: nothing is
    /// locked beyond the handle itself.
    pub fn drop_pooled(&self) {
        self.state
            .lock()
            .drop_requested
            .store(true, Ordering::Release);
    }
}

/// State of a [`Front`](crate::Front)'s keep-alive stage: the lease pool
/// and what it knows about parked teardowns and open handles. Like the
/// fault stage it never touches the device; `Front` makes the calls.
pub(crate) struct Leases {
    clock: Clock,
    recorder: Recorder,
    pool: LeasePool,
    /// A client `disconnect` was absorbed; the device is still connected
    /// until the conn lease lapses.
    teardown_parked: bool,
    /// Open handle → path, to invalidate open leases on mutation through
    /// a handle.
    handles: HashMap<u32, String>,
    handle: KeepAliveHandle,
}

impl Leases {
    /// A stage whose leases last `ttl` of virtual time, plus its external
    /// stats/drop handle.
    pub fn new(ttl: SimDuration, clock: Clock, recorder: Recorder) -> (Self, KeepAliveHandle) {
        let handle = KeepAliveHandle::default();
        let stage = Leases {
            clock,
            recorder,
            pool: LeasePool::new(ttl),
            teardown_parked: false,
            handles: HashMap::new(),
            handle: handle.clone(),
        };
        (stage, handle)
    }

    fn count(&self, name: &str, op: &'static str, n: f64) {
        if self.recorder.enabled() {
            self.recorder
                .count(Layer::Storage, name, op, self.clock.now(), n);
        }
    }

    /// Account leases that expired since `before` (a pool counter).
    fn note_expirations(&self, name: &str, before: u64) {
        let n = self.pool.stats().expirations - before;
        if n > 0 {
            self.handle.state.lock().stats.expirations += n;
            self.count(name, ops::LEASE_EXPIRE, n as f64);
        }
    }

    /// Settle lapsed state before a native call: honour a pending
    /// `drop_pooled`, reap TTL-expired leases. Returns whether a parked
    /// teardown lost its lease — the caller then performs the real
    /// disconnect, off the critical path, and reports it to
    /// [`Leases::deferred`].
    pub fn settle(&mut self, name: &str) -> bool {
        let dropped = self
            .handle
            .state
            .lock()
            .drop_requested
            .swap(false, Ordering::AcqRel);
        let before = self.pool.stats().expirations;
        if dropped {
            self.pool.drop_all();
        } else {
            self.pool.reap(self.clock.now());
        }
        self.note_expirations(name, before);
        let due = self.teardown_parked && !self.pool.is_live(CONN_KEY, self.clock.now());
        if due {
            self.teardown_parked = false;
        }
        due
    }

    /// Teardown time settled off the critical path.
    pub fn deferred(&self, teardown: SimDuration) {
        self.handle.state.lock().stats.deferred_teardown += teardown;
    }

    /// Whether a parked teardown still holds a warm lease.
    pub fn warm(&self) -> bool {
        self.teardown_parked && self.pool.is_live(CONN_KEY, self.clock.now())
    }

    /// A `connect` re-used the warm connection: cancel the parked teardown.
    /// The lease keeps running from its disconnect-time touch.
    pub fn conn_hit(&mut self, name: &str) {
        self.teardown_parked = false;
        self.handle.state.lock().stats.conn_hits += 1;
        self.count(name, ops::LEASE_HIT, 1.0);
    }

    /// Absorb a client `disconnect`: the device stays connected until the
    /// lease lapses (settled lazily) or the next connect re-uses it.
    pub fn park(&mut self, teardown_estimate: SimDuration) {
        self.teardown_parked = true;
        self.pool
            .acquire(CONN_KEY, self.clock.now(), teardown_estimate);
    }

    /// Before an `open`: a writable mode kills the path's read lease, a
    /// read mode takes (or renews) it. Returns whether the open is a hit.
    pub fn before_open(&mut self, name: &str, path: &str, mode: OpenMode) -> bool {
        if mode.writable() {
            self.invalidate_path(name, path);
            return false;
        }
        self.pool
            .acquire(&open_key(path), self.clock.now(), SimDuration::ZERO)
    }

    /// After a successful `open`; `hit` as returned by
    /// [`Leases::before_open`].
    pub fn opened(&mut self, name: &str, h: FileHandle, path: &str, hit: bool) {
        self.handles.insert(h.raw(), path.to_owned());
        if hit {
            self.handle.state.lock().stats.open_hits += 1;
            self.count(name, ops::LEASE_HIT, 1.0);
        }
    }

    /// Before a `write` through `h`: the path's read lease dies.
    pub fn before_write(&mut self, name: &str, h: FileHandle) {
        if let Some(path) = self.handles.get(&h.raw()).cloned() {
            self.invalidate_path(name, &path);
        }
    }

    /// Before a `close` of `h`.
    pub fn closed(&mut self, h: FileHandle) {
        self.handles.remove(&h.raw());
    }

    /// Drop the read lease on `path` (mutation, delete, vault).
    pub fn invalidate_path(&mut self, name: &str, path: &str) {
        let before = self.pool.stats().expirations;
        self.pool.invalidate(&open_key(path));
        self.note_expirations(name, before);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::sdsc_remote_disk;
    use crate::resource::{share, SharedResource, StorageResource};
    use crate::{Front, RemoteDisk, StorageError};
    use msr_net::{share as share_net, LinkId, LinkSpec, Network, SharedNetwork};

    fn remote() -> (RemoteDisk, SharedNetwork) {
        let mut n = Network::new(7);
        let anl = n.add_site("ANL");
        let sdsc = n.add_site("SDSC");
        n.add_link(
            anl,
            sdsc,
            LinkSpec::ideal(SimDuration::from_millis(25.0), 4.0),
        );
        let net = share_net(n);
        (sdsc_remote_disk(net.clone(), anl, sdsc, 11), net)
    }

    fn wrap(ttl: f64) -> (SharedResource, KeepAliveHandle, Clock) {
        let clock = Clock::new();
        let mut front = Front::new(remote().0);
        let h = front.enable_keepalive(
            SimDuration::from_secs(ttl),
            clock.clone(),
            Recorder::disabled(),
        );
        (share(front), h, clock)
    }

    #[test]
    fn reconnect_within_ttl_is_free() {
        let (r, h, clock) = wrap(30.0);
        let mut r = r.lock();
        let first = r.connect().unwrap().time;
        assert!(first > SimDuration::ZERO, "cold connect pays setup");
        assert_eq!(r.disconnect().unwrap().time, SimDuration::ZERO);
        clock.advance(SimDuration::from_secs(5.0));
        assert_eq!(r.connect().unwrap().time, SimDuration::ZERO);
        assert_eq!(h.stats().conn_hits, 1);
    }

    #[test]
    fn lapsed_lease_pays_setup_and_settles_teardown() {
        let (r, h, clock) = wrap(10.0);
        let mut r = r.lock();
        let cold = r.connect().unwrap().time;
        r.disconnect().unwrap();
        clock.advance(SimDuration::from_secs(60.0));
        let again = r.connect().unwrap().time;
        // Setup is jittered per call; expired lease pays the same order of
        // magnitude as the cold connect, not zero.
        assert!(
            again.as_secs() > 0.5 * cold.as_secs(),
            "expired lease pays setup again"
        );
        assert_eq!(h.stats().conn_hits, 0);
        assert!(h.stats().expirations >= 1);
        assert!(h.deferred_teardown() > SimDuration::ZERO);
    }

    #[test]
    fn read_reopen_within_ttl_is_free_but_still_calls_inner() {
        let (r, _h, _clock) = wrap(30.0);
        let mut r = r.lock();
        r.connect().unwrap();
        let hw = r.open("f", OpenMode::Create).unwrap().value;
        r.write(hw, &[1u8; 4096]).unwrap();
        r.close(hw).unwrap();
        let opens_before = r.stats().opens;
        let c1 = r.open("f", OpenMode::Read).unwrap();
        assert!(c1.time > SimDuration::ZERO, "first read-open pays");
        r.close(c1.value).unwrap();
        let c2 = r.open("f", OpenMode::Read).unwrap();
        assert_eq!(c2.time, SimDuration::ZERO, "leased re-open is free");
        assert_eq!(
            r.stats().opens,
            opens_before + 2,
            "inner open ran both times"
        );
        let got = r.read(c2.value, 4096).unwrap().value;
        assert_eq!(got.len(), 4096, "leased handle is real");
        r.close(c2.value).unwrap();
    }

    #[test]
    fn write_invalidates_the_open_lease() {
        let (r, h, _clock) = wrap(30.0);
        let mut r = r.lock();
        r.connect().unwrap();
        let hw = r.open("f", OpenMode::Create).unwrap().value;
        r.write(hw, &[1u8; 64]).unwrap();
        r.close(hw).unwrap();
        let c1 = r.open("f", OpenMode::Read).unwrap();
        r.close(c1.value).unwrap();
        // Mutate the path: the read lease must die with it.
        let hw = r.open("f", OpenMode::OverWrite).unwrap().value;
        r.write(hw, &[2u8; 64]).unwrap();
        r.close(hw).unwrap();
        let c2 = r.open("f", OpenMode::Read).unwrap();
        assert!(c2.time > SimDuration::ZERO, "mutated path pays open again");
        r.close(c2.value).unwrap();
        assert_eq!(h.stats().open_hits, 0);
        assert!(h.stats().expirations >= 1);
    }

    #[test]
    fn drop_pooled_settles_on_next_call() {
        let (r, h, clock) = wrap(300.0);
        let mut r = r.lock();
        let cold = r.connect().unwrap().time;
        r.disconnect().unwrap();
        h.drop_pooled();
        clock.advance(SimDuration::from_secs(1.0));
        let again = r.connect().unwrap().time;
        assert!(
            again.as_secs() > 0.5 * cold.as_secs(),
            "tripped pool gives no warm connection"
        );
        assert_eq!(h.stats().conn_hits, 0);
        assert!(h.deferred_teardown() > SimDuration::ZERO);
    }

    #[test]
    fn warm_lease_connect_does_not_mask_an_outage() {
        let (bare, net) = remote();
        let mut front = Front::new(bare);
        let h = front.enable_keepalive(
            SimDuration::from_secs(300.0),
            Clock::new(),
            Recorder::disabled(),
        );
        front.connect().unwrap();
        front.disconnect().unwrap(); // parked: the lease is warm from here on
        front.set_online(false);
        assert!(matches!(front.connect(), Err(StorageError::Offline { .. })));
        front.set_online(true);
        net.write().set_link_up(LinkId::from_index(0), false);
        assert!(matches!(front.connect(), Err(StorageError::Network(_))));
        assert_eq!(h.stats().conn_hits, 0, "a refused connect is not a hit");
        net.write().set_link_up(LinkId::from_index(0), true);
        assert_eq!(front.connect().unwrap().time, SimDuration::ZERO);
        assert_eq!(h.stats().conn_hits, 1, "the lease survived the outage");
        assert_eq!(front.stats().connects, 1, "and no second setup was paid");
    }
}
