//! The lifecycle engine: deterministic, tick-driven tier management.
//!
//! Each [`LifecycleEngine::tick`] runs four passes over the catalog, in a
//! fixed order, entirely on the calling thread:
//!
//! 1. **Retention prune** — every dataset's dump history is planned by the
//!    configured [`RetentionPolicy`]; dumps outside every keep window are
//!    deleted from storage and their catalog rows dropped.
//! 2. **Demotion** — datasets idle for at least `demote_after` move *down*
//!    the ladder (local disk → remote disk → tape), coldest first, in one
//!    copy straight to the rung where they come to rest: the lowest tier
//!    below theirs whose device is online and whose breaker allows it.
//!    Idleness counts from the last access and a move does not reset it,
//!    so a one-rung step would be copied again on the next tick; with
//!    every device up a cold dataset goes straight to tape, and with tape
//!    down it rests on the remote disk until a later tick finds tape back.
//!    Each move is priced with [`MsrSystem::price`].
//! 3. **Promotion** — datasets whose heat counter crossed `promote_heat`
//!    within `promote_window` move one tier *up*, hottest first. A tape
//!    dataset's shelved volumes are recalled (each paying the tape's
//!    configured recall latency once) before the migration reads them.
//! 4. **Vaulting** — a tape volume ([`volume_of`]) goes to the vault once
//!    every dataset with dumps on it is on tape, not busy and idle for at
//!    least `vault_after`: the bytes stay on tape but every read fails
//!    with `StorageError::Vaulted` until a recall brings the volume back.
//!
//! Migrations execute through [`MsrSystem::migrate_dataset`], so they
//! respect circuit-breaker health, refuse offline or full destinations,
//! copy each dump's stored objects as they are and emit `migrate`
//! observability spans. Every decision is made from a single
//! catalog snapshot taken at the top of the tick and candidates are
//! ordered by `(recency, id)` — two ticks over the same state make the
//! same moves regardless of worker count, so scheduled runs with a
//! lifecycle attached stay bitwise reproducible at any `MSR_THREADS`.

use crate::policy::RetentionPolicy;
use msr_core::{MsrSystem, Volume};
use msr_meta::{AccessMode, DatasetRec, DumpState, Location, RunId};
use msr_obs::{ops, Layer};
use msr_runtime::{CallPlan, Distribution, IoStrategy};
use msr_sim::SimDuration;
use msr_storage::{
    volume_of, Cost, CostModel, Device, OpKind, OpenMode, SharedResource, StorageKind,
    StorageResult,
};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// The tier ladder, downwards: where cold data goes next.
pub fn tier_down(kind: StorageKind) -> Option<StorageKind> {
    match kind {
        StorageKind::LocalDisk => Some(StorageKind::RemoteDisk),
        StorageKind::RemoteDisk => Some(StorageKind::RemoteTape),
        StorageKind::RemoteTape => None,
    }
}

/// The tier ladder, upwards: where hot data goes next.
pub fn tier_up(kind: StorageKind) -> Option<StorageKind> {
    match kind {
        StorageKind::RemoteTape => Some(StorageKind::RemoteDisk),
        StorageKind::RemoteDisk => Some(StorageKind::LocalDisk),
        StorageKind::LocalDisk => None,
    }
}

/// Tuning knobs of the engine. All windows are *virtual* time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LifecycleConfig {
    /// Idle time after which a dataset is demoted, straight to the lowest
    /// tier below its own that is online and allowed by its breaker.
    pub demote_after: SimDuration,
    /// Accesses (since the last promotion or heat reset) that make a
    /// dataset promotion-eligible.
    pub promote_heat: u64,
    /// A promotion candidate's last access must fall within this window —
    /// heat without recency is history, not demand.
    pub promote_window: SimDuration,
    /// Idle time after which a tape-resident dataset's volume may move to
    /// the vault.
    pub vault_after: SimDuration,
    /// Migration budget per tick (demotions + promotions). Pruning,
    /// vaulting and recalls are not counted — they move no bytes between
    /// resources.
    pub max_moves_per_tick: u32,
    /// Dump-history retention, planned per dataset every tick.
    pub retention: RetentionPolicy,
}

impl Default for LifecycleConfig {
    fn default() -> Self {
        LifecycleConfig {
            demote_after: SimDuration::from_secs(600.0),
            promote_heat: 3,
            promote_window: SimDuration::from_secs(300.0),
            vault_after: SimDuration::from_secs(3600.0),
            max_moves_per_tick: 4,
            retention: RetentionPolicy::keep_all(),
        }
    }
}

/// One executed migration (demotion or promotion).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MoveRec {
    /// Owning run.
    pub run: u64,
    /// Dataset name.
    pub dataset: String,
    /// Source tier.
    pub from: StorageKind,
    /// Destination tier.
    pub to: StorageKind,
    /// Dumps moved.
    pub files: u32,
    /// Payload bytes moved.
    pub bytes: u64,
    /// eq. (2) price at decision time, seconds: per-dump estimate × dump
    /// count, plus the mount of the destination volume when no drive holds
    /// it. A move runs at the tick on the global clock and never waits
    /// behind the scheduler's queues, so no queue depth enters the price.
    pub predicted_secs: f64,
    /// What the migration actually took, virtual seconds.
    pub actual_secs: f64,
}

/// What one tick did.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TickReport {
    /// Stored datasets examined (busy and disabled ones excluded).
    pub scanned: u64,
    /// Datasets skipped because their run is currently admitted.
    pub skipped_busy: u64,
    /// Dump files pruned from storage and catalog.
    pub pruned_files: u64,
    /// Bytes those files held.
    pub pruned_bytes: u64,
    /// Cold datasets moved down, each in one copy to the rung where it
    /// comes to rest.
    pub demotions: Vec<MoveRec>,
    /// Hot datasets moved one tier up.
    pub promotions: Vec<MoveRec>,
    /// Dump rows on the volumes moved to the tape vault.
    pub vaulted: u64,
    /// Dump rows on the volumes recalled (each volume paying the tape's
    /// recall latency once).
    pub recalls: u64,
    /// Vaulted dump rows on volumes whose recall failed (outage, fault
    /// injection); the owning promotion is abandoned for this tick, never
    /// retried in a loop.
    pub recall_failures: u64,
}

impl TickReport {
    /// Migrations executed this tick.
    pub fn moves(&self) -> usize {
        self.demotions.len() + self.promotions.len()
    }
}

/// Running totals across ticks — what a scheduler folds into its report.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct TickTotals {
    /// Ticks executed.
    pub ticks: u64,
    /// Demotions across all ticks.
    pub demotions: u64,
    /// Promotions across all ticks.
    pub promotions: u64,
    /// Dump files pruned.
    pub pruned_files: u64,
    /// Bytes pruned.
    pub pruned_bytes: u64,
    /// Dumps vaulted.
    pub vaulted: u64,
    /// Dumps recalled.
    pub recalls: u64,
    /// Failed recalls.
    pub recall_failures: u64,
}

impl TickTotals {
    /// Fold another accumulator in (e.g. per-epoch scheduler totals into
    /// a whole-experiment ledger).
    pub fn merge(&mut self, other: &TickTotals) {
        self.ticks += other.ticks;
        self.demotions += other.demotions;
        self.promotions += other.promotions;
        self.pruned_files += other.pruned_files;
        self.pruned_bytes += other.pruned_bytes;
        self.vaulted += other.vaulted;
        self.recalls += other.recalls;
        self.recall_failures += other.recall_failures;
    }

    /// Fold one tick's report in.
    pub fn absorb(&mut self, t: &TickReport) {
        self.ticks += 1;
        self.demotions += t.demotions.len() as u64;
        self.promotions += t.promotions.len() as u64;
        self.pruned_files += t.pruned_files;
        self.pruned_bytes += t.pruned_bytes;
        self.vaulted += t.vaulted;
        self.recalls += t.recalls;
        self.recall_failures += t.recall_failures;
    }
}

/// The engine. Stateless between ticks — every decision re-derives from
/// the catalog, so it can be shared, rebuilt or attached to a scheduler
/// freely.
#[derive(Debug, Clone)]
pub struct LifecycleEngine {
    cfg: LifecycleConfig,
}

impl Default for LifecycleEngine {
    fn default() -> Self {
        LifecycleEngine::new(LifecycleConfig::default())
    }
}

impl LifecycleEngine {
    /// An engine over `cfg`.
    pub fn new(cfg: LifecycleConfig) -> LifecycleEngine {
        LifecycleEngine { cfg }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &LifecycleConfig {
        &self.cfg
    }

    /// One full lifecycle pass over `sys`.
    pub fn tick(&self, sys: &MsrSystem) -> TickReport {
        self.tick_excluding(sys, &BTreeSet::new())
    }

    /// One full pass, skipping datasets owned by `busy` runs (a scheduler
    /// passes its admitted runs so in-flight data is never moved under a
    /// queued request).
    pub fn tick_excluding(&self, sys: &MsrSystem, busy: &BTreeSet<RunId>) -> TickReport {
        let mut report = TickReport::default();
        let all = sys.catalog.lock().all_datasets();
        let mut live: Vec<&DatasetRec> = Vec::new();
        for d in &all {
            if busy.contains(&d.run) {
                report.skipped_busy += 1;
                continue;
            }
            if let Location::Stored(_) = d.location {
                report.scanned += 1;
                live.push(d);
            }
        }
        let mut moves_left = self.cfg.max_moves_per_tick;
        self.prune(sys, &live, &mut report);
        self.demote(sys, &live, &mut moves_left, &mut report);
        self.promote(sys, &live, &mut moves_left, &mut report);
        self.vault_cold(sys, &all, busy, &mut report);

        let rec = sys.obs_recorder();
        if rec.enabled() {
            rec.instant(
                Layer::Meta,
                "lifecycle",
                ops::LIFECYCLE_TICK,
                sys.clock.now(),
                &format!(
                    "scanned {}, pruned {}, demoted {}, promoted {}, vaulted {}, recalled {}",
                    report.scanned,
                    report.pruned_files,
                    report.demotions.len(),
                    report.promotions.len(),
                    report.vaulted,
                    report.recalls
                ),
            );
        }
        report
    }

    /// Recall every shelved volume holding a dump of `(run, name)` so its
    /// data is readable again, charging each volume's recall latency once
    /// to the global clock. Returns the number of dump rows recalled —
    /// every row on those volumes, other datasets' too — or the failure's
    /// description. The explicit entry point for consumers that need
    /// vaulted data *now* rather than waiting for a promotion tick.
    pub fn recall_dataset(&self, sys: &MsrSystem, run: RunId, name: &str) -> Result<u64, String> {
        let Some(d) = sys
            .catalog
            .lock()
            .all_datasets()
            .into_iter()
            .find(|d| d.run == run && d.name == name)
        else {
            return Err(format!("no dataset {name} in run{}", run.0));
        };
        let mut report = TickReport::default();
        if self.recall_volumes(sys, &d, &mut report) {
            Ok(report.recalls)
        } else {
            Err(format!(
                "{} of {} vaulted dumps failed to recall",
                report.recall_failures,
                report.recall_failures + report.recalls
            ))
        }
    }

    // ---- passes ------------------------------------------------------------

    fn prune(&self, sys: &MsrSystem, live: &[&DatasetRec], report: &mut TickReport) {
        if !self.cfg.retention.is_active() {
            return;
        }
        let rec = sys.obs_recorder();
        for d in live {
            // OverWrite datasets rewrite one file in place: there is no
            // history to thin.
            if d.amode != AccessMode::Create {
                continue;
            }
            let Location::Stored(kind) = d.location else {
                continue;
            };
            let dumps = sys.catalog.lock().dumps_of(d.id);
            let removals = self.cfg.retention.prune_list(&dumps);
            if removals.is_empty() {
                continue;
            }
            let Some(res) = sys.resource(kind) else {
                continue;
            };
            // Remote deletes need a live connection; connecting is
            // idempotent and free when one is already up.
            if let Ok(cost) = res.lock().connect() {
                sys.clock.advance(cost.time);
            }
            for iter in removals {
                // Tolerate a file that is already gone (failover may have
                // scattered dumps); refuse to touch bookkeeping while the
                // resource is unreachable.
                // Chunk-plane aware: a chunked dump's delete releases its
                // store references and garbage-collects frames no other
                // dump shares; raw dumps take the plain delete path.
                let gone = match sys.engine.delete_dump(&res, &d.dump_file(iter)) {
                    Ok(cost) => {
                        sys.clock.advance(cost.time);
                        true
                    }
                    Err(msr_runtime::RuntimeError::Storage(
                        msr_storage::StorageError::NotFound(_),
                    )) => true,
                    Err(_) => false,
                };
                if !gone {
                    continue;
                }
                let bytes = dumps
                    .iter()
                    .find(|x| x.iter == iter)
                    .map(|x| x.bytes)
                    .unwrap_or(0);
                if sys.catalog.lock().remove_dump(d.id, iter) {
                    report.pruned_files += 1;
                    report.pruned_bytes += bytes;
                    if rec.enabled() {
                        rec.count(Layer::Meta, "lifecycle", ops::PRUNE, sys.clock.now(), 1.0);
                    }
                }
            }
        }
    }

    fn demote(
        &self,
        sys: &MsrSystem,
        live: &[&DatasetRec],
        moves_left: &mut u32,
        report: &mut TickReport,
    ) {
        let now = sys.clock.now().as_secs();
        let mut cands: Vec<&DatasetRec> = live
            .iter()
            .copied()
            .filter(|d| {
                let Location::Stored(kind) = d.location else {
                    return false;
                };
                tier_down(kind).is_some()
                    && now - d.last_access_secs >= self.cfg.demote_after.as_secs()
            })
            .collect();
        cands.sort_by(|a, b| {
            a.last_access_secs
                .total_cmp(&b.last_access_secs)
                .then(a.id.cmp(&b.id))
        });
        for d in cands {
            if *moves_left == 0 {
                return;
            }
            let Location::Stored(from) = d.location else {
                continue;
            };
            let Some(to) = resting_rung(sys, from) else {
                continue;
            };
            if let Some(m) = self.migrate(sys, d, from, to) {
                *moves_left -= 1;
                report.demotions.push(m);
            }
        }
    }

    fn promote(
        &self,
        sys: &MsrSystem,
        live: &[&DatasetRec],
        moves_left: &mut u32,
        report: &mut TickReport,
    ) {
        let now = sys.clock.now().as_secs();
        let mut cands: Vec<&DatasetRec> = live
            .iter()
            .copied()
            .filter(|d| {
                let Location::Stored(kind) = d.location else {
                    return false;
                };
                tier_up(kind).is_some()
                    && d.heat >= self.cfg.promote_heat
                    && now - d.last_access_secs <= self.cfg.promote_window.as_secs()
            })
            .collect();
        cands.sort_by(|a, b| b.heat.cmp(&a.heat).then(a.id.cmp(&b.id)));
        for d in cands {
            if *moves_left == 0 {
                return;
            }
            let Location::Stored(from) = d.location else {
                continue;
            };
            let to = tier_up(from).expect("filtered to promotable tiers");
            // A migration reads every dump; shelved volumes must be
            // recalled first. A failed recall (outage) abandons this
            // candidate for the tick — degrade, never wedge.
            if from == StorageKind::RemoteTape && !self.recall_volumes(sys, d, report) {
                continue;
            }
            if let Some(m) = self.migrate(sys, d, from, to) {
                *moves_left -= 1;
                sys.catalog.lock().reset_heat(d.id);
                report.promotions.push(m);
            }
        }
    }

    /// Shelve each tape volume whose datasets are all on tape, not busy
    /// and idle past `vault_after`, with one vault per volume. A dataset
    /// stored elsewhere whose base path is on the volume keeps it on-site:
    /// its dumps would land there when it is demoted.
    fn vault_cold(
        &self,
        sys: &MsrSystem,
        all: &[DatasetRec],
        busy: &BTreeSet<RunId>,
        report: &mut TickReport,
    ) {
        let Some(res) = sys.resource(StorageKind::RemoteTape) else {
            return;
        };
        let now = sys.clock.now().as_secs();
        let cold = |d: &DatasetRec| {
            d.location == Location::Stored(StorageKind::RemoteTape)
                && !busy.contains(&d.run)
                && now - d.last_access_secs >= self.cfg.vault_after.as_secs()
        };
        let candidates: Vec<&DatasetRec> = all.iter().filter(|d| cold(d)).collect();
        let volumes = tape_rows(sys, &candidates, DumpState::Resident);
        if volumes.is_empty() {
            return;
        }
        let held: BTreeSet<&str> = all
            .iter()
            .filter(|d| matches!(d.location, Location::Stored(_)) && !cold(d))
            .map(|d| volume_of(&d.path))
            .collect();
        for (volume, rows) in volumes {
            if held.contains(volume.as_str()) {
                continue;
            }
            // An offline tape or a volume whose files are gone leaves the
            // dumps resident; the next tick retries.
            let vaulted = on_volume(sys, &res, &rows, Device::vault, DumpState::Vaulted);
            report.vaulted += vaulted.unwrap_or(0);
        }
    }

    // ---- helpers -----------------------------------------------------------

    /// Recall every shelved volume holding a vaulted dump of `d`, and mark
    /// every vaulted dump row on each recalled volume resident. Returns
    /// whether all recalls succeeded.
    fn recall_volumes(&self, sys: &MsrSystem, d: &DatasetRec, report: &mut TickReport) -> bool {
        let Some(res) = sys.resource(StorageKind::RemoteTape) else {
            return false;
        };
        let shelved = tape_rows(sys, &[d], DumpState::Vaulted);
        if shelved.is_empty() {
            return true;
        }
        // Recalls need a live connection; best-effort — if the tape is
        // down the recalls below fail and are counted.
        if let Ok(cost) = res.lock().connect() {
            sys.clock.advance(cost.time);
        }
        let all = sys.catalog.lock().all_datasets();
        let all: Vec<&DatasetRec> = all.iter().collect();
        let mut all_ok = true;
        for (volume, rows) in tape_rows(sys, &all, DumpState::Vaulted) {
            if !shelved.contains_key(&volume) {
                continue;
            }
            match on_volume(sys, &res, &rows, Device::recall, DumpState::Resident) {
                Some(n) => report.recalls += n,
                None => {
                    report.recall_failures += rows.len() as u64;
                    all_ok = false;
                }
            }
        }
        all_ok
    }

    /// Price one candidate migration — [`MsrSystem::price`] per dump plus
    /// the destination's mount — then execute it through the system's
    /// staging path. `None` when the move was refused (breaker open,
    /// destination offline or full, mid-stream fault) — the dataset stays
    /// where it is and the next tick reconsiders.
    fn migrate(
        &self,
        sys: &MsrSystem,
        d: &DatasetRec,
        from: StorageKind,
        to: StorageKind,
    ) -> Option<MoveRec> {
        if !reachable(sys, to) {
            return None;
        }
        let dumps = sys.catalog.lock().dumps_of(d.id).len().max(1) as f64;
        let (per_dump, mount) = self.estimate_dump(sys, d, to);
        let predicted_secs = per_dump * dumps + mount;
        match sys.migrate_dataset(d.run, &d.name, to) {
            Ok(m) => Some(MoveRec {
                run: d.run.0,
                dataset: d.name.clone(),
                from,
                to,
                files: m.files,
                bytes: m.bytes,
                predicted_secs,
                actual_secs: m.total_time().as_secs(),
            }),
            Err(_) => None,
        }
    }

    /// [`MsrSystem::price`] of the copy a move makes of one dump onto
    /// `to`, seconds: a collective write of the dump's bytes on one
    /// process, on a volume the move's first copy has mounted. Paired with
    /// the mount that first copy pays, if the dataset's volume is on no
    /// drive of `to`.
    fn estimate_dump(&self, sys: &MsrSystem, d: &DatasetRec, to: StorageKind) -> (f64, f64) {
        let dist = Distribution::whole(d.snapshot_bytes());
        let plan = CallPlan::write(IoStrategy::Collective, OpenMode::Create, dist);
        let per_dump = sys.price(to, &d.name, Volume::Mounted, &plan);
        let mount = sys.mount_price(to, OpKind::Write, Volume::Of(&d.path));
        (per_dump.as_secs(), mount.as_secs())
    }
}

/// Whether a move may land on `kind`: its breaker allows it and its device
/// is online.
fn reachable(sys: &MsrSystem, kind: StorageKind) -> bool {
    sys.health.allows(kind) && sys.resource(kind).is_some_and(|r| r.lock().is_online())
}

/// The rung a cold dataset on `kind` comes to rest on: the lowest tier
/// below `kind` that is [`reachable`], or `None` when none is.
fn resting_rung(sys: &MsrSystem, kind: StorageKind) -> Option<StorageKind> {
    let below: Vec<StorageKind> =
        std::iter::successors(tier_down(kind), |&k| tier_down(k)).collect();
    below.into_iter().rev().find(|&k| reachable(sys, k))
}

/// The dump rows in `state` of the tape-resident datasets among
/// `datasets`, grouped by the tape volume each dump's file is on
/// ([`volume_of`]).
fn tape_rows<'a>(
    sys: &MsrSystem,
    datasets: &[&'a DatasetRec],
    state: DumpState,
) -> BTreeMap<String, Vec<(&'a DatasetRec, u32)>> {
    let mut volumes: BTreeMap<String, Vec<_>> = BTreeMap::new();
    for &d in datasets {
        if d.location != Location::Stored(StorageKind::RemoteTape) {
            continue;
        }
        for dump in sys.catalog.lock().dumps_of(d.id) {
            if dump.state != state {
                continue;
            }
            let file = d.dump_file(dump.iter);
            let volume = volumes.entry(volume_of(&file).to_owned()).or_default();
            volume.push((d, dump.iter));
        }
    }
    volumes
}

/// `call` ([`Device::vault`] or [`Device::recall`]) on the volume of
/// `rows`, named by the first of their stored objects the tape still
/// holds; on success the clock pays its time and every row turns `state`.
/// Returns how many rows turned, or `None` when the call failed or no
/// object is left to name the volume.
fn on_volume(
    sys: &MsrSystem,
    res: &SharedResource,
    rows: &[(&DatasetRec, u32)],
    call: fn(&mut Device<dyn CostModel>, &str) -> StorageResult<Cost<()>>,
    state: DumpState,
) -> Option<u64> {
    let cost = {
        let mut r = res.lock();
        let object = rows.iter().find_map(|(d, iter)| {
            let objects = sys.engine.dump_objects(&r, &d.dump_file(*iter));
            objects.into_iter().next()
        })?;
        call(&mut r, &object).ok()?.time
    };
    sys.clock.advance(cost);
    let mut catalog = sys.catalog.lock();
    let turned = rows
        .iter()
        .filter(|(d, iter)| catalog.set_dump_state(d.id, *iter, state))
        .count();
    drop(catalog);
    let rec = sys.obs_recorder();
    if rec.enabled() {
        let op = match state {
            DumpState::Vaulted => ops::VAULT,
            DumpState::Resident => ops::RECALL,
        };
        rec.count(Layer::Meta, "lifecycle", op, sys.clock.now(), turned as f64);
    }
    Some(turned as u64)
}
