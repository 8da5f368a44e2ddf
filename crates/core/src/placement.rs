//! Placement policies: turning hints into storage resources.

use crate::dataset::DatasetSpec;
use crate::error::CoreError;
use crate::hints::LocationHint;
use crate::system::{MsrSystem, Volume};
use crate::CoreResult;
use msr_runtime::Distribution;
use msr_sim::SimDuration;
use msr_storage::{OpKind, StorageKind};
use serde::{Deserialize, Serialize};

/// How AUTO hints (and failover re-placements) are resolved.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum PlacementPolicy {
    /// The paper's behaviour: honour pinned hints, route AUTO by the
    /// dataset's declared future use (the default future use archives to
    /// tape — "Default is remote tapes").
    #[default]
    Hinted,
    /// The §7 future-work policy: the user states only a performance
    /// requirement; the system consults the performance predictor and
    /// chooses, among resources meeting the per-dump deadline, the one
    /// with the most available capacity (falling back to the fastest
    /// usable resource when nothing meets the deadline).
    PerformanceTarget {
        /// Maximum acceptable predicted time for one dump.
        per_dump: SimDuration,
    },
}

/// Whether `kind` can accept `bytes` more data right now. Consults the
/// resource itself *and* its circuit breaker: a resource whose breaker is
/// open looks online at the native layer but has been failing repeatedly,
/// so placement routes around it until the cooldown admits a probe.
fn usable(sys: &MsrSystem, kind: StorageKind, bytes: u64) -> bool {
    sys.health.allows(kind)
        && sys.resource(kind).is_some_and(|res| {
            let r = res.lock();
            r.is_online() && r.available_bytes() >= bytes
        })
}

/// Resolve a dataset's initial placement. Returns `None` for DISABLE.
/// `volume` is where the dataset's dumps would land, for the mount a
/// scored price charges ([`MsrSystem::price`]).
pub fn resolve(
    sys: &MsrSystem,
    spec: &DatasetSpec,
    dist: &Distribution,
    run_bytes: u64,
    volume: Volume<'_>,
) -> CoreResult<Option<StorageKind>> {
    if spec.hint == LocationHint::Disable || spec.frequency == 0 {
        return Ok(None);
    }
    // A pinned hint wins when the resource is usable.
    if let Some(kind) = spec.hint.pinned_kind() {
        if usable(sys, kind, run_bytes) {
            return Ok(Some(kind));
        }
    }
    match sys.policy() {
        PlacementPolicy::Hinted => {
            if spec.hint == LocationHint::Auto {
                if let Some(kind) = by_score(sys, spec, dist, run_bytes, volume) {
                    return Ok(Some(kind));
                }
            }
            fallback(sys, spec, run_bytes, None).map(Some)
        }
        PlacementPolicy::PerformanceTarget { per_dump } => {
            by_performance(sys, spec, dist, run_bytes, per_dump, volume)
        }
    }
}

/// The prediction-scored AUTO resolver: rank every registered resource by
/// its eq. (2) predicted per-dump time inflated by the resource's live
/// admission-queue depth (`predicted × (depth + 1)`), and take the
/// minimum. Ties break toward the dataset's static preference order, so
/// scored placement is deterministic.
///
/// Each price is [`MsrSystem::price`], which always answers — from a
/// measured database row, else the resource's own model — and scales the
/// access by the chunk plane's learned per-dataset ratio (a bitwise no-op
/// at 1.0). Returns `None` — degrade to the static [`fallback`] order —
/// only when the winning resource is not currently usable (offline, full,
/// or its circuit breaker is open).
fn by_score(
    sys: &MsrSystem,
    spec: &DatasetSpec,
    dist: &Distribution,
    run_bytes: u64,
    volume: Volume<'_>,
) -> Option<StorageKind> {
    let mut best: Option<(StorageKind, SimDuration)> = None;
    // Walking the preference order makes it the tie-break: a later kind
    // must be strictly faster to displace an earlier one.
    for kind in spec.future_use.preference() {
        let price = sys.price(kind, &spec.name, volume, &spec.plan(OpKind::Write, *dist));
        let score = price * (sys.load.depth(kind) as f64 + 1.0);
        if best.is_none_or(|(_, b)| score < b) {
            best = Some((kind, score));
        }
    }
    let (kind, _) = best?;
    usable(sys, kind, run_bytes).then_some(kind)
}

/// The failover resolver: first usable kind in the dataset's preference
/// order, skipping `exclude` (the resource that just failed).
pub fn fallback(
    sys: &MsrSystem,
    spec: &DatasetSpec,
    run_bytes: u64,
    exclude: Option<StorageKind>,
) -> CoreResult<StorageKind> {
    for kind in spec.future_use.preference() {
        if Some(kind) == exclude {
            continue;
        }
        if usable(sys, kind, run_bytes) {
            return Ok(kind);
        }
    }
    Err(CoreError::NoUsableResource {
        dataset: spec.name.clone(),
        bytes: run_bytes,
    })
}

/// The §7 predictor-driven resolver.
fn by_performance(
    sys: &MsrSystem,
    spec: &DatasetSpec,
    dist: &Distribution,
    run_bytes: u64,
    per_dump: SimDuration,
    volume: Volume<'_>,
) -> CoreResult<Option<StorageKind>> {
    let mut meeting: Vec<(StorageKind, u64)> = Vec::new();
    let mut fastest: Option<(StorageKind, SimDuration)> = None;
    for kind in [
        StorageKind::LocalDisk,
        StorageKind::RemoteDisk,
        StorageKind::RemoteTape,
    ] {
        if !usable(sys, kind, run_bytes) {
            continue;
        }
        let t = sys.price(kind, &spec.name, volume, &spec.plan(OpKind::Write, *dist));
        if fastest.is_none_or(|(_, best)| t < best) {
            fastest = Some((kind, t));
        }
        if t <= per_dump {
            let avail = sys
                .resource(kind)
                .map(|r| r.lock().available_bytes())
                .unwrap_or(0);
            meeting.push((kind, avail));
        }
    }
    if let Some(&(kind, _)) = meeting.iter().max_by_key(|&&(_, avail)| avail) {
        return Ok(Some(kind));
    }
    if let Some((kind, _)) = fastest {
        return Ok(Some(kind));
    }
    Err(CoreError::NoUsableResource {
        dataset: spec.name.clone(),
        bytes: run_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hints::FutureUse;
    use crate::tenant::TenantId;
    use msr_meta::ElementType;
    use msr_predict::{plan_time, Learned, PTool, ResourceProfile};
    use msr_runtime::ProcGrid;

    fn auto_spec(future_use: FutureUse) -> DatasetSpec {
        DatasetSpec::builder("x")
            .element(ElementType::U8)
            .cube(32)
            .future_use(future_use)
            .build()
    }

    fn dist_of(spec: &DatasetSpec) -> Distribution {
        Distribution::new(
            spec.dims,
            spec.etype.size(),
            spec.pattern,
            ProcGrid::new(1, 1, 1),
        )
        .unwrap()
    }

    fn populated_system(seed: u64) -> MsrSystem {
        let mut sys = MsrSystem::testbed(seed);
        sys.run_ptool(&PTool {
            sizes: vec![1 << 14, 1 << 18, 1 << 21],
            reps: 2,
            scratch_prefix: "ptool/p".into(),
        })
        .unwrap();
        sys
    }

    /// AUTO ignores the static archive order (tape first) and lands on the
    /// resource with the minimum eq. (2) predicted per-dump time: priced
    /// from the resources' own models on a fresh testbed, and from the
    /// measured rows after a PTool sweep.
    #[test]
    fn scored_auto_lands_on_min_predicted_time_resource() {
        for swept in [false, true] {
            let sys = if swept {
                populated_system(11)
            } else {
                MsrSystem::testbed(11)
            };
            assert_eq!(sys.perf_db().is_empty(), !swept);
            let spec = auto_spec(FutureUse::Archive);
            let dist = dist_of(&spec);
            let plan = spec.plan(OpKind::Write, dist);
            // Independently compute the argmin over all kinds.
            let expect = [
                StorageKind::LocalDisk,
                StorageKind::RemoteDisk,
                StorageKind::RemoteTape,
            ]
            .into_iter()
            .map(|k| {
                let res = sys.resource(k).unwrap();
                let r = res.lock();
                let rows = [OpKind::Read, OpKind::Write].map(|op| {
                    let row = sys.perf_db().get(r.name(), op).cloned();
                    row.unwrap_or_else(|_| ResourceProfile::of_model(&*r, op))
                });
                let row = |op| &rows[usize::from(op == OpKind::Write)];
                (k, plan_time(&plan, row, Learned::default()))
            })
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap()
            .0;
            let got = resolve(&sys, &spec, &dist, spec.run_bytes(12), Volume::Fresh).unwrap();
            assert_eq!(got, Some(expect), "swept={swept}");
            assert_ne!(
                Some(StorageKind::RemoteTape),
                got,
                "tape (the static archive default) is not the fastest medium (swept={swept})"
            );
        }
    }

    /// Queue depth inflates a resource's score: pile enough load on the
    /// predicted winner and AUTO routes around it.
    #[test]
    fn scored_auto_routes_around_deep_queues() {
        let sys = populated_system(11);
        let spec = auto_spec(FutureUse::Visualization);
        let dist = dist_of(&spec);
        let unloaded = resolve(&sys, &spec, &dist, spec.run_bytes(12), Volume::Fresh)
            .unwrap()
            .unwrap();
        for _ in 0..10_000 {
            sys.load.enqueue(unloaded, TenantId(0), 0.0);
        }
        let loaded = resolve(&sys, &spec, &dist, spec.run_bytes(12), Volume::Fresh)
            .unwrap()
            .unwrap();
        assert_ne!(
            loaded, unloaded,
            "a 10000-deep queue outweighs any speed edge"
        );
    }

    /// When the scored winner's circuit is open, placement degrades to the
    /// static fallback order instead of queueing on a failing resource.
    #[test]
    fn scored_auto_degrades_to_static_order_when_winner_circuit_open() {
        let sys = populated_system(11);
        let spec = auto_spec(FutureUse::Archive);
        let dist = dist_of(&spec);
        let winner = resolve(&sys, &spec, &dist, spec.run_bytes(12), Volume::Fresh)
            .unwrap()
            .unwrap();
        // Trip the winner's breaker.
        while sys.health.allows(winner) {
            sys.health.record_failure(winner);
        }
        let got = resolve(&sys, &spec, &dist, spec.run_bytes(12), Volume::Fresh)
            .unwrap()
            .unwrap();
        let static_choice = spec
            .future_use
            .preference()
            .into_iter()
            .find(|&k| k != winner)
            .unwrap();
        assert_eq!(got, static_choice);
    }
}
