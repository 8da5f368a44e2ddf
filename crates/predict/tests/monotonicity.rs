//! Property tests for eq. (2)'s outer sum over a run: predicted run time
//! must be monotone in the knobs the user can turn — non-decreasing in the
//! iteration count and non-increasing in the dump frequency (dumping less
//! often can never cost more).
//!
//! Deterministic seeded sweeps stand in for a property-testing harness
//! (the offline build cannot pull one in).

use msr_predict::{plan_time, Learned, PredictionRow, ResourceProfile};
use msr_runtime::{CallPlan, Dims3, Distribution, IoStrategy, Pattern, ProcGrid};
use msr_sim::SimDuration;
use msr_storage::{FixedCosts, OpenMode, StorageKind};
use rand::{Rng, SeedableRng, StdRng};

const CASES: u64 = 64;

/// A randomized but well-formed profile: positive fixed costs and a
/// strictly increasing transfer curve.
fn rand_profile(rng: &mut StdRng) -> ResourceProfile {
    let rate_s_per_mb = rng.random_range(0.05f64..5.0);
    let base = 1u64 << rng.random_range(18u32..21);
    ResourceProfile {
        kind: StorageKind::RemoteDisk,
        fixed: FixedCosts {
            conn: SimDuration::from_secs(rng.random_range(0.0f64..1.0)),
            open: SimDuration::from_secs(rng.random_range(0.0f64..1.0)),
            seek: SimDuration::from_secs(rng.random_range(0.0f64..0.5)),
            close: SimDuration::from_secs(rng.random_range(0.0f64..1.0)),
            connclose: SimDuration::from_secs(rng.random_range(0.0f64..0.1)),
            mount: SimDuration::ZERO,
        },
        samples: (0..4)
            .map(|i| {
                let bytes = base << i;
                (bytes, bytes as f64 / (1 << 20) as f64 * rate_s_per_mb)
            })
            .collect(),
    }
}

/// One dataset's dump: the calls its strategy makes.
fn rand_plan(rng: &mut StdRng) -> CallPlan {
    let grid = ProcGrid::new(
        rng.random_range(1u32..=2),
        rng.random_range(1u32..=2),
        rng.random_range(1u32..=2),
    );
    let dims = Dims3::cube(1 << rng.random_range(4u64..=6));
    let strategy = match rng.random_range(0u32..4) {
        0 => IoStrategy::Naive,
        1 => IoStrategy::DataSieving,
        2 => IoStrategy::Collective,
        _ => IoStrategy::Subfile,
    };
    let dist = Distribution::new(dims, 4, Pattern::bbb(), grid).unwrap();
    CallPlan::write(strategy, OpenMode::Create, dist)
}

/// The run's predicted total: `plan` dumped every `frequency` of
/// `iterations` on `profile`.
fn total(profile: &ResourceProfile, iterations: u32, frequency: u32, plan: &CallPlan) -> f64 {
    let per_dump = plan_time(plan, |_| profile, Learned::default());
    let calls = plan.transfers();
    let resource = Some("r".to_owned());
    PredictionRow::new("d", resource, iterations, frequency, calls, per_dump)
        .total
        .as_secs()
}

#[test]
fn prediction_is_monotone_in_iteration_count() {
    let mut rng = StdRng::seed_from_u64(0xEC2A);
    for _ in 0..CASES {
        let profile = rand_profile(&mut rng);
        let freq = rng.random_range(1u32..=12);
        let plan = rand_plan(&mut rng);
        let mut prev = -1.0f64;
        let base = rng.random_range(1u32..=30);
        for n in [base, base * 2, base * 4, base * 8] {
            let t = total(&profile, n, freq, &plan);
            assert!(
                t >= prev,
                "more iterations predicted cheaper: N={n} gives {t}, prev {prev} (freq {freq}, {plan:?})"
            );
            prev = t;
        }
    }
}

#[test]
fn prediction_is_monotone_in_dump_frequency() {
    let mut rng = StdRng::seed_from_u64(0xF2E0);
    for _ in 0..CASES {
        let profile = rand_profile(&mut rng);
        let iterations = rng.random_range(24u32..=240);
        let plan = rand_plan(&mut rng);
        let mut prev = f64::INFINITY;
        for freq in [1u32, 2, 4, 8, 16, 32] {
            let t = total(&profile, iterations, freq, &plan);
            assert!(
                t <= prev,
                "dumping less often predicted dearer: freq={freq} gives {t}, prev {prev}"
            );
            prev = t;
        }
    }
}
