//! Instrumentation overhead: the same engine write against a bare resource,
//! an observed resource with tracing live, and an observed resource whose
//! recorder is disabled.
//!
//! Two workloads:
//!
//! * `collective_1MiB` — the representative case. Collective two-phase I/O
//!   (the paper's default strategy) issues a handful of large native calls
//!   per dump, so the per-event cost is amortised over real work. This is
//!   where the ≤5% tracing-overhead bar applies; a disabled recorder should
//!   be indistinguishable from bare (and with `msr-obs` built without the
//!   `record` feature the instrumentation compiles out entirely).
//! * `naive_tiny_calls` — a deliberate stress case: naive strategy on a
//!   small cube generates thousands of 16-byte native calls, so the event
//!   stream dwarfs the payload work. It bounds the absolute per-event cost,
//!   not the representative overhead.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use msr_obs::{Recorder, Registry};
use msr_runtime::{Dims3, Distribution, IoEngine, IoStrategy, Pattern, ProcGrid};
use msr_sim::Clock;
use msr_storage::{share, DiskParams, Front, LocalDisk, OpenMode, SharedResource};

fn disk() -> LocalDisk {
    LocalDisk::new("b", DiskParams::simple(100.0, 1 << 30), 0)
}

fn cases(registry: &Registry, clock: &Clock) -> Vec<(&'static str, SharedResource)> {
    vec![
        ("bare", share(disk())),
        (
            "traced",
            share(Front::new(disk()).observed(registry.recorder(), clock.clone())),
        ),
        (
            "disabled",
            share(Front::new(disk()).observed(Recorder::disabled(), clock.clone())),
        ),
    ]
}

fn bench_write(c: &mut Criterion, group_name: &str, dist: Distribution, strategy: IoStrategy) {
    let mut group = c.benchmark_group(group_name);
    let data: Vec<u8> = (0..dist.total_bytes()).map(|i| (i % 251) as u8).collect();
    group.throughput(Throughput::Bytes(dist.total_bytes()));

    let registry = Registry::new();
    let clock = Clock::new();
    for (name, res) in cases(&registry, &clock) {
        group.bench_with_input(BenchmarkId::from_parameter(name), &res, |b, res| {
            let engine = IoEngine::default();
            b.iter(|| {
                engine
                    .write(res, "d", &data, &dist, strategy, OpenMode::Create)
                    .expect("write")
            });
            // Keep the registry from growing without bound across samples.
            registry.clear();
        });
    }
    group.finish();
}

fn bench_obs_overhead(c: &mut Criterion) {
    // Representative: one collective dump of a 1 MiB field across 8 procs.
    bench_write(
        c,
        "obs_overhead/collective_1MiB",
        Distribution::new(Dims3::cube(64), 4, Pattern::bbb(), ProcGrid::new(2, 2, 2))
            .expect("valid distribution"),
        IoStrategy::Collective,
    );
    // Stress: thousands of tiny native calls — worst case for event volume.
    bench_write(
        c,
        "obs_overhead/naive_tiny_calls",
        Distribution::new(Dims3::cube(32), 4, Pattern::bbb(), ProcGrid::new(2, 2, 2))
            .expect("valid distribution"),
        IoStrategy::Naive,
    );
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);
