//! Offline stand-in for the subset of `rayon` this workspace uses — now a
//! **real parallel runtime**, not a sequential fallback.
//!
//! Every `par_*` entry point runs on a work-stealing thread pool
//! ([`pool`]): the region's items are cut into chunks, dealt to per-worker
//! deques, and workers steal across deques until the region drains. The
//! pool is sized from [`std::thread::available_parallelism`] and can be
//! overridden with the `MSR_THREADS` environment variable (`0` or `1`
//! force fully sequential execution); [`with_threads`] scopes an override
//! to one closure for tests. The helper threads are persistent, started
//! once and woken per region; a region started on a helper runs inline.
//! Borrowed task data reaches the helpers through the crate's one
//! `unsafe` block, a lifetime erasure whose invariant (no helper touches
//! a region its caller has left) a latch upholds on every exit path,
//! unwinding included. Task panics propagate to the caller.
//!
//! Chunk partitioning is a pure function of input length — never of the
//! worker count — and chunk results combine in chunk order, so reductions
//! (`sum`, `reduce`) and `collect` are bitwise deterministic for every
//! thread count. See `iter` module docs.
//!
//! The API mirrors the rayon subset the workspace imports (`par_iter`,
//! `par_iter_mut`, `par_chunks`, `par_chunks_mut`, `into_par_iter`, `zip`,
//! `map`, `enumerate`, `flat_map_iter`, `for_each`, `sum`, `reduce`,
//! `collect`, [`join`]); the real rayon can be swapped back in with minor
//! changes when a registry is available.

pub mod iter;
pub mod pool;

pub use pool::{current_num_threads, join, with_threads, ThreadPool};

/// The traits the workspace imports via `use rayon::prelude::*`.
pub mod prelude {
    use crate::iter::{
        ChunksMutProducer, ChunksProducer, Producer, SliceMutProducer, SliceProducer, VecProducer,
    };
    pub use crate::iter::{ParFlatMap, ParIter};

    /// `into_par_iter()` for owned collections and integer ranges.
    pub trait IntoParallelIterator {
        /// The splittable source this collection turns into.
        type Producer: Producer;
        /// Consume `self` into a parallel iterator.
        fn into_par_iter(self) -> ParIter<Self::Producer>;
    }

    impl<T: Send> IntoParallelIterator for Vec<T> {
        type Producer = VecProducer<T>;
        fn into_par_iter(self) -> ParIter<VecProducer<T>> {
            ParIter::from_producer(VecProducer(self))
        }
    }

    impl<T: Send, const N: usize> IntoParallelIterator for [T; N] {
        type Producer = VecProducer<T>;
        fn into_par_iter(self) -> ParIter<VecProducer<T>> {
            ParIter::from_producer(VecProducer(Vec::from(self)))
        }
    }

    /// `par_iter()` / `par_chunks()` over shared slices (and anything
    /// derefing to one).
    pub trait ParallelSlice<T: Sync> {
        /// Parallel iterator over `&T` items.
        fn par_iter(&self) -> ParIter<SliceProducer<'_, T>>;
        /// Parallel iterator over `&[T]` chunks of `chunk_size` (last may
        /// be shorter).
        fn par_chunks(&self, chunk_size: usize) -> ParIter<ChunksProducer<'_, T>>;
    }

    impl<T: Sync> ParallelSlice<T> for [T] {
        fn par_iter(&self) -> ParIter<SliceProducer<'_, T>> {
            ParIter::from_producer(SliceProducer(self))
        }
        fn par_chunks(&self, chunk_size: usize) -> ParIter<ChunksProducer<'_, T>> {
            assert!(chunk_size > 0, "chunk size must be non-zero");
            ParIter::from_producer(ChunksProducer::new(self, chunk_size))
        }
    }

    /// `par_iter_mut()` / `par_chunks_mut()` over exclusive slices.
    pub trait ParallelSliceMut<T: Send> {
        /// Parallel iterator over `&mut T` items.
        fn par_iter_mut(&mut self) -> ParIter<SliceMutProducer<'_, T>>;
        /// Parallel iterator over `&mut [T]` chunks of `chunk_size` (last
        /// may be shorter).
        fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<ChunksMutProducer<'_, T>>;
    }

    impl<T: Send> ParallelSliceMut<T> for [T] {
        fn par_iter_mut(&mut self) -> ParIter<SliceMutProducer<'_, T>> {
            ParIter::from_producer(SliceMutProducer(self))
        }
        fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<ChunksMutProducer<'_, T>> {
            assert!(chunk_size > 0, "chunk size must be non-zero");
            ParIter::from_producer(ChunksMutProducer::new(self, chunk_size))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::{join, pool, with_threads};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn adapter_chains_compile_and_run() {
        let a = [1.0f64, 2.0, 3.0];
        let b = [4.0f64, 5.0, 6.0];
        let dot: f64 = a.par_iter().zip(b.par_iter()).map(|(x, y)| x * y).sum();
        assert_eq!(dot, 32.0);

        let mut buf = vec![0u8; 6];
        buf.par_chunks_mut(3).enumerate().for_each(|(i, c)| {
            c.fill(i as u8);
        });
        assert_eq!(buf, [0, 0, 0, 1, 1, 1]);

        let squares: Vec<u64> = (0u64..4).into_par_iter().map(|x| x * x).collect();
        assert_eq!(squares, [0, 1, 4, 9]);
    }

    #[test]
    fn pool_runs_every_task_and_orders_results() {
        with_threads(4, || {
            let n = 1000usize;
            let hits = AtomicUsize::new(0);
            let out: Vec<usize> = (0..n)
                .into_par_iter()
                .map(|i| {
                    hits.fetch_add(1, Ordering::Relaxed);
                    i * 3
                })
                .collect();
            assert_eq!(hits.load(Ordering::Relaxed), n);
            assert!(out.iter().enumerate().all(|(i, &v)| v == i * 3));
        });
    }

    #[test]
    fn par_chunks_mut_covers_disjoint_windows() {
        with_threads(4, || {
            let mut buf = vec![0u32; 1003]; // non-multiple of the chunk size
            buf.par_chunks_mut(10).enumerate().for_each(|(i, c)| {
                for v in c.iter_mut() {
                    *v = i as u32 + 1;
                }
            });
            assert!(buf.iter().all(|&v| v != 0));
            assert_eq!(buf[999], 100);
            assert_eq!(buf[1000], 101, "short tail chunk still visited");
        });
    }

    #[test]
    fn reductions_are_bitwise_identical_across_thread_counts() {
        let xs: Vec<f64> = (0..10_000).map(|i| (i as f64).sin() * 1e-3).collect();
        let seq = with_threads(1, || xs.par_iter().map(|x| x * x).sum::<f64>());
        let par = with_threads(8, || xs.par_iter().map(|x| x * x).sum::<f64>());
        assert_eq!(seq.to_bits(), par.to_bits());

        let rseq = with_threads(1, || xs.par_iter().map(|&x| x).reduce(0.0, f64::max));
        let rpar = with_threads(8, || xs.par_iter().map(|&x| x).reduce(0.0, f64::max));
        assert_eq!(rseq.to_bits(), rpar.to_bits());
    }

    #[test]
    fn flat_map_iter_preserves_order() {
        let nested: Vec<usize> = with_threads(4, || {
            (0..50usize)
                .into_par_iter()
                .flat_map_iter(|i| (0..3).map(move |j| i * 10 + j))
                .collect()
        });
        let expect: Vec<usize> = (0..50)
            .flat_map(|i| (0..3).map(move |j| i * 10 + j))
            .collect();
        assert_eq!(nested, expect);
    }

    #[test]
    fn worker_panic_propagates_and_pool_shuts_down() {
        // Task 0 is the caller's own first task; the last is dealt to a
        // helper's deque.
        for bad in [0usize, 63] {
            let ran = AtomicUsize::new(0);
            let caught = std::panic::catch_unwind(|| {
                with_threads(4, || {
                    (0..64usize).into_par_iter().for_each(|i| {
                        if i == bad {
                            panic!("task {i}");
                        }
                        std::thread::yield_now();
                        ran.fetch_add(1, Ordering::SeqCst);
                    })
                })
            });
            let payload = caught.expect_err("the panic reaches the caller");
            assert_eq!(
                payload.downcast_ref::<String>().unwrap(),
                &format!("task {bad}")
            );
            // Every other task ran before the caller unwound past them.
            assert_eq!(ran.load(Ordering::SeqCst), 63);
            let sum: usize = with_threads(4, || (0..100usize).into_par_iter().sum());
            assert_eq!(sum, 4950);
        }
    }

    #[test]
    fn join_runs_both_sides_and_propagates_panics() {
        let (a, b) = with_threads(4, || join(|| 2 + 2, || "ok"));
        assert_eq!((a, b), (4, "ok"));
        let caught = std::panic::catch_unwind(|| {
            with_threads(4, || join(|| 1, || panic!("right side")));
        });
        assert!(caught.is_err());
    }

    #[test]
    fn with_threads_forces_sequential_inline_execution() {
        with_threads(1, || {
            let caller = std::thread::current().id();
            (0..64usize).into_par_iter().for_each(|_| {
                assert_eq!(std::thread::current().id(), caller);
            });
        });
    }

    #[test]
    fn execute_returns_results_in_task_order() {
        let tasks: Vec<_> = (0..37).map(|i| move || i * i).collect();
        let out = with_threads(3, || pool::execute(tasks));
        assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn zip_truncates_to_shorter_side() {
        let a = [1u32, 2, 3, 4, 5];
        let b = [10u32, 20, 30];
        let pairs: Vec<(u32, u32)> = with_threads(4, || {
            a.par_iter()
                .zip(b.par_iter())
                .map(|(&x, &y)| (x, y))
                .collect()
        });
        assert_eq!(pairs, [(1, 10), (2, 20), (3, 30)]);
    }
}
