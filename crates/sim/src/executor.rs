//! A small deterministic fork-join executor built on scoped threads.
//!
//! The workspace has no access to `rayon`, so the pipeline brings its own
//! executor: work is split into *chunks* whose contents never depend on the
//! worker count, workers claim chunk indices from an atomic counter, and the
//! results are handed back **in chunk order**. Combined with per-sample RNG
//! streams ([`faultmit_memsim::StreamSeeder`]) this makes every campaign
//! bit-identical whether it runs on one thread or sixteen.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// How many worker threads a campaign uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Everything on the calling thread (no worker threads at all).
    Serial,
    /// Exactly this many worker threads.
    Threads(NonZeroUsize),
    /// One worker per available CPU ([`std::thread::available_parallelism`]).
    #[default]
    Auto,
}

impl Parallelism {
    /// Convenience constructor clamping `threads` to at least 1.
    #[must_use]
    pub fn threads(threads: usize) -> Self {
        match NonZeroUsize::new(threads) {
            Some(n) if n.get() > 1 => Parallelism::Threads(n),
            _ => Parallelism::Serial,
        }
    }

    /// The number of workers this setting resolves to on the current host.
    #[must_use]
    pub fn worker_count(&self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Threads(n) => n.get(),
            Parallelism::Auto => std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1),
        }
    }
}

/// Runs `work(state, chunk_index)` for every index in `0..chunk_count`
/// using up to `workers` threads and returns the results **in chunk-index
/// order**.
///
/// The schedule (which thread runs which chunk) is dynamic, but since each
/// chunk's work is self-contained and results are reordered by index, the
/// output is independent of the worker count and of scheduling. Every
/// worker thread builds one **per-worker scratch state** `S` via
/// `make_state` and threads it through all the chunks it claims, so warm
/// buffers (e.g. a `DieScratch` arena) survive from chunk to chunk instead
/// of being rebuilt per chunk.
///
/// Determinism is unaffected: scratch state may only hold reusable storage,
/// never anything the chunk's *result* depends on — each chunk's output must
/// remain a pure function of its index, which the serial-vs-threaded
/// bit-identity suites verify.
pub fn run_chunked_with<S, T, M, F>(
    chunk_count: usize,
    workers: usize,
    make_state: M,
    work: F,
) -> Vec<T>
where
    T: Send,
    M: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    if workers <= 1 || chunk_count <= 1 {
        let mut state = make_state();
        return (0..chunk_count)
            .map(|index| work(&mut state, index))
            .collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..chunk_count).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for _ in 0..workers.min(chunk_count) {
            scope.spawn(|| {
                let mut state = make_state();
                loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= chunk_count {
                        break;
                    }
                    let result = work(&mut state, index);
                    *slots[index].lock().expect("result slot poisoned") = Some(result);
                }
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every chunk index was claimed exactly once")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn parallelism_resolves_to_positive_worker_counts() {
        assert_eq!(Parallelism::Serial.worker_count(), 1);
        assert_eq!(Parallelism::threads(0).worker_count(), 1);
        assert_eq!(Parallelism::threads(1).worker_count(), 1);
        assert_eq!(Parallelism::threads(4).worker_count(), 4);
        assert!(Parallelism::Auto.worker_count() >= 1);
    }

    #[test]
    fn results_come_back_in_chunk_order() {
        for workers in [1usize, 2, 4, 8] {
            let out = run_chunked_with(37, workers, || (), |(), i| i * i);
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_chunk_runs_exactly_once() {
        let calls = AtomicU64::new(0);
        let out = run_chunked_with(
            100,
            4,
            || (),
            |(), i| {
                calls.fetch_add(1, Ordering::Relaxed);
                i
            },
        );
        assert_eq!(calls.load(Ordering::Relaxed), 100);
        let distinct: HashSet<usize> = out.into_iter().collect();
        assert_eq!(distinct.len(), 100);
    }

    #[test]
    fn zero_chunks_is_a_no_op() {
        let out: Vec<usize> = run_chunked_with(0, 4, || (), |(), i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn per_worker_state_is_reused_across_chunks() {
        // Each worker's scratch counter grows with the chunks it claims;
        // the total across all results equals the chunk count, and results
        // stay in chunk order regardless of worker count.
        for workers in [1usize, 2, 4] {
            let out = run_chunked_with(
                24,
                workers,
                || 0usize,
                |claimed, index| {
                    *claimed += 1;
                    (index, *claimed)
                },
            );
            let indices: Vec<usize> = out.iter().map(|&(i, _)| i).collect();
            assert_eq!(indices, (0..24).collect::<Vec<_>>(), "{workers} workers");
            assert!(
                out.iter().all(|&(_, claimed)| claimed >= 1),
                "{workers} workers"
            );
            if workers == 1 {
                // Serial: one state serves every chunk in order.
                let counts: Vec<usize> = out.iter().map(|&(_, c)| c).collect();
                assert_eq!(counts, (1..=24).collect::<Vec<_>>());
            }
        }
    }
}
