//! Deterministic data-parallel execution primitives.
//!
//! Every hot path in the workspace (fleet simulation, K-means restarts,
//! split search, pipeline stages) parallelizes through this facade so
//! that one [`Parallelism`] knob controls the whole system and — more
//! importantly — so that results are **bit-for-bit identical for every
//! thread count**, including fully sequential runs.
//!
//! Determinism is structural, not incidental:
//!
//! - [`par_map_indexed`] assigns output slot `i` to input `i`, and
//!   [`par_for_each_mut`] updates item `i` in place; workers own disjoint
//!   contiguous ranges, so the outcome never depends on scheduling.
//! - [`par_chunks_reduce`] folds **fixed-size chunks** (the chunk size is
//!   a caller-supplied constant, never derived from the thread count) and
//!   combines the per-chunk partials left-to-right in chunk order. A
//!   sequential run executes the *same* chunked fold, so floating-point
//!   accumulation order is identical in every mode.
//! - [`stream_seed`] derives independent per-item RNG seeds from a master
//!   seed, letting simulations give every drive (or restart) its own
//!   stream instead of threading one generator through a loop.
//!
//! The facade is built on `std::thread::scope`; it has rayon's shape
//! (map / reduce / join) without the dependency, which keeps the
//! workspace self-contained and the reductions fixed-order by
//! construction.

use std::num::NonZeroUsize;

/// How much parallelism a computation may use.
///
/// The mode never affects results — only wall-clock time. Tests that
/// want single-threaded execution force [`Parallelism::Sequential`];
/// production paths default to [`Parallelism::Auto`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Run on the calling thread only.
    Sequential,
    /// Use every available core (`std::thread::available_parallelism`).
    #[default]
    Auto,
    /// Use exactly this many worker threads (clamped to at least 1).
    Threads(usize),
}

impl Parallelism {
    /// The number of worker threads this mode resolves to on the current
    /// machine.
    pub fn effective_threads(self) -> usize {
        match self {
            Parallelism::Sequential => 1,
            Parallelism::Auto => {
                std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
            }
            Parallelism::Threads(n) => n.max(1),
        }
    }

    /// Maps a CLI-style thread count to a mode: `0` means [`Auto`],
    /// `1` means [`Sequential`], anything else pins the count.
    ///
    /// [`Auto`]: Parallelism::Auto
    /// [`Sequential`]: Parallelism::Sequential
    pub fn from_thread_count(n: usize) -> Self {
        match n {
            0 => Parallelism::Auto,
            1 => Parallelism::Sequential,
            n => Parallelism::Threads(n),
        }
    }
}

/// Derives the seed of an independent RNG stream from a master seed.
///
/// SplitMix64 applied to `master ⊕ golden·(stream+1)`: cheap, and
/// adjacent stream indices land in statistically unrelated states. Used
/// to give every simulated drive and every K-means restart its own
/// generator so items can be produced in any order (or in parallel) and
/// still reproduce the sequential result exactly.
pub fn stream_seed(master: u64, stream: u64) -> u64 {
    let mut z = master ^ stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Splits `len` items into `workers` contiguous `(start, end)` ranges
/// whose sizes differ by at most one.
fn contiguous_ranges(len: usize, workers: usize) -> Vec<(usize, usize)> {
    let workers = workers.min(len).max(1);
    let base = len / workers;
    let extra = len % workers;
    let mut ranges = Vec::with_capacity(workers);
    let mut start = 0;
    for w in 0..workers {
        let size = base + usize::from(w < extra);
        ranges.push((start, start + size));
        start += size;
    }
    ranges
}

/// Maps `f` over `items`, producing `out[i] = f(i, &items[i])`.
///
/// Output order always matches input order; with more than one thread,
/// workers own disjoint contiguous ranges and the results are stitched
/// back together by range position.
pub fn par_map_indexed<T, U, F>(par: Parallelism, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let threads = par.effective_threads().min(items.len());
    if threads <= 1 {
        return items.iter().enumerate().map(|(i, item)| f(i, item)).collect();
    }
    let ranges = contiguous_ranges(items.len(), threads);
    let f = &f;
    let mut out = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .iter()
            .map(|&(start, end)| {
                let slice = &items[start..end];
                scope.spawn(move || {
                    slice
                        .iter()
                        .enumerate()
                        .map(|(offset, item)| f(start + offset, item))
                        .collect::<Vec<U>>()
                })
            })
            .collect();
        for handle in handles {
            out.extend(handle.join().expect("parallel map worker panicked"));
        }
    });
    out
}

/// Splits `items` into `parts` contiguous chunks whose lengths differ by
/// at most one (one empty chunk for empty input, fewer chunks when
/// `items` is shorter than `parts`): the ranges [`par_for_each_mut`]
/// hands its workers. Lets a caller pair each worker's chunk with state
/// of its own, such as a scratch buffer or a slice of an output, before
/// fanning the pairs out.
pub fn split_chunks_mut<T>(mut items: &mut [T], parts: usize) -> Vec<&mut [T]> {
    let ranges = contiguous_ranges(items.len(), parts);
    let mut chunks = Vec::with_capacity(ranges.len());
    for (start, end) in ranges {
        let (head, tail) = std::mem::take(&mut items).split_at_mut(end - start);
        chunks.push(head);
        items = tail;
    }
    chunks
}

/// Runs `f(i, &mut items[i])` for every item, in place.
///
/// With more than one thread, workers own disjoint contiguous ranges
/// (those of [`split_chunks_mut`]) and the calling thread takes the
/// first, so every item is visited exactly once whatever the thread
/// count.
pub fn par_for_each_mut<T, F>(par: Parallelism, items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let threads = par.effective_threads().min(items.len());
    if threads <= 1 {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    let f = &f;
    let mut chunks = split_chunks_mut(items, threads).into_iter();
    let first = chunks.next().expect("at least one chunk");
    std::thread::scope(|scope| {
        let mut start = first.len();
        for chunk in chunks {
            let base = start;
            start += chunk.len();
            scope.spawn(move || {
                for (offset, item) in chunk.iter_mut().enumerate() {
                    f(base + offset, item);
                }
            });
        }
        for (i, item) in first.iter_mut().enumerate() {
            f(i, item);
        }
    });
}

/// Generates `out[i] = f(i)` for `i in 0..len` — [`par_map_indexed`]
/// without a backing slice, for producer-style loops.
pub fn par_generate<U, F>(par: Parallelism, len: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let threads = par.effective_threads().min(len);
    if threads <= 1 {
        return (0..len).map(f).collect();
    }
    let ranges = contiguous_ranges(len, threads);
    let f = &f;
    let mut out = Vec::with_capacity(len);
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .iter()
            .map(|&(start, end)| scope.spawn(move || (start..end).map(f).collect::<Vec<U>>()))
            .collect();
        for handle in handles {
            out.extend(handle.join().expect("parallel generate worker panicked"));
        }
    });
    out
}

/// Folds fixed-size chunks of `items` and combines the partials in chunk
/// order.
///
/// Each chunk `c` (covering `items[c*chunk_size ..]`) is folded from a
/// fresh `init()` by `fold(acc, base_index, chunk)`; the per-chunk
/// results are then merged left-to-right with `combine`. Because the
/// chunk boundaries depend only on `chunk_size` (a constant the caller
/// picks) and the merge order is fixed, the result — including
/// floating-point rounding — is identical for every [`Parallelism`]
/// mode and thread count.
///
/// Returns `init()` for empty input.
pub fn par_chunks_reduce<T, A, FInit, FFold, FCombine>(
    par: Parallelism,
    items: &[T],
    chunk_size: usize,
    init: FInit,
    fold: FFold,
    combine: FCombine,
) -> A
where
    T: Sync,
    A: Send,
    FInit: Fn() -> A + Sync,
    FFold: Fn(A, usize, &[T]) -> A + Sync,
    FCombine: Fn(A, A) -> A,
{
    let chunk_size = chunk_size.max(1);
    if items.is_empty() {
        return init();
    }
    let num_chunks = items.len().div_ceil(chunk_size);
    let fold_chunk = |c: usize| {
        let start = c * chunk_size;
        let end = (start + chunk_size).min(items.len());
        fold(init(), start, &items[start..end])
    };
    let partials = par_generate(par, num_chunks, fold_chunk);
    partials.into_iter().reduce(combine).expect("non-empty input yields at least one chunk")
}

/// Runs two independent computations, concurrently when `par` allows,
/// and returns both results.
///
/// Each closure runs exactly once in either mode, so results are
/// identical; only wall-clock time changes.
pub fn par_join<A, B, FA, FB>(par: Parallelism, fa: FA, fb: FB) -> (A, B)
where
    A: Send,
    B: Send,
    FA: FnOnce() -> A + Send,
    FB: FnOnce() -> B + Send,
{
    if par.effective_threads() <= 1 {
        return (fa(), fb());
    }
    std::thread::scope(|scope| {
        let handle = scope.spawn(fb);
        let a = fa();
        let b = handle.join().expect("parallel join worker panicked");
        (a, b)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const MODES: [Parallelism; 4] = [
        Parallelism::Sequential,
        Parallelism::Auto,
        Parallelism::Threads(3),
        Parallelism::Threads(16),
    ];

    #[test]
    fn effective_threads_resolution() {
        assert_eq!(Parallelism::Sequential.effective_threads(), 1);
        assert_eq!(Parallelism::Threads(4).effective_threads(), 4);
        assert_eq!(Parallelism::Threads(0).effective_threads(), 1);
        assert!(Parallelism::Auto.effective_threads() >= 1);
    }

    #[test]
    fn from_thread_count_mapping() {
        assert_eq!(Parallelism::from_thread_count(0), Parallelism::Auto);
        assert_eq!(Parallelism::from_thread_count(1), Parallelism::Sequential);
        assert_eq!(Parallelism::from_thread_count(6), Parallelism::Threads(6));
    }

    #[test]
    fn stream_seeds_are_distinct_and_stable() {
        let a = stream_seed(42, 0);
        assert_eq!(a, stream_seed(42, 0));
        let seeds: std::collections::BTreeSet<u64> =
            (0..1_000).map(|i| stream_seed(42, i)).collect();
        assert_eq!(seeds.len(), 1_000, "collision among 1k streams");
        assert_ne!(stream_seed(1, 7), stream_seed(2, 7));
    }

    #[test]
    fn ranges_cover_everything_once() {
        for (len, workers) in [(10, 3), (3, 10), (0, 4), (7, 1), (16, 4)] {
            let ranges = contiguous_ranges(len, workers);
            let mut covered = 0;
            let mut cursor = 0;
            for (start, end) in ranges {
                assert_eq!(start, cursor);
                covered += end - start;
                cursor = end;
            }
            assert_eq!(covered, len);
        }
    }

    #[test]
    fn map_preserves_order_in_every_mode() {
        let items: Vec<u64> = (0..997).collect();
        let expected: Vec<u64> = items.iter().enumerate().map(|(i, &x)| x * 2 + i as u64).collect();
        for mode in MODES {
            let got = par_map_indexed(mode, &items, |i, &x| x * 2 + i as u64);
            assert_eq!(got, expected, "{mode:?}");
        }
    }

    #[test]
    fn for_each_mut_visits_every_item_once_in_every_mode() {
        let expected: Vec<u64> = (0..997).map(|i| i * 3 + 1).collect();
        for mode in MODES {
            let mut items: Vec<u64> = (0..997).collect();
            par_for_each_mut(mode, &mut items, |i, x| *x = *x * 2 + i as u64 + 1);
            assert_eq!(items, expected, "{mode:?}");
        }
    }

    #[test]
    fn split_chunks_mut_matches_the_worker_ranges() {
        for (len, parts) in [(12, 5), (12, 2), (3, 10), (0, 4), (7, 1)] {
            let mut items: Vec<usize> = (0..len).collect();
            let lens: Vec<usize> =
                split_chunks_mut(&mut items, parts).iter().map(|c| c.len()).collect();
            let expected: Vec<usize> =
                contiguous_ranges(len, parts).iter().map(|(s, e)| e - s).collect();
            assert_eq!(lens, expected, "len={len} parts={parts}");
        }
        let mut items: Vec<usize> = (0..12).collect();
        let chunks = split_chunks_mut(&mut items, 5);
        assert_eq!(chunks.iter().map(|c| c.len()).collect::<Vec<_>>(), [3, 3, 2, 2, 2]);
        assert_eq!(chunks[2], [6, 7]);
    }

    #[test]
    fn generate_matches_sequential() {
        let expected: Vec<usize> = (0..100).map(|i| i * i).collect();
        for mode in MODES {
            assert_eq!(par_generate(mode, 100, |i| i * i), expected, "{mode:?}");
        }
    }

    #[test]
    fn chunked_float_reduction_is_bitwise_identical_across_modes() {
        // Values chosen so naive reassociation visibly changes the sum.
        let items: Vec<f64> = (0..10_001)
            .map(|i| if i % 3 == 0 { 1e16 } else { -std::f64::consts::PI * i as f64 })
            .collect();
        let reduce = |mode| {
            par_chunks_reduce(
                mode,
                &items,
                256,
                || 0.0f64,
                |acc, _base, chunk| chunk.iter().fold(acc, |a, &x| a + x),
                |a, b| a + b,
            )
        };
        let baseline = reduce(Parallelism::Sequential);
        for mode in MODES {
            assert_eq!(reduce(mode).to_bits(), baseline.to_bits(), "{mode:?}");
        }
    }

    #[test]
    fn chunk_base_indices_are_correct() {
        let items: Vec<usize> = (0..50).collect();
        let pairs = par_chunks_reduce(
            Parallelism::Threads(4),
            &items,
            7,
            Vec::new,
            |mut acc: Vec<(usize, usize)>, base, chunk| {
                acc.push((base, chunk.len()));
                acc
            },
            |mut a, b| {
                a.extend(b);
                a
            },
        );
        assert_eq!(
            pairs,
            vec![(0, 7), (7, 7), (14, 7), (21, 7), (28, 7), (35, 7), (42, 7), (49, 1)]
        );
    }

    #[test]
    fn empty_input_reduces_to_init() {
        let items: Vec<f64> = Vec::new();
        let total = par_chunks_reduce(
            Parallelism::Auto,
            &items,
            64,
            || 41.0,
            |acc, _, chunk| acc + chunk.iter().sum::<f64>(),
            |a, b| a + b,
        );
        assert_eq!(total, 41.0);
    }

    #[test]
    fn join_runs_both_sides() {
        for mode in MODES {
            let (a, b) = par_join(mode, || 2 + 2, || "ok".to_string());
            assert_eq!(a, 4);
            assert_eq!(b, "ok");
        }
    }

    #[test]
    fn result_collection_is_deterministic() {
        // Errors surface by lowest index when collected, in every mode.
        let items: Vec<i64> = (0..100).collect();
        for mode in MODES {
            let collected: Result<Vec<i64>, usize> =
                par_map_indexed(mode, &items, |i, &x| if x % 7 == 3 { Err(i) } else { Ok(x) })
                    .into_iter()
                    .collect();
            assert_eq!(collected, Err(3), "{mode:?}");
        }
    }
}
