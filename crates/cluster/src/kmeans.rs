//! K-means clustering with k-means++ seeding, Lloyd iterations and
//! multi-restart selection.
//!
//! The paper clusters the 433 failure records for k = 1..10 and picks the
//! elbow of the mean distance from records to their centroids (Fig. 3).
//! [`KMeansResult::mean_within_cluster_distance`] is that statistic, and
//! [`elbow_curve_with`] reproduces the sweep.

use dds_stats::par::{par_chunks_reduce, par_generate, stream_seed, Parallelism};
use dds_stats::{euclidean, squared_euclidean, ColMatrix, StatsError};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Fixed accumulation chunk for the centroid-update reduction. A constant
/// (never derived from the thread count) so floating-point sums associate
/// identically in sequential and parallel runs.
const UPDATE_CHUNK: usize = 512;

/// Points per cache block of the assignment kernel: 256 points × 8 bytes =
/// 2 KiB per attribute column slice, so a block's working set (all
/// attributes + the distance accumulators) stays L1/L2-resident while every
/// centroid streams over it. Purely a traversal parameter — each point's
/// distance still accumulates dimensions in order, so the value is
/// bit-identical for any block size.
const ASSIGN_BLOCK: usize = 256;

/// Configuration for a [`KMeans`] run.
///
/// # Example
///
/// ```
/// use dds_cluster::KMeansConfig;
///
/// let config = KMeansConfig::new(3).with_seed(7);
/// assert_eq!(config.k, 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Maximum Lloyd iterations per restart.
    pub max_iterations: usize,
    /// Number of independent k-means++ restarts; the lowest-inertia run
    /// wins.
    pub restarts: usize,
    /// Convergence threshold on centroid movement (squared distance).
    pub tolerance: f64,
    /// RNG seed for seeding and restarts.
    pub seed: u64,
    /// Parallelism across restarts and, within a restart, across points.
    /// Never affects the fitted result: every restart draws from its own
    /// seed-derived stream and reductions run in fixed chunk order.
    pub parallelism: Parallelism,
}

impl KMeansConfig {
    /// Creates a configuration with `k` clusters and sensible defaults
    /// (100 iterations, 8 restarts, 1e-9 tolerance).
    pub fn new(k: usize) -> Self {
        KMeansConfig {
            k,
            max_iterations: 100,
            restarts: 8,
            tolerance: 1e-9,
            seed: 0xC1A5,
            parallelism: Parallelism::Auto,
        }
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the parallelism mode.
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }
}

/// The K-means algorithm (Lloyd's, k-means++ init).
#[derive(Debug, Clone)]
pub struct KMeans {
    config: KMeansConfig,
}

impl KMeans {
    /// Creates the algorithm with the given configuration.
    pub fn new(config: KMeansConfig) -> Self {
        KMeans { config }
    }

    /// Clusters `points` (rows of equal dimension).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] for no points,
    /// [`StatsError::DimensionMismatch`] for ragged rows, and
    /// [`StatsError::InsufficientData`] when there are fewer points than
    /// clusters.
    pub fn fit(&self, points: &[Vec<f64>]) -> Result<KMeansResult, StatsError> {
        if points.is_empty() || points[0].is_empty() {
            return Err(StatsError::EmptyInput);
        }
        let dim = points[0].len();
        for p in points {
            if p.len() != dim {
                return Err(StatsError::DimensionMismatch { expected: dim, actual: p.len() });
            }
        }
        if points.len() < self.config.k {
            return Err(StatsError::InsufficientData { needed: self.config.k, got: points.len() });
        }
        if self.config.k == 0 {
            return Err(StatsError::InvalidParameter("k must be positive".to_string()));
        }
        // Every restart draws from its own seed-derived stream, so restarts
        // can run in any order — or concurrently — and reproduce the
        // sequential result exactly. When restarts run in parallel, each
        // restart's inner loops stay sequential (no nested thread fan-out);
        // with a single restart the inner loops get the whole budget.
        let _span = dds_obs::span!(
            dds_obs::Level::Debug,
            "kmeans.fit",
            k = self.config.k,
            points = points.len(),
            restarts = self.config.restarts,
        );
        let metrics = dds_obs::metrics::global();
        metrics.counter("dds_kmeans_fits_total").inc();
        metrics.counter("dds_kmeans_restarts_total").add(self.config.restarts as u64);
        let restarts = self.config.restarts;
        let inner = if restarts > 1 { Parallelism::Sequential } else { self.config.parallelism };
        // Column-major copy of the points, shared by all restarts: the
        // assignment and update kernels stream one attribute at a time.
        let columns = ColMatrix::from_rows(points)?;
        let runs = par_generate(self.config.parallelism, restarts, |r| {
            // On parallel worker threads this event has no parent span —
            // span nesting is per-thread by design.
            dds_obs::event!(dds_obs::Level::Trace, "kmeans.restart", restart = r);
            let mut rng = StdRng::seed_from_u64(stream_seed(self.config.seed, r as u64));
            self.fit_once(points, &columns, &mut rng, inner)
        });
        // Lowest inertia wins; ties break to the lowest restart index
        // (the order a sequential scan would keep).
        let mut best: Option<KMeansResult> = None;
        for run in runs {
            let result = run?;
            if best.as_ref().is_none_or(|b| result.inertia() < b.inertia()) {
                best = Some(result);
            }
        }
        let best = best.expect("at least one restart");
        dds_obs::event!(dds_obs::Level::Trace, "kmeans.converged", inertia = best.inertia());
        Ok(best)
    }

    /// Warm-starts a single Lloyd refinement from `initial` centroids: no
    /// k-means++ seeding, no restarts, no RNG at all. One streaming
    /// mini-batch pass ([`StreamingKMeans`]) first pulls the centroids
    /// toward the new points, then the same deterministic Lloyd loop as
    /// [`fit`](Self::fit) polishes to a local optimum. This is the
    /// incremental-refit entry: the prior artifact's centroids come in,
    /// a refined clustering of the new window comes out, at the cost of
    /// one fit instead of an elbow sweep times restarts.
    ///
    /// `k` is taken from `initial` (the config's `k` is ignored);
    /// `max_iterations`, `tolerance` and `parallelism` apply as in `fit`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] for no points or no initial
    /// centroids, [`StatsError::DimensionMismatch`] for ragged rows or
    /// centroids of the wrong dimension, and
    /// [`StatsError::InsufficientData`] when there are fewer points than
    /// centroids.
    pub fn refine(
        &self,
        points: &[Vec<f64>],
        initial: &[Vec<f64>],
    ) -> Result<KMeansResult, StatsError> {
        if points.is_empty() || points[0].is_empty() || initial.is_empty() {
            return Err(StatsError::EmptyInput);
        }
        let dim = points[0].len();
        for p in points {
            if p.len() != dim {
                return Err(StatsError::DimensionMismatch { expected: dim, actual: p.len() });
            }
        }
        for c in initial {
            if c.len() != dim {
                return Err(StatsError::DimensionMismatch { expected: dim, actual: c.len() });
            }
        }
        if points.len() < initial.len() {
            return Err(StatsError::InsufficientData { needed: initial.len(), got: points.len() });
        }
        let _span = dds_obs::span!(
            dds_obs::Level::Debug,
            "kmeans.refine",
            k = initial.len(),
            points = points.len(),
        );
        dds_obs::metrics::global().counter("dds_kmeans_refines_total").inc();
        let par = self.config.parallelism;
        let columns = ColMatrix::from_rows(points)?;
        let mut streaming = StreamingKMeans::new(initial.to_vec())?;
        streaming.fold_columns(&columns, par)?;
        self.lloyd(points, &columns, streaming.into_centroids(), par)
    }

    fn fit_once(
        &self,
        points: &[Vec<f64>],
        columns: &ColMatrix,
        rng: &mut StdRng,
        par: Parallelism,
    ) -> Result<KMeansResult, StatsError> {
        let centroids = plus_plus_init(points, self.config.k, rng)?;
        self.lloyd(points, columns, centroids, par)
    }

    /// The Lloyd loop shared by [`fit`](Self::fit) (after k-means++
    /// seeding) and [`refine`](Self::refine) (after the streaming pass):
    /// assignment and update steps draw no random numbers and accumulate
    /// in fixed chunk order, so the result is a pure function of
    /// `(points, centroids)` at any thread count.
    fn lloyd(
        &self,
        points: &[Vec<f64>],
        columns: &ColMatrix,
        mut centroids: Vec<Vec<f64>>,
        par: Parallelism,
    ) -> Result<KMeansResult, StatsError> {
        let k = centroids.len();
        let dim = points[0].len();
        let mut assignments = vec![0usize; points.len()];
        for _ in 0..self.config.max_iterations {
            // Assignment step: each point independently finds its nearest
            // centroid, computed block-by-block over attribute columns.
            let assigned = assign_blocks(columns, &centroids, par);
            for (slot, &(a, _)) in assignments.iter_mut().zip(&assigned) {
                *slot = a;
            }
            // Update step: accumulate per-cluster sums over fixed-size
            // chunks, merged in chunk order so the floating-point result is
            // identical for every thread count. Within a chunk the loop
            // runs attribute-outer over contiguous columns; each
            // (cluster, attribute) accumulator still receives its points in
            // chunk order, so the sums match the row-major loop bit for
            // bit.
            let (mut new_centroids, counts) = par_chunks_reduce(
                par,
                &assignments,
                UPDATE_CHUNK,
                || (vec![vec![0.0; dim]; k], vec![0usize; k]),
                |(mut sums, mut counts), base, chunk| {
                    for &a in chunk {
                        counts[a] += 1;
                    }
                    // `d` addresses both the column and the second level
                    // of `sums[a][d]`, so an iterator can't replace it.
                    #[allow(clippy::needless_range_loop)]
                    for d in 0..dim {
                        let col = &columns.col(d)[base..base + chunk.len()];
                        for (&a, &v) in chunk.iter().zip(col) {
                            sums[a][d] += v;
                        }
                    }
                    (sums, counts)
                },
                |(mut sums, mut counts), (other_sums, other_counts)| {
                    for (sum, other) in sums.iter_mut().zip(other_sums) {
                        for (c, v) in sum.iter_mut().zip(other) {
                            *c += v;
                        }
                    }
                    for (count, other) in counts.iter_mut().zip(other_counts) {
                        *count += other;
                    }
                    (sums, counts)
                },
            );
            for (centroid, count) in new_centroids.iter_mut().zip(&counts) {
                if *count == 0 {
                    // Re-seed an empty cluster at the point farthest from
                    // its centroid.
                    let far = farthest_point(points, &centroids)?;
                    centroid.clone_from(&points[far]);
                } else {
                    for v in centroid.iter_mut() {
                        *v /= *count as f64;
                    }
                }
            }
            // Convergence check.
            let moved: f64 = centroids
                .iter()
                .zip(&new_centroids)
                .map(|(a, b)| squared_euclidean(a, b))
                .sum::<Result<f64, _>>()?;
            centroids = new_centroids;
            if moved < self.config.tolerance {
                break;
            }
        }
        // Final assignment + statistics; the scalar sums accumulate in
        // point order regardless of how the distances were computed.
        let mut inertia = 0.0;
        let mut distance_sum = 0.0;
        let finals = assign_blocks(columns, &centroids, par);
        for (slot, &(a, d2)) in assignments.iter_mut().zip(&finals) {
            *slot = a;
            inertia += d2;
            distance_sum += d2.sqrt();
        }
        Ok(KMeansResult {
            centroids,
            assignments,
            inertia,
            mean_within_cluster_distance: distance_sum / points.len() as f64,
        })
    }
}

/// Nearest centroid `(index, squared distance)` for every point, block by
/// block over the column-major layout: within a block, each centroid's
/// attribute columns stream over per-point accumulators, so the inner loop
/// is a contiguous, auto-vectorizable sweep across points. Every point's
/// distance still sums its dimensions in order (the accumulators are
/// per-point), and the winner is folded over centroids in ascending index
/// with a strictly-less comparison — both exactly as [`nearest_centroid`]
/// does, so results are bit-identical.
fn assign_blocks(
    columns: &ColMatrix,
    centroids: &[Vec<f64>],
    par: Parallelism,
) -> Vec<(usize, f64)> {
    assign_block_range(columns, 0, columns.num_rows(), centroids, par)
}

/// [`assign_blocks`] restricted to rows `[from, to)` — the chunk-sized
/// assignment step of the streaming fold, bit-identical to the full pass
/// over the same rows.
fn assign_block_range(
    columns: &ColMatrix,
    from: usize,
    to: usize,
    centroids: &[Vec<f64>],
    par: Parallelism,
) -> Vec<(usize, f64)> {
    let n = to - from;
    let blocks = par_generate(par, n.div_ceil(ASSIGN_BLOCK), |b| {
        let start = from + b * ASSIGN_BLOCK;
        let end = (start + ASSIGN_BLOCK).min(to);
        let mut best = vec![(0usize, f64::INFINITY); end - start];
        let mut d2 = vec![0.0f64; end - start];
        for (ci, centroid) in centroids.iter().enumerate() {
            d2.fill(0.0);
            for (d, &cd) in centroid.iter().enumerate() {
                for (acc, &x) in d2.iter_mut().zip(&columns.col(d)[start..end]) {
                    let diff = x - cd;
                    *acc += diff * diff;
                }
            }
            for (slot, &v) in best.iter_mut().zip(&d2) {
                if v < slot.1 {
                    *slot = (ci, v);
                }
            }
        }
        best
    });
    blocks.into_iter().flatten().collect()
}

fn nearest_centroid(point: &[f64], centroids: &[Vec<f64>]) -> Result<(usize, f64), StatsError> {
    let mut best = (0usize, f64::INFINITY);
    for (i, c) in centroids.iter().enumerate() {
        let d2 = squared_euclidean(point, c)?;
        if d2 < best.1 {
            best = (i, d2);
        }
    }
    Ok(best)
}

fn farthest_point(points: &[Vec<f64>], centroids: &[Vec<f64>]) -> Result<usize, StatsError> {
    let mut best = (0usize, -1.0);
    for (i, p) in points.iter().enumerate() {
        let (_, d2) = nearest_centroid(p, centroids)?;
        if d2 > best.1 {
            best = (i, d2);
        }
    }
    Ok(best.0)
}

/// k-means++ initialization: first centroid uniform, then proportional to
/// squared distance from the nearest chosen centroid.
fn plus_plus_init(
    points: &[Vec<f64>],
    k: usize,
    rng: &mut StdRng,
) -> Result<Vec<Vec<f64>>, StatsError> {
    let mut centroids = Vec::with_capacity(k);
    centroids.push(points[rng.random_range(0..points.len())].clone());
    while centroids.len() < k {
        let mut weights = Vec::with_capacity(points.len());
        let mut total = 0.0;
        for p in points {
            let (_, d2) = nearest_centroid(p, &centroids)?;
            weights.push(d2);
            total += d2;
        }
        let idx = if total <= 0.0 {
            // All points coincide with existing centroids: pick uniformly.
            rng.random_range(0..points.len())
        } else {
            let mut target = rng.random::<f64>() * total;
            let mut chosen = points.len() - 1;
            for (i, &w) in weights.iter().enumerate() {
                target -= w;
                if target <= 0.0 {
                    chosen = i;
                    break;
                }
            }
            chosen
        };
        centroids.push(points[idx].clone());
    }
    Ok(centroids)
}

/// Outcome of a K-means run.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansResult {
    centroids: Vec<Vec<f64>>,
    assignments: Vec<usize>,
    inertia: f64,
    mean_within_cluster_distance: f64,
}

impl KMeansResult {
    /// Final centroids (k rows).
    pub fn centroids(&self) -> &[Vec<f64>] {
        &self.centroids
    }

    /// Cluster index per input point.
    pub fn assignments(&self) -> &[usize] {
        &self.assignments
    }

    /// Sum of squared distances to assigned centroids.
    pub fn inertia(&self) -> f64 {
        self.inertia
    }

    /// Mean Euclidean distance from points to their centroid — the y-axis
    /// of the paper's Fig. 3 elbow plot.
    pub fn mean_within_cluster_distance(&self) -> f64 {
        self.mean_within_cluster_distance
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.len()
    }

    /// Sizes of each cluster.
    pub fn cluster_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.k()];
        for &a in &self.assignments {
            sizes[a] += 1;
        }
        sizes
    }

    /// Index of the point closest to each centroid (the paper's "centroid
    /// failure" representative drives of Fig. 5); `None` for clusters that
    /// ended up empty (possible when many points coincide).
    ///
    /// # Errors
    ///
    /// Propagates distance shape errors if `points` differ in dimension
    /// from the fit.
    pub fn medoids(&self, points: &[Vec<f64>]) -> Result<Vec<Option<usize>>, StatsError> {
        let mut best: Vec<(Option<usize>, f64)> = vec![(None, f64::INFINITY); self.k()];
        for (i, p) in points.iter().enumerate() {
            let a = self.assignments[i];
            let d = euclidean(p, &self.centroids[a])?;
            if d < best[a].1 {
                best[a] = (Some(i), d);
            }
        }
        Ok(best.into_iter().map(|(i, _)| i).collect())
    }
}

/// Streaming (mini-batch) K-means centroid accumulator: fold points in,
/// read refined centroids out, without ever holding more than one chunk's
/// assignments in memory.
///
/// Each `UPDATE_CHUNK`-sized (512-point) chunk is assigned against the centroids as
/// they stood at the chunk's start (block-wise over columns, so the
/// assignment kernel is the same auto-vectorizable sweep the batch fit
/// uses), then the running-mean update
/// `c += (x − c) / count` is applied *sequentially in point order* — the
/// classic mini-batch rule, with a per-centroid observation count as the
/// learning-rate schedule. Chunks are processed in order and the update
/// loop never fans out, so the folded centroids are a pure function of
/// `(initial, point order)` at any [`Parallelism`] mode.
///
/// # Example
///
/// ```
/// use dds_cluster::StreamingKMeans;
///
/// let mut stream = StreamingKMeans::new(vec![vec![0.0], vec![10.0]]).unwrap();
/// stream.fold(&[vec![1.0], vec![9.0], vec![1.0], vec![11.0]]).unwrap();
/// let centroids = stream.centroids();
/// assert!(centroids[0][0] < 5.0 && centroids[1][0] > 5.0);
/// assert_eq!(stream.observations(), 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingKMeans {
    centroids: Vec<Vec<f64>>,
    counts: Vec<u64>,
    parallelism: Parallelism,
}

impl StreamingKMeans {
    /// Starts the stream from `initial` centroids (typically a prior
    /// artifact's) with zeroed observation counts.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] for no centroids and
    /// [`StatsError::DimensionMismatch`] for ragged ones.
    pub fn new(initial: Vec<Vec<f64>>) -> Result<Self, StatsError> {
        let dim = match initial.first() {
            Some(first) if !first.is_empty() => first.len(),
            _ => return Err(StatsError::EmptyInput),
        };
        for c in &initial {
            if c.len() != dim {
                return Err(StatsError::DimensionMismatch { expected: dim, actual: c.len() });
            }
        }
        let counts = vec![0u64; initial.len()];
        Ok(StreamingKMeans { centroids: initial, counts, parallelism: Parallelism::Auto })
    }

    /// Sets the parallelism of the per-chunk assignment step. Never
    /// affects the folded centroids.
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Folds a batch of row-major points into the stream.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::DimensionMismatch`] for rows of the wrong
    /// dimension. An empty batch is a no-op.
    pub fn fold(&mut self, points: &[Vec<f64>]) -> Result<(), StatsError> {
        if points.is_empty() {
            return Ok(());
        }
        let dim = self.centroids[0].len();
        for p in points {
            if p.len() != dim {
                return Err(StatsError::DimensionMismatch { expected: dim, actual: p.len() });
            }
        }
        let columns = ColMatrix::from_rows(points)?;
        self.fold_columns(&columns, self.parallelism)
    }

    /// Folds a column-major batch into the stream, chunk by chunk.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::DimensionMismatch`] when the matrix has the
    /// wrong number of columns.
    pub fn fold_columns(
        &mut self,
        columns: &ColMatrix,
        par: Parallelism,
    ) -> Result<(), StatsError> {
        let dim = self.centroids[0].len();
        if columns.num_cols() != dim {
            return Err(StatsError::DimensionMismatch {
                expected: dim,
                actual: columns.num_cols(),
            });
        }
        let n = columns.num_rows();
        let mut start = 0;
        while start < n {
            let end = (start + UPDATE_CHUNK).min(n);
            let assigned = assign_block_range(columns, start, end, &self.centroids, par);
            for (offset, &(a, _)) in assigned.iter().enumerate() {
                let row = start + offset;
                self.counts[a] += 1;
                let lr = 1.0 / self.counts[a] as f64;
                for (d, c) in self.centroids[a].iter_mut().enumerate() {
                    *c += lr * (columns.col(d)[row] - *c);
                }
            }
            start = end;
        }
        Ok(())
    }

    /// The centroids as folded so far.
    pub fn centroids(&self) -> &[Vec<f64>] {
        &self.centroids
    }

    /// Consumes the stream, returning the folded centroids.
    pub fn into_centroids(self) -> Vec<Vec<f64>> {
        self.centroids
    }

    /// Points folded into each centroid.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total points folded in.
    pub fn observations(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// Runs K-means for every `k` in `1..=k_max` and returns
/// `(k, mean within-cluster distance)` pairs — the paper's Fig. 3 sweep.
/// Each `k` runs its restarts under `par`; the sweep values are identical
/// in every mode.
///
/// # Errors
///
/// Propagates [`KMeans::fit`] errors (e.g. fewer points than `k_max`).
pub fn elbow_curve_with(
    points: &[Vec<f64>],
    k_max: usize,
    seed: u64,
    par: Parallelism,
) -> Result<Vec<(usize, f64)>, StatsError> {
    (1..=k_max)
        .map(|k| {
            let config = KMeansConfig::new(k).with_seed(seed).with_parallelism(par);
            let result = KMeans::new(config).fit(points)?;
            Ok((k, result.mean_within_cluster_distance()))
        })
        .collect()
}

/// Picks the elbow of a sweep: the `k` after which the marginal improvement
/// drops below `flatness` times the first improvement. Falls back to the
/// largest improvement ratio when the curve never flattens.
pub fn pick_elbow(curve: &[(usize, f64)], flatness: f64) -> usize {
    if curve.len() < 3 {
        return curve.last().map_or(1, |&(k, _)| k);
    }
    let first_drop = (curve[0].1 - curve[1].1).max(1e-12);
    for w in curve.windows(2).skip(1) {
        let drop = w[0].1 - w[1].1;
        if drop < flatness * first_drop {
            return w[0].0;
        }
    }
    curve.last().expect("non-empty curve").0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_blobs() -> (Vec<Vec<f64>>, Vec<usize>) {
        // Deterministic, well-separated blobs.
        let mut points = Vec::new();
        let mut truth = Vec::new();
        let centers = [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)];
        for (label, &(cx, cy)) in centers.iter().enumerate() {
            for i in 0..20 {
                let dx = (i % 5) as f64 * 0.1;
                let dy = (i / 5) as f64 * 0.1;
                points.push(vec![cx + dx, cy + dy]);
                truth.push(label);
            }
        }
        (points, truth)
    }

    #[test]
    fn recovers_three_blobs() {
        let (points, truth) = three_blobs();
        let result = KMeans::new(KMeansConfig::new(3).with_seed(1)).fit(&points).unwrap();
        assert_eq!(result.k(), 3);
        let sizes = result.cluster_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 60);
        assert!(sizes.iter().all(|&s| s == 20), "sizes {sizes:?}");
        // Points sharing a truth label share a cluster.
        for i in 0..points.len() {
            for j in 0..points.len() {
                if truth[i] == truth[j] {
                    assert_eq!(result.assignments()[i], result.assignments()[j]);
                }
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (points, _) = three_blobs();
        let a = KMeans::new(KMeansConfig::new(3).with_seed(9)).fit(&points).unwrap();
        let b = KMeans::new(KMeansConfig::new(3).with_seed(9)).fit(&points).unwrap();
        assert_eq!(a.assignments(), b.assignments());
        assert_eq!(a.inertia(), b.inertia());
    }

    #[test]
    fn single_cluster_centroid_is_mean() {
        let points = vec![vec![0.0, 0.0], vec![2.0, 2.0], vec![4.0, 4.0]];
        let result = KMeans::new(KMeansConfig::new(1).with_seed(2)).fit(&points).unwrap();
        assert!((result.centroids()[0][0] - 2.0).abs() < 1e-9);
        assert!((result.centroids()[0][1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn k_equals_n_gives_zero_inertia() {
        let points = vec![vec![0.0], vec![5.0], vec![9.0]];
        let result = KMeans::new(KMeansConfig::new(3).with_seed(3)).fit(&points).unwrap();
        assert!(result.inertia() < 1e-18);
        assert_eq!(result.mean_within_cluster_distance(), 0.0);
    }

    #[test]
    fn rejects_invalid_input() {
        assert!(KMeans::new(KMeansConfig::new(2)).fit(&[]).is_err());
        assert!(KMeans::new(KMeansConfig::new(5)).fit(&[vec![1.0], vec![2.0]]).is_err());
        assert!(KMeans::new(KMeansConfig::new(1)).fit(&[vec![1.0, 2.0], vec![1.0]]).is_err());
    }

    #[test]
    fn elbow_curve_is_monotone_decreasing() {
        let (points, _) = three_blobs();
        let curve = elbow_curve_with(&points, 6, 1, Parallelism::Auto).unwrap();
        assert_eq!(curve.len(), 6);
        for w in curve.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-6, "curve must not rise: {curve:?}");
        }
    }

    #[test]
    fn elbow_at_three_for_three_blobs() {
        let (points, _) = three_blobs();
        let curve = elbow_curve_with(&points, 8, 1, Parallelism::Auto).unwrap();
        assert_eq!(pick_elbow(&curve, 0.05), 3, "curve: {curve:?}");
    }

    #[test]
    fn pick_elbow_degenerate_curves() {
        assert_eq!(pick_elbow(&[], 0.1), 1);
        assert_eq!(pick_elbow(&[(1, 5.0)], 0.1), 1);
        assert_eq!(pick_elbow(&[(1, 5.0), (2, 4.0)], 0.1), 2);
    }

    #[test]
    fn medoids_are_members_of_their_cluster() {
        let (points, _) = three_blobs();
        let result = KMeans::new(KMeansConfig::new(3).with_seed(4)).fit(&points).unwrap();
        let medoids = result.medoids(&points).unwrap();
        assert_eq!(medoids.len(), 3);
        for (cluster, m) in medoids.iter().enumerate() {
            let m = m.expect("non-empty cluster has a medoid");
            assert_eq!(result.assignments()[m], cluster);
        }
    }

    #[test]
    fn blocked_assignment_matches_scalar_nearest_centroid_bitwise() {
        // > ASSIGN_BLOCK points with deliberate near-ties so the winner
        // fold is exercised, across sequential and threaded runs.
        let points: Vec<Vec<f64>> = (0..700)
            .map(|i| {
                let x = ((i * 37) % 101) as f64 / 101.0;
                let y = ((i * 61) % 89) as f64 / 89.0;
                vec![x, y, (x - y).abs()]
            })
            .collect();
        // The duplicated centroid forces exact distance ties; the blocked
        // fold must keep the lower index, as the scalar scan does.
        let centroids = vec![vec![0.2, 0.2, 0.1], vec![0.8, 0.5, 0.3], vec![0.2, 0.2, 0.1]];
        let columns = ColMatrix::from_rows(&points).unwrap();
        for par in [Parallelism::Sequential, Parallelism::Auto, Parallelism::Threads(4)] {
            let blocked = assign_blocks(&columns, &centroids, par);
            for (p, &(a, d2)) in points.iter().zip(&blocked) {
                let (sa, sd2) = nearest_centroid(p, &centroids).unwrap();
                assert_eq!(a, sa, "{par:?}");
                assert_eq!(d2.to_bits(), sd2.to_bits(), "{par:?}");
            }
        }
    }

    #[test]
    fn refine_recovers_blobs_from_perturbed_centroids() {
        let (points, truth) = three_blobs();
        // Perturbed versions of the true centers: the warm start must pull
        // them back onto the blobs without any RNG.
        let initial = vec![vec![1.0, 1.5], vec![8.5, 1.0], vec![1.5, 9.0]];
        let result = KMeans::new(KMeansConfig::new(3)).refine(&points, &initial).unwrap();
        let sizes = result.cluster_sizes();
        assert!(sizes.iter().all(|&s| s == 20), "sizes {sizes:?}");
        for i in 0..points.len() {
            for j in 0..points.len() {
                if truth[i] == truth[j] {
                    assert_eq!(result.assignments()[i], result.assignments()[j]);
                }
            }
        }
        // Warm refinement reaches the same optimum as the cold fit.
        let cold = KMeans::new(KMeansConfig::new(3).with_seed(1)).fit(&points).unwrap();
        assert!((result.inertia() - cold.inertia()).abs() < 1e-9);
    }

    #[test]
    fn refine_is_bit_identical_across_parallelism_modes() {
        let (points, _) = three_blobs();
        let initial = vec![vec![0.5, 0.5], vec![9.0, 1.0], vec![1.0, 9.0]];
        let reference = KMeans::new(KMeansConfig::new(3).with_parallelism(Parallelism::Sequential))
            .refine(&points, &initial)
            .unwrap();
        for par in [Parallelism::Auto, Parallelism::Threads(4)] {
            let run = KMeans::new(KMeansConfig::new(3).with_parallelism(par))
                .refine(&points, &initial)
                .unwrap();
            assert_eq!(run.assignments(), reference.assignments(), "{par:?}");
            assert_eq!(run.inertia().to_bits(), reference.inertia().to_bits(), "{par:?}");
            for (a, b) in run.centroids().iter().zip(reference.centroids()) {
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{par:?}");
                }
            }
        }
    }

    #[test]
    fn refine_rejects_invalid_input() {
        let (points, _) = three_blobs();
        let kmeans = KMeans::new(KMeansConfig::new(3));
        assert!(kmeans.refine(&[], &[vec![0.0, 0.0]]).is_err());
        assert!(kmeans.refine(&points, &[]).is_err());
        assert!(kmeans.refine(&points, &[vec![0.0]]).is_err());
        assert!(kmeans.refine(&points[..2], &[vec![0.0; 2], vec![1.0; 2], vec![2.0; 2]]).is_err());
    }

    #[test]
    fn streaming_fold_is_a_running_mean_for_one_centroid() {
        let mut stream = StreamingKMeans::new(vec![vec![0.0, 0.0]]).unwrap();
        let points: Vec<Vec<f64>> = (0..1500).map(|i| vec![i as f64, (i % 7) as f64]).collect();
        stream.fold(&points).unwrap();
        assert_eq!(stream.observations(), 1500);
        // With a single centroid the mini-batch rule degenerates to the
        // exact running mean of the stream.
        let mean_x = points.iter().map(|p| p[0]).sum::<f64>() / points.len() as f64;
        assert!((stream.centroids()[0][0] - mean_x).abs() < 1e-6);
    }

    #[test]
    fn streaming_fold_matches_across_parallelism_and_batch_splits() {
        // > UPDATE_CHUNK points so the chunk loop runs more than once; the
        // folded centroids must not depend on the thread count or on how
        // the stream was cut into fold() calls.
        let points: Vec<Vec<f64>> = (0..1300)
            .map(|i| {
                let x = ((i * 37) % 101) as f64 / 101.0;
                let y = ((i * 61) % 89) as f64 / 89.0;
                vec![x, y]
            })
            .collect();
        let initial = vec![vec![0.2, 0.2], vec![0.8, 0.8]];
        let mut whole = StreamingKMeans::new(initial.clone())
            .unwrap()
            .with_parallelism(Parallelism::Sequential);
        whole.fold(&points).unwrap();
        for par in [Parallelism::Auto, Parallelism::Threads(4)] {
            let mut run = StreamingKMeans::new(initial.clone()).unwrap().with_parallelism(par);
            run.fold(&points).unwrap();
            assert_eq!(run.counts(), whole.counts(), "{par:?}");
            for (a, b) in run.centroids().iter().zip(whole.centroids()) {
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{par:?}");
                }
            }
        }
        // Chunk boundaries are fixed per fold() call, so splitting the
        // stream at a chunk multiple reproduces the whole-stream fold.
        let mut split = StreamingKMeans::new(initial).unwrap();
        split.fold(&points[..512]).unwrap();
        split.fold(&points[512..1024]).unwrap();
        split.fold(&points[1024..]).unwrap();
        assert_eq!(split.counts(), whole.counts());
        for (a, b) in split.centroids().iter().zip(whole.centroids()) {
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn streaming_rejects_invalid_input() {
        assert!(StreamingKMeans::new(vec![]).is_err());
        assert!(StreamingKMeans::new(vec![vec![]]).is_err());
        assert!(StreamingKMeans::new(vec![vec![0.0, 1.0], vec![0.0]]).is_err());
        let mut stream = StreamingKMeans::new(vec![vec![0.0, 0.0]]).unwrap();
        assert!(stream.fold(&[vec![1.0]]).is_err());
        stream.fold(&[]).unwrap();
        assert_eq!(stream.observations(), 0);
    }

    #[test]
    fn duplicate_points_do_not_crash_init() {
        let points = vec![vec![1.0, 1.0]; 10];
        let result = KMeans::new(KMeansConfig::new(3).with_seed(5)).fit(&points).unwrap();
        assert_eq!(result.assignments().len(), 10);
        assert!(result.inertia() < 1e-18);
    }
}
