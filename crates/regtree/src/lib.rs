//! CART regression trees with SSE-minimizing splits.
//!
//! §V-B of the paper predicts the *degradation value* of a health sample
//! (a continuous target: 1 for good drives, the signature value `s(t)` for
//! failed ones) with a regression tree whose splits minimize the sum of
//! squared errors within child nodes (Eq. 8), chosen for its
//! "cost-effectiveness and ease of interpretation". This crate implements
//! that model: binary axis-aligned splits, depth and minimum-samples
//! controls, prediction, feature importances, and an ASCII rendering that
//! reproduces the paper's Fig. 13 tree printout.
//!
//! # Example
//!
//! ```
//! use dds_regtree::{RegressionTree, TreeConfig};
//!
//! // y = 1 if x > 0.5 else 0 — one split recovers it.
//! let xs: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64 / 100.0]).collect();
//! let ys: Vec<f64> = xs.iter().map(|x| if x[0] > 0.5 { 1.0 } else { 0.0 }).collect();
//! let tree = RegressionTree::fit(&xs, &ys, &TreeConfig::default()).unwrap();
//! assert!((tree.predict(&[0.9]) - 1.0).abs() < 1e-9);
//! assert!(tree.predict(&[0.1]).abs() < 1e-9);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

use dds_stats::par::{par_for_each_mut, par_map_indexed, split_chunks_mut, Parallelism};
use dds_stats::ColMatrix;
use std::error::Error;
use std::fmt;

/// Minimum `samples × features` in a node before split search fans out to
/// threads; below this the scan is cheaper than a thread hand-off. Depends
/// only on the data, never on the machine, so tree shape is identical in
/// every [`Parallelism`] mode.
const PAR_SPLIT_MIN_CELLS: usize = 4_096;

/// Minimum `samples × features` in a node before its ordering partition
/// fans out to threads. A partition costs a few nanoseconds per cell,
/// less than a split scan, so it takes a larger node than
/// [`PAR_SPLIT_MIN_CELLS`] to repay the thread spawns. Like that gate, it
/// depends only on the data, and the partition's output never depends on
/// the thread count.
const PAR_PARTITION_MIN_CELLS: usize = 1 << 16;

/// Minimum batch size before predictions fan out to threads.
const PAR_PREDICT_MIN_ROWS: usize = 2_048;

/// Cached handle to `dds_regtree_predictions_total`, which the batch
/// predictors add to once per call. [`RegressionTree::predict`] writes
/// nothing global: it runs once per tree for every record a serving shard
/// scores, and the shard coordinator adds those predictions once per
/// merged batch.
fn predictions_counter() -> &'static std::sync::Arc<dds_obs::metrics::Counter> {
    static COUNTER: std::sync::OnceLock<std::sync::Arc<dds_obs::metrics::Counter>> =
        std::sync::OnceLock::new();
    COUNTER.get_or_init(|| dds_obs::metrics::global().counter("dds_regtree_predictions_total"))
}

/// Errors produced when fitting or querying a regression tree.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TreeError {
    /// No training samples were provided.
    EmptyInput,
    /// Feature rows have inconsistent lengths, or targets don't match rows.
    DimensionMismatch {
        /// Expected length.
        expected: usize,
        /// Actual length.
        actual: usize,
    },
    /// A configuration field is out of its valid domain.
    InvalidConfig(String),
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::EmptyInput => write!(f, "training set is empty"),
            TreeError::DimensionMismatch { expected, actual } => {
                write!(f, "dimension mismatch: expected {expected}, got {actual}")
            }
            TreeError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl Error for TreeError {}

/// Hyper-parameters of a [`RegressionTree`].
#[derive(Debug, Clone, PartialEq)]
pub struct TreeConfig {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum samples a node needs to be considered for splitting.
    pub min_samples_split: usize,
    /// Minimum samples each child of a split must retain.
    pub min_samples_leaf: usize,
    /// Minimum SSE reduction a split must achieve to be accepted.
    pub min_impurity_decrease: f64,
    /// Parallelism of fitting (root presort, split search, ordering
    /// partition) and of batch prediction. Never affects the fitted tree
    /// or its predictions — candidate features are folded in index order
    /// with the same tie-breaking the sequential scan uses, and every
    /// ordering is sorted and partitioned by the same sequential pass.
    pub parallelism: Parallelism,
}

impl TreeConfig {
    /// Creates the default configuration (depth ≤ 8, split ≥ 20 samples,
    /// leaves ≥ 5 samples, any positive improvement).
    pub fn new() -> Self {
        TreeConfig {
            max_depth: 8,
            min_samples_split: 20,
            min_samples_leaf: 5,
            min_impurity_decrease: 1e-9,
            parallelism: Parallelism::Auto,
        }
    }

    /// Sets the parallelism mode.
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Sets the maximum depth.
    #[must_use]
    pub fn with_max_depth(mut self, depth: usize) -> Self {
        self.max_depth = depth;
        self
    }

    /// Sets the minimum node size for splitting.
    #[must_use]
    pub fn with_min_samples_split(mut self, n: usize) -> Self {
        self.min_samples_split = n.max(2);
        self
    }

    /// Sets the minimum leaf size.
    #[must_use]
    pub fn with_min_samples_leaf(mut self, n: usize) -> Self {
        self.min_samples_leaf = n.max(1);
        self
    }

    fn validate(&self) -> Result<(), TreeError> {
        if self.min_samples_leaf == 0 {
            return Err(TreeError::InvalidConfig("min_samples_leaf must be ≥ 1".to_string()));
        }
        if self.min_samples_split < 2 {
            return Err(TreeError::InvalidConfig("min_samples_split must be ≥ 2".to_string()));
        }
        if self.min_impurity_decrease < 0.0 {
            return Err(TreeError::InvalidConfig(
                "min_impurity_decrease must be non-negative".to_string(),
            ));
        }
        Ok(())
    }
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig::new()
    }
}

/// A node of the fitted tree.
#[derive(Debug, Clone, PartialEq)]
enum Node {
    Leaf { value: f64, samples: usize },
    Split { feature: usize, threshold: f64, value: f64, samples: usize, left: usize, right: usize },
}

/// A serializable view of one tree node, used to export a fitted tree
/// (e.g. into a model artifact) and rebuild it with
/// [`RegressionTree::from_parts`]. Child links are indices into the same
/// node list; node 0 is the root.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodeSpec {
    /// A terminal node carrying the mean target of its samples.
    Leaf {
        /// Predicted value (mean target of the node's samples).
        value: f64,
        /// Training samples that reached this node.
        samples: usize,
    },
    /// An internal node splitting on `feature < threshold`.
    Split {
        /// Feature index the split tests.
        feature: usize,
        /// Split threshold (`row[feature] < threshold` goes left).
        threshold: f64,
        /// Mean target of the node's samples (shown by [`RegressionTree::render`]).
        value: f64,
        /// Training samples that reached this node.
        samples: usize,
        /// Node index of the left child.
        left: usize,
        /// Node index of the right child.
        right: usize,
    },
}

/// A fitted CART regression tree.
#[derive(Debug, Clone)]
pub struct RegressionTree {
    nodes: Vec<Node>,
    num_features: usize,
    importances: Vec<f64>,
    parallelism: Parallelism,
}

/// Equality compares the fitted model only; the [`Parallelism`] mode a
/// tree was fitted with is an execution detail, not part of the model.
impl PartialEq for RegressionTree {
    fn eq(&self, other: &Self) -> bool {
        self.nodes == other.nodes
            && self.num_features == other.num_features
            && self.importances == other.importances
    }
}

impl RegressionTree {
    /// Fits a tree on row-features `xs` and targets `ys`.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::EmptyInput`] for no samples,
    /// [`TreeError::DimensionMismatch`] for ragged rows or a target length
    /// that differs from the row count, and [`TreeError::InvalidConfig`]
    /// for out-of-domain hyper-parameters.
    pub fn fit(xs: &[Vec<f64>], ys: &[f64], config: &TreeConfig) -> Result<Self, TreeError> {
        config.validate()?;
        if xs.is_empty() || xs[0].is_empty() {
            return Err(TreeError::EmptyInput);
        }
        if xs.len() != ys.len() {
            return Err(TreeError::DimensionMismatch { expected: xs.len(), actual: ys.len() });
        }
        let num_features = xs[0].len();
        for row in xs {
            if row.len() != num_features {
                return Err(TreeError::DimensionMismatch {
                    expected: num_features,
                    actual: row.len(),
                });
            }
        }
        let _span = dds_obs::span!(
            dds_obs::Level::Debug,
            "regtree.fit",
            rows = xs.len(),
            features = num_features,
            max_depth = config.max_depth,
        );
        dds_obs::metrics::global().counter("dds_regtree_fits_total").inc();
        let mut tree = RegressionTree {
            nodes: Vec::new(),
            num_features,
            importances: vec![0.0; num_features],
            parallelism: config.parallelism,
        };
        let indices: Vec<usize> = (0..xs.len()).collect();
        tree.build(xs, ys, indices, 0, config);
        // Normalize importances.
        let total: f64 = tree.importances.iter().sum();
        if total > 0.0 {
            for imp in &mut tree.importances {
                *imp /= total;
            }
        }
        dds_obs::event!(dds_obs::Level::Trace, "regtree.built", nodes = tree.nodes.len());
        Ok(tree)
    }

    /// Fits a tree on column-major features — the cache-friendly fast path.
    ///
    /// Produces a tree **bit-identical** to [`fit`](Self::fit) on the
    /// row-major view of the same data, but replaces the per-node,
    /// per-feature `O(n log n)` sorts of the classic scan with one stable
    /// sort per feature at the root plus an `O(n)` stable partition per
    /// node. The partition is branch-free (each element is written at
    /// both a left and a right cursor, and its flag picks which one
    /// advances), fans the features out over `config.parallelism` on large
    /// nodes, and carries each child's per-feature Σy and Σy² out of the
    /// same pass, so a split scan reads its node once. The orderings are
    /// not partitioned at all when neither child can be searched. The
    /// identity argument:
    ///
    /// * In [`fit`](Self::fit), every node's index list is in ascending
    ///   original-row order (the root starts at `0..n` and partitioning
    ///   preserves order), so the stable per-node sort orders ties by
    ///   ascending row.
    /// * Here, the root's per-feature orderings are stable sorts of `0..n`
    ///   (ties ascending), and each node partitions them stably, so every
    ///   descendant's ordering also has ties ascending — the exact sequence
    ///   the per-node sort would produce.
    /// * The carried totals fold each child's targets in that child's
    ///   sorted order, from `-0.0` as `Iterator::sum` does, so they equal
    ///   the totals the classic scan sums afresh.
    /// * With identical scan order, the prefix sums, thresholds,
    ///   tie-breaking, recursion order, and importances all match to the
    ///   last bit, in every [`Parallelism`] mode.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::DimensionMismatch`] when targets don't match
    /// the row count and [`TreeError::InvalidConfig`] for out-of-domain
    /// hyper-parameters or more than `u32::MAX` rows (row indices are kept
    /// as `u32` to halve the bandwidth of partitioning).
    ///
    /// # Panics
    ///
    /// Panics if any feature value is NaN (as does [`fit`](Self::fit)).
    pub fn fit_columns(
        matrix: &ColMatrix,
        ys: &[f64],
        config: &TreeConfig,
    ) -> Result<Self, TreeError> {
        let mut scratch = FitScratch::default();
        Self::fit_columns_with_scratch(matrix, ys, config, &mut scratch)
    }

    /// [`fit_columns`](Self::fit_columns) with caller-owned working memory.
    ///
    /// A fit allocates several arrays proportional to `rows × features`
    /// (the presorted orderings plus a partition spill per worker).
    /// Callers that fit many trees back to back — the per-group loop in
    /// degradation prediction, cross-validation sweeps — can pass the same
    /// [`FitScratch`] to every call and reuse those allocations instead of
    /// paying the allocator (and, under glibc's main arena, the
    /// heap-trim/page-fault churn of repeatedly releasing and refaulting
    /// large buffers) on every tree.
    ///
    /// The scratch carries no information between fits — every byte is
    /// overwritten before use — so results are bit-identical to
    /// [`fit_columns`](Self::fit_columns) regardless of what the scratch
    /// held before.
    ///
    /// # Errors
    ///
    /// Exactly as [`fit_columns`](Self::fit_columns).
    pub fn fit_columns_with_scratch(
        matrix: &ColMatrix,
        ys: &[f64],
        config: &TreeConfig,
        scratch: &mut FitScratch,
    ) -> Result<Self, TreeError> {
        config.validate()?;
        let n = matrix.num_rows();
        let num_features = matrix.num_cols();
        if n == 0 {
            return Err(TreeError::EmptyInput);
        }
        if n != ys.len() {
            return Err(TreeError::DimensionMismatch { expected: n, actual: ys.len() });
        }
        if n > u32::MAX as usize {
            return Err(TreeError::InvalidConfig(format!(
                "fit_columns supports at most {} rows, got {n}",
                u32::MAX
            )));
        }
        let _span = dds_obs::span!(
            dds_obs::Level::Debug,
            "regtree.fit_columns",
            rows = n,
            features = num_features,
            max_depth = config.max_depth,
        );
        dds_obs::metrics::global().counter("dds_regtree_fits_total").inc();
        let mut tree = RegressionTree {
            nodes: Vec::new(),
            num_features,
            importances: vec![0.0; num_features],
            parallelism: config.parallelism,
        };
        // One stable sort per feature at the root; every node below reuses
        // these orderings through stable partitioning. Feature values and
        // targets are gathered into sorted order alongside the indices so
        // the split scans stream them sequentially. Each worker refills a
        // chunk of the scratch orderings in place, recycling their
        // capacity across fits.
        let scratch = &mut scratch.inner;
        scratch.orderings.truncate(num_features);
        scratch.orderings.resize_with(num_features, FeatureOrdering::default);
        let mut totals = vec![Totals::EMPTY; num_features];
        let mut presorts: Vec<_> = scratch.orderings.iter_mut().zip(&mut totals).collect();
        par_for_each_mut(config.parallelism, &mut presorts, |feature, (ordering, totals)| {
            **totals = ordering.presort(matrix.col(feature), ys);
        });
        scratch.rows.clear();
        scratch.rows.extend(0..n as u32);
        scratch.goes_left.clear();
        scratch.goes_left.resize(n, false);
        if scratch.spills.is_empty() {
            scratch.spills.push(Spill::default());
        }
        tree.build_columns(matrix, ys, scratch, 0, n, 0, &totals, config);
        let total: f64 = tree.importances.iter().sum();
        if total > 0.0 {
            for imp in &mut tree.importances {
                *imp /= total;
            }
        }
        dds_obs::event!(dds_obs::Level::Trace, "regtree.built", nodes = tree.nodes.len());
        Ok(tree)
    }

    /// Builds a subtree over the global range `[start, end)` of the
    /// presorted scratch arrays and returns its node id. `totals` holds
    /// each feature's Σy and Σy² over the range in that feature's sorted
    /// order; it is empty when the orderings were left unpartitioned
    /// because the node cannot be searched.
    #[allow(clippy::too_many_arguments)]
    fn build_columns(
        &mut self,
        matrix: &ColMatrix,
        ys: &[f64],
        scratch: &mut ColumnsScratch,
        start: usize,
        end: usize,
        depth: usize,
        totals: &[Totals],
        config: &TreeConfig,
    ) -> usize {
        let n = end - start;
        let mean = scratch.rows[start..end].iter().map(|&i| ys[i as usize]).sum::<f64>() / n as f64;
        let make_leaf = |this: &mut Self| {
            this.nodes.push(Node::Leaf { value: mean, samples: n });
            this.nodes.len() - 1
        };
        if depth >= config.max_depth || n < config.min_samples_split {
            return make_leaf(self);
        }
        let sse: f64 = scratch.rows[start..end]
            .iter()
            .map(|&i| (ys[i as usize] - mean) * (ys[i as usize] - mean))
            .sum();
        if sse <= 1e-12 {
            return make_leaf(self);
        }
        let Some(best) =
            self.best_split_columns(&scratch.orderings, totals, start, end, sse, config)
        else {
            return make_leaf(self);
        };
        // Mark the left side once, then stably partition the row list and
        // every ordering so relative order (ties ascending by row) survives
        // into both children.
        let feature_col = matrix.col(best.feature);
        let mut left_count = 0usize;
        for &i in &scratch.rows[start..end] {
            let goes_left = feature_col[i as usize] < best.threshold;
            scratch.goes_left[i as usize] = goes_left;
            left_count += usize::from(goes_left);
        }
        let mid = start + left_count;
        let right_count = n - left_count;
        partition_rows(
            &mut scratch.rows[start..end],
            &scratch.goes_left,
            right_count,
            &mut scratch.spills[0].rows,
        );
        // A child that cannot be searched becomes a leaf from `rows` alone,
        // so the orderings only move when at least one child can split.
        let searchable = |len: usize| len >= config.min_samples_split;
        let children = if depth + 1 < config.max_depth
            && (searchable(left_count) || searchable(right_count))
        {
            partition_orderings(scratch, start, end, right_count, config.parallelism)
        } else {
            Vec::new()
        };
        let (left_totals, right_totals): (Vec<Totals>, Vec<Totals>) =
            children.into_iter().map(|[left, right]| (left, right)).unzip();
        self.importances[best.feature] += best.improvement;
        let node_id = self.nodes.len();
        self.nodes.push(Node::Split {
            feature: best.feature,
            threshold: best.threshold,
            value: mean,
            samples: n,
            left: 0,
            right: 0,
        });
        let left =
            self.build_columns(matrix, ys, scratch, start, mid, depth + 1, &left_totals, config);
        let right =
            self.build_columns(matrix, ys, scratch, mid, end, depth + 1, &right_totals, config);
        if let Node::Split { left: l, right: r, .. } = &mut self.nodes[node_id] {
            *l = left;
            *r = right;
        }
        node_id
    }

    /// Column-major counterpart of [`best_split`](Self::best_split): same
    /// parallelism gate, same feature fan-out, same strictly-greater fold,
    /// but each feature scans its presorted value/target streams, starting
    /// from the totals its parent's partition carried, instead of sorting.
    fn best_split_columns(
        &self,
        orderings: &[FeatureOrdering],
        totals: &[Totals],
        start: usize,
        end: usize,
        parent_sse: f64,
        config: &TreeConfig,
    ) -> Option<BestSplit> {
        let par = if (end - start) * self.num_features >= PAR_SPLIT_MIN_CELLS {
            config.parallelism
        } else {
            Parallelism::Sequential
        };
        let features: Vec<usize> = (0..self.num_features).collect();
        let per_feature = par_map_indexed(par, &features, |_, &feature| {
            let ordering = &orderings[feature];
            best_split_for_feature_columns(
                &ordering.vals[start..end],
                &ordering.ys[start..end],
                totals[feature],
                parent_sse,
                config,
                feature,
            )
        });
        let mut best: Option<BestSplit> = None;
        for candidate in per_feature.into_iter().flatten() {
            if best.as_ref().is_none_or(|b| candidate.improvement > b.improvement) {
                best = Some(candidate);
            }
        }
        best
    }

    /// Builds a subtree over `indices` and returns its node id.
    fn build(
        &mut self,
        xs: &[Vec<f64>],
        ys: &[f64],
        indices: Vec<usize>,
        depth: usize,
        config: &TreeConfig,
    ) -> usize {
        let n = indices.len();
        let mean = indices.iter().map(|&i| ys[i]).sum::<f64>() / n as f64;
        let sse: f64 = indices.iter().map(|&i| (ys[i] - mean) * (ys[i] - mean)).sum();
        let make_leaf = |this: &mut Self| {
            this.nodes.push(Node::Leaf { value: mean, samples: n });
            this.nodes.len() - 1
        };
        if depth >= config.max_depth || n < config.min_samples_split || sse <= 1e-12 {
            return make_leaf(self);
        }
        let Some(best) = self.best_split(xs, ys, &indices, sse, config) else {
            return make_leaf(self);
        };
        // Partition and recurse.
        let (mut left_idx, mut right_idx) = (Vec::new(), Vec::new());
        for &i in &indices {
            if xs[i][best.feature] < best.threshold {
                left_idx.push(i);
            } else {
                right_idx.push(i);
            }
        }
        self.importances[best.feature] += best.improvement;
        let node_id = self.nodes.len();
        self.nodes.push(Node::Split {
            feature: best.feature,
            threshold: best.threshold,
            value: mean,
            samples: n,
            left: 0,
            right: 0,
        });
        let left = self.build(xs, ys, left_idx, depth + 1, config);
        let right = self.build(xs, ys, right_idx, depth + 1, config);
        if let Node::Split { left: l, right: r, .. } = &mut self.nodes[node_id] {
            *l = left;
            *r = right;
        }
        node_id
    }

    /// Finds the SSE-minimizing split (Eq. 8) over all features and
    /// thresholds, or `None` if no admissible split improves enough.
    ///
    /// Candidate features are evaluated independently (in parallel for
    /// large nodes) and folded in feature order with a strictly-greater
    /// comparison, so ties keep the lowest feature index — exactly what a
    /// sequential scan over `0..num_features` produces.
    fn best_split(
        &self,
        xs: &[Vec<f64>],
        ys: &[f64],
        indices: &[usize],
        parent_sse: f64,
        config: &TreeConfig,
    ) -> Option<BestSplit> {
        let par = if indices.len() * self.num_features >= PAR_SPLIT_MIN_CELLS {
            config.parallelism
        } else {
            Parallelism::Sequential
        };
        let features: Vec<usize> = (0..self.num_features).collect();
        let per_feature = par_map_indexed(par, &features, |_, &feature| {
            best_split_for_feature(xs, ys, indices, parent_sse, config, feature)
        });
        let mut best: Option<BestSplit> = None;
        for candidate in per_feature.into_iter().flatten() {
            if best.as_ref().is_none_or(|b| candidate.improvement > b.improvement) {
                best = Some(candidate);
            }
        }
        best
    }

    /// Predicts the target for one feature row. Counts into no metric; see
    /// [`predict_batch`](Self::predict_batch).
    ///
    /// # Panics
    ///
    /// Panics if the row has the wrong number of features.
    pub fn predict(&self, row: &[f64]) -> f64 {
        assert_eq!(row.len(), self.num_features, "feature count mismatch");
        let mut id = 0usize;
        loop {
            match &self.nodes[id] {
                Node::Leaf { value, .. } => return *value,
                Node::Split { feature, threshold, left, right, .. } => {
                    id = if row[*feature] < *threshold { *left } else { *right };
                }
            }
        }
    }

    /// Predicts a batch of rows. Large batches fan out across threads
    /// (per the [`Parallelism`] the tree was fitted with); output order
    /// always matches input order. Adds `rows.len()` to
    /// `dds_regtree_predictions_total`.
    pub fn predict_batch(&self, rows: &[Vec<f64>]) -> Vec<f64> {
        let _span =
            dds_obs::span!(dds_obs::Level::Debug, "regtree.predict_batch", rows = rows.len());
        predictions_counter().add(rows.len() as u64);
        par_map_indexed(self.batch_parallelism(rows.len()), rows, |_, r| self.predict(r))
    }

    /// Predicts a batch of borrowed rows — the zero-copy counterpart of
    /// [`predict_batch`](Self::predict_batch) for callers that already hold
    /// their samples elsewhere and would otherwise clone every row.
    pub fn predict_batch_ref(&self, rows: &[&[f64]]) -> Vec<f64> {
        let _span =
            dds_obs::span!(dds_obs::Level::Debug, "regtree.predict_batch", rows = rows.len());
        predictions_counter().add(rows.len() as u64);
        par_map_indexed(self.batch_parallelism(rows.len()), rows, |_, r| self.predict(r))
    }

    /// Parallelism for a batch of `rows` predictions: single predictions
    /// are so cheap that small batches stay on the calling thread.
    fn batch_parallelism(&self, rows: usize) -> Parallelism {
        if rows >= PAR_PREDICT_MIN_ROWS {
            self.parallelism
        } else {
            Parallelism::Sequential
        }
    }

    /// Number of nodes in the tree.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaf nodes.
    pub fn num_leaves(&self) -> usize {
        self.nodes.iter().filter(|n| matches!(n, Node::Leaf { .. })).count()
    }

    /// Tree depth (root-only tree has depth 0).
    pub fn depth(&self) -> usize {
        fn depth_of(nodes: &[Node], id: usize) -> usize {
            match &nodes[id] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => {
                    1 + depth_of(nodes, *left).max(depth_of(nodes, *right))
                }
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            depth_of(&self.nodes, 0)
        }
    }

    /// Normalized feature importances (summing to 1 when any split exists):
    /// each feature's share of the total SSE reduction.
    pub fn feature_importances(&self) -> &[f64] {
        &self.importances
    }

    /// Number of features the tree was fitted on.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Exports the node list (root at index 0) for serialization; feed the
    /// result back through [`from_parts`](Self::from_parts) to rebuild an
    /// equal tree.
    pub fn nodes(&self) -> Vec<NodeSpec> {
        self.nodes
            .iter()
            .map(|n| match *n {
                Node::Leaf { value, samples } => NodeSpec::Leaf { value, samples },
                Node::Split { feature, threshold, value, samples, left, right } => {
                    NodeSpec::Split { feature, threshold, value, samples, left, right }
                }
            })
            .collect()
    }

    /// Rebuilds a tree from exported parts (see [`nodes`](Self::nodes) and
    /// [`feature_importances`](Self::feature_importances)). The result
    /// predicts with [`Parallelism::Auto`]; parallelism is an execution
    /// detail, not part of the model, so the rebuilt tree compares equal to
    /// the original.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::EmptyInput`] for an empty node list and
    /// [`TreeError::InvalidConfig`] for structural problems: an
    /// importances length that differs from `num_features`, a split
    /// feature or child index out of range, a non-finite threshold, or a
    /// node graph that is not a tree rooted at node 0 (cycles, shared
    /// children, or unreachable nodes).
    pub fn from_parts(
        nodes: Vec<NodeSpec>,
        num_features: usize,
        importances: Vec<f64>,
    ) -> Result<Self, TreeError> {
        if nodes.is_empty() {
            return Err(TreeError::EmptyInput);
        }
        if num_features == 0 {
            return Err(TreeError::InvalidConfig("num_features must be ≥ 1".to_string()));
        }
        if importances.len() != num_features {
            return Err(TreeError::InvalidConfig(format!(
                "importances length {} != num_features {num_features}",
                importances.len()
            )));
        }
        for (id, node) in nodes.iter().enumerate() {
            if let NodeSpec::Split { feature, threshold, left, right, .. } = *node {
                if feature >= num_features {
                    return Err(TreeError::InvalidConfig(format!(
                        "node {id}: split feature {feature} out of range (num_features {num_features})"
                    )));
                }
                if !threshold.is_finite() {
                    return Err(TreeError::InvalidConfig(format!(
                        "node {id}: non-finite split threshold"
                    )));
                }
                if left >= nodes.len() || right >= nodes.len() {
                    return Err(TreeError::InvalidConfig(format!(
                        "node {id}: child index out of range ({left}/{right} of {})",
                        nodes.len()
                    )));
                }
            }
        }
        // The node list must form a tree rooted at 0: walking from the
        // root reaches every node exactly once (no cycles, no shared
        // children, no orphans).
        let mut visited = vec![false; nodes.len()];
        let mut stack = vec![0usize];
        while let Some(id) = stack.pop() {
            if visited[id] {
                return Err(TreeError::InvalidConfig(format!(
                    "node {id} reached twice: node graph is not a tree"
                )));
            }
            visited[id] = true;
            if let NodeSpec::Split { left, right, .. } = nodes[id] {
                stack.push(left);
                stack.push(right);
            }
        }
        if let Some(orphan) = visited.iter().position(|&v| !v) {
            return Err(TreeError::InvalidConfig(format!(
                "node {orphan} unreachable from the root"
            )));
        }
        let nodes = nodes
            .into_iter()
            .map(|n| match n {
                NodeSpec::Leaf { value, samples } => Node::Leaf { value, samples },
                NodeSpec::Split { feature, threshold, value, samples, left, right } => {
                    Node::Split { feature, threshold, value, samples, left, right }
                }
            })
            .collect();
        Ok(RegressionTree { nodes, num_features, importances, parallelism: Parallelism::Auto })
    }

    /// Renders the tree in the style of the paper's Fig. 13: each node shows
    /// its mean target value and sample share, splits show
    /// `feature < threshold`.
    ///
    /// `feature_names` must cover every feature index used by the tree.
    ///
    /// # Panics
    ///
    /// Panics if `feature_names` is shorter than the feature count.
    pub fn render(&self, feature_names: &[&str]) -> String {
        assert!(
            feature_names.len() >= self.num_features,
            "need a name for each of the {} features",
            self.num_features
        );
        let total = match &self.nodes[0] {
            Node::Leaf { samples, .. } | Node::Split { samples, .. } => *samples,
        };
        let mut out = String::new();
        self.render_node(0, 0, feature_names, total, &mut out);
        out
    }

    fn render_node(
        &self,
        id: usize,
        indent: usize,
        names: &[&str],
        total: usize,
        out: &mut String,
    ) {
        let pad = "  ".repeat(indent);
        match &self.nodes[id] {
            Node::Leaf { value, samples } => {
                out.push_str(&format!(
                    "{pad}leaf: {:.2} ({:.0}%)\n",
                    value,
                    100.0 * *samples as f64 / total as f64
                ));
            }
            Node::Split { feature, threshold, value, samples, left, right } => {
                out.push_str(&format!(
                    "{pad}{:.2} ({:.0}%) {} < {:.2}?\n",
                    value,
                    100.0 * *samples as f64 / total as f64,
                    names[*feature],
                    threshold
                ));
                self.render_node(*left, indent + 1, names, total, out);
                self.render_node(*right, indent + 1, names, total, out);
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct BestSplit {
    feature: usize,
    threshold: f64,
    improvement: f64,
}

/// Opaque reusable working memory for
/// [`RegressionTree::fit_columns_with_scratch`].
///
/// Holds the presorted per-feature orderings (a `rows × features` array
/// of row indices, values and targets), the node-major row list and one
/// partition spill per worker (each grown to the largest right side it
/// has held, plus one). Passing the same instance to consecutive fits
/// recycles those allocations: the presort refills the orderings in
/// place. Contents never leak between fits. `Default::default()` is an
/// empty scratch that grows on first use.
#[derive(Debug, Default)]
pub struct FitScratch {
    inner: ColumnsScratch,
}

/// Mutable working state of [`RegressionTree::fit_columns`]: one presorted
/// feature ordering per feature — the row indices plus the feature values
/// and targets *gathered into that same order*, so split scans read two
/// sequential streams instead of chasing rows through `ys` — the
/// node-major row list with its left/right flags, and one spill per
/// partition worker.
#[derive(Debug, Default)]
struct ColumnsScratch {
    orderings: Vec<FeatureOrdering>,
    rows: Vec<u32>,
    goes_left: Vec<bool>,
    spills: Vec<Spill>,
}

/// One feature's presorted view of the node ranges: `rows[k]` is the
/// original row at sorted position `k`, `vals[k]` its feature value and
/// `ys[k]` its target. All three are permuted identically, at the root by
/// [`presort`](Self::presort) and below it by
/// [`partition`](Self::partition).
#[derive(Debug, Default)]
struct FeatureOrdering {
    rows: Vec<u32>,
    vals: Vec<f64>,
    ys: Vec<f64>,
}

/// A partition worker's buffer for the right side of a node, one stream
/// per ordering stream. Grown on demand, never shrunk; the first spill
/// also serves the row list's partition.
#[derive(Debug, Default)]
struct Spill {
    rows: Vec<u32>,
    vals: Vec<f64>,
    ys: Vec<f64>,
}

/// Σy and Σy² of a node's targets, folded in one feature's sorted order
/// from `-0.0`, exactly as `Iterator::sum::<f64>()` folds: the totals the
/// split scan of that feature starts from.
#[derive(Debug, Clone, Copy)]
struct Totals {
    sum: f64,
    sq: f64,
}

impl Totals {
    /// The totals of no targets (`-0.0`, the start of a float `sum`).
    const EMPTY: Totals = Totals { sum: -0.0, sq: -0.0 };

    /// The totals of `ys`, in order.
    fn of(ys: &[f64]) -> Totals {
        Totals { sum: ys.iter().sum(), sq: ys.iter().map(|&y| y * y).sum() }
    }

    /// Folds `y` in when `take`, else adds `-0.0`. `x + -0.0 == x` for
    /// every `x`, `-0.0` included, so the fold equals one over the taken
    /// values alone; adding `0.0` (what multiplying by the flag gives)
    /// would turn a running `-0.0` into `0.0`.
    fn add_if(&mut self, take: bool, y: f64) {
        self.sum += if take { y } else { -0.0 };
        self.sq += if take { y * y } else { -0.0 };
    }
}

impl FeatureOrdering {
    /// Refills this ordering with a stable sort of rows `0..n` by `col`
    /// (ties ascending by row), gathers values and targets into that
    /// order, and returns the root's totals in it.
    fn presort(&mut self, col: &[f64], ys: &[f64]) -> Totals {
        self.rows.clear();
        self.rows.extend(0..col.len() as u32);
        self.rows.sort_by(|&a, &b| {
            col[a as usize].partial_cmp(&col[b as usize]).expect("finite features")
        });
        self.vals.clear();
        self.vals.extend(self.rows.iter().map(|&i| col[i as usize]));
        self.ys.clear();
        self.ys.extend(self.rows.iter().map(|&i| ys[i as usize]));
        Totals::of(&self.ys)
    }

    /// Stably partitions `[start, end)` so rows flagged in `goes_left`
    /// come first, moving rows, values and targets together, and returns
    /// the (left, right) children's totals in their sorted order.
    ///
    /// Branch-free: every element is written both at the in-place left
    /// cursor and at the spill's right cursor, and only the cursor its
    /// flag selects advances; the spill is then copied back behind the
    /// left side. The last write may land one past the right side, hence
    /// the spill's extra slot.
    fn partition(
        &mut self,
        start: usize,
        end: usize,
        goes_left: &[bool],
        right_count: usize,
        spill: &mut Spill,
    ) -> [Totals; 2] {
        let len = right_count + 1;
        grow(&mut spill.rows, len);
        grow(&mut spill.vals, len);
        grow(&mut spill.ys, len);
        let (rows, vals, ys) =
            (&mut self.rows[start..end], &mut self.vals[start..end], &mut self.ys[start..end]);
        let (spill_rows, spill_vals, spill_ys) =
            (&mut spill.rows[..len], &mut spill.vals[..len], &mut spill.ys[..len]);
        let mut totals = [Totals::EMPTY; 2];
        let (mut left, mut right) = (0usize, 0usize);
        for read in 0..rows.len() {
            let (i, v, y) = (rows[read], vals[read], ys[read]);
            let goes = goes_left[i as usize];
            rows[left] = i;
            vals[left] = v;
            ys[left] = y;
            spill_rows[right] = i;
            spill_vals[right] = v;
            spill_ys[right] = y;
            totals[0].add_if(goes, y);
            totals[1].add_if(!goes, y);
            left += usize::from(goes);
            right += usize::from(!goes);
        }
        debug_assert_eq!(right, right_count);
        rows[left..].copy_from_slice(&spill_rows[..right]);
        vals[left..].copy_from_slice(&spill_vals[..right]);
        ys[left..].copy_from_slice(&spill_ys[..right]);
        totals
    }
}

/// Grows `buf` to at least `len` elements; never shrinks it.
fn grow<T: Copy + Default>(buf: &mut Vec<T>, len: usize) {
    if buf.len() < len {
        buf.resize(len, T::default());
    }
}

/// [`FeatureOrdering::partition`] for the node-major row list alone.
fn partition_rows(range: &mut [u32], goes_left: &[bool], right_count: usize, spill: &mut Vec<u32>) {
    grow(spill, right_count + 1);
    let spill = &mut spill[..=right_count];
    let (mut left, mut right) = (0usize, 0usize);
    for read in 0..range.len() {
        let i = range[read];
        let goes = goes_left[i as usize];
        range[left] = i;
        spill[right] = i;
        left += usize::from(goes);
        right += usize::from(!goes);
    }
    debug_assert_eq!(right, right_count);
    range[left..].copy_from_slice(&spill[..right]);
}

/// Partitions every ordering's `[start, end)` by `scratch.goes_left` and
/// returns each feature's (left, right) child totals. On nodes of at
/// least [`PAR_PARTITION_MIN_CELLS`] the features are split into
/// contiguous chunks, one per worker, each worker with its own spill.
/// Every ordering is partitioned by the same sequential pass in every
/// mode, so the result never depends on the thread count.
fn partition_orderings(
    scratch: &mut ColumnsScratch,
    start: usize,
    end: usize,
    right_count: usize,
    parallelism: Parallelism,
) -> Vec<[Totals; 2]> {
    let num_features = scratch.orderings.len();
    let par = if (end - start) * num_features >= PAR_PARTITION_MIN_CELLS {
        parallelism
    } else {
        Parallelism::Sequential
    };
    let workers = par.effective_threads().min(num_features);
    if scratch.spills.len() < workers {
        scratch.spills.resize_with(workers, Spill::default);
    }
    let mut children = vec![[Totals::EMPTY; 2]; num_features];
    let goes_left = &scratch.goes_left;
    let mut tasks: Vec<_> = split_chunks_mut(&mut scratch.orderings, workers)
        .into_iter()
        .zip(split_chunks_mut(&mut children, workers))
        .zip(&mut scratch.spills)
        .collect();
    par_for_each_mut(par, &mut tasks, |_, ((orderings, children), spill)| {
        for (ordering, child) in orderings.iter_mut().zip(children.iter_mut()) {
            *child = ordering.partition(start, end, goes_left, right_count, spill);
        }
    });
    children
}

/// The best admissible split on one feature: sort the node's samples by
/// the feature, then scan candidate partitions with prefix sums for O(1)
/// SSE of each side (SSE = Σy² − (Σy)²/n). Ties keep the earliest
/// candidate position (strictly-greater comparison).
fn best_split_for_feature(
    xs: &[Vec<f64>],
    ys: &[f64],
    indices: &[usize],
    parent_sse: f64,
    config: &TreeConfig,
    feature: usize,
) -> Option<BestSplit> {
    let n = indices.len();
    let mut order: Vec<usize> = indices.to_vec();
    order.sort_by(|&a, &b| xs[a][feature].partial_cmp(&xs[b][feature]).expect("finite features"));
    let mut left_sum = 0.0;
    let mut left_sq = 0.0;
    let total_sum: f64 = order.iter().map(|&i| ys[i]).sum();
    let total_sq: f64 = order.iter().map(|&i| ys[i] * ys[i]).sum();
    let mut best: Option<BestSplit> = None;
    for split_at in 1..n {
        let i = order[split_at - 1];
        left_sum += ys[i];
        left_sq += ys[i] * ys[i];
        // Can't split between equal feature values.
        let lo = xs[order[split_at - 1]][feature];
        let hi = xs[order[split_at]][feature];
        if hi <= lo {
            continue;
        }
        if split_at < config.min_samples_leaf || n - split_at < config.min_samples_leaf {
            continue;
        }
        let right_sum = total_sum - left_sum;
        let right_sq = total_sq - left_sq;
        let left_sse = left_sq - left_sum * left_sum / split_at as f64;
        let right_sse = right_sq - right_sum * right_sum / (n - split_at) as f64;
        let improvement = parent_sse - left_sse - right_sse;
        if improvement < config.min_impurity_decrease {
            continue;
        }
        if best.as_ref().is_none_or(|b| improvement > b.improvement) {
            best = Some(BestSplit { feature, threshold: (lo + hi) / 2.0, improvement });
        }
    }
    best
}

/// Best admissible split on one feature over its presorted range: the same
/// prefix-sum scan as [`best_split_for_feature`], minus the sort (already
/// paid once at the root) and minus the two totals passes (carried in
/// `totals` by the parent's partition), over the two sequential streams
/// of feature values and targets in sorted order — one read of the node,
/// no per-sample indirection. The value/target sequences are the ones the
/// scalar scan visits and `totals` folds them in that order, so every sum
/// matches it bit for bit.
fn best_split_for_feature_columns(
    vals: &[f64],
    ys: &[f64],
    totals: Totals,
    parent_sse: f64,
    config: &TreeConfig,
    feature: usize,
) -> Option<BestSplit> {
    let n = vals.len();
    let mut left_sum = 0.0;
    let mut left_sq = 0.0;
    let Totals { sum: total_sum, sq: total_sq } = totals;
    let mut best: Option<BestSplit> = None;
    for split_at in 1..n {
        let y = ys[split_at - 1];
        left_sum += y;
        left_sq += y * y;
        // Can't split between equal feature values.
        let lo = vals[split_at - 1];
        let hi = vals[split_at];
        if hi <= lo {
            continue;
        }
        if split_at < config.min_samples_leaf || n - split_at < config.min_samples_leaf {
            continue;
        }
        let right_sum = total_sum - left_sum;
        let right_sq = total_sq - left_sq;
        let left_sse = left_sq - left_sum * left_sum / split_at as f64;
        let right_sse = right_sq - right_sum * right_sum / (n - split_at) as f64;
        let improvement = parent_sse - left_sse - right_sse;
        if improvement < config.min_impurity_decrease {
            continue;
        }
        if best.as_ref().is_none_or(|b| improvement > b.improvement) {
            best = Some(BestSplit { feature, threshold: (lo + hi) / 2.0, improvement });
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_data() -> (Vec<Vec<f64>>, Vec<f64>) {
        let xs: Vec<Vec<f64>> = (0..200).map(|i| vec![i as f64 / 200.0, 0.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| if x[0] > 0.3 { 2.0 } else { -1.0 }).collect();
        (xs, ys)
    }

    #[test]
    fn learns_a_step_function() {
        let (xs, ys) = step_data();
        let tree = RegressionTree::fit(&xs, &ys, &TreeConfig::default()).unwrap();
        assert!((tree.predict(&[0.9, 0.0]) - 2.0).abs() < 1e-9);
        assert!((tree.predict(&[0.1, 0.0]) + 1.0).abs() < 1e-9);
        // The informative feature gets all the importance.
        let imp = tree.feature_importances();
        assert!((imp[0] - 1.0).abs() < 1e-9);
        assert_eq!(imp[1], 0.0);
    }

    #[test]
    fn constant_target_yields_single_leaf() {
        let xs: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        let ys = vec![3.5; 50];
        let tree = RegressionTree::fit(&xs, &ys, &TreeConfig::default()).unwrap();
        assert_eq!(tree.num_nodes(), 1);
        assert_eq!(tree.num_leaves(), 1);
        assert_eq!(tree.depth(), 0);
        assert_eq!(tree.predict(&[999.0]), 3.5);
    }

    #[test]
    fn roundtrips_through_parts() {
        let (xs, ys) = step_data();
        let tree = RegressionTree::fit(&xs, &ys, &TreeConfig::default()).unwrap();
        let rebuilt = RegressionTree::from_parts(
            tree.nodes(),
            tree.num_features(),
            tree.feature_importances().to_vec(),
        )
        .unwrap();
        assert_eq!(rebuilt, tree);
        assert_eq!(rebuilt.num_features(), tree.num_features());
        for row in &xs {
            assert_eq!(rebuilt.predict(row).to_bits(), tree.predict(row).to_bits());
        }
        assert_eq!(rebuilt.render(&["a", "b"]), tree.render(&["a", "b"]));
    }

    #[test]
    fn from_parts_rejects_malformed_structures() {
        let leaf = NodeSpec::Leaf { value: 1.0, samples: 4 };
        let split = |left, right| NodeSpec::Split {
            feature: 0,
            threshold: 0.5,
            value: 0.0,
            samples: 8,
            left,
            right,
        };
        // Empty node list.
        assert_eq!(RegressionTree::from_parts(vec![], 1, vec![1.0]), Err(TreeError::EmptyInput));
        // Importances length mismatch.
        assert!(matches!(
            RegressionTree::from_parts(vec![leaf], 2, vec![1.0]),
            Err(TreeError::InvalidConfig(_))
        ));
        // Child index out of range.
        assert!(matches!(
            RegressionTree::from_parts(vec![split(1, 7), leaf], 1, vec![1.0]),
            Err(TreeError::InvalidConfig(_))
        ));
        // Split feature out of range.
        let bad_feature = NodeSpec::Split {
            feature: 3,
            threshold: 0.5,
            value: 0.0,
            samples: 8,
            left: 1,
            right: 2,
        };
        assert!(matches!(
            RegressionTree::from_parts(vec![bad_feature, leaf, leaf], 1, vec![1.0]),
            Err(TreeError::InvalidConfig(_))
        ));
        // Non-finite threshold.
        let nan_split = NodeSpec::Split {
            feature: 0,
            threshold: f64::NAN,
            value: 0.0,
            samples: 8,
            left: 1,
            right: 2,
        };
        assert!(matches!(
            RegressionTree::from_parts(vec![nan_split, leaf, leaf], 1, vec![1.0]),
            Err(TreeError::InvalidConfig(_))
        ));
        // Cycle: root's child points back at the root.
        assert!(matches!(
            RegressionTree::from_parts(vec![split(0, 1), leaf], 1, vec![1.0]),
            Err(TreeError::InvalidConfig(_))
        ));
        // Shared child: both children are the same node.
        assert!(matches!(
            RegressionTree::from_parts(vec![split(1, 1), leaf], 1, vec![1.0]),
            Err(TreeError::InvalidConfig(_))
        ));
        // Orphan node never reached from the root.
        assert!(matches!(
            RegressionTree::from_parts(vec![leaf, leaf], 1, vec![1.0]),
            Err(TreeError::InvalidConfig(_))
        ));
    }

    #[test]
    fn respects_max_depth() {
        let xs: Vec<Vec<f64>> = (0..256).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = (0..256).map(|i| (i % 7) as f64).collect();
        let config = TreeConfig::default()
            .with_max_depth(2)
            .with_min_samples_split(2)
            .with_min_samples_leaf(1);
        let tree = RegressionTree::fit(&xs, &ys, &config).unwrap();
        assert!(tree.depth() <= 2);
        assert!(tree.num_leaves() <= 4);
    }

    #[test]
    fn respects_min_samples_leaf() {
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let mut ys = vec![0.0; 20];
        ys[19] = 100.0; // a lone outlier that a size-1 leaf would isolate
        let config = TreeConfig::default().with_min_samples_split(2).with_min_samples_leaf(10);
        let tree = RegressionTree::fit(&xs, &ys, &config).unwrap();
        assert_eq!(tree.num_leaves(), 2);
        // Each leaf must hold exactly 10 samples.
        let left = tree.predict(&[0.0]);
        let right = tree.predict(&[19.0]);
        assert!((left - 0.0).abs() < 1e-9);
        assert!((right - 10.0).abs() < 1e-9); // 100 averaged over 10 samples
    }

    #[test]
    fn piecewise_linear_gets_close_with_depth() {
        let xs: Vec<Vec<f64>> = (0..400).map(|i| vec![i as f64 / 400.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0] * x[0]).collect();
        let config = TreeConfig::default()
            .with_max_depth(8)
            .with_min_samples_split(4)
            .with_min_samples_leaf(2);
        let tree = RegressionTree::fit(&xs, &ys, &config).unwrap();
        let rmse = {
            let pred = tree.predict_batch(&xs);
            let mse =
                pred.iter().zip(&ys).map(|(p, y)| (p - y) * (p - y)).sum::<f64>() / ys.len() as f64;
            mse.sqrt()
        };
        assert!(rmse < 0.02, "rmse {rmse}");
    }

    #[test]
    fn multi_feature_selects_informative_one() {
        // Feature 2 carries the signal; 0 and 1 are constant / noise-free
        // decoys.
        let xs: Vec<Vec<f64>> = (0..100).map(|i| vec![1.0, (i % 3) as f64, i as f64]).collect();
        let ys: Vec<f64> = (0..100).map(|i| if i < 50 { 0.0 } else { 5.0 }).collect();
        let tree = RegressionTree::fit(&xs, &ys, &TreeConfig::default()).unwrap();
        let imp = tree.feature_importances();
        assert!(imp[2] > 0.9, "importances {imp:?}");
    }

    #[test]
    fn validation_errors() {
        let xs = vec![vec![1.0], vec![2.0]];
        assert!(matches!(
            RegressionTree::fit(&[], &[], &TreeConfig::default()),
            Err(TreeError::EmptyInput)
        ));
        assert!(RegressionTree::fit(&xs, &[1.0], &TreeConfig::default()).is_err());
        let ragged = vec![vec![1.0], vec![2.0, 3.0]];
        assert!(RegressionTree::fit(&ragged, &[1.0, 2.0], &TreeConfig::default()).is_err());
        let bad = TreeConfig { min_impurity_decrease: -1.0, ..TreeConfig::default() };
        assert!(RegressionTree::fit(&xs, &[1.0, 2.0], &bad).is_err());
    }

    #[test]
    #[should_panic(expected = "feature count mismatch")]
    fn predict_checks_width() {
        let (xs, ys) = step_data();
        let tree = RegressionTree::fit(&xs, &ys, &TreeConfig::default()).unwrap();
        let _ = tree.predict(&[1.0]);
    }

    #[test]
    fn render_mentions_feature_names_and_percentages() {
        let (xs, ys) = step_data();
        let tree = RegressionTree::fit(&xs, &ys, &TreeConfig::default()).unwrap();
        let text = tree.render(&["POH", "TC"]);
        assert!(text.contains("POH <"));
        assert!(text.contains("(100%)"));
        assert!(text.contains("leaf:"));
    }

    #[test]
    fn predict_batch_ref_matches_owned_batch() {
        let (xs, ys) = step_data();
        let tree = RegressionTree::fit(&xs, &ys, &TreeConfig::default()).unwrap();
        let owned = tree.predict_batch(&xs);
        let borrowed: Vec<&[f64]> = xs.iter().map(Vec::as_slice).collect();
        assert_eq!(tree.predict_batch_ref(&borrowed), owned);
    }

    #[test]
    fn fit_is_identical_for_every_parallelism_mode() {
        // Noisy multi-feature data with plenty of tie opportunities.
        let xs: Vec<Vec<f64>> = (0..600)
            .map(|i| vec![(i % 13) as f64, (i % 7) as f64, (i * 37 % 101) as f64])
            .collect();
        let ys: Vec<f64> = (0..600).map(|i| ((i * 29) % 17) as f64).collect();
        let config = TreeConfig::default().with_min_samples_split(4).with_min_samples_leaf(2);
        let sequential = RegressionTree::fit(
            &xs,
            &ys,
            &config.clone().with_parallelism(Parallelism::Sequential),
        )
        .unwrap();
        for mode in [Parallelism::Auto, Parallelism::Threads(4)] {
            let parallel =
                RegressionTree::fit(&xs, &ys, &config.clone().with_parallelism(mode)).unwrap();
            assert_eq!(parallel, sequential, "{mode:?}");
            assert_eq!(parallel.predict_batch(&xs), sequential.predict_batch(&xs), "{mode:?}");
        }
    }

    /// Deterministic pseudo-random stream for tie-heavy fixtures (no RNG
    /// dependency in this crate).
    fn lcg(state: &mut u64) -> f64 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((*state >> 33) % 1000) as f64 / 1000.0
    }

    /// The fitted model to the bit: `==` on `f64` equates `-0.0` and
    /// `0.0`, their `Debug` forms do not.
    fn model_bits(tree: &RegressionTree) -> String {
        format!("{:?} {:?}", tree.nodes(), tree.feature_importances())
    }

    #[test]
    fn fit_columns_is_bit_identical_to_fit() {
        // Heavy ties (quantized values) exercise the stable-order argument;
        // several shapes exercise depth limits and leaf minima.
        let mut state = 0x2015_115Cu64;
        let mut fixtures = Vec::new();
        for (rows, quantum) in [(120usize, 8.0), (257, 3.0), (600, 50.0)] {
            let xs: Vec<Vec<f64>> = (0..rows)
                .map(|_| (0..4).map(|_| (lcg(&mut state) * quantum).floor() / quantum).collect())
                .collect();
            let ys: Vec<f64> = (0..rows).map(|_| lcg(&mut state) * 2.0 - 1.0).collect();
            fixtures.push((format!("rows={rows} quantum={quantum}"), xs, ys));
        }
        // Signed zeros: `-0.0` and `0.0` feature values compare equal, so
        // they must keep ascending-row order, and `±0.0` targets among
        // `±1` make a child's running sums pass through zero.
        let xs: Vec<Vec<f64>> = (0..400)
            .map(|row| {
                (0..4)
                    .map(|feature| match (lcg(&mut state) * 5.0) as usize {
                        0 | 1 if (row + feature) % 2 == 0 => -0.0,
                        0 | 1 => 0.0,
                        2 => -0.5,
                        3 => 0.5,
                        _ => 1.0,
                    })
                    .collect()
            })
            .collect();
        let ys: Vec<f64> = (0..400)
            .map(|_| [-0.0, 0.0, 1.0, -1.0, -0.0, 0.5][(lcg(&mut state) * 6.0) as usize])
            .collect();
        fixtures.push(("signed zeros".to_string(), xs, ys));
        for (name, xs, ys) in &fixtures {
            let matrix = ColMatrix::from_rows(xs).unwrap();
            for config in [
                TreeConfig::default(),
                TreeConfig::default().with_min_samples_split(2).with_min_samples_leaf(1),
                TreeConfig::default().with_max_depth(3),
            ] {
                let classic = RegressionTree::fit(xs, ys, &config).unwrap();
                let columnar = RegressionTree::fit_columns(&matrix, ys, &config).unwrap();
                assert_eq!(columnar, classic, "{name} {config:?}");
                assert_eq!(model_bits(&columnar), model_bits(&classic), "{name} {config:?}");
            }
        }
    }

    #[test]
    fn fit_columns_is_identical_for_every_parallelism_mode() {
        // 12 features × 12,000 rows puts the root and its larger child
        // past both PAR_SPLIT_MIN_CELLS and PAR_PARTITION_MIN_CELLS, and
        // 2, 3 and 5 threads split the 12 features into chunks of 6, 4 and
        // 3-or-2. Thirteen levels per feature keep the ties heavy. One
        // scratch serves every mode, so spills sized by one mode are
        // reused by the next.
        const ROWS: usize = 12_000;
        const FEATURES: usize = 12;
        const { assert!(ROWS / 2 * FEATURES >= PAR_PARTITION_MIN_CELLS) };
        let mut state = 7u64;
        let xs: Vec<Vec<f64>> = (0..ROWS)
            .map(|_| (0..FEATURES).map(|_| (lcg(&mut state) * 13.0).floor()).collect())
            .collect();
        let ys: Vec<f64> = (0..ROWS).map(|_| lcg(&mut state)).collect();
        let matrix = ColMatrix::from_rows(&xs).unwrap();
        let config = TreeConfig::default().with_min_samples_split(4).with_min_samples_leaf(2);
        let sequential = RegressionTree::fit_columns(
            &matrix,
            &ys,
            &config.clone().with_parallelism(Parallelism::Sequential),
        )
        .unwrap();
        assert!(sequential.num_nodes() > 100, "fixture must grow a deep tree");
        let mut scratch = FitScratch::default();
        for mode in [
            Parallelism::Auto,
            Parallelism::Threads(5),
            Parallelism::Threads(2),
            Parallelism::Threads(3),
            Parallelism::Threads(4),
        ] {
            let parallel = RegressionTree::fit_columns_with_scratch(
                &matrix,
                &ys,
                &config.clone().with_parallelism(mode),
                &mut scratch,
            )
            .unwrap();
            assert_eq!(parallel, sequential, "{mode:?}");
            assert_eq!(model_bits(&parallel), model_bits(&sequential), "{mode:?}");
        }
    }

    #[test]
    fn fit_columns_validation_errors() {
        let matrix = ColMatrix::from_rows(&[vec![1.0], vec![2.0]]).unwrap();
        assert!(RegressionTree::fit_columns(&matrix, &[1.0], &TreeConfig::default()).is_err());
        let bad = TreeConfig { min_impurity_decrease: -1.0, ..TreeConfig::default() };
        assert!(RegressionTree::fit_columns(&matrix, &[1.0, 2.0], &bad).is_err());
    }

    #[test]
    fn stable_partition_keeps_relative_order() {
        let mut range = [3u32, 1, 4, 0, 2];
        let goes_left = [false, true, true, false, true];
        let mut spill = Vec::new();
        partition_rows(&mut range, &goes_left, 2, &mut spill);
        // Left rows (1, 4, 2) keep their order, then right rows (3, 0).
        assert_eq!(range, [1, 4, 2, 3, 0]);
        // The spill holds the right side plus one slot.
        assert_eq!(spill.len(), 3);

        // An ordering moves values and targets with its rows and carries
        // each child's totals, folded from `-0.0` in the child's order: the
        // left child's targets are all `-0.0`, so its Σy keeps the sign,
        // and the right child's Σy passes through zero.
        let mut ordering = FeatureOrdering {
            rows: vec![3, 1, 4, 0, 2],
            vals: vec![0.0, -0.0, 1.0, 2.0, 3.0],
            ys: vec![1.0, -0.0, -0.0, -1.0, -0.0],
        };
        let totals = ordering.partition(0, 5, &goes_left, 2, &mut Spill::default());
        assert_eq!(ordering.rows, [1, 4, 2, 3, 0]);
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&ordering.vals), bits(&[-0.0, 1.0, 3.0, 0.0, 2.0]));
        assert_eq!(bits(&ordering.ys), bits(&[-0.0, -0.0, -0.0, 1.0, -1.0]));
        for (child, range) in totals.iter().zip([0..3, 3..5]) {
            let expected = Totals::of(&ordering.ys[range]);
            assert_eq!(child.sum.to_bits(), expected.sum.to_bits());
            assert_eq!(child.sq.to_bits(), expected.sq.to_bits());
        }
        assert!(totals[0].sum.is_sign_negative());
    }

    #[test]
    fn duplicate_feature_values_never_split_between_equals() {
        let xs: Vec<Vec<f64>> = (0..40).map(|i| vec![(i / 10) as f64]).collect();
        let ys: Vec<f64> = (0..40).map(|i| (i / 10) as f64 * 2.0).collect();
        let config = TreeConfig::default().with_min_samples_split(2).with_min_samples_leaf(1);
        let tree = RegressionTree::fit(&xs, &ys, &config).unwrap();
        // Perfect fit is achievable; every group predicts its own value.
        for g in 0..4 {
            assert!((tree.predict(&[g as f64]) - g as f64 * 2.0).abs() < 1e-9);
        }
    }
}
