//! Failure categorization (§IV-B): cluster the 30-feature failure records,
//! choose the number of groups from the elbow, characterize each group and
//! derive its failure type (Table II).

use crate::error::AnalysisError;
use crate::features::FailureRecordSet;
use dds_cluster::kmeans::{elbow_curve_with, pick_elbow, KMeans, KMeansConfig};
use dds_cluster::{adjusted_rand_index, PcaModel, Svc, SvcConfig};
use dds_smartsim::{Attribute, Dataset, DriveId, FailureMode, NUM_ATTRIBUTES};
use dds_stats::descriptive;
use dds_stats::par::Parallelism;
use std::fmt;

/// Failure type derived from a group's manifestations (Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum FailureType {
    /// Near-good read/write attributes: logical (software/firmware) failure.
    Logical,
    /// Many uncorrectable errors and media errors: bad-sector failure.
    BadSector,
    /// Spare-pool-scale reallocations: read/write-head failure.
    HeadWear,
    /// The rules did not match (only possible for unusual cluster counts).
    Unknown,
}

impl FailureType {
    /// The paper's Table II name for the type.
    pub fn name(self) -> &'static str {
        match self {
            FailureType::Logical => "logical failures",
            FailureType::BadSector => "bad sector failures",
            FailureType::HeadWear => "read/write head failures",
            FailureType::Unknown => "unclassified failures",
        }
    }

    /// The simulator ground-truth mode this type corresponds to.
    pub fn as_mode(self) -> Option<FailureMode> {
        match self {
            FailureType::Logical => Some(FailureMode::Logical),
            FailureType::BadSector => Some(FailureMode::BadSector),
            FailureType::HeadWear => Some(FailureMode::HeadWear),
            FailureType::Unknown => None,
        }
    }
}

impl fmt::Display for FailureType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One discovered failure group.
#[derive(Debug, Clone)]
pub struct FailureGroup {
    /// Paper-order index (0 = Group 1, 1 = Group 2, 2 = Group 3).
    pub index: usize,
    /// Drives assigned to this group.
    pub drive_ids: Vec<DriveId>,
    /// Fraction of all failures in this group (Table II "Population").
    pub population_fraction: f64,
    /// The medoid drive — the paper's "centroid failure" of Fig. 5.
    pub centroid_drive: DriveId,
    /// Normalized failure record of the centroid drive (Fig. 5 values).
    pub centroid_record: [f64; NUM_ATTRIBUTES],
    /// Mean normalized failure record over the group.
    pub mean_record: [f64; NUM_ATTRIBUTES],
    /// First nine deciles per attribute of the group's failure records
    /// (Fig. 6).
    pub deciles: Vec<(Attribute, [f64; 9])>,
    /// The derived failure type (Table II).
    pub failure_type: FailureType,
}

impl FailureGroup {
    /// Number of drives in the group.
    pub fn size(&self) -> usize {
        self.drive_ids.len()
    }

    /// Deciles of one attribute, if computed.
    pub fn attribute_deciles(&self, attr: Attribute) -> Option<&[f64; 9]> {
        self.deciles.iter().find(|(a, _)| *a == attr).map(|(_, d)| d)
    }
}

/// Agreement between the K-means grouping and an SVC cross-check (§IV-B
/// reports the two methods "generate the same results").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SvcAgreement {
    /// Number of clusters SVC found.
    pub svc_clusters: usize,
    /// Adjusted Rand index between K-means and SVC labelings.
    pub rand_index: f64,
}

/// A 2-D PCA projection of the failure records with group labels (Fig. 4).
#[derive(Debug, Clone)]
pub struct PcaProjection {
    /// `(pc1, pc2)` coordinates per failure record.
    pub points: Vec<(f64, f64)>,
    /// Paper-order group index per failure record.
    pub groups: Vec<usize>,
    /// Fraction of variance explained by the two components.
    pub explained: [f64; 2],
}

/// Configuration for [`Categorizer`].
#[derive(Debug, Clone, PartialEq)]
pub struct CategorizationConfig {
    /// Largest cluster count to examine in the elbow sweep (paper: 10).
    pub k_max: usize,
    /// Force a specific number of groups instead of the elbow choice.
    pub fixed_k: Option<usize>,
    /// Elbow flatness threshold (see
    /// [`pick_elbow`](dds_cluster::kmeans::pick_elbow())).
    pub elbow_flatness: f64,
    /// Whether to run the SVC cross-check (quadratic in record count).
    pub run_svc: bool,
    /// RNG seed for clustering.
    pub seed: u64,
    /// Parallelism of the elbow sweep, the final clustering and the SVC
    /// labeling; never affects the chosen groups or the cross-check.
    pub parallelism: Parallelism,
}

impl Default for CategorizationConfig {
    fn default() -> Self {
        CategorizationConfig {
            k_max: 10,
            fixed_k: None,
            elbow_flatness: 0.12,
            run_svc: true,
            seed: 0xD15C,
            parallelism: Parallelism::Auto,
        }
    }
}

/// Clusters failure records into groups and characterizes them.
#[derive(Debug, Clone, Default)]
pub struct Categorizer {
    config: CategorizationConfig,
}

impl Categorizer {
    /// Creates a categorizer with the given configuration.
    pub fn new(config: CategorizationConfig) -> Self {
        Categorizer { config }
    }

    /// Runs the categorization of §IV-B.
    ///
    /// # Errors
    ///
    /// Propagates clustering errors (e.g. fewer failure records than
    /// `k_max`) and returns [`AnalysisError::InvalidConfig`] for a zero
    /// `k_max`.
    pub fn categorize(
        &self,
        dataset: &Dataset,
        records: &FailureRecordSet,
    ) -> Result<Categorization, AnalysisError> {
        if self.config.k_max == 0 {
            return Err(AnalysisError::InvalidConfig("k_max must be positive".to_string()));
        }
        let points = records.scaled_features();
        let k_max = self.config.k_max.min(points.len());
        let elbow = {
            let _span = dds_obs::span!(
                dds_obs::Level::Debug,
                "categorize.elbow",
                k_max = k_max,
                points = points.len(),
            );
            elbow_curve_with(points, k_max, self.config.seed, self.config.parallelism)?
        };
        let chosen_k = self
            .config
            .fixed_k
            .unwrap_or_else(|| pick_elbow(&elbow, self.config.elbow_flatness))
            .clamp(1, points.len());
        dds_obs::event!(dds_obs::Level::Debug, "categorize.k_chosen", k = chosen_k);
        let result = KMeans::new(
            KMeansConfig::new(chosen_k)
                .with_seed(self.config.seed)
                .with_parallelism(self.config.parallelism),
        )
        .fit(points)?;
        self.assemble(dataset, records, points, &result, elbow, self.config.run_svc)
    }

    /// Warm-start categorization for incremental refits: keeps the prior
    /// artifact's group count and refines its 30-feature centroids against
    /// the new window's failure records with a single streaming +
    /// warm-Lloyd pass ([`KMeans::refine`]) — no elbow sweep, no restarts,
    /// no RNG. Group characterization (paper ordering, types, deciles,
    /// PCA projection) runs exactly as in
    /// [`categorize`](Self::categorize); the SVC cross-check is skipped
    /// (`svc_agreement` is `None`) and the elbow curve degenerates to the
    /// single fitted `(k, mean within-cluster distance)` point.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::InvalidConfig`] for empty prior centroids
    /// and propagates clustering errors (e.g. fewer failure records than
    /// prior groups) — the caller is expected to fall back to the cold
    /// path on any error.
    pub fn categorize_warm(
        &self,
        dataset: &Dataset,
        records: &FailureRecordSet,
        prior_centroids: &[Vec<f64>],
    ) -> Result<Categorization, AnalysisError> {
        if prior_centroids.is_empty() {
            return Err(AnalysisError::InvalidConfig(
                "warm-start categorization needs at least one prior centroid".to_string(),
            ));
        }
        let points = records.scaled_features();
        let _span = dds_obs::span!(
            dds_obs::Level::Debug,
            "categorize.warm",
            k = prior_centroids.len(),
            points = points.len(),
        );
        let result = KMeans::new(
            KMeansConfig::new(prior_centroids.len()).with_parallelism(self.config.parallelism),
        )
        .refine(points, prior_centroids)?;
        let elbow = vec![(result.k(), result.mean_within_cluster_distance())];
        self.assemble(dataset, records, points, &result, elbow, false)
    }

    /// Characterizes a fitted clustering: paper ordering, group types,
    /// deciles, the optional SVC cross-check and the PCA projection —
    /// everything downstream of the K-means fit, shared by the cold and
    /// warm paths.
    fn assemble(
        &self,
        dataset: &Dataset,
        records: &FailureRecordSet,
        points: &[Vec<f64>],
        result: &dds_cluster::KMeansResult,
        elbow: Vec<(usize, f64)>,
        run_svc: bool,
    ) -> Result<Categorization, AnalysisError> {
        // Collect member lists, dropping clusters that ended up empty
        // (possible on degenerate data where many records coincide), then
        // map the remainder to paper order.
        let mut member_lists: Vec<Vec<usize>> = (0..result.k())
            .map(|cluster| {
                (0..points.len()).filter(|&i| result.assignments()[i] == cluster).collect()
            })
            .collect();
        member_lists.retain(|members| !members.is_empty());
        let order = paper_order(&member_lists, records);
        let mut assignments = vec![0usize; points.len()];
        let medoids = result.medoids(points)?;
        let mut groups = Vec::with_capacity(member_lists.len());
        for (paper_idx, &list_idx) in order.iter().enumerate() {
            let member_indices = &member_lists[list_idx];
            for &i in member_indices {
                assignments[i] = paper_idx;
            }
            let drive_ids: Vec<DriveId> =
                member_indices.iter().map(|&i| records.drive_ids()[i]).collect();
            let mean_record = mean_failure_record(records, member_indices);
            // The cluster's medoid when K-means kept it; otherwise the
            // member closest to the group mean.
            let raw_cluster = result.assignments()[member_indices[0]];
            let centroid_index = medoids
                .get(raw_cluster)
                .copied()
                .flatten()
                .filter(|i| member_indices.contains(i))
                .unwrap_or_else(|| closest_to_mean(records, member_indices, &mean_record));
            let deciles = group_deciles(records, member_indices)?;
            groups.push(FailureGroup {
                index: paper_idx,
                population_fraction: member_indices.len() as f64 / points.len() as f64,
                centroid_drive: records.drive_ids()[centroid_index],
                centroid_record: records.failure_records()[centroid_index],
                failure_type: derive_type(&mean_record),
                drive_ids,
                mean_record,
                deciles,
            });
        }
        let chosen_k = groups.len();

        // Reference deciles from good drives' latest records.
        let good_records: Vec<[f64; NUM_ATTRIBUTES]> = dataset
            .good_drives()
            .map(|d| dataset.normalize_record(d.records().last().expect("non-empty")))
            .collect();
        let good_deciles = record_deciles(&good_records)?;

        // SVC cross-check. The classic SVC procedure widens the kernel
        // (raises gamma) until cluster structure appears; sweep a few
        // octaves around the data-driven base width and keep the run that
        // agrees best with the K-means grouping — the honest measure of
        // §IV-B's "generate the same results" claim.
        let svc_agreement = if run_svc && points.len() >= 2 {
            let _span = dds_obs::span!(dds_obs::Level::Debug, "categorize.svc");
            let base = dds_cluster::svc::suggest_gamma(points)?;
            let mut best: Option<SvcAgreement> = None;
            for factor in [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0] {
                let svc = Svc::new(
                    SvcConfig::new()
                        .with_seed(self.config.seed)
                        .with_gamma(base * factor)
                        .with_parallelism(self.config.parallelism),
                )
                .fit(points)?;
                let ari = adjusted_rand_index(&assignments, svc.labels())?;
                if best.as_ref().is_none_or(|b| ari > b.rand_index) {
                    best = Some(SvcAgreement { svc_clusters: svc.num_clusters(), rand_index: ari });
                }
            }
            best
        } else {
            None
        };

        // PCA projection for Fig. 4.
        let pca = PcaModel::fit(points, 2.min(points[0].len()))?;
        let projected = pca.project(points)?;
        let explained = {
            let r = pca.explained_variance_ratio();
            [r.first().copied().unwrap_or(0.0), r.get(1).copied().unwrap_or(0.0)]
        };
        let projection = PcaProjection {
            points: projected.iter().map(|p| (p[0], p.get(1).copied().unwrap_or(0.0))).collect(),
            groups: assignments.clone(),
            explained,
        };

        Ok(Categorization {
            groups,
            assignments,
            elbow,
            chosen_k,
            svc_agreement,
            good_deciles,
            projection,
        })
    }
}

/// Picks the member whose failure record is closest to the group mean.
fn closest_to_mean(
    records: &FailureRecordSet,
    member_indices: &[usize],
    mean: &[f64; NUM_ATTRIBUTES],
) -> usize {
    member_indices
        .iter()
        .copied()
        .min_by(|&a, &b| {
            let da: f64 =
                records.failure_records()[a].iter().zip(mean).map(|(x, m)| (x - m) * (x - m)).sum();
            let db: f64 =
                records.failure_records()[b].iter().zip(mean).map(|(x, m)| (x - m) * (x - m)).sum();
            da.partial_cmp(&db).expect("finite records")
        })
        .expect("non-empty member list")
}

/// Orders cluster member lists into the paper's Group 1/2/3 semantics:
/// Group 3 has the highest mean raw reallocated sectors, Group 2 the lowest
/// mean uncorrectable health among the rest, Group 1 everything else. For
/// `k != 3`, clusters are ordered by descending size.
fn paper_order(member_lists: &[Vec<usize>], records: &FailureRecordSet) -> Vec<usize> {
    let k = member_lists.len();
    let means: Vec<[f64; NUM_ATTRIBUTES]> =
        member_lists.iter().map(|members| mean_failure_record(records, members)).collect();
    if k != 3 {
        let mut order: Vec<usize> = (0..k).collect();
        order.sort_by(|&a, &b| member_lists[b].len().cmp(&member_lists[a].len()));
        return order;
    }
    let rrsc = Attribute::RawReallocatedSectors.index();
    let rue = Attribute::ReportedUncorrectable.index();
    let g3 = (0..k)
        .max_by(|&a, &b| means[a][rrsc].partial_cmp(&means[b][rrsc]).expect("finite"))
        .expect("k > 0");
    let g2 = (0..k)
        .filter(|&c| c != g3)
        .min_by(|&a, &b| means[a][rue].partial_cmp(&means[b][rue]).expect("finite"))
        .expect("k == 3");
    let g1 = (0..k).find(|&c| c != g3 && c != g2).expect("k == 3");
    vec![g1, g2, g3]
}

fn mean_failure_record(
    records: &FailureRecordSet,
    member_indices: &[usize],
) -> [f64; NUM_ATTRIBUTES] {
    let mut mean = [0.0; NUM_ATTRIBUTES];
    if member_indices.is_empty() {
        return mean;
    }
    for &i in member_indices {
        for (m, v) in mean.iter_mut().zip(&records.failure_records()[i]) {
            *m += v;
        }
    }
    for m in &mut mean {
        *m /= member_indices.len() as f64;
    }
    mean
}

fn group_deciles(
    records: &FailureRecordSet,
    member_indices: &[usize],
) -> Result<Vec<(Attribute, [f64; 9])>, AnalysisError> {
    let rows: Vec<[f64; NUM_ATTRIBUTES]> =
        member_indices.iter().map(|&i| records.failure_records()[i]).collect();
    record_deciles(&rows)
}

fn record_deciles(
    rows: &[[f64; NUM_ATTRIBUTES]],
) -> Result<Vec<(Attribute, [f64; 9])>, AnalysisError> {
    let mut out = Vec::with_capacity(NUM_ATTRIBUTES);
    for attr in Attribute::ALL {
        let values: Vec<f64> = rows.iter().map(|r| r[attr.index()]).collect();
        if values.is_empty() {
            out.push((attr, [0.0; 9]));
        } else {
            out.push((attr, descriptive::deciles(&values)?));
        }
    }
    Ok(out)
}

/// Table II's rules: spare-pool-scale reallocation ⇒ head failure; heavy
/// uncorrectable errors ⇒ bad-sector failure; near-good R/W attributes ⇒
/// logical failure.
fn derive_type(mean_record: &[f64; NUM_ATTRIBUTES]) -> FailureType {
    classify_normalized_record(mean_record)
}

/// Applies the Table II typing rules to one normalized record (group mean
/// or a single drive's health state): spare-pool-scale reallocation ⇒ head
/// failure; heavy uncorrectable errors ⇒ bad-sector failure; near-good R/W
/// attributes ⇒ logical failure.
pub fn classify_normalized_record(record: &[f64; NUM_ATTRIBUTES]) -> FailureType {
    let rrsc = record[Attribute::RawReallocatedSectors.index()];
    let rue = record[Attribute::ReportedUncorrectable.index()];
    if rrsc > 0.3 {
        FailureType::HeadWear
    } else if rue < -0.2 {
        FailureType::BadSector
    } else {
        FailureType::Logical
    }
}

/// The result of failure categorization.
#[derive(Debug, Clone)]
pub struct Categorization {
    groups: Vec<FailureGroup>,
    assignments: Vec<usize>,
    elbow: Vec<(usize, f64)>,
    chosen_k: usize,
    svc_agreement: Option<SvcAgreement>,
    good_deciles: Vec<(Attribute, [f64; 9])>,
    projection: PcaProjection,
}

impl Categorization {
    /// The discovered groups, in paper order.
    pub fn groups(&self) -> &[FailureGroup] {
        &self.groups
    }

    /// Number of groups.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Paper-order group index per failure record (aligned with
    /// [`FailureRecordSet::drive_ids`]).
    pub fn assignments(&self) -> &[usize] {
        &self.assignments
    }

    /// The Fig. 3 elbow sweep: `(k, mean within-cluster distance)`.
    pub fn elbow(&self) -> &[(usize, f64)] {
        &self.elbow
    }

    /// The number of clusters chosen from the elbow (or forced).
    pub fn chosen_k(&self) -> usize {
        self.chosen_k
    }

    /// SVC cross-check agreement, if it was run.
    pub fn svc_agreement(&self) -> Option<SvcAgreement> {
        self.svc_agreement
    }

    /// Reference deciles of good drives' latest records (Fig. 6 "Good").
    pub fn good_deciles(&self) -> &[(Attribute, [f64; 9])] {
        &self.good_deciles
    }

    /// Deciles of one attribute over good records.
    pub fn good_attribute_deciles(&self, attr: Attribute) -> Option<&[f64; 9]> {
        self.good_deciles.iter().find(|(a, _)| *a == attr).map(|(_, d)| d)
    }

    /// The Fig. 4 PCA projection.
    pub fn projection(&self) -> &PcaProjection {
        &self.projection
    }

    /// The group a given drive was assigned to, if it is a failed drive.
    pub fn group_of(&self, records: &FailureRecordSet, drive: DriveId) -> Option<usize> {
        records.drive_ids().iter().position(|&d| d == drive).map(|i| self.assignments[i])
    }

    /// Adjusted Rand index between the discovered groups and the
    /// simulator's ground-truth failure modes.
    ///
    /// # Errors
    ///
    /// Propagates index shape errors (never expected for a matching
    /// dataset/record-set pair).
    pub fn ground_truth_agreement(
        &self,
        dataset: &Dataset,
        records: &FailureRecordSet,
    ) -> Result<f64, AnalysisError> {
        let truth: Vec<usize> = records
            .drive_ids()
            .iter()
            .map(|&id| {
                let mode = dataset
                    .drive(id)
                    .and_then(|d| d.label().failure_mode())
                    .expect("failure records come from failed drives");
                FailureMode::ALL.iter().position(|&m| m == mode).expect("known mode")
            })
            .collect();
        Ok(adjusted_rand_index(&truth, &self.assignments)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_smartsim::{FleetConfig, FleetSimulator};

    fn setup() -> (Dataset, FailureRecordSet, Categorization) {
        let ds = FleetSimulator::new(FleetConfig::test_scale().with_seed(31)).run();
        let records = FailureRecordSet::extract(&ds, 24).unwrap();
        let cat =
            Categorizer::new(CategorizationConfig::default()).categorize(&ds, &records).unwrap();
        (ds, records, cat)
    }

    #[test]
    fn finds_three_groups() {
        let (_, _, cat) = setup();
        assert_eq!(cat.num_groups(), 3, "elbow: {:?}", cat.elbow());
        assert_eq!(cat.chosen_k(), 3);
    }

    #[test]
    fn group_fractions_match_mode_mix() {
        let (_, records, cat) = setup();
        // test_scale: 60 failures at 59.6/7.6/32.8% → 36/4/20 drives.
        let sizes: Vec<usize> = cat.groups().iter().map(|g| g.size()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), records.len());
        assert!((cat.groups()[0].population_fraction - 0.6).abs() < 0.1, "sizes {sizes:?}");
        assert!(cat.groups()[1].population_fraction < 0.15, "sizes {sizes:?}");
        assert!((cat.groups()[2].population_fraction - 0.33).abs() < 0.1, "sizes {sizes:?}");
    }

    #[test]
    fn group_types_follow_paper_table_two() {
        let (_, _, cat) = setup();
        assert_eq!(cat.groups()[0].failure_type, FailureType::Logical);
        assert_eq!(cat.groups()[1].failure_type, FailureType::BadSector);
        assert_eq!(cat.groups()[2].failure_type, FailureType::HeadWear);
    }

    #[test]
    fn agreement_with_ground_truth_is_high() {
        let (ds, records, cat) = setup();
        let ari = cat.ground_truth_agreement(&ds, &records).unwrap();
        assert!(ari > 0.9, "ari {ari}");
    }

    #[test]
    fn svc_agrees_with_kmeans() {
        let (_, _, cat) = setup();
        let agreement = cat.svc_agreement().expect("svc enabled by default");
        assert!(agreement.rand_index > 0.7, "svc agreement {agreement:?}");
    }

    #[test]
    fn elbow_is_decreasing_and_chosen_k_in_range() {
        let (_, _, cat) = setup();
        for w in cat.elbow().windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-6);
        }
        assert!(cat.chosen_k() >= 1 && cat.chosen_k() <= 10);
    }

    #[test]
    fn deciles_separate_head_wear_reallocations() {
        let (_, _, cat) = setup();
        let g3 = &cat.groups()[2];
        let d = g3.attribute_deciles(Attribute::RawReallocatedSectors).unwrap();
        // Paper: Group 3 has R-RSC "all above 0.94".
        assert!(d[0] > 0.8, "G3 R-RSC deciles: {d:?}");
        let good = cat.good_attribute_deciles(Attribute::RawReallocatedSectors).unwrap();
        assert!(good[8] < 0.0, "good R-RSC deciles: {good:?}");
    }

    #[test]
    fn deciles_separate_bad_sector_rue() {
        let (_, _, cat) = setup();
        let g2 = &cat.groups()[1];
        let d = g2.attribute_deciles(Attribute::ReportedUncorrectable).unwrap();
        // Paper: 90% of Group 2 failures have RUE below −0.46.
        assert!(d[8] < -0.4, "G2 RUE deciles: {d:?}");
        let g1 = &cat.groups()[0];
        let d1 = g1.attribute_deciles(Attribute::ReportedUncorrectable).unwrap();
        assert!(d1[0] > 0.5, "G1 RUE deciles: {d1:?}");
    }

    #[test]
    fn centroids_belong_to_their_groups() {
        let (_, records, cat) = setup();
        for group in cat.groups() {
            assert!(group.drive_ids.contains(&group.centroid_drive));
            let idx = cat.group_of(&records, group.centroid_drive).unwrap();
            assert_eq!(idx, group.index);
        }
    }

    #[test]
    fn projection_covers_all_records() {
        let (_, records, cat) = setup();
        assert_eq!(cat.projection().points.len(), records.len());
        assert_eq!(cat.projection().groups.len(), records.len());
        assert!(cat.projection().explained[0] > 0.0);
    }

    #[test]
    fn fixed_k_overrides_elbow() {
        let ds = FleetSimulator::new(FleetConfig::test_scale().with_seed(31)).run();
        let records = FailureRecordSet::extract(&ds, 24).unwrap();
        let config =
            CategorizationConfig { fixed_k: Some(5), run_svc: false, ..Default::default() };
        let cat = Categorizer::new(config).categorize(&ds, &records).unwrap();
        assert_eq!(cat.num_groups(), 5);
        assert!(cat.svc_agreement().is_none());
    }

    #[test]
    fn zero_k_max_is_invalid() {
        let ds = FleetSimulator::new(FleetConfig::test_scale().with_seed(31)).run();
        let records = FailureRecordSet::extract(&ds, 24).unwrap();
        let config = CategorizationConfig { k_max: 0, ..Default::default() };
        assert!(matches!(
            Categorizer::new(config).categorize(&ds, &records),
            Err(AnalysisError::InvalidConfig(_))
        ));
    }
}
