//! Versioned, checksummed model artifacts: train once, serve forever.
//!
//! A [`TrainedModel`] captures everything the paper's end product (§V)
//! needs at serving time — the Eq. (1) normalization bounds, the K-means
//! group structure (assignments + 30-feature centroids), each group's
//! degradation signature with its full RMSE table, the serialized
//! regression tree, the §V-A z-score baselines, the quality policy the
//! training run enforced, and provenance metadata (seed, scale, record
//! counts, git sha) — detached from the training dataset, so `dds serve
//! --model` warm-starts without retraining.
//!
//! # On-disk format
//!
//! A model file is a single JSON *header line* followed by a newline and
//! the JSON *payload*:
//!
//! ```text
//! {"magic":"dds-model","format_version":1,"payload_bytes":N,"checksum":"fnv1a64:<16 hex>"}
//! <payload: N bytes of JSON>
//! ```
//!
//! The header is what loaders inspect before trusting anything: a wrong
//! magic or malformed header is [`ModelError::Malformed`], an unknown
//! `format_version` is [`ModelError::UnsupportedVersion`], a payload
//! shorter than `payload_bytes` is [`ModelError::Truncated`], and a
//! checksum mismatch over the exact payload bytes is
//! [`ModelError::ChecksumMismatch`]. Writes go through
//! [`dds_obs::fsio::atomic_write`] so a crash mid-save never leaves a
//! truncated file where a valid model used to be.
//!
//! Floats are serialized with the shortest round-trip representation and
//! re-parsed with [`str::parse::<f64>`], so a loaded model is
//! *bit-identical* to the trained one: [`TrainedModel::prediction_report`]
//! reproduces the freshly-trained Table III byte-for-byte.
//!
//! # Example
//!
//! ```
//! use dds_core::{Analysis, AnalysisConfig, TrainedModel, TrainingContext};
//! use dds_smartsim::{FleetConfig, FleetSimulator};
//!
//! let dataset = FleetSimulator::new(FleetConfig::test_scale().with_seed(9)).run();
//! let ctx = TrainingContext { seed: 9, scale: "test".into(), git_sha: String::new() };
//! let (_, model) = Analysis::new(AnalysisConfig::default()).train(&dataset, &ctx).unwrap();
//! let bytes = model.to_bytes().unwrap();
//! let reloaded = TrainedModel::from_bytes(&bytes).unwrap();
//! assert_eq!(reloaded, model);
//! ```

use crate::categorize::FailureType;
use crate::pipeline::AnalysisReport;
use crate::predict::{GroupPrediction, PredictionReport};
use crate::quality::QualityPolicy;
use crate::zscore::DiscriminationTable;
use dds_obs::json::{self, Json};
use dds_regtree::{NodeSpec, RegressionTree};
use dds_smartsim::{Attribute, Dataset, NUM_ATTRIBUTES};
use dds_stats::{MinMaxScaler, SignatureForm, SignatureModel};
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;
use std::path::Path;

/// The artifact format version this build writes and the only one it
/// reads. Bump on any incompatible payload change; loaders reject other
/// versions with [`ModelError::UnsupportedVersion`] instead of guessing.
pub const MODEL_FORMAT_VERSION: u32 = 1;

/// The magic string identifying a model artifact's header line.
pub const MODEL_MAGIC: &str = "dds-model";

/// Errors produced when encoding, decoding or loading a model artifact.
#[derive(Debug)]
#[non_exhaustive]
pub enum ModelError {
    /// Reading or writing the artifact file failed.
    Io(std::io::Error),
    /// The artifact (header or payload) is not a valid model document.
    Malformed(String),
    /// The artifact was written by an incompatible format version.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// The version this build supports.
        supported: u32,
    },
    /// The payload bytes do not hash to the header checksum.
    ChecksumMismatch {
        /// Checksum the header promises.
        expected: String,
        /// Checksum of the bytes actually present.
        actual: String,
    },
    /// The payload is shorter than the header's `payload_bytes`.
    Truncated {
        /// Bytes the header promises.
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
    /// A value that must be finite (an RMSE, a scaler bound, …) is not,
    /// so the model cannot be serialized faithfully.
    NonFinite(String),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::Io(e) => write!(f, "model artifact I/O error: {e}"),
            ModelError::Malformed(msg) => write!(f, "malformed model artifact: {msg}"),
            ModelError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported model format version {found} (this build reads version {supported})"
            ),
            ModelError::ChecksumMismatch { expected, actual } => {
                write!(f, "model payload checksum mismatch: header says {expected}, got {actual}")
            }
            ModelError::Truncated { expected, actual } => {
                write!(f, "model payload truncated: header promises {expected} bytes, got {actual}")
            }
            ModelError::NonFinite(what) => {
                write!(f, "cannot serialize non-finite value: {what}")
            }
        }
    }
}

impl Error for ModelError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ModelError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ModelError {
    fn from(e: std::io::Error) -> Self {
        ModelError::Io(e)
    }
}

/// Provenance the CLI knows but the pipeline does not: what seed and
/// scale produced the training fleet, and which source revision ran.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrainingContext {
    /// The fleet seed.
    pub seed: u64,
    /// The fleet scale preset name (`test`, `bench`, `consumer`, `paper`).
    pub scale: String,
    /// Git revision of the training binary (empty when unknown).
    pub git_sha: String,
}

/// Training metadata stamped into the artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelMeta {
    /// Unix seconds when the model was assembled.
    pub created_unix: u64,
    /// `CARGO_PKG_VERSION` of the training build.
    pub tool_version: String,
    /// Git revision of the training build (empty when unknown).
    pub git_sha: String,
    /// The fleet seed the model was trained on.
    pub seed: u64,
    /// The fleet scale preset name.
    pub scale: String,
    /// Drives in the training fleet.
    pub drives: usize,
    /// Failed drives in the training fleet.
    pub failed_drives: usize,
    /// Total health records in the training fleet.
    pub records: usize,
}

/// One failure group's trained artifact: identity, signature fit with the
/// full RMSE table, membership, K-means centroid and regression tree.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupArtifact {
    /// Paper-order group index (0 = Group 1).
    pub group_index: usize,
    /// The Table II failure type.
    pub failure_type: FailureType,
    /// The signature labeling this group's training targets.
    pub signature: SignatureModel,
    /// Test-set RMSE (Table III row 1).
    pub rmse: f64,
    /// `rmse / 2` (Table III row 2).
    pub error_rate: f64,
    /// Training-set size.
    pub train_samples: usize,
    /// Test-set size.
    pub test_samples: usize,
    /// The form that won the per-drive signature vote.
    pub dominant_form: SignatureForm,
    /// Mean fit RMSE of every candidate form (the Fig. 7/8 comparison).
    pub mean_rmse_by_form: Vec<(SignatureForm, f64)>,
    /// Raw ids of the drives assigned to this group.
    pub drive_ids: Vec<u32>,
    /// K-means centroid in the 30-feature scaled space (mean of member
    /// feature vectors).
    pub centroid: Vec<f64>,
    /// The trained §V-B regression tree.
    pub tree: RegressionTree,
}

/// One attribute's §V-A z-score baseline: mean z per group plus the group
/// the attribute separates best.
#[derive(Debug, Clone, PartialEq)]
pub struct ZScoreBaseline {
    /// The attribute.
    pub attribute: Attribute,
    /// Mean z-score per group (paper order); `None` where undefined.
    pub mean_z: Vec<Option<f64>>,
    /// The group with the largest |mean z|, if any.
    pub most_separated: Option<usize>,
}

/// A complete, serializable trained model (see the module docs for the
/// on-disk format).
#[derive(Debug, Clone, PartialEq)]
pub struct TrainedModel {
    /// Provenance metadata.
    pub meta: ModelMeta,
    /// Per-attribute minima of the Eq. (1) scaler.
    pub scaler_mins: Vec<f64>,
    /// Per-attribute maxima of the Eq. (1) scaler.
    pub scaler_maxs: Vec<f64>,
    /// Mean raw attribute values over the training fleet's good records
    /// (the monitor's baseline-correction target).
    pub population_means: [f64; NUM_ATTRIBUTES],
    /// Standard deviation of good-population `TC` health values.
    pub tc_std: f64,
    /// The quality policy the training run enforced.
    pub quality: QualityPolicy,
    /// One artifact per failure group, paper order.
    pub groups: Vec<GroupArtifact>,
    /// §V-A z-score baselines, one per attribute in [`Attribute::ALL`]
    /// order.
    pub z_baselines: Vec<ZScoreBaseline>,
}

impl TrainedModel {
    /// Assembles the artifact from a completed training run. The
    /// population means and `TC` deviation come from
    /// [`good_population_stats`], as the monitor bundle's do, so a
    /// warm-started monitor is bit-identical to a cold-started one.
    pub fn from_report(dataset: &Dataset, report: &AnalysisReport, ctx: &TrainingContext) -> Self {
        let assignments = report.categorization.assignments();
        let scaled = report.failure_records.scaled_features();
        let groups = report
            .prediction
            .groups
            .iter()
            .map(|g| {
                let group = &report.categorization.groups()[g.group_index];
                let summary = report
                    .degradation
                    .iter()
                    .find(|d| d.group_index == g.group_index)
                    .expect("every predicted group has a degradation summary");
                // K-means centroid: mean of member feature vectors in the
                // scaled 30-feature space.
                let dim = scaled.first().map_or(0, Vec::len);
                let mut centroid = vec![0.0; dim];
                let mut members = 0usize;
                for (features, &assigned) in scaled.iter().zip(assignments) {
                    if assigned == g.group_index {
                        members += 1;
                        for (c, v) in centroid.iter_mut().zip(features) {
                            *c += v;
                        }
                    }
                }
                if members > 0 {
                    for c in &mut centroid {
                        *c /= members as f64;
                    }
                }
                GroupArtifact {
                    group_index: g.group_index,
                    failure_type: group.failure_type,
                    signature: g.signature,
                    rmse: g.rmse,
                    error_rate: g.error_rate,
                    train_samples: g.train_samples,
                    test_samples: g.test_samples,
                    dominant_form: summary.dominant_form,
                    mean_rmse_by_form: summary.mean_rmse_by_form.clone(),
                    drive_ids: group.drive_ids.iter().map(|id| id.0).collect(),
                    centroid,
                    tree: g.tree.clone(),
                }
            })
            .collect();

        let (population_means, tc_std) = good_population_stats(dataset);

        let discrimination = DiscriminationTable::from_sweeps(&report.z_scores);
        let z_baselines = discrimination
            .rows
            .iter()
            .map(|row| ZScoreBaseline {
                attribute: row.attribute,
                mean_z: row.mean_z.clone(),
                most_separated: row.most_separated,
            })
            .collect();

        let created_unix = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        TrainedModel {
            meta: ModelMeta {
                created_unix,
                tool_version: env!("CARGO_PKG_VERSION").to_string(),
                git_sha: ctx.git_sha.clone(),
                seed: ctx.seed,
                scale: ctx.scale.clone(),
                drives: dataset.drives().len(),
                failed_drives: dataset.failed_drives().count(),
                records: dataset.drives().iter().map(|d| d.records().len()).sum(),
            },
            scaler_mins: dataset.scaler().mins().to_vec(),
            scaler_maxs: dataset.scaler().maxs().to_vec(),
            population_means,
            tc_std,
            quality: QualityPolicy::default(),
            groups,
            z_baselines,
        }
    }

    /// Rebuilds the Eq. (1) scaler from the stored bounds.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Malformed`] for inconsistent bounds.
    pub fn scaler(&self) -> Result<MinMaxScaler, ModelError> {
        MinMaxScaler::from_bounds(&self.scaler_mins, &self.scaler_maxs)
            .map_err(|e| ModelError::Malformed(format!("scaler bounds: {e}")))
    }

    /// Reconstructs the Table III prediction report this model was
    /// trained with, byte-for-byte identical (through
    /// `report::render_prediction_table`) to the freshly-trained one.
    pub fn prediction_report(&self) -> PredictionReport {
        PredictionReport {
            groups: self
                .groups
                .iter()
                .map(|g| GroupPrediction {
                    group_index: g.group_index,
                    signature: g.signature,
                    tree: g.tree.clone(),
                    rmse: g.rmse,
                    error_rate: g.error_rate,
                    train_samples: g.train_samples,
                    test_samples: g.test_samples,
                })
                .collect(),
        }
    }

    /// Renders the provenance document served by the `/model` endpoint.
    /// `source` names where the model came from (a path, or `"trained
    /// in-process"`).
    pub fn provenance_json(&self, source: &str) -> String {
        let mut out = String::with_capacity(512);
        let _ = write!(
            out,
            "{{\"magic\":\"{MODEL_MAGIC}\",\"format_version\":{MODEL_FORMAT_VERSION},\
             \"source\":\"{}\",\"created_unix\":{},\"tool_version\":\"{}\",\"git_sha\":\"{}\",\
             \"seed\":\"{}\",\"scale\":\"{}\",\"drives\":{},\"failed_drives\":{},\"records\":{},\
             \"groups\":[",
            json::escape(source),
            self.meta.created_unix,
            json::escape(&self.meta.tool_version),
            json::escape(&self.meta.git_sha),
            self.meta.seed,
            json::escape(&self.meta.scale),
            self.meta.drives,
            self.meta.failed_drives,
            self.meta.records,
        );
        for (i, g) in self.groups.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"index\":{},\"failure_type\":\"{}\",\"form\":\"{}\",\"rmse\":{}}}",
                g.group_index + 1,
                json::escape(g.failure_type.name()),
                g.signature.form(),
                json::number(g.rmse),
            );
        }
        out.push_str("]}");
        out
    }

    // --- codec -----------------------------------------------------------

    /// Serializes the model to its on-disk bytes (header line + payload).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NonFinite`] if any required float is NaN or
    /// infinite — a model that cannot round-trip is never written.
    pub fn to_bytes(&self) -> Result<Vec<u8>, ModelError> {
        let payload = self.payload_json()?;
        let checksum = fnv1a64(payload.as_bytes());
        let header = format!(
            "{{\"magic\":\"{MODEL_MAGIC}\",\"format_version\":{MODEL_FORMAT_VERSION},\
             \"payload_bytes\":{},\"checksum\":\"fnv1a64:{checksum:016x}\"}}\n",
            payload.len(),
        );
        let mut bytes = header.into_bytes();
        bytes.extend_from_slice(payload.as_bytes());
        Ok(bytes)
    }

    /// Saves the model to `path` atomically (temp file + rename), so a
    /// crash mid-save never leaves a partial artifact.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NonFinite`] for unserializable values and
    /// [`ModelError::Io`] for filesystem failures.
    pub fn save(&self, path: &Path) -> Result<(), ModelError> {
        let bytes = self.to_bytes()?;
        dds_obs::fsio::atomic_write(path, &bytes)?;
        Ok(())
    }

    /// Loads a model from `path`, verifying magic, format version,
    /// payload length and checksum before parsing.
    ///
    /// # Errors
    ///
    /// See [`ModelError`]; every corruption mode maps to a typed error,
    /// never a panic.
    pub fn load(path: &Path) -> Result<Self, ModelError> {
        let bytes = std::fs::read(path)?;
        Self::from_bytes(&bytes)
    }

    /// Decodes a model from its on-disk bytes.
    ///
    /// # Errors
    ///
    /// See [`ModelError`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ModelError> {
        let newline = bytes
            .iter()
            .position(|&b| b == b'\n')
            .ok_or_else(|| ModelError::Malformed("missing header line".to_string()))?;
        let header_text = std::str::from_utf8(&bytes[..newline])
            .map_err(|_| ModelError::Malformed("header is not UTF-8".to_string()))?;
        let header =
            json::parse(header_text).map_err(|e| ModelError::Malformed(format!("header: {e}")))?;
        let magic = header
            .get("magic")
            .and_then(Json::as_str)
            .ok_or_else(|| ModelError::Malformed("header missing \"magic\"".to_string()))?;
        if magic != MODEL_MAGIC {
            return Err(ModelError::Malformed(format!(
                "bad magic {magic:?} (expected {MODEL_MAGIC:?})"
            )));
        }
        let version = header.get("format_version").and_then(Json::as_u64).ok_or_else(|| {
            ModelError::Malformed("header missing \"format_version\"".to_string())
        })?;
        if version != u64::from(MODEL_FORMAT_VERSION) {
            return Err(ModelError::UnsupportedVersion {
                found: u32::try_from(version).unwrap_or(u32::MAX),
                supported: MODEL_FORMAT_VERSION,
            });
        }
        let expected_len = header
            .get("payload_bytes")
            .and_then(Json::as_usize)
            .ok_or_else(|| ModelError::Malformed("header missing \"payload_bytes\"".to_string()))?;
        let expected_checksum = header
            .get("checksum")
            .and_then(Json::as_str)
            .ok_or_else(|| ModelError::Malformed("header missing \"checksum\"".to_string()))?;

        let payload = &bytes[newline + 1..];
        if payload.len() < expected_len {
            return Err(ModelError::Truncated { expected: expected_len, actual: payload.len() });
        }
        if payload.len() > expected_len {
            return Err(ModelError::Malformed(format!(
                "trailing data: payload is {} bytes, header promises {expected_len}",
                payload.len()
            )));
        }
        let actual_checksum = format!("fnv1a64:{:016x}", fnv1a64(payload));
        if actual_checksum != expected_checksum {
            return Err(ModelError::ChecksumMismatch {
                expected: expected_checksum.to_string(),
                actual: actual_checksum,
            });
        }

        let payload_text = std::str::from_utf8(payload)
            .map_err(|_| ModelError::Malformed("payload is not UTF-8".to_string()))?;
        let doc = json::parse(payload_text)
            .map_err(|e| ModelError::Malformed(format!("payload: {e}")))?;
        Self::from_payload(&doc)
    }

    fn payload_json(&self) -> Result<String, ModelError> {
        let mut out = String::with_capacity(16 * 1024);
        out.push_str("{\"meta\":{");
        let _ = write!(
            out,
            "\"created_unix\":{},\"tool_version\":\"{}\",\"git_sha\":\"{}\",\"seed\":\"{}\",\
             \"scale\":\"{}\",\"drives\":{},\"failed_drives\":{},\"records\":{}}}",
            self.meta.created_unix,
            json::escape(&self.meta.tool_version),
            json::escape(&self.meta.git_sha),
            self.meta.seed,
            json::escape(&self.meta.scale),
            self.meta.drives,
            self.meta.failed_drives,
            self.meta.records,
        );
        out.push_str(",\"scaler\":{\"mins\":");
        write_f64_array(&mut out, &self.scaler_mins, "scaler min")?;
        out.push_str(",\"maxs\":");
        write_f64_array(&mut out, &self.scaler_maxs, "scaler max")?;
        out.push_str("},\"population_means\":");
        write_f64_array(&mut out, &self.population_means, "population mean")?;
        out.push_str(",\"tc_std\":");
        out.push_str(&finite(self.tc_std, "tc_std")?);
        let _ = write!(
            out,
            ",\"quality\":{{\"sentinel\":{},\"max_consecutive_imputes\":{},\
             \"max_missing_per_record\":{}}}",
            finite(self.quality.sentinel, "quality sentinel")?,
            self.quality.max_consecutive_imputes,
            self.quality.max_missing_per_record,
        );
        out.push_str(",\"groups\":[");
        for (i, g) in self.groups.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_group(&mut out, g)?;
        }
        out.push_str("],\"z_baselines\":[");
        for (i, z) in self.z_baselines.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"attribute\":\"{}\",\"mean_z\":[", z.attribute.symbol());
            for (j, v) in z.mean_z.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                match v {
                    Some(v) => out.push_str(&finite(*v, "mean z-score")?),
                    None => out.push_str("null"),
                }
            }
            out.push_str("],\"most_separated\":");
            match z.most_separated {
                Some(g) => {
                    let _ = write!(out, "{g}");
                }
                None => out.push_str("null"),
            }
            out.push('}');
        }
        out.push_str("]}");
        Ok(out)
    }

    fn from_payload(doc: &Json) -> Result<Self, ModelError> {
        let meta_doc = field(doc, "meta")?;
        let meta = ModelMeta {
            created_unix: get_u64(meta_doc, "created_unix")?,
            tool_version: get_string(meta_doc, "tool_version")?,
            git_sha: get_string(meta_doc, "git_sha")?,
            // u64 seeds don't fit a JSON f64, so they travel as strings.
            seed: get_string(meta_doc, "seed")?
                .parse()
                .map_err(|_| ModelError::Malformed("meta.seed is not a u64".to_string()))?,
            scale: get_string(meta_doc, "scale")?,
            drives: get_usize(meta_doc, "drives")?,
            failed_drives: get_usize(meta_doc, "failed_drives")?,
            records: get_usize(meta_doc, "records")?,
        };
        let scaler_doc = field(doc, "scaler")?;
        let scaler_mins = get_f64_array(scaler_doc, "mins")?;
        let scaler_maxs = get_f64_array(scaler_doc, "maxs")?;
        let means = get_f64_array(doc, "population_means")?;
        let population_means: [f64; NUM_ATTRIBUTES] = means.try_into().map_err(|v: Vec<f64>| {
            ModelError::Malformed(format!(
                "population_means has {} entries, expected {NUM_ATTRIBUTES}",
                v.len()
            ))
        })?;
        let quality_doc = field(doc, "quality")?;
        let quality = QualityPolicy {
            sentinel: get_f64(quality_doc, "sentinel")?,
            max_consecutive_imputes: get_usize(quality_doc, "max_consecutive_imputes")?,
            max_missing_per_record: get_usize(quality_doc, "max_missing_per_record")?,
        };
        let groups = field(doc, "groups")?
            .as_array()
            .ok_or_else(|| ModelError::Malformed("\"groups\" is not an array".to_string()))?
            .iter()
            .map(parse_group)
            .collect::<Result<Vec<_>, _>>()?;
        let z_baselines = field(doc, "z_baselines")?
            .as_array()
            .ok_or_else(|| ModelError::Malformed("\"z_baselines\" is not an array".to_string()))?
            .iter()
            .map(parse_z_baseline)
            .collect::<Result<Vec<_>, _>>()?;
        let model = TrainedModel {
            meta,
            scaler_mins,
            scaler_maxs,
            population_means,
            tc_std: get_f64(doc, "tc_std")?,
            quality,
            groups,
            z_baselines,
        };
        // Validate the scaler bounds eagerly so corruption surfaces at
        // load time, not at first prediction.
        model.scaler()?;
        Ok(model)
    }
}

/// The good population's mean raw value of each attribute and the
/// standard deviation of its `TC` health values, over every record of
/// every good drive in fleet order: the monitor's baseline-correction
/// target and thermal-risk yardstick. The model artifact and the
/// monitor's bundle both take them from here, so the two agree bit for
/// bit.
pub fn good_population_stats(dataset: &Dataset) -> ([f64; NUM_ATTRIBUTES], f64) {
    let mut population_means = [0.0; NUM_ATTRIBUTES];
    let mut count = 0u64;
    for drive in dataset.good_drives() {
        for record in drive.records() {
            count += 1;
            for (mean, v) in population_means.iter_mut().zip(&record.values) {
                *mean += v;
            }
        }
    }
    if count > 0 {
        for mean in &mut population_means {
            *mean /= count as f64;
        }
    }
    let tc_idx = Attribute::TemperatureCelsius.index();
    let mut tc_var = 0.0;
    for drive in dataset.good_drives() {
        for record in drive.records() {
            let d = record.values[tc_idx] - population_means[tc_idx];
            tc_var += d * d;
        }
    }
    let tc_std = if count > 0 { (tc_var / count as f64).sqrt() } else { 0.0 };
    (population_means, tc_std)
}

fn write_group(out: &mut String, g: &GroupArtifact) -> Result<(), ModelError> {
    let _ = write!(
        out,
        "{{\"group_index\":{},\"failure_type\":\"{}\",\"signature\":{{\"form\":\"{}\",\
         \"window\":{}}},\"rmse\":{},\"error_rate\":{},\"train_samples\":{},\"test_samples\":{},\
         \"dominant_form\":\"{}\",\"mean_rmse_by_form\":[",
        g.group_index,
        json::escape(g.failure_type.name()),
        g.signature.form(),
        finite(g.signature.window(), "signature window")?,
        finite(g.rmse, "group rmse")?,
        finite(g.error_rate, "group error rate")?,
        g.train_samples,
        g.test_samples,
        g.dominant_form,
    );
    for (i, (form, rmse)) in g.mean_rmse_by_form.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[\"{form}\",{}]", finite(*rmse, "form rmse")?);
    }
    out.push_str("],\"drive_ids\":[");
    for (i, id) in g.drive_ids.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{id}");
    }
    out.push_str("],\"centroid\":");
    write_f64_array(out, &g.centroid, "centroid value")?;
    out.push_str(",\"tree\":");
    write_tree(out, &g.tree)?;
    out.push('}');
    Ok(())
}

fn write_tree(out: &mut String, tree: &RegressionTree) -> Result<(), ModelError> {
    let _ = write!(out, "{{\"num_features\":{},\"importances\":", tree.num_features());
    write_f64_array(out, tree.feature_importances(), "feature importance")?;
    out.push_str(",\"nodes\":[");
    for (i, node) in tree.nodes().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match *node {
            NodeSpec::Leaf { value, samples } => {
                let _ = write!(
                    out,
                    "{{\"kind\":\"leaf\",\"value\":{},\"samples\":{samples}}}",
                    finite(value, "leaf value")?
                );
            }
            NodeSpec::Split { feature, threshold, value, samples, left, right } => {
                let _ = write!(
                    out,
                    "{{\"kind\":\"split\",\"feature\":{feature},\"threshold\":{},\"value\":{},\
                     \"samples\":{samples},\"left\":{left},\"right\":{right}}}",
                    finite(threshold, "split threshold")?,
                    finite(value, "split value")?,
                );
            }
        }
    }
    out.push_str("]}");
    Ok(())
}

fn parse_group(doc: &Json) -> Result<GroupArtifact, ModelError> {
    let signature_doc = field(doc, "signature")?;
    let signature = SignatureModel::new(
        parse_form(&get_string(signature_doc, "form")?)?,
        get_f64(signature_doc, "window")?,
    )
    .map_err(|e| ModelError::Malformed(format!("signature: {e}")))?;
    let mean_rmse_by_form = field(doc, "mean_rmse_by_form")?
        .as_array()
        .ok_or_else(|| ModelError::Malformed("\"mean_rmse_by_form\" is not an array".to_string()))?
        .iter()
        .map(|pair| {
            let pair = pair.as_array().filter(|p| p.len() == 2).ok_or_else(|| {
                ModelError::Malformed("mean_rmse_by_form entry is not a pair".to_string())
            })?;
            let form = parse_form(pair[0].as_str().ok_or_else(|| {
                ModelError::Malformed("mean_rmse_by_form form is not a string".to_string())
            })?)?;
            let rmse = pair[1].as_f64().ok_or_else(|| {
                ModelError::Malformed("mean_rmse_by_form rmse is not a number".to_string())
            })?;
            Ok((form, rmse))
        })
        .collect::<Result<Vec<_>, ModelError>>()?;
    let drive_ids = field(doc, "drive_ids")?
        .as_array()
        .ok_or_else(|| ModelError::Malformed("\"drive_ids\" is not an array".to_string()))?
        .iter()
        .map(|v| {
            v.as_u64()
                .and_then(|id| u32::try_from(id).ok())
                .ok_or_else(|| ModelError::Malformed("drive id is not a u32".to_string()))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(GroupArtifact {
        group_index: get_usize(doc, "group_index")?,
        failure_type: parse_failure_type(&get_string(doc, "failure_type")?)?,
        signature,
        rmse: get_f64(doc, "rmse")?,
        error_rate: get_f64(doc, "error_rate")?,
        train_samples: get_usize(doc, "train_samples")?,
        test_samples: get_usize(doc, "test_samples")?,
        dominant_form: parse_form(&get_string(doc, "dominant_form")?)?,
        mean_rmse_by_form,
        drive_ids,
        centroid: get_f64_array(doc, "centroid")?,
        tree: parse_tree(field(doc, "tree")?)?,
    })
}

fn parse_tree(doc: &Json) -> Result<RegressionTree, ModelError> {
    let num_features = get_usize(doc, "num_features")?;
    let importances = get_f64_array(doc, "importances")?;
    let nodes = field(doc, "nodes")?
        .as_array()
        .ok_or_else(|| ModelError::Malformed("tree \"nodes\" is not an array".to_string()))?
        .iter()
        .map(|node| match node.get("kind").and_then(Json::as_str) {
            Some("leaf") => Ok(NodeSpec::Leaf {
                value: get_f64(node, "value")?,
                samples: get_usize(node, "samples")?,
            }),
            Some("split") => Ok(NodeSpec::Split {
                feature: get_usize(node, "feature")?,
                threshold: get_f64(node, "threshold")?,
                value: get_f64(node, "value")?,
                samples: get_usize(node, "samples")?,
                left: get_usize(node, "left")?,
                right: get_usize(node, "right")?,
            }),
            _ => Err(ModelError::Malformed("tree node has no valid \"kind\"".to_string())),
        })
        .collect::<Result<Vec<_>, _>>()?;
    RegressionTree::from_parts(nodes, num_features, importances)
        .map_err(|e| ModelError::Malformed(format!("tree: {e}")))
}

fn parse_z_baseline(doc: &Json) -> Result<ZScoreBaseline, ModelError> {
    let symbol = get_string(doc, "attribute")?;
    let attribute = Attribute::ALL
        .iter()
        .copied()
        .find(|a| a.symbol() == symbol)
        .ok_or_else(|| ModelError::Malformed(format!("unknown attribute symbol {symbol:?}")))?;
    let mean_z = field(doc, "mean_z")?
        .as_array()
        .ok_or_else(|| ModelError::Malformed("\"mean_z\" is not an array".to_string()))?
        .iter()
        .map(|v| {
            if v.is_null() {
                Ok(None)
            } else {
                v.as_f64().map(Some).ok_or_else(|| {
                    ModelError::Malformed("mean_z entry is not a number or null".to_string())
                })
            }
        })
        .collect::<Result<Vec<_>, _>>()?;
    let most_separated = match field(doc, "most_separated")? {
        Json::Null => None,
        v => Some(v.as_usize().ok_or_else(|| {
            ModelError::Malformed("\"most_separated\" is not an index or null".to_string())
        })?),
    };
    Ok(ZScoreBaseline { attribute, mean_z, most_separated })
}

fn parse_form(name: &str) -> Result<SignatureForm, ModelError> {
    SignatureForm::ALL
        .iter()
        .copied()
        .find(|f| f.to_string() == name)
        .ok_or_else(|| ModelError::Malformed(format!("unknown signature form {name:?}")))
}

fn parse_failure_type(name: &str) -> Result<FailureType, ModelError> {
    [FailureType::Logical, FailureType::BadSector, FailureType::HeadWear, FailureType::Unknown]
        .into_iter()
        .find(|t| t.name() == name)
        .ok_or_else(|| ModelError::Malformed(format!("unknown failure type {name:?}")))
}

// --- serialization helpers -------------------------------------------------

/// Renders `v` with the shortest round-trip representation, rejecting
/// non-finite values (JSON cannot carry them).
fn finite(v: f64, what: &str) -> Result<String, ModelError> {
    if !v.is_finite() {
        return Err(ModelError::NonFinite(what.to_string()));
    }
    Ok(format!("{v:?}"))
}

fn write_f64_array(out: &mut String, values: &[f64], what: &str) -> Result<(), ModelError> {
    out.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&finite(*v, what)?);
    }
    out.push(']');
    Ok(())
}

fn field<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, ModelError> {
    doc.get(key).ok_or_else(|| ModelError::Malformed(format!("missing field {key:?}")))
}

fn get_f64(doc: &Json, key: &str) -> Result<f64, ModelError> {
    field(doc, key)?
        .as_f64()
        .ok_or_else(|| ModelError::Malformed(format!("field {key:?} is not a number")))
}

fn get_u64(doc: &Json, key: &str) -> Result<u64, ModelError> {
    field(doc, key)?.as_u64().ok_or_else(|| {
        ModelError::Malformed(format!("field {key:?} is not a non-negative integer"))
    })
}

fn get_usize(doc: &Json, key: &str) -> Result<usize, ModelError> {
    field(doc, key)?.as_usize().ok_or_else(|| {
        ModelError::Malformed(format!("field {key:?} is not a non-negative integer"))
    })
}

fn get_string(doc: &Json, key: &str) -> Result<String, ModelError> {
    field(doc, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| ModelError::Malformed(format!("field {key:?} is not a string")))
}

fn get_f64_array(doc: &Json, key: &str) -> Result<Vec<f64>, ModelError> {
    field(doc, key)?
        .as_array()
        .ok_or_else(|| ModelError::Malformed(format!("field {key:?} is not an array")))?
        .iter()
        .map(|v| {
            v.as_f64()
                .ok_or_else(|| ModelError::Malformed(format!("field {key:?} holds a non-number")))
        })
        .collect()
}

/// 64-bit FNV-1a over `bytes` — the artifact payload checksum.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::categorize::CategorizationConfig;
    use crate::pipeline::{Analysis, AnalysisConfig};
    use dds_smartsim::{FleetConfig, FleetSimulator};

    fn trained() -> TrainedModel {
        let dataset = FleetSimulator::new(FleetConfig::test_scale().with_seed(4_242)).run();
        let config = AnalysisConfig {
            categorization: CategorizationConfig { run_svc: false, ..Default::default() },
            ..Default::default()
        };
        let ctx = TrainingContext { seed: 4_242, scale: "test".to_string(), git_sha: "abc".into() };
        let (_, model) = Analysis::new(config).train(&dataset, &ctx).unwrap();
        model
    }

    #[test]
    fn roundtrips_bit_identically() {
        let model = trained();
        let bytes = model.to_bytes().unwrap();
        let reloaded = TrainedModel::from_bytes(&bytes).unwrap();
        assert_eq!(reloaded, model);
        // Re-encoding the reloaded model reproduces the artifact exactly.
        assert_eq!(reloaded.to_bytes().unwrap(), bytes);
    }

    #[test]
    fn metadata_reflects_the_training_run() {
        let model = trained();
        assert_eq!(model.meta.seed, 4_242);
        assert_eq!(model.meta.scale, "test");
        assert_eq!(model.meta.git_sha, "abc");
        assert_eq!(model.meta.drives, model.meta.failed_drives + (model.meta.drives - 60));
        assert_eq!(model.meta.failed_drives, 60);
        assert!(model.meta.records > 0);
        assert_eq!(model.groups.len(), 3);
        assert_eq!(model.z_baselines.len(), NUM_ATTRIBUTES);
        // Every group carries its membership and a 30-feature centroid.
        for g in &model.groups {
            assert!(!g.drive_ids.is_empty());
            assert_eq!(g.centroid.len(), crate::features::NUM_FEATURES);
            assert_eq!(g.mean_rmse_by_form.len(), SignatureForm::ALL.len());
        }
        let members: usize = model.groups.iter().map(|g| g.drive_ids.len()).sum();
        assert_eq!(members, model.meta.failed_drives);
    }

    #[test]
    fn flipped_payload_byte_is_a_checksum_mismatch() {
        let model = trained();
        let mut bytes = model.to_bytes().unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(matches!(
            TrainedModel::from_bytes(&bytes),
            Err(ModelError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn wrong_format_version_is_rejected() {
        let model = trained();
        let bytes = model.to_bytes().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let bumped = text.replacen("\"format_version\":1", "\"format_version\":99", 1);
        assert!(matches!(
            TrainedModel::from_bytes(bumped.as_bytes()),
            Err(ModelError::UnsupportedVersion { found: 99, supported: MODEL_FORMAT_VERSION })
        ));
    }

    #[test]
    fn truncated_payload_is_detected() {
        let model = trained();
        let bytes = model.to_bytes().unwrap();
        let cut = bytes.len() - 100;
        assert!(matches!(
            TrainedModel::from_bytes(&bytes[..cut]),
            Err(ModelError::Truncated { .. })
        ));
    }

    #[test]
    fn garbage_is_malformed_never_a_panic() {
        for garbage in
            [&b""[..], b"\n", b"not json\n{}", b"{\"magic\":\"dds-model\"}\n{}", b"{}\n{}"]
        {
            assert!(matches!(TrainedModel::from_bytes(garbage), Err(ModelError::Malformed(_))));
        }
        // Valid header shape but wrong magic.
        let wrong_magic =
            b"{\"magic\":\"dds-other\",\"format_version\":1,\"payload_bytes\":2,\"checksum\":\"x\"}\n{}";
        assert!(matches!(TrainedModel::from_bytes(wrong_magic), Err(ModelError::Malformed(_))));
    }

    #[test]
    fn non_finite_values_refuse_to_serialize() {
        let mut model = trained();
        model.tc_std = f64::NAN;
        assert!(matches!(model.to_bytes(), Err(ModelError::NonFinite(_))));
    }

    #[test]
    fn provenance_json_is_valid_and_complete() {
        let model = trained();
        let doc = model.provenance_json("/tmp/model.json");
        let parsed = json::parse(&doc).unwrap();
        assert_eq!(parsed.get("magic").and_then(Json::as_str), Some(MODEL_MAGIC));
        assert_eq!(parsed.get("source").and_then(Json::as_str), Some("/tmp/model.json"));
        assert_eq!(parsed.get("seed").and_then(Json::as_str), Some("4242"));
        assert_eq!(parsed.get("groups").and_then(Json::as_array).map(<[Json]>::len), Some(3));
    }

    #[test]
    fn save_and_load_through_the_filesystem() {
        let model = trained();
        let path =
            std::env::temp_dir().join(format!("dds-model-test-{}.dds-model", std::process::id()));
        model.save(&path).unwrap();
        let loaded = TrainedModel::load(&path).unwrap();
        assert_eq!(loaded, model);
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(TrainedModel::load(&path), Err(ModelError::Io(_))));
    }
}
