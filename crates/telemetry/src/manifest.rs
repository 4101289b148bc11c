//! Versioned run manifests.
//!
//! Every experiment binary writes one [`RunManifest`] next to its output
//! (`BENCH_*.json`, `results/*.txt`): the parameters, seeds, git revision
//! and wall/cycle totals needed to reproduce the run and to interpret the
//! JSONL event stream recorded alongside it. The manifest is versioned
//! (`schema_version`) so later tooling can keep reading old runs.
//!
//! Per-experiment summaries live in named tables: each table is a list of
//! flat JSON rows written under its own top-level key, and one schema
//! list names every table's fields, their kinds and whether a row must
//! carry them. Rows are checked against it when they are added (a bad
//! row is a panic at the call site) and when a manifest is read (a bad
//! row is a [`ManifestError`]).

use crate::json::{Json, ParseError};
use std::io;
use std::path::Path;

/// Current manifest schema version, written into every manifest.
///
/// A new table is one more entry in the schema list, not a version bump:
/// tables are omitted from the JSON when empty, so older readers never
/// meet them. Version history:
/// * **1** — initial schema.
/// * **2** — optional `campaigns` table (fault-campaign summary rows).
/// * **3** — optional `landscape` table (exhaustive-sweep summary rows:
///   subspace width, shard/thread configuration, the full fitness
///   histogram and the max-set cardinality).
/// * **4** — `host_cores` (detected hardware parallelism) and
///   `plane_width` (bit-slice lanes per plane word) execution-shape
///   fields. Both default when absent, so v1–v3 manifests stay readable.
/// * **5** — optional `server` table (per-route latency/throughput
///   summary rows from `leonardo-server` load runs).
/// * **6** — optional `pareto` table (multi-objective campaign rows:
///   objective names, front size, per-objective bests).
/// * **7** — optional `problems` table (registry-problem GA campaign
///   rows: problem name, genome width, seed, budget spent and the best
///   genome reached).
pub const MANIFEST_SCHEMA_VERSION: u64 = 7;

/// The JSON type a table field holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Str,
    /// A whole non-negative number ([`Json::as_u64`]).
    Uint,
    Num,
    Bool,
    Strs,
    Uints,
    Nums,
}

impl Kind {
    fn is_array(self) -> bool {
        matches!(self, Kind::Strs | Kind::Uints | Kind::Nums)
    }

    fn accepts(self, v: &Json) -> bool {
        let element = match self {
            Kind::Str => return v.as_str().is_some(),
            Kind::Uint => return v.as_u64().is_some(),
            Kind::Num => return v.as_f64().is_some(),
            Kind::Bool => return v.as_bool().is_some(),
            Kind::Strs => Kind::Str,
            Kind::Uints => Kind::Uint,
            Kind::Nums => Kind::Num,
        };
        v.as_array()
            .is_some_and(|items| items.iter().all(|x| element.accepts(x)))
    }
}

/// One table field: name, kind, and whether every row must carry it.
type Field = (&'static str, Kind, bool);

use Kind::*;

/// The manifest's tables in on-disk order, each with its fields in
/// on-disk order.
const TABLES: &[(&str, &[Field])] = &[
    // fault campaigns (v2): one row per (model, rate, engine)
    (
        "campaigns",
        &[
            ("model", Str, true),  // fault-model name, e.g. "population_flip"
            ("engine", Str, true), // "rtl_scalar" / "rtl_x64"
            ("rate", Num, true),   // faults per generation per lane
            ("lanes", Uint, true),
            ("recovered", Uint, true), // reconverged to a genuinely maximal genome
            ("corrupted", Uint, true), // best register silently corrupted
            ("permanent_failures", Uint, true), // never reconverged
            // mean faulted − fault-free generations over recovered lanes,
            // present when any lane qualified
            ("mean_cost_delta", Num, false),
        ],
    ),
    // exhaustive sweeps (v3)
    (
        "landscape",
        &[
            ("subspace_bits", Uint, true), // 36 = the full space
            ("shards", Uint, true),
            ("threads", Uint, true),
            ("genomes_swept", Uint, true),
            ("max_fitness", Uint, true),
            ("max_count", Uint, true), // cardinality of the max-fitness set
            ("histogram", Uints, true), // genome count per fitness level
        ],
    ),
    // server load passes (v5)
    (
        "server",
        &[
            ("route", Str, true), // "METHOD /path", or "ALL" for a mixed pass
            ("clients", Uint, true),
            ("requests", Uint, true),
            ("ok", Uint, true),     // 2xx responses
            ("errors", Uint, true), // non-2xx responses and transport failures
            ("p50_micros", Num, true),
            ("p99_micros", Num, true),
            ("mean_micros", Num, true),
            ("rps", Num, true), // successful responses per second
        ],
    ),
    // multi-objective campaigns (v6)
    (
        "pareto",
        &[
            ("campaign", Str, true), // e.g. "nsga2_walk"
            ("seed", Uint, true),
            ("population", Uint, true),
            ("generations", Uint, true),
            ("evaluations", Uint, true),
            ("front_size", Uint, true),
            ("objectives", Strs, true), // objective names, in vector order
            ("best", Nums, true),       // best (maximized) value per objective
        ],
    ),
    // registry-problem GA campaigns (v7)
    (
        "problems",
        &[
            ("problem", Str, true), // registered name, e.g. "fsm_traces"
            ("width", Uint, true),  // genome bits
            ("seed", Uint, true),
            ("generations", Uint, true),
            ("evaluations", Uint, true),
            ("best_fitness", Uint, true),
            ("best_genome", Str, true), // 0x-prefixed hex
            ("converged", Bool, true),  // reached the registered maximum
        ],
    ),
];

fn table_index(table: &str) -> usize {
    TABLES
        .iter()
        .position(|(name, _)| *name == table)
        .unwrap_or_else(|| panic!("unknown manifest table `{table}`"))
}

/// Check row `idx` of `table` against its schema: array fields first,
/// then scalars, each in schema order, so the first fault reported is
/// the one the schema v2–v7 readers reported.
fn check_row(table: &str, fields: &[Field], row: &Json, idx: usize) -> Result<(), ManifestError> {
    let arrays = fields.iter().filter(|f| f.1.is_array());
    let scalars = fields.iter().filter(|f| !f.1.is_array());
    for &(name, kind, required) in arrays.chain(scalars) {
        let ctx = || format!("{table}[{idx}].{name}");
        match row.get(name) {
            None if required => return Err(ManifestError::Missing(ctx())),
            Some(v) if !kind.accepts(v) => return Err(ManifestError::BadField(ctx())),
            _ => {}
        }
    }
    Ok(())
}

/// `root[name]` through `conv`: `None` when absent, `BadField` when
/// present but rejected by `conv`.
fn optional<T>(
    root: &Json,
    name: &str,
    conv: impl Fn(&Json) -> Option<T>,
) -> Result<Option<T>, ManifestError> {
    root.get(name)
        .map(|v| conv(v).ok_or_else(|| ManifestError::BadField(name.to_string())))
        .transpose()
}

/// [`optional`], with absence a `Missing` error.
fn required<T>(
    root: &Json,
    name: &str,
    conv: impl Fn(&Json) -> Option<T>,
) -> Result<T, ManifestError> {
    optional(root, name, conv)?.ok_or_else(|| ManifestError::Missing(name.to_string()))
}

/// A reproducibility record for one experiment run.
///
/// String-keyed `params` keep the schema open-ended: each binary records
/// whatever knobs it actually used (population size, mutation flips,
/// upset rate, …) without this crate having to know about them.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// Manifest schema version ([`MANIFEST_SCHEMA_VERSION`] when written
    /// by this crate).
    pub schema_version: u64,
    /// Experiment identifier, e.g. `"e1_convergence"`.
    pub experiment: String,
    /// `git rev-parse HEAD` of the tree that produced the run, or
    /// `"unknown"` outside a git checkout.
    pub git_revision: String,
    /// Run creation time, seconds since the Unix epoch.
    pub created_unix: u64,
    /// Experiment parameters, name → numeric value.
    pub params: Vec<(String, f64)>,
    /// The RNG seeds the run consumed, in trial order.
    pub seeds: Vec<u64>,
    /// Worker threads used (1 for serial runs).
    pub threads: u64,
    /// CPU cores the host reported at run time (schema v4; defaults to 1
    /// when reading older manifests). Together with `threads` this tells
    /// a reader whether a run was core-bound or under-subscribed.
    pub host_cores: u64,
    /// Bit-slice lanes per plane word the run's kernels used — 64 for
    /// the classic `u64` engine, 128/256/512 for the wide planes
    /// (schema v4; defaults to 64 when reading older manifests).
    pub plane_width: u64,
    /// Wall-clock duration of the run in seconds.
    pub wall_seconds: f64,
    /// Total simulated RTL cycles, when the run drove an RTL engine.
    pub simulated_cycles: Option<u64>,
    /// Relative path of the JSONL event stream recorded with this run,
    /// when one was recorded.
    pub events_file: Option<String>,
    /// Rows per table, index-aligned with the schema list.
    tables: Vec<Vec<Json>>,
}

impl RunManifest {
    /// A manifest skeleton for `experiment` with the current schema
    /// version and git revision; the caller fills in params, seeds and
    /// totals before writing.
    pub fn new(experiment: impl Into<String>) -> RunManifest {
        RunManifest {
            schema_version: MANIFEST_SCHEMA_VERSION,
            experiment: experiment.into(),
            git_revision: git_revision(),
            created_unix: unix_now(),
            params: Vec::new(),
            seeds: Vec::new(),
            threads: 1,
            host_cores: host_cores(),
            plane_width: 64,
            wall_seconds: 0.0,
            simulated_cycles: None,
            events_file: None,
            tables: vec![Vec::new(); TABLES.len()],
        }
    }

    /// Record one named parameter (builder-style).
    pub fn with_param(mut self, name: impl Into<String>, value: f64) -> RunManifest {
        self.params.push((name.into(), value));
        self
    }

    /// Look up a recorded parameter by name.
    pub fn param(&self, name: &str) -> Option<f64> {
        self.params.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// Append `row` to `table` (`"campaigns"`, `"landscape"`, `"server"`,
    /// `"pareto"` or `"problems"`).
    ///
    /// # Panics
    /// If `table` is unknown, a required field is missing or a value has
    /// the wrong kind, or the row has a field outside the table's schema
    /// or out of its order (the order is the on-disk order).
    pub fn add_row(&mut self, table: &str, row: Json) {
        let t = table_index(table);
        let fields = TABLES[t].1;
        if let Err(e) = check_row(table, fields, &row, self.tables[t].len()) {
            panic!("{e}");
        }
        let mut schema = fields.iter();
        let in_order = matches!(&row, Json::Obj(members)
            if members.iter().all(|(k, _)| schema.any(|f| f.0 == k)));
        assert!(
            in_order,
            "`{table}` row fields out of schema or order: {row}"
        );
        self.tables[t].push(row);
    }

    /// The rows of `table`, in the order they were added (empty when
    /// there are none).
    ///
    /// # Panics
    /// If `table` is unknown.
    pub fn rows(&self, table: &str) -> &[Json] {
        &self.tables[table_index(table)]
    }

    /// Render as a JSON tree.
    pub fn to_json(&self) -> Json {
        let params = self.params.iter().map(|(k, v)| (k.as_str(), Json::Num(*v)));
        let mut obj = vec![
            ("schema_version", Json::Num(self.schema_version as f64)),
            ("experiment", Json::Str(self.experiment.clone())),
            ("git_revision", Json::Str(self.git_revision.clone())),
            ("created_unix", Json::Num(self.created_unix as f64)),
            ("params", Json::obj(params)),
            (
                "seeds",
                Json::Arr(self.seeds.iter().map(|s| Json::Num(*s as f64)).collect()),
            ),
            ("threads", Json::Num(self.threads as f64)),
            ("host_cores", Json::Num(self.host_cores as f64)),
            ("plane_width", Json::Num(self.plane_width as f64)),
            ("wall_seconds", Json::Num(self.wall_seconds)),
        ];
        if let Some(cycles) = self.simulated_cycles {
            obj.push(("simulated_cycles", Json::Num(cycles as f64)));
        }
        if let Some(file) = &self.events_file {
            obj.push(("events_file", Json::Str(file.clone())));
        }
        for ((name, _), rows) in TABLES.iter().zip(&self.tables) {
            if !rows.is_empty() {
                obj.push((name, Json::Arr(rows.clone())));
            }
        }
        Json::obj(obj)
    }

    /// Parse a manifest back from JSON text (the inverse of
    /// [`RunManifest::to_json`] + `to_string`).
    pub fn from_json_str(text: &str) -> Result<RunManifest, ManifestError> {
        let root = Json::parse(text)?;
        let string = |name: &str| required(&root, name, |v| v.as_str().map(str::to_string));
        let uint = |name: &str| required(&root, name, Json::as_u64);
        let schema_version = uint("schema_version")?;
        if schema_version > MANIFEST_SCHEMA_VERSION {
            return Err(ManifestError::Version(schema_version));
        }
        let params = match root.get("params") {
            Some(Json::Obj(entries)) => entries
                .iter()
                .map(|(k, v)| {
                    v.as_f64()
                        .map(|v| (k.clone(), v))
                        .ok_or_else(|| ManifestError::BadField(format!("params.{k}")))
                })
                .collect::<Result<Vec<_>, _>>()?,
            Some(_) => return Err(ManifestError::BadField("params".to_string())),
            None => return Err(ManifestError::Missing("params".to_string())),
        };
        let seeds = required(&root, "seeds", |v| {
            v.as_array()?
                .iter()
                .map(Json::as_u64)
                .collect::<Option<Vec<_>>>()
        })?;
        // v4 execution-shape fields; older manifests get the values every
        // pre-v4 run actually had (one plane word = 64 lanes, cores unknown)
        let host_cores = optional(&root, "host_cores", Json::as_u64)?.unwrap_or(1);
        let plane_width = optional(&root, "plane_width", Json::as_u64)?.unwrap_or(64);
        let simulated_cycles = optional(&root, "simulated_cycles", Json::as_u64)?;
        let events_file = optional(&root, "events_file", |v| v.as_str().map(str::to_string))?;
        let mut tables = Vec::with_capacity(TABLES.len());
        for &(name, fields) in TABLES {
            let rows =
                optional(&root, name, |v| v.as_array().map(<[Json]>::to_vec))?.unwrap_or_default();
            for (i, row) in rows.iter().enumerate() {
                check_row(name, fields, row, i)?;
            }
            tables.push(rows);
        }
        Ok(RunManifest {
            schema_version,
            experiment: string("experiment")?,
            git_revision: string("git_revision")?,
            created_unix: uint("created_unix")?,
            params,
            seeds,
            threads: uint("threads")?,
            host_cores,
            plane_width,
            wall_seconds: required(&root, "wall_seconds", Json::as_f64)?,
            simulated_cycles,
            events_file,
            tables,
        })
    }

    /// Write the manifest as pretty-enough JSON to `path`.
    pub fn write(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, format!("{}\n", self.to_json()))
    }

    /// Read a manifest previously written with [`RunManifest::write`].
    pub fn read(path: impl AsRef<Path>) -> Result<RunManifest, ManifestError> {
        let text = std::fs::read_to_string(path).map_err(ManifestError::Io)?;
        RunManifest::from_json_str(&text)
    }
}

/// Failure to read or interpret a manifest.
#[derive(Debug)]
pub enum ManifestError {
    /// The file could not be read.
    Io(io::Error),
    /// The file is not valid JSON.
    Parse(ParseError),
    /// A required field is absent.
    Missing(String),
    /// A field has the wrong type or an unrepresentable value.
    BadField(String),
    /// The manifest was written by a newer schema than this crate knows.
    Version(u64),
}

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ManifestError::Io(e) => write!(f, "manifest I/O error: {e}"),
            ManifestError::Parse(e) => write!(f, "manifest is not valid JSON: {e}"),
            ManifestError::Missing(k) => write!(f, "manifest field `{k}` is missing"),
            ManifestError::BadField(k) => write!(f, "manifest field `{k}` has the wrong type"),
            ManifestError::Version(v) => {
                write!(
                    f,
                    "manifest schema version {v} is newer than supported {MANIFEST_SCHEMA_VERSION}"
                )
            }
        }
    }
}

impl std::error::Error for ManifestError {}

impl From<ParseError> for ManifestError {
    fn from(e: ParseError) -> ManifestError {
        ManifestError::Parse(e)
    }
}

/// `git rev-parse HEAD` of the working directory, or `"unknown"` when git
/// or the repository is unavailable (e.g. a source tarball build).
pub fn git_revision() -> String {
    let out = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output();
    match out {
        Ok(out) if out.status.success() => {
            let rev = String::from_utf8_lossy(&out.stdout).trim().to_string();
            if rev.is_empty() {
                "unknown".to_string()
            } else {
                rev
            }
        }
        _ => "unknown".to_string(),
    }
}

/// CPU cores the host reports, or 1 when detection fails (containers
/// without cpuset information, exotic platforms).
pub fn host_cores() -> u64 {
    std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1)
}

fn unix_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunManifest {
        let mut m = RunManifest::new("e1_convergence")
            .with_param("population", 32.0)
            .with_param("mutation_flips", 15.0);
        m.seeds = vec![0x1000, 0x1007, 0x100E];
        m.threads = 8;
        m.host_cores = 16;
        m.plane_width = 256;
        m.wall_seconds = 1.25;
        m.simulated_cycles = Some(123_456_789);
        m.events_file = Some("e1_convergence.events.jsonl".to_string());
        m
    }

    fn text(s: &str) -> Json {
        Json::Str(s.to_string())
    }

    fn nums(values: &[f64]) -> Json {
        Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
    }

    #[allow(clippy::too_many_arguments)]
    fn problem_row(
        problem: &str,
        width: f64,
        seed: f64,
        generations: f64,
        evaluations: f64,
        best_fitness: f64,
        best_genome: &str,
        converged: bool,
    ) -> Json {
        Json::obj([
            ("problem", text(problem)),
            ("width", Json::Num(width)),
            ("seed", Json::Num(seed)),
            ("generations", Json::Num(generations)),
            ("evaluations", Json::Num(evaluations)),
            ("best_fitness", Json::Num(best_fitness)),
            ("best_genome", text(best_genome)),
            ("converged", Json::Bool(converged)),
        ])
    }

    #[test]
    fn round_trips_through_json_text() {
        let m = sample();
        let text = m.to_json().to_string();
        let back = RunManifest::from_json_str(&text).expect("parse back");
        assert_eq!(back, m);
    }

    #[test]
    fn optional_fields_may_be_absent() {
        let mut m = sample();
        m.simulated_cycles = None;
        m.events_file = None;
        let back = RunManifest::from_json_str(&m.to_json().to_string()).unwrap();
        assert_eq!(back.simulated_cycles, None);
        assert_eq!(back.events_file, None);
        assert!(
            back.rows("campaigns").is_empty(),
            "absent campaigns parse as none"
        );
        assert!(
            back.rows("landscape").is_empty(),
            "absent landscape parses as none"
        );
        assert!(
            back.rows("server").is_empty(),
            "absent server rows parse as none"
        );
    }

    #[test]
    fn server_rows_round_trip() {
        let mut m = sample();
        m.add_row(
            "server",
            Json::obj([
                ("route", text("POST /evolve")),
                ("clients", Json::Num(4.0)),
                ("requests", Json::Num(64.0)),
                ("ok", Json::Num(64.0)),
                ("errors", Json::Num(0.0)),
                ("p50_micros", Json::Num(812.5)),
                ("p99_micros", Json::Num(2190.0)),
                ("mean_micros", Json::Num(901.25)),
                ("rps", Json::Num(1034.7)),
            ]),
        );
        let text = m.to_json().to_string();
        assert!(text.contains("\"server\""));
        let back = RunManifest::from_json_str(&text).expect("parse back");
        assert_eq!(back, m);
        assert_eq!(back.rows("server")[0].get("clients"), Some(&Json::Num(4.0)));
    }

    #[test]
    fn v4_manifests_without_server_rows_still_parse() {
        let v4 = r#"{"schema_version":4,"experiment":"perf_report","git_revision":"g",
            "created_unix":0,"params":{},"seeds":[7],"threads":4,"host_cores":1,
            "plane_width":512,"wall_seconds":0.25}"#;
        let back = RunManifest::from_json_str(v4).expect("v4 manifests stay readable");
        assert_eq!(back.schema_version, 4);
        assert!(back.rows("server").is_empty());
        let bad = r#"{"schema_version":5,"experiment":"x","git_revision":"g",
            "created_unix":0,"params":{},"seeds":[],"threads":1,"wall_seconds":0,
            "server":[{"route":"GET /healthz"}]}"#;
        assert!(matches!(
            RunManifest::from_json_str(bad),
            Err(ManifestError::Missing(field)) if field == "server[0].clients"
        ));
    }

    #[test]
    fn landscape_rows_round_trip() {
        let mut m = sample();
        let histogram: Vec<f64> = (0..27).map(|v| f64::from(v * 1000)).collect();
        m.add_row(
            "landscape",
            Json::obj([
                ("subspace_bits", Json::Num(36.0)),
                ("shards", Json::Num(256.0)),
                ("threads", Json::Num(8.0)),
                ("genomes_swept", Json::Num(68_719_476_736.0)),
                ("max_fitness", Json::Num(26.0)),
                ("max_count", Json::Num(86_436.0)),
                ("histogram", nums(&histogram)),
            ]),
        );
        let text = m.to_json().to_string();
        assert!(text.contains("\"landscape\""));
        let back = RunManifest::from_json_str(&text).expect("parse back");
        assert_eq!(back, m);
        let row = &back.rows("landscape")[0];
        assert_eq!(
            row.get("genomes_swept").and_then(Json::as_u64),
            Some(68_719_476_736)
        );
        assert_eq!(
            row.get("histogram")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(27)
        );
    }

    #[test]
    fn v2_manifests_without_landscape_still_parse() {
        let v2 = r#"{"schema_version":2,"experiment":"e13_seu","git_revision":"g",
            "created_unix":0,"params":{},"seeds":[4096],"threads":1,"wall_seconds":0.5,
            "campaigns":[{"model":"population_flip","engine":"rtl_x64","rate":5,
            "lanes":64,"recovered":63,"corrupted":0,"permanent_failures":1}]}"#;
        let back = RunManifest::from_json_str(v2).expect("v2 manifests stay readable");
        assert_eq!(back.schema_version, 2);
        assert_eq!(back.rows("campaigns").len(), 1);
        assert!(back.rows("landscape").is_empty());
        let bad = r#"{"schema_version":3,"experiment":"x","git_revision":"g",
            "created_unix":0,"params":{},"seeds":[],"threads":1,"wall_seconds":0,
            "landscape":[{"subspace_bits":24}]}"#;
        assert!(matches!(
            RunManifest::from_json_str(bad),
            Err(ManifestError::Missing(field)) if field == "landscape[0].histogram"
        ));
    }

    #[test]
    fn v3_manifests_default_execution_shape_fields() {
        let v3 = r#"{"schema_version":3,"experiment":"e9_sweep","git_revision":"g",
            "created_unix":0,"params":{},"seeds":[7],"threads":4,"wall_seconds":0.25}"#;
        let back = RunManifest::from_json_str(v3).expect("v3 manifests stay readable");
        assert_eq!(back.schema_version, 3);
        assert_eq!(back.host_cores, 1, "pre-v4 runs did not record cores");
        assert_eq!(back.plane_width, 64, "pre-v4 runs were 64-lane only");
        assert_eq!(back.threads, 4);
        let bad = r#"{"schema_version":4,"experiment":"x","git_revision":"g",
            "created_unix":0,"params":{},"seeds":[],"threads":1,
            "host_cores":"many","plane_width":64,"wall_seconds":0}"#;
        assert!(matches!(
            RunManifest::from_json_str(bad),
            Err(ManifestError::BadField(field)) if field == "host_cores"
        ));
    }

    #[test]
    fn new_manifest_detects_host_shape() {
        let m = RunManifest::new("probe");
        assert!(m.host_cores >= 1);
        assert_eq!(m.plane_width, 64, "64 lanes unless a run says otherwise");
        assert_eq!(m.schema_version, 7);
    }

    #[test]
    fn pareto_rows_round_trip() {
        let mut m = sample();
        m.add_row(
            "pareto",
            Json::obj([
                ("campaign", text("nsga2_walk")),
                ("seed", Json::Num(f64::from(0x1000))),
                ("population", Json::Num(32.0)),
                ("generations", Json::Num(120.0)),
                ("evaluations", Json::Num(3872.0)),
                ("front_size", Json::Num(9.0)),
                (
                    "objectives",
                    Json::Arr(vec![
                        text("distance_mm"),
                        text("min_margin_mm"),
                        text("neg_energy_j"),
                    ]),
                ),
                ("best", nums(&[612.5, 14.25, -18.75])),
            ]),
        );
        let text = m.to_json().to_string();
        assert!(text.contains("\"pareto\""));
        let back = RunManifest::from_json_str(&text).expect("parse back");
        assert_eq!(back, m);
        let len = |k: &str| {
            back.rows("pareto")[0]
                .get(k)
                .and_then(Json::as_array)
                .map(<[Json]>::len)
        };
        assert_eq!(len("objectives"), len("best"));
    }

    #[test]
    fn v5_manifests_without_pareto_rows_still_parse() {
        let v5 = r#"{"schema_version":5,"experiment":"bench_pr8","git_revision":"g",
            "created_unix":0,"params":{},"seeds":[7],"threads":4,"host_cores":8,
            "plane_width":64,"wall_seconds":0.25,
            "server":[{"route":"ALL","clients":4,"requests":64,"ok":64,"errors":0,
            "p50_micros":1,"p99_micros":2,"mean_micros":1.5,"rps":100}]}"#;
        let back = RunManifest::from_json_str(v5).expect("v5 manifests stay readable");
        assert_eq!(back.schema_version, 5);
        assert!(back.rows("pareto").is_empty());
        assert_eq!(back.rows("server").len(), 1);
        let bad = r#"{"schema_version":6,"experiment":"x","git_revision":"g",
            "created_unix":0,"params":{},"seeds":[],"threads":1,"wall_seconds":0,
            "pareto":[{"campaign":"nsga2_walk","objectives":[],"best":[]}]}"#;
        assert!(matches!(
            RunManifest::from_json_str(bad),
            Err(ManifestError::Missing(field)) if field == "pareto[0].seed"
        ));
    }

    #[test]
    fn problem_rows_round_trip() {
        let mut m = sample();
        m.add_row(
            "problems",
            problem_row(
                "fsm_traces",
                24.0,
                4096.0,
                13.0,
                448.0,
                64.0,
                "0x00c0de",
                true,
            ),
        );
        m.add_row(
            "problems",
            problem_row(
                "serial_adder",
                16.0,
                4103.0,
                4000.0,
                128_032.0,
                47.0,
                "0xbeef",
                false,
            ),
        );
        let text = m.to_json().to_string();
        assert!(text.contains("\"problems\""));
        let back = RunManifest::from_json_str(&text).expect("parse back");
        assert_eq!(back, m);
        let converged = |i: usize| {
            back.rows("problems")[i]
                .get("converged")
                .and_then(Json::as_bool)
        };
        assert_eq!(converged(0), Some(true));
        assert_eq!(converged(1), Some(false));
    }

    #[test]
    fn v6_manifests_without_problem_rows_still_parse() {
        let v6 = r#"{"schema_version":6,"experiment":"e16_pareto","git_revision":"g",
            "created_unix":0,"params":{},"seeds":[7],"threads":4,"host_cores":8,
            "plane_width":64,"wall_seconds":0.25,
            "pareto":[{"campaign":"nsga2_walk","seed":7,"population":32,
            "generations":10,"evaluations":352,"front_size":3,
            "objectives":["distance_mm"],"best":[612.5]}]}"#;
        let back = RunManifest::from_json_str(v6).expect("v6 manifests stay readable");
        assert_eq!(back.schema_version, 6);
        assert!(back.rows("problems").is_empty());
        assert_eq!(back.rows("pareto").len(), 1);
        let bad = r#"{"schema_version":7,"experiment":"x","git_revision":"g",
            "created_unix":0,"params":{},"seeds":[],"threads":1,"wall_seconds":0,
            "problems":[{"problem":"gait","width":36,"converged":true}]}"#;
        assert!(matches!(
            RunManifest::from_json_str(bad),
            Err(ManifestError::Missing(field)) if field == "problems[0].seed"
        ));
        let wrong = r#"{"schema_version":7,"experiment":"x","git_revision":"g",
            "created_unix":0,"params":{},"seeds":[],"threads":1,"wall_seconds":0,
            "problems":[{"problem":"gait","width":36,"seed":1,"generations":1,
            "evaluations":1,"best_fitness":1,"best_genome":"0x0","converged":"yes"}]}"#;
        assert!(matches!(
            RunManifest::from_json_str(wrong),
            Err(ManifestError::BadField(field)) if field == "problems[0].converged"
        ));
    }

    #[test]
    fn campaign_rows_round_trip() {
        let mut m = sample();
        m.add_row(
            "campaigns",
            Json::obj([
                ("model", text("population_flip")),
                ("engine", text("rtl_x64")),
                ("rate", Json::Num(5.0)),
                ("lanes", Json::Num(64.0)),
                ("recovered", Json::Num(63.0)),
                ("corrupted", Json::Num(0.0)),
                ("permanent_failures", Json::Num(1.0)),
                ("mean_cost_delta", Json::Num(812.5)),
            ]),
        );
        m.add_row(
            "campaigns",
            Json::obj([
                ("model", text("genome_reg_flip")),
                ("engine", text("rtl_scalar")),
                ("rate", Json::Num(1.0)),
                ("lanes", Json::Num(8.0)),
                ("recovered", Json::Num(6.0)),
                ("corrupted", Json::Num(2.0)),
                ("permanent_failures", Json::Num(0.0)),
            ]),
        );
        let text = m.to_json().to_string();
        assert!(text.contains("\"campaigns\""));
        let back = RunManifest::from_json_str(&text).expect("parse back");
        assert_eq!(back, m);
        assert_eq!(back.rows("campaigns")[1].get("mean_cost_delta"), None);
    }

    #[test]
    fn v1_manifests_without_campaigns_still_parse() {
        let v1 = r#"{"schema_version":1,"experiment":"e13_seu","git_revision":"g",
            "created_unix":0,"params":{},"seeds":[4096],"threads":1,"wall_seconds":0.5}"#;
        let back = RunManifest::from_json_str(v1).expect("v1 manifests stay readable");
        assert_eq!(back.schema_version, 1);
        assert!(back.rows("campaigns").is_empty());
        let bad = r#"{"schema_version":2,"experiment":"x","git_revision":"g",
            "created_unix":0,"params":{},"seeds":[],"threads":1,"wall_seconds":0,
            "campaigns":[{"model":"population_flip"}]}"#;
        assert!(matches!(
            RunManifest::from_json_str(bad),
            Err(ManifestError::Missing(field)) if field == "campaigns[0].engine"
        ));
    }

    #[test]
    #[should_panic(expected = "unknown manifest table `laps`")]
    fn add_row_rejects_an_unknown_table() {
        sample().add_row("laps", Json::obj([("lap", Json::Num(1.0))]));
    }

    #[test]
    #[should_panic(expected = "`server[0].clients` is missing")]
    fn add_row_rejects_a_missing_field() {
        sample().add_row("server", Json::obj([("route", text("ALL"))]));
    }

    #[test]
    #[should_panic(expected = "`problems[1].converged` has the wrong type")]
    fn add_row_rejects_a_mistyped_field() {
        let mut m = sample();
        m.add_row(
            "problems",
            problem_row("gait", 36.0, 1.0, 1.0, 1.0, 1.0, "0x0", true),
        );
        let mut row = problem_row("gait", 36.0, 1.0, 1.0, 1.0, 1.0, "0x0", true);
        if let Json::Obj(members) = &mut row {
            members[7].1 = text("yes");
        }
        m.add_row("problems", row);
    }

    #[test]
    #[should_panic(expected = "out of schema or order")]
    fn add_row_rejects_fields_out_of_schema_order() {
        let mut row = problem_row("gait", 36.0, 1.0, 1.0, 1.0, 1.0, "0x0", true);
        if let Json::Obj(members) = &mut row {
            members.swap(0, 1);
        }
        sample().add_row("problems", row);
    }

    #[test]
    #[should_panic(expected = "out of schema or order")]
    fn add_row_rejects_fields_outside_the_schema() {
        let mut row = problem_row("gait", 36.0, 1.0, 1.0, 1.0, 1.0, "0x0", true);
        if let Json::Obj(members) = &mut row {
            members.push(("fitness".to_string(), Json::Num(26.0)));
        }
        sample().add_row("problems", row);
    }

    #[test]
    fn param_lookup() {
        let m = sample();
        assert_eq!(m.param("population"), Some(32.0));
        assert_eq!(m.param("missing"), None);
    }

    #[test]
    fn rejects_future_schema_and_bad_fields() {
        let future = r#"{"schema_version":99,"experiment":"x","git_revision":"g",
            "created_unix":0,"params":{},"seeds":[],"threads":1,"wall_seconds":0}"#;
        assert!(matches!(
            RunManifest::from_json_str(future),
            Err(ManifestError::Version(99))
        ));
        assert!(matches!(
            RunManifest::from_json_str("{}"),
            Err(ManifestError::Missing(_))
        ));
        let bad = r#"{"schema_version":1,"experiment":7,"git_revision":"g",
            "created_unix":0,"params":{},"seeds":[],"threads":1,"wall_seconds":0}"#;
        assert!(matches!(
            RunManifest::from_json_str(bad),
            Err(ManifestError::BadField(_))
        ));
        assert!(matches!(
            RunManifest::from_json_str("not json"),
            Err(ManifestError::Parse(_))
        ));
    }

    #[test]
    fn write_and_read_files() {
        let dir = std::env::temp_dir().join("leonardo-telemetry-manifest-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("manifest.json");
        let m = sample();
        m.write(&path).unwrap();
        let back = RunManifest::read(&path).unwrap();
        assert_eq!(back, m);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn git_revision_is_nonempty() {
        assert!(!git_revision().is_empty());
    }
}
