//! Versioned run manifests.
//!
//! Every experiment binary writes one [`RunManifest`] next to its output
//! (`BENCH_*.json`, `results/*.txt`): the parameters, seeds, git revision
//! and wall/cycle totals needed to reproduce the run and to interpret the
//! JSONL event stream recorded alongside it. The manifest is versioned
//! (`schema_version`) so later tooling can keep reading old runs.

use crate::json::{Json, ParseError};
use std::io;
use std::path::Path;

/// Current manifest schema version, written into every manifest.
///
/// Version history:
/// * **1** — initial schema.
/// * **2** — optional `campaigns` section (fault-campaign summary rows).
/// * **3** — optional `landscape` section (exhaustive-sweep summary
///   rows: subspace width, shard/thread configuration, the full fitness
///   histogram and the max-set cardinality).
/// * **4** — `host_cores` (detected hardware parallelism) and
///   `plane_width` (bit-slice lanes per plane word) execution-shape
///   fields. Both default when absent, so v1–v3 manifests stay readable.
/// * **5** — optional `server` section (per-route latency/throughput
///   summary rows from `leonardo-server` load runs). Absent from the
///   JSON when empty, so v1–v4 manifests stay readable.
/// * **6** — optional `pareto` section (multi-objective campaign rows:
///   objective names, front size, per-objective bests). Absent from the
///   JSON when empty, so v1–v5 manifests stay readable.
/// * **7** — optional `problems` section (registry-problem GA campaign
///   rows: problem name, genome width, seed, budget spent and the best
///   genome reached). Absent from the JSON when empty, so v1–v6
///   manifests stay readable.
pub const MANIFEST_SCHEMA_VERSION: u64 = 7;

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
    /// Fault-campaign summary rows, when the run injected faults
    /// (schema v2; absent from the JSON when empty, so v1 readers and
    /// fault-free runs are unaffected).
    pub campaigns: Vec<CampaignRow>,
    /// Landscape-sweep summary rows, when the run enumerated the genome
    /// landscape (schema v3; absent from the JSON when empty, so v1/v2
    /// readers and sweep-free runs are unaffected).
    pub landscape: Vec<LandscapeRow>,
    /// Server load-run summary rows, when the run drove `leonardo-server`
    /// (schema v5; absent from the JSON when empty, so v1–v4 readers and
    /// serverless runs are unaffected).
    pub server: Vec<ServerRow>,
    /// Multi-objective campaign summary rows, when the run evolved or
    /// scored Pareto fronts (schema v6; absent from the JSON when empty,
    /// so v1–v5 readers and single-objective runs are unaffected).
    pub pareto: Vec<ParetoRow>,
    /// Registry-problem GA campaign summary rows, when the run evolved a
    /// registered evolvable problem (schema v7; absent from the JSON
    /// when empty, so v1–v6 readers and problem-free runs are
    /// unaffected).
    pub problems: Vec<ProblemRow>,
}

/// One registry-problem GA campaign's summary line in a [`RunManifest`]:
/// a seeded single-objective run against one registered problem and the
/// best genome it reached.
#[derive(Debug, Clone, PartialEq)]
pub struct ProblemRow {
    /// Registered problem name (e.g. `"gait"`, `"fsm_traces"`).
    pub problem: String,
    /// Genome width in bits.
    pub width: u64,
    /// The RNG seed the campaign consumed.
    pub seed: u64,
    /// Generations executed.
    pub generations: u64,
    /// Fitness evaluations performed.
    pub evaluations: u64,
    /// Best fitness reached.
    pub best_fitness: u64,
    /// Best genome reached, as a `0x`-prefixed hex literal.
    pub best_genome: String,
    /// Whether the run reached the problem's registered maximum.
    pub converged: bool,
}

impl ProblemRow {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("problem".to_string(), Json::Str(self.problem.clone())),
            ("width".to_string(), Json::Num(self.width as f64)),
            ("seed".to_string(), Json::Num(self.seed as f64)),
            (
                "generations".to_string(),
                Json::Num(self.generations as f64),
            ),
            (
                "evaluations".to_string(),
                Json::Num(self.evaluations as f64),
            ),
            (
                "best_fitness".to_string(),
                Json::Num(self.best_fitness as f64),
            ),
            (
                "best_genome".to_string(),
                Json::Str(self.best_genome.clone()),
            ),
            ("converged".to_string(), Json::Bool(self.converged)),
        ])
    }

    fn from_json(v: &Json, idx: usize) -> Result<ProblemRow, ManifestError> {
        let ctx = |name: &str| format!("problems[{idx}].{name}");
        let field = |name: &str| v.get(name).ok_or_else(|| ManifestError::Missing(ctx(name)));
        let uint = |name: &str| {
            field(name)?
                .as_u64()
                .ok_or_else(|| ManifestError::BadField(ctx(name)))
        };
        let string = |name: &str| {
            Ok::<String, ManifestError>(
                field(name)?
                    .as_str()
                    .ok_or_else(|| ManifestError::BadField(ctx(name)))?
                    .to_string(),
            )
        };
        let converged = field("converged")?
            .as_bool()
            .ok_or_else(|| ManifestError::BadField(ctx("converged")))?;
        Ok(ProblemRow {
            problem: string("problem")?,
            width: uint("width")?,
            seed: uint("seed")?,
            generations: uint("generations")?,
            evaluations: uint("evaluations")?,
            best_fitness: uint("best_fitness")?,
            best_genome: string("best_genome")?,
            converged,
        })
    }
}

/// One multi-objective campaign's summary line in a [`RunManifest`]: a
/// seeded NSGA-II run (or a walk-table scoring pass) and the shape of the
/// front it produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoRow {
    /// Campaign identifier (e.g. `"nsga2_walk"`, `"max_set_walk_table"`).
    pub campaign: String,
    /// The RNG seed the campaign consumed.
    pub seed: u64,
    /// Population size (or sample size for scoring passes).
    pub population: u64,
    /// Generations executed (0 for scoring passes).
    pub generations: u64,
    /// Objective-vector evaluations performed.
    pub evaluations: u64,
    /// Members of the final Pareto front.
    pub front_size: u64,
    /// Objective names, in vector order.
    pub objectives: Vec<String>,
    /// Best value reached per objective (maximized), index-aligned with
    /// `objectives`.
    pub best: Vec<f64>,
}

impl ParetoRow {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("campaign".to_string(), Json::Str(self.campaign.clone())),
            ("seed".to_string(), Json::Num(self.seed as f64)),
            ("population".to_string(), Json::Num(self.population as f64)),
            (
                "generations".to_string(),
                Json::Num(self.generations as f64),
            ),
            (
                "evaluations".to_string(),
                Json::Num(self.evaluations as f64),
            ),
            ("front_size".to_string(), Json::Num(self.front_size as f64)),
            (
                "objectives".to_string(),
                Json::Arr(
                    self.objectives
                        .iter()
                        .map(|o| Json::Str(o.clone()))
                        .collect(),
                ),
            ),
            (
                "best".to_string(),
                Json::Arr(self.best.iter().map(|&b| Json::Num(b)).collect()),
            ),
        ])
    }

    fn from_json(v: &Json, idx: usize) -> Result<ParetoRow, ManifestError> {
        let ctx = |name: &str| format!("pareto[{idx}].{name}");
        let field = |name: &str| v.get(name).ok_or_else(|| ManifestError::Missing(ctx(name)));
        let uint = |name: &str| {
            field(name)?
                .as_u64()
                .ok_or_else(|| ManifestError::BadField(ctx(name)))
        };
        let objectives = field("objectives")?
            .as_array()
            .ok_or_else(|| ManifestError::BadField(ctx("objectives")))?
            .iter()
            .map(|o| {
                o.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| ManifestError::BadField(ctx("objectives")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let best = field("best")?
            .as_array()
            .ok_or_else(|| ManifestError::BadField(ctx("best")))?
            .iter()
            .map(|b| {
                b.as_f64()
                    .ok_or_else(|| ManifestError::BadField(ctx("best")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ParetoRow {
            campaign: field("campaign")?
                .as_str()
                .ok_or_else(|| ManifestError::BadField(ctx("campaign")))?
                .to_string(),
            seed: uint("seed")?,
            population: uint("population")?,
            generations: uint("generations")?,
            evaluations: uint("evaluations")?,
            front_size: uint("front_size")?,
            objectives,
            best,
        })
    }
}

/// One server load-run summary line in a [`RunManifest`]: how one route
/// fared under one client concurrency.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerRow {
    /// Route identifier as `"METHOD /path"` (e.g. `"POST /evolve"`), or
    /// `"ALL"` for a mixed-route aggregate.
    pub route: String,
    /// Concurrent clients driving the server during the measurement.
    pub clients: u64,
    /// Requests issued.
    pub requests: u64,
    /// Responses with a 2xx status.
    pub ok: u64,
    /// Responses with a non-2xx status (or transport failures).
    pub errors: u64,
    /// Median request latency in microseconds.
    pub p50_micros: f64,
    /// 99th-percentile request latency in microseconds.
    pub p99_micros: f64,
    /// Mean request latency in microseconds.
    pub mean_micros: f64,
    /// Completed requests per second over the measurement window.
    pub rps: f64,
}

impl ServerRow {
    /// The row as the JSON object a manifest stores.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("route".to_string(), Json::Str(self.route.clone())),
            ("clients".to_string(), Json::Num(self.clients as f64)),
            ("requests".to_string(), Json::Num(self.requests as f64)),
            ("ok".to_string(), Json::Num(self.ok as f64)),
            ("errors".to_string(), Json::Num(self.errors as f64)),
            ("p50_micros".to_string(), Json::Num(self.p50_micros)),
            ("p99_micros".to_string(), Json::Num(self.p99_micros)),
            ("mean_micros".to_string(), Json::Num(self.mean_micros)),
            ("rps".to_string(), Json::Num(self.rps)),
        ])
    }

    fn from_json(v: &Json, idx: usize) -> Result<ServerRow, ManifestError> {
        let ctx = |name: &str| format!("server[{idx}].{name}");
        let field = |name: &str| v.get(name).ok_or_else(|| ManifestError::Missing(ctx(name)));
        let uint = |name: &str| {
            field(name)?
                .as_u64()
                .ok_or_else(|| ManifestError::BadField(ctx(name)))
        };
        let num = |name: &str| {
            field(name)?
                .as_f64()
                .ok_or_else(|| ManifestError::BadField(ctx(name)))
        };
        Ok(ServerRow {
            route: field("route")?
                .as_str()
                .ok_or_else(|| ManifestError::BadField(ctx("route")))?
                .to_string(),
            clients: uint("clients")?,
            requests: uint("requests")?,
            ok: uint("ok")?,
            errors: uint("errors")?,
            p50_micros: num("p50_micros")?,
            p99_micros: num("p99_micros")?,
            mean_micros: num("mean_micros")?,
            rps: num("rps")?,
        })
    }
}

/// One exhaustive-sweep summary line in a [`RunManifest`]: what slice of
/// the genome space was swept under which partitioning, and what the
/// landscape looked like.
#[derive(Debug, Clone, PartialEq)]
pub struct LandscapeRow {
    /// Width of the swept subspace in genome bits (36 = the full space).
    pub subspace_bits: u64,
    /// Shards the space was partitioned into.
    pub shards: u64,
    /// Worker threads used.
    pub threads: u64,
    /// Genomes actually swept (`2^subspace_bits` for a complete run).
    pub genomes_swept: u64,
    /// The spec's maximum fitness level.
    pub max_fitness: u64,
    /// Exact cardinality of the maximum-fitness set.
    pub max_count: u64,
    /// Exact genome count per fitness level, index = fitness value
    /// (length `max_fitness + 1`).
    pub histogram: Vec<u64>,
}

impl LandscapeRow {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "subspace_bits".to_string(),
                Json::Num(self.subspace_bits as f64),
            ),
            ("shards".to_string(), Json::Num(self.shards as f64)),
            ("threads".to_string(), Json::Num(self.threads as f64)),
            (
                "genomes_swept".to_string(),
                Json::Num(self.genomes_swept as f64),
            ),
            (
                "max_fitness".to_string(),
                Json::Num(self.max_fitness as f64),
            ),
            ("max_count".to_string(), Json::Num(self.max_count as f64)),
            (
                "histogram".to_string(),
                Json::Arr(
                    self.histogram
                        .iter()
                        .map(|&c| Json::Num(c as f64))
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(v: &Json, idx: usize) -> Result<LandscapeRow, ManifestError> {
        let ctx = |name: &str| format!("landscape[{idx}].{name}");
        let field = |name: &str| v.get(name).ok_or_else(|| ManifestError::Missing(ctx(name)));
        let uint = |name: &str| {
            field(name)?
                .as_u64()
                .ok_or_else(|| ManifestError::BadField(ctx(name)))
        };
        let histogram = field("histogram")?
            .as_array()
            .ok_or_else(|| ManifestError::BadField(ctx("histogram")))?
            .iter()
            .map(|c| {
                c.as_u64()
                    .ok_or_else(|| ManifestError::BadField(ctx("histogram")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(LandscapeRow {
            subspace_bits: uint("subspace_bits")?,
            shards: uint("shards")?,
            threads: uint("threads")?,
            genomes_swept: uint("genomes_swept")?,
            max_fitness: uint("max_fitness")?,
            max_count: uint("max_count")?,
            histogram,
        })
    }
}

/// One fault campaign's summary line in a [`RunManifest`]: which model
/// was injected at what rate on which engine, and how the lanes fared.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignRow {
    /// Fault-model identifier (e.g. `"population_flip"`).
    pub model: String,
    /// Engine identifier (`"rtl_scalar"` / `"rtl_x64"`).
    pub engine: String,
    /// Faults per generation per lane.
    pub rate: f64,
    /// Lanes (trials) the campaign ran.
    pub lanes: u64,
    /// Lanes that reconverged with a genuinely maximal best genome.
    pub recovered: u64,
    /// Lanes whose best register was flagged as silently corrupted.
    pub corrupted: u64,
    /// Lanes that never reconverged within the generation budget.
    pub permanent_failures: u64,
    /// Mean convergence-cost delta (faulted − fault-free generations)
    /// over recovered lanes, when any lane qualified.
    pub mean_cost_delta: Option<f64>,
}

impl CampaignRow {
    fn to_json(&self) -> Json {
        let mut obj = vec![
            ("model".to_string(), Json::Str(self.model.clone())),
            ("engine".to_string(), Json::Str(self.engine.clone())),
            ("rate".to_string(), Json::Num(self.rate)),
            ("lanes".to_string(), Json::Num(self.lanes as f64)),
            ("recovered".to_string(), Json::Num(self.recovered as f64)),
            ("corrupted".to_string(), Json::Num(self.corrupted as f64)),
            (
                "permanent_failures".to_string(),
                Json::Num(self.permanent_failures as f64),
            ),
        ];
        if let Some(delta) = self.mean_cost_delta {
            obj.push(("mean_cost_delta".to_string(), Json::Num(delta)));
        }
        Json::Obj(obj)
    }

    fn from_json(v: &Json, idx: usize) -> Result<CampaignRow, ManifestError> {
        let ctx = |name: &str| format!("campaigns[{idx}].{name}");
        let field = |name: &str| v.get(name).ok_or_else(|| ManifestError::Missing(ctx(name)));
        let string = |name: &str| {
            Ok::<String, ManifestError>(
                field(name)?
                    .as_str()
                    .ok_or_else(|| ManifestError::BadField(ctx(name)))?
                    .to_string(),
            )
        };
        let uint = |name: &str| {
            field(name)?
                .as_u64()
                .ok_or_else(|| ManifestError::BadField(ctx(name)))
        };
        let mean_cost_delta = match v.get("mean_cost_delta") {
            None => None,
            Some(d) => Some(
                d.as_f64()
                    .ok_or_else(|| ManifestError::BadField(ctx("mean_cost_delta")))?,
            ),
        };
        Ok(CampaignRow {
            model: string("model")?,
            engine: string("engine")?,
            rate: field("rate")?
                .as_f64()
                .ok_or_else(|| ManifestError::BadField(ctx("rate")))?,
            lanes: uint("lanes")?,
            recovered: uint("recovered")?,
            corrupted: uint("corrupted")?,
            permanent_failures: uint("permanent_failures")?,
            mean_cost_delta,
        })
    }
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
            campaigns: Vec::new(),
            landscape: Vec::new(),
            server: Vec::new(),
            pareto: Vec::new(),
            problems: Vec::new(),
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

    /// Render as a JSON tree.
    pub fn to_json(&self) -> Json {
        let mut obj = vec![
            (
                "schema_version".to_string(),
                Json::Num(self.schema_version as f64),
            ),
            ("experiment".to_string(), Json::Str(self.experiment.clone())),
            (
                "git_revision".to_string(),
                Json::Str(self.git_revision.clone()),
            ),
            (
                "created_unix".to_string(),
                Json::Num(self.created_unix as f64),
            ),
            (
                "params".to_string(),
                Json::Obj(
                    self.params
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
            (
                "seeds".to_string(),
                Json::Arr(self.seeds.iter().map(|s| Json::Num(*s as f64)).collect()),
            ),
            ("threads".to_string(), Json::Num(self.threads as f64)),
            ("host_cores".to_string(), Json::Num(self.host_cores as f64)),
            (
                "plane_width".to_string(),
                Json::Num(self.plane_width as f64),
            ),
            ("wall_seconds".to_string(), Json::Num(self.wall_seconds)),
        ];
        if let Some(cycles) = self.simulated_cycles {
            obj.push(("simulated_cycles".to_string(), Json::Num(cycles as f64)));
        }
        if let Some(file) = &self.events_file {
            obj.push(("events_file".to_string(), Json::Str(file.clone())));
        }
        if !self.campaigns.is_empty() {
            obj.push((
                "campaigns".to_string(),
                Json::Arr(self.campaigns.iter().map(CampaignRow::to_json).collect()),
            ));
        }
        if !self.landscape.is_empty() {
            obj.push((
                "landscape".to_string(),
                Json::Arr(self.landscape.iter().map(LandscapeRow::to_json).collect()),
            ));
        }
        if !self.server.is_empty() {
            obj.push((
                "server".to_string(),
                Json::Arr(self.server.iter().map(ServerRow::to_json).collect()),
            ));
        }
        if !self.pareto.is_empty() {
            obj.push((
                "pareto".to_string(),
                Json::Arr(self.pareto.iter().map(ParetoRow::to_json).collect()),
            ));
        }
        if !self.problems.is_empty() {
            obj.push((
                "problems".to_string(),
                Json::Arr(self.problems.iter().map(ProblemRow::to_json).collect()),
            ));
        }
        Json::Obj(obj)
    }

    /// Parse a manifest back from JSON text (the inverse of
    /// [`RunManifest::to_json`] + `to_string`).
    pub fn from_json_str(text: &str) -> Result<RunManifest, ManifestError> {
        let root = Json::parse(text)?;
        let field = |name: &str| {
            root.get(name)
                .ok_or_else(|| ManifestError::Missing(name.to_string()))
        };
        let num = |name: &str| {
            field(name)?
                .as_f64()
                .ok_or_else(|| ManifestError::BadField(name.to_string()))
        };
        let uint = |name: &str| {
            field(name)?
                .as_u64()
                .ok_or_else(|| ManifestError::BadField(name.to_string()))
        };
        let string = |name: &str| {
            Ok::<String, ManifestError>(
                field(name)?
                    .as_str()
                    .ok_or_else(|| ManifestError::BadField(name.to_string()))?
                    .to_string(),
            )
        };
        let schema_version = uint("schema_version")?;
        if schema_version > MANIFEST_SCHEMA_VERSION {
            return Err(ManifestError::Version(schema_version));
        }
        let params = match field("params")? {
            Json::Obj(entries) => entries
                .iter()
                .map(|(k, v)| {
                    v.as_f64()
                        .map(|v| (k.clone(), v))
                        .ok_or_else(|| ManifestError::BadField(format!("params.{k}")))
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err(ManifestError::BadField("params".to_string())),
        };
        let seeds = field("seeds")?
            .as_array()
            .ok_or_else(|| ManifestError::BadField("seeds".to_string()))?
            .iter()
            .map(|v| {
                v.as_u64()
                    .ok_or_else(|| ManifestError::BadField("seeds".to_string()))
            })
            .collect::<Result<Vec<_>, _>>()?;
        // v4 execution-shape fields; older manifests get the values every
        // pre-v4 run actually had (one plane word = 64 lanes, cores unknown)
        let host_cores = match root.get("host_cores") {
            None => 1,
            Some(v) => v
                .as_u64()
                .ok_or_else(|| ManifestError::BadField("host_cores".to_string()))?,
        };
        let plane_width = match root.get("plane_width") {
            None => 64,
            Some(v) => v
                .as_u64()
                .ok_or_else(|| ManifestError::BadField("plane_width".to_string()))?,
        };
        let simulated_cycles = match root.get("simulated_cycles") {
            None => None,
            Some(v) => Some(
                v.as_u64()
                    .ok_or_else(|| ManifestError::BadField("simulated_cycles".to_string()))?,
            ),
        };
        let events_file = match root.get("events_file") {
            None => None,
            Some(v) => Some(
                v.as_str()
                    .ok_or_else(|| ManifestError::BadField("events_file".to_string()))?
                    .to_string(),
            ),
        };
        let campaigns = match root.get("campaigns") {
            None => Vec::new(),
            Some(v) => v
                .as_array()
                .ok_or_else(|| ManifestError::BadField("campaigns".to_string()))?
                .iter()
                .enumerate()
                .map(|(i, row)| CampaignRow::from_json(row, i))
                .collect::<Result<Vec<_>, _>>()?,
        };
        let landscape = match root.get("landscape") {
            None => Vec::new(),
            Some(v) => v
                .as_array()
                .ok_or_else(|| ManifestError::BadField("landscape".to_string()))?
                .iter()
                .enumerate()
                .map(|(i, row)| LandscapeRow::from_json(row, i))
                .collect::<Result<Vec<_>, _>>()?,
        };
        let server = match root.get("server") {
            None => Vec::new(),
            Some(v) => v
                .as_array()
                .ok_or_else(|| ManifestError::BadField("server".to_string()))?
                .iter()
                .enumerate()
                .map(|(i, row)| ServerRow::from_json(row, i))
                .collect::<Result<Vec<_>, _>>()?,
        };
        let pareto = match root.get("pareto") {
            None => Vec::new(),
            Some(v) => v
                .as_array()
                .ok_or_else(|| ManifestError::BadField("pareto".to_string()))?
                .iter()
                .enumerate()
                .map(|(i, row)| ParetoRow::from_json(row, i))
                .collect::<Result<Vec<_>, _>>()?,
        };
        let problems = match root.get("problems") {
            None => Vec::new(),
            Some(v) => v
                .as_array()
                .ok_or_else(|| ManifestError::BadField("problems".to_string()))?
                .iter()
                .enumerate()
                .map(|(i, row)| ProblemRow::from_json(row, i))
                .collect::<Result<Vec<_>, _>>()?,
        };
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
            wall_seconds: num("wall_seconds")?,
            simulated_cycles,
            events_file,
            campaigns,
            landscape,
            server,
            pareto,
            problems,
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
        assert!(back.campaigns.is_empty(), "absent campaigns parse as none");
        assert!(back.landscape.is_empty(), "absent landscape parses as none");
        assert!(back.server.is_empty(), "absent server rows parse as none");
    }

    #[test]
    fn server_rows_round_trip() {
        let mut m = sample();
        m.server = vec![ServerRow {
            route: "POST /evolve".to_string(),
            clients: 4,
            requests: 64,
            ok: 64,
            errors: 0,
            p50_micros: 812.5,
            p99_micros: 2190.0,
            mean_micros: 901.25,
            rps: 1034.7,
        }];
        let text = m.to_json().to_string();
        assert!(text.contains("\"server\""));
        let back = RunManifest::from_json_str(&text).expect("parse back");
        assert_eq!(back, m);
        assert_eq!(back.server[0].clients, 4);
    }

    #[test]
    fn v4_manifests_without_server_rows_still_parse() {
        let v4 = r#"{"schema_version":4,"experiment":"perf_report","git_revision":"g",
            "created_unix":0,"params":{},"seeds":[7],"threads":4,"host_cores":1,
            "plane_width":512,"wall_seconds":0.25}"#;
        let back = RunManifest::from_json_str(v4).expect("v4 manifests stay readable");
        assert_eq!(back.schema_version, 4);
        assert!(back.server.is_empty());
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
        m.landscape = vec![LandscapeRow {
            subspace_bits: 36,
            shards: 256,
            threads: 8,
            genomes_swept: 68_719_476_736,
            max_fitness: 26,
            max_count: 86_436,
            histogram: (0..27).map(|v| v * 1000).collect(),
        }];
        let text = m.to_json().to_string();
        assert!(text.contains("\"landscape\""));
        let back = RunManifest::from_json_str(&text).expect("parse back");
        assert_eq!(back, m);
        assert_eq!(back.landscape[0].genomes_swept, 68_719_476_736);
        assert_eq!(back.landscape[0].histogram.len(), 27);
    }

    #[test]
    fn v2_manifests_without_landscape_still_parse() {
        let v2 = r#"{"schema_version":2,"experiment":"e13_seu","git_revision":"g",
            "created_unix":0,"params":{},"seeds":[4096],"threads":1,"wall_seconds":0.5,
            "campaigns":[{"model":"population_flip","engine":"rtl_x64","rate":5,
            "lanes":64,"recovered":63,"corrupted":0,"permanent_failures":1}]}"#;
        let back = RunManifest::from_json_str(v2).expect("v2 manifests stay readable");
        assert_eq!(back.schema_version, 2);
        assert_eq!(back.campaigns.len(), 1);
        assert!(back.landscape.is_empty());
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
        m.pareto = vec![ParetoRow {
            campaign: "nsga2_walk".to_string(),
            seed: 0x1000,
            population: 32,
            generations: 120,
            evaluations: 3872,
            front_size: 9,
            objectives: vec![
                "distance_mm".to_string(),
                "min_margin_mm".to_string(),
                "neg_energy_j".to_string(),
            ],
            best: vec![612.5, 14.25, -18.75],
        }];
        let text = m.to_json().to_string();
        assert!(text.contains("\"pareto\""));
        let back = RunManifest::from_json_str(&text).expect("parse back");
        assert_eq!(back, m);
        assert_eq!(back.pareto[0].objectives.len(), back.pareto[0].best.len());
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
        assert!(back.pareto.is_empty());
        assert_eq!(back.server.len(), 1);
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
        m.problems = vec![
            ProblemRow {
                problem: "fsm_traces".to_string(),
                width: 24,
                seed: 0x1000,
                generations: 13,
                evaluations: 448,
                best_fitness: 64,
                best_genome: "0x00c0de".to_string(),
                converged: true,
            },
            ProblemRow {
                problem: "serial_adder".to_string(),
                width: 16,
                seed: 0x1007,
                generations: 4000,
                evaluations: 128_032,
                best_fitness: 47,
                best_genome: "0xbeef".to_string(),
                converged: false,
            },
        ];
        let text = m.to_json().to_string();
        assert!(text.contains("\"problems\""));
        let back = RunManifest::from_json_str(&text).expect("parse back");
        assert_eq!(back, m);
        assert!(back.problems[0].converged);
        assert!(!back.problems[1].converged);
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
        assert!(back.problems.is_empty());
        assert_eq!(back.pareto.len(), 1);
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
        m.campaigns = vec![
            CampaignRow {
                model: "population_flip".to_string(),
                engine: "rtl_x64".to_string(),
                rate: 5.0,
                lanes: 64,
                recovered: 63,
                corrupted: 0,
                permanent_failures: 1,
                mean_cost_delta: Some(812.5),
            },
            CampaignRow {
                model: "genome_reg_flip".to_string(),
                engine: "rtl_scalar".to_string(),
                rate: 1.0,
                lanes: 8,
                recovered: 6,
                corrupted: 2,
                permanent_failures: 0,
                mean_cost_delta: None,
            },
        ];
        let text = m.to_json().to_string();
        assert!(text.contains("\"campaigns\""));
        let back = RunManifest::from_json_str(&text).expect("parse back");
        assert_eq!(back, m);
        assert_eq!(back.campaigns[1].mean_cost_delta, None);
    }

    #[test]
    fn v1_manifests_without_campaigns_still_parse() {
        let v1 = r#"{"schema_version":1,"experiment":"e13_seu","git_revision":"g",
            "created_unix":0,"params":{},"seeds":[4096],"threads":1,"wall_seconds":0.5}"#;
        let back = RunManifest::from_json_str(v1).expect("v1 manifests stay readable");
        assert_eq!(back.schema_version, 1);
        assert!(back.campaigns.is_empty());
        let bad = r#"{"schema_version":2,"experiment":"x","git_revision":"g",
            "created_unix":0,"params":{},"seeds":[],"threads":1,"wall_seconds":0,
            "campaigns":[{"model":"population_flip"}]}"#;
        assert!(matches!(
            RunManifest::from_json_str(bad),
            Err(ManifestError::Missing(field)) if field == "campaigns[0].engine"
        ));
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
