//! The repository's benchmark: one command, three workloads, every
//! metric printed by name and unit, every output checked.
//!
//! ```text
//! perfbench --workload <ga_converge|landscape_sweep|server_mixed>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics
//! (tracing off). With `--trace 1` the run measures untraced for half of
//! `--seconds` and traced for the other half, and the last line carries
//! the per-layer metrics plus the tracing overhead. A line before it
//! holds the provenance and the workload's named figures; the same
//! record and the last traced pass's spans go under `.perfbench_out/`.
//! See `perfbench/README.md` for the metric definitions.

mod ga;
mod landscape;
mod serve;
mod speed;
mod stats;
mod trace;

use leonardo_telemetry::json::Json;
pub use speed::HostSpeed;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: perfbench --workload <ga_converge|landscape_sweep|server_mixed> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Directory (relative to the working directory) for result records,
/// span dumps and scratch files.
const OUT_DIR: &str = ".perfbench_out";

/// The benchmark's definition, whose `end_to_end` and `per_layer` lists
/// are the metric catalogue: one list, read at build time.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every metric in one of `BENCHMARK.json`'s lists.
fn catalogue(list: &str) -> Vec<(String, String)> {
    let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let entries = doc.get(list).and_then(Json::as_array).unwrap_or(&[]);
    entries
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// What a workload runs with.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Client threads and engine threads: one per available core.
    pub threads: usize,
    pub out_dir: PathBuf,
}

/// Operations attempted and failed, with the first few failure notes.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    /// Count one operation; a failed one records `why`.
    pub fn record(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(why());
            }
        }
    }

    /// Count `n` operations that all succeeded.
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }
}

/// Everything a workload hands back.
#[derive(Default)]
pub struct Outcome {
    pub tally: Tally,
    /// Median host seconds of a set-up.
    pub setup_s: f64,
    /// Host seconds of each untraced pass, scaled to the workload's
    /// nominal job.
    pub passes: Vec<f64>,
    /// Host-speed probes taken between the passes.
    pub speed: HostSpeed,
    /// The probes' slowdown around each pass.
    pub slowdowns: Vec<f64>,
    /// The workload's named figures (untraced).
    pub figures: BTreeMap<&'static str, f64>,
    /// Per-layer metrics (traced run only).
    pub layers: BTreeMap<String, f64>,
    /// Workload configuration for the provenance record.
    pub config: Vec<(&'static str, Json)>,
}

impl Outcome {
    /// Record one per-layer metric.
    pub fn layer(&mut self, name: impl Into<String>, value: f64) {
        self.layers.insert(name.into(), value);
    }
}

/// SplitMix64: the benchmark's input generator. The same seed gives the
/// same inputs on every host.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed ^ 0x5eed_6a11_0b5e_55ed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Run `pass` until `budget_s` seconds have elapsed, and at least
/// `min_passes` times, with a host-speed probe on `threads` workers
/// before every pass and after the last.
pub fn repeat_for(
    budget_s: f64,
    min_passes: usize,
    speed: &mut HostSpeed,
    threads: usize,
    mut pass: impl FnMut(),
) {
    let start = Instant::now();
    let mut done = 0;
    while done < min_passes || start.elapsed().as_secs_f64() < budget_s {
        speed.probe(threads);
        pass();
        done += 1;
    }
    speed.probe(threads);
}

/// Set-up times sampled throughout a run: a few set-ups before the first
/// pass and more between passes, so `setup_s` (their median) sees the same
/// host conditions as the passes do.
#[derive(Default)]
pub struct SetupTimes(Vec<f64>);

impl SetupTimes {
    /// Time `reps` set-ups of `f`; returns the last one's result.
    pub fn sample<T>(&mut self, reps: usize, mut f: impl FnMut() -> T) -> T {
        let mut last = None;
        for _ in 0..reps.max(1) {
            let t = Instant::now();
            let v = f();
            self.0.push(t.elapsed().as_secs_f64());
            last = Some(v);
        }
        last.expect("at least one rep")
    }

    pub fn median(&self) -> f64 {
        median_or_zero(&self.0)
    }
}

/// Median of `values`, 0 for none (a layer the run did not reach).
pub fn median_or_zero(values: &[f64]) -> f64 {
    stats::median(values).unwrap_or(0.0)
}

fn parse_args(args: &[String]) -> Result<Ctx, String> {
    let mut map: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => flag.as_str(),
            other => return Err(format!("unknown argument `{other}`")),
        };
        let value = it.next().ok_or_else(|| format!("`{key}` needs a value"))?;
        map.insert(key, value);
    }
    let get = |k: &str| map.get(k).copied().ok_or_else(|| format!("missing `{k}`"));
    let workload = get("--workload")?.to_string();
    if !["ga_converge", "landscape_sweep", "server_mixed"].contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "`--seed` must be a non-negative integer".to_string())?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "`--seconds` must be a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("`--seconds` must be in (0, 600]".to_string());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("`--trace` must be 0 or 1".to_string()),
    };
    Ok(Ctx {
        workload,
        seed,
        seconds,
        trace,
        threads: nproc(),
        out_dir: PathBuf::from(OUT_DIR),
    })
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPUs the host has (all of them, not just those this process may use).
fn host_cores() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .ok()
        .filter(|&n| n > 0)
        .unwrap_or_else(nproc)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out revision, read from `.git` when the working directory
/// is a git checkout; "unknown" otherwise.
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn metric(value: f64, unit: &str) -> Json {
    Json::Obj(vec![
        ("value".to_string(), Json::Num(value)),
        ("unit".to_string(), Json::Str(unit.to_string())),
    ])
}

fn figures_json<K: ToString>(map: &BTreeMap<K, f64>) -> Json {
    Json::Obj(
        map.iter()
            .map(|(k, &v)| (k.to_string(), Json::Num(v)))
            .collect(),
    )
}

fn result_line(tally: &Tally, correct: bool, metrics: Vec<(String, Json)>) -> String {
    Json::Obj(vec![
        ("correct".to_string(), Json::Bool(correct)),
        (
            "attempted".to_string(),
            Json::Num(tally.attempted.max(1) as f64),
        ),
        ("failed".to_string(), Json::Num(tally.failed as f64)),
        ("metrics".to_string(), Json::Obj(metrics)),
    ])
    .to_string()
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let ctx = match parse_args(&raw) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.out_dir) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        return ExitCode::from(1);
    }
    let wall = Instant::now();
    let mut out = match ctx.workload.as_str() {
        "ga_converge" => ga::run(&ctx),
        "landscape_sweep" => landscape::run(&ctx),
        _ => serve::run(&ctx),
    };
    let peak = peak_rss_mb();
    if peak.is_none() {
        out.tally.record(false, || {
            "cannot read VmHWM from /proc/self/status".to_string()
        });
    }
    // each pass at the reference host's speed, by the probes around it
    let rescaled: Vec<f64> = out
        .passes
        .iter()
        .zip(&out.slowdowns)
        .map(|(&s, &slowdown)| speed::rescale(s, slowdown))
        .collect();
    let pass_s = median_or_zero(&rescaled);
    let host_pass_s = median_or_zero(&out.passes);
    let slowdown = out.speed.slowdown(0..out.speed.probes().len());
    let failed_frac = out.tally.failed as f64 / out.tally.attempted.max(1) as f64;
    out.figures.insert("failed_frac", failed_frac);
    let per_layer = catalogue("per_layer");
    let figures = out.figures.keys().copied();
    for name in out.layers.keys().map(String::as_str).chain(figures) {
        if !per_layer.iter().any(|(n, _)| n == name) {
            out.tally
                .record(false, || format!("metric `{name}` is not in the catalogue"));
        }
    }

    let mut config = vec![
        ("workload".to_string(), Json::Str(ctx.workload.clone())),
        ("seed".to_string(), Json::Num(ctx.seed as f64)),
        ("seconds".to_string(), Json::Num(ctx.seconds)),
        ("trace".to_string(), Json::Bool(ctx.trace)),
        ("host_cores".to_string(), Json::Num(host_cores() as f64)),
        ("nproc".to_string(), Json::Num(ctx.threads as f64)),
        ("git_revision".to_string(), Json::Str(git_revision())),
        (
            "wall_s".to_string(),
            Json::Num(wall.elapsed().as_secs_f64()),
        ),
    ];
    config.extend(out.config.iter().map(|(k, v)| (k.to_string(), v.clone())));
    let numbers = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect());
    let record = Json::Obj(vec![
        ("provenance".to_string(), Json::Obj(config)),
        ("setup_s".to_string(), Json::Num(out.setup_s)),
        ("pass_s".to_string(), Json::Num(pass_s)),
        ("host_pass_s".to_string(), Json::Num(host_pass_s)),
        ("host_slowdown".to_string(), Json::Num(slowdown)),
        ("host_passes_s".to_string(), numbers(&out.passes)),
        ("pass_slowdowns".to_string(), numbers(&out.slowdowns)),
        (
            "host_pass_quartiles".to_string(),
            numbers(&stats::quartiles(&out.passes).unwrap_or_default()),
        ),
        ("probes_s".to_string(), numbers(out.speed.probes())),
        ("peak_rss_mb".to_string(), Json::Num(peak.unwrap_or(0.0))),
        ("figures".to_string(), figures_json(&out.figures)),
        ("layers".to_string(), figures_json(&out.layers)),
        (
            "failures".to_string(),
            Json::Arr(
                out.tally
                    .notes
                    .iter()
                    .map(|n| Json::Str(n.clone()))
                    .collect(),
            ),
        ),
    ])
    .to_string();
    println!("{record}");
    let record_path = ctx.out_dir.join(format!(
        "result-{}-{}-trace{}.json",
        ctx.workload, ctx.seed, ctx.trace as u8
    ));
    if let Err(e) = std::fs::write(&record_path, format!("{record}\n")) {
        eprintln!("perfbench: cannot write {}: {e}", record_path.display());
    }

    if out.tally.failed > 0 {
        // a run with any failure reports no numbers at all
        for note in &out.tally.notes {
            eprintln!("perfbench: FAILED: {note}");
        }
        println!("{}", result_line(&out.tally, false, Vec::new()));
        return ExitCode::from(1);
    }
    let metrics: Vec<(String, Json)> = if ctx.trace {
        per_layer
            .into_iter()
            .map(|(name, unit)| {
                let v = out
                    .layers
                    .get(&name)
                    .or_else(|| out.figures.get(name.as_str()));
                let value = metric(v.copied().unwrap_or(0.0), &unit);
                (name, value)
            })
            .collect()
    } else {
        catalogue("end_to_end")
            .into_iter()
            .map(|(name, unit)| {
                let value = match name.as_str() {
                    "setup_s" => out.setup_s,
                    "peak_rss_mb" => peak.unwrap_or(0.0),
                    "pass_s" => pass_s,
                    other => {
                        unreachable!("BENCHMARK.json lists `{other}`, which no workload measures")
                    }
                };
                let value = metric(value, &unit);
                (name, value)
            })
            .collect()
    };
    println!("{}", result_line(&out.tally, true, metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let end_to_end = catalogue("end_to_end");
        let per_layer = catalogue("per_layer");
        assert!(!end_to_end.is_empty() && !per_layer.is_empty());
        let names: Vec<&str> = end_to_end
            .iter()
            .chain(&per_layer)
            .map(|(n, _)| n.as_str())
            .collect();
        for n in &names {
            assert!(valid_name(n), "bad metric name `{n}`");
        }
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "duplicate metric name");
        assert_eq!(
            names[..end_to_end.len()],
            ["setup_s", "peak_rss_mb", "pass_s"]
        );
    }

    #[test]
    fn arguments_are_validated() {
        let args = |s: &str| -> Vec<String> { s.split_whitespace().map(str::to_string).collect() };
        assert!(parse_args(&args(
            "--workload ga_converge --seed 3 --seconds 2 --trace 1"
        ))
        .is_ok());
        assert!(parse_args(&args("--workload nope --seed 3 --seconds 2 --trace 1")).is_err());
        assert!(parse_args(&args(
            "--workload ga_converge --seed -1 --seconds 2 --trace 0"
        ))
        .is_err());
        assert!(parse_args(&args(
            "--workload ga_converge --seed 1 --seconds 0 --trace 0"
        ))
        .is_err());
        assert!(parse_args(&args(
            "--workload ga_converge --seed 1 --seconds 2 --trace 2"
        ))
        .is_err());
        assert!(parse_args(&args("--workload ga_converge --seed 1 --seconds 2")).is_err());
    }

    #[test]
    fn inputs_depend_only_on_the_seed() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = SplitMix::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = SplitMix::new(7);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a[0], SplitMix::new(8).next_u64());
    }
}
