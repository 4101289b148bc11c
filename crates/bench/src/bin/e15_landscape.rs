//! E15 — exhaustive 2³⁶ genome-landscape sweep (paper facts F7, F9).
//!
//! Paper §3.3: enumerating the full 36-bit search space takes the 1 MHz
//! chip about 19 hours; the GA finds one of the maximal genomes in
//! minutes. This experiment sweeps the entire landscape (or a
//! `--subspace-bits` prefix of it) through the bit-parallel block kernel
//! — 64 consecutive genomes per step — and reports the exact fitness
//! histogram, the exact cardinality of the maximum-fitness set, and a
//! canonical sample of it.
//!
//! Cross-checks wired in:
//! * the exhaustive max-set cardinality must equal the analytic
//!   `max_fitness_genomes()` construction (36 x 49² = 86 436) on a full
//!   sweep;
//! * seeded e1-style GA winners must be members of the exhaustive max
//!   set — evolution may only find needles the enumeration also found.
//!
//! The run is sharded, multi-threaded and checkpointable:
//! `--checkpoint FILE` maintains a resumable snapshot, `--resume`
//! continues a previous run from it bit-identically.
//!
//! Usage: `e15_landscape [--subspace-bits N] [--shards N] [--threads N]
//! [--sample-cap N] [--ga-trials N] [--checkpoint FILE] [--resume]`

use discipulus::fitness::max_fitness_genomes;
use discipulus::gap::GeneticAlgorithmProcessor;
use discipulus::genome::GENOME_BITS;
use discipulus::params::GapParams;
use leonardo_bench::harness::{arg_or, trial_seeds};
use leonardo_bench::{Comparison, ComparisonTable, ExperimentSession, Verdict};
use leonardo_landscape::{
    LandscapeResult, StopToken, Sweep, SweepConfig, SweepStatus, FULL_SWEEP_MAX_SET,
};
use leonardo_telemetry::json::Json;
use std::time::Instant;

/// Paper fact F7: full enumeration takes ~19 h on the 1 MHz chip.
const PAPER_ENUMERATION_HOURS: f64 = 19.0;

/// Presence of a bare flag (no value) on the command line.
fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// Render the exact landscape histogram with proportional bars.
fn render_histogram(result: &LandscapeResult) {
    let peak = result.histogram.counts().iter().copied().max().unwrap_or(1);
    for (v, &count) in result.histogram.counts().iter().enumerate() {
        if count == 0 {
            continue;
        }
        let bar = "#".repeat(((count as f64 / peak as f64) * 48.0).ceil() as usize);
        println!("  {v:>3} {count:>16}  {bar}");
    }
}

/// Seeded e1-style GA trials; every winner must be in the exhaustive max
/// set. Returns `(converged, checked-against-sweep)` counts.
fn ga_cross_check(result: &LandscapeResult, trials: usize, max_gens: u64) -> (usize, usize) {
    let params = GapParams::paper();
    let full = result.complete && result.subspace_bits == GENOME_BITS as u32;
    let exhaustive_holds_all = result.max_samples.len() as u64 == result.max_count;
    let mut converged = 0;
    let mut checked = 0;
    for seed in trial_seeds(trials) {
        let mut gap = GeneticAlgorithmProcessor::new(params, seed);
        if !gap.run_to_convergence(max_gens).converged {
            continue;
        }
        converged += 1;
        let (best, fitness) = gap.best();
        assert_eq!(
            fitness,
            result.spec.max_fitness(),
            "converged GA trial (seed {seed}) best genome is not maximal"
        );
        if full && exhaustive_holds_all {
            assert!(
                result.max_samples.binary_search(&best.bits()).is_ok(),
                "GA winner {:#011x} (seed {seed}) missing from the exhaustive max set",
                best.bits()
            );
            checked += 1;
        }
    }
    (converged, checked)
}

fn main() {
    let subspace_bits: u32 = arg_or("--subspace-bits", GENOME_BITS as u32);
    let mut config = SweepConfig::subspace(subspace_bits);
    config.num_shards = arg_or("--shards", config.num_shards);
    config.threads = arg_or("--threads", 0usize);
    config.sample_cap = arg_or("--sample-cap", config.sample_cap);
    config.checkpoint = std::env::args()
        .skip_while(|a| a != "--checkpoint")
        .nth(1)
        .map(Into::into);
    let resume = flag("--resume");
    let ga_trials: usize = arg_or("--ga-trials", 8);
    let ga_max_gens: u64 = arg_or("--ga-max-gens", 50_000);

    let mut session = ExperimentSession::begin("e15_landscape");
    session.set_param("subspace_bits", subspace_bits as f64);
    session.set_param("shards", config.num_shards as f64);
    session.set_param("sample_cap", config.sample_cap as f64);
    session.set_param("ga_trials", ga_trials as f64);
    session.set_seeds(&trial_seeds(ga_trials));

    let mut sweep = if resume {
        match Sweep::resume(config.clone()) {
            Ok(s) => {
                println!(
                    "resuming from {}",
                    config.checkpoint.as_ref().unwrap().display()
                );
                s
            }
            Err(e) => panic!("--resume failed: {e}"),
        }
    } else {
        Sweep::new(config.clone())
    };
    let threads = if config.threads > 0 {
        config.threads
    } else {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    };
    session.set_threads(threads);

    println!(
        "E15: exhaustive landscape sweep of 2^{subspace_bits} genomes \
         ({} shards, {threads} threads)\n",
        config.num_shards
    );
    let start = Instant::now();
    let status = sweep.run(&StopToken::never());
    let wall = start.elapsed().as_secs_f64();
    assert_eq!(status, SweepStatus::Complete, "uninterrupted run completed");
    let result = sweep.result();
    assert!(result.complete);
    assert_eq!(result.genomes_swept, 1u64 << subspace_bits);

    let rate = result.genomes_swept as f64 / wall / 1e6;
    println!(
        "swept {} genomes in {wall:.2}s ({rate:.0} M genomes/s)\n",
        result.genomes_swept
    );
    println!("exact fitness histogram:");
    render_histogram(&result);
    let attained = result.attained_max().expect("at least one genome scored");
    println!(
        "\n  max fitness attained: {attained} / {} ({} genome(s))",
        result.max_fitness,
        result.count_at(attained)
    );

    let histogram = result
        .histogram
        .counts()
        .iter()
        .map(|&c| Json::Num(c as f64));
    session.add_row(
        "landscape",
        Json::obj([
            ("subspace_bits", Json::Num(f64::from(subspace_bits))),
            ("shards", Json::Num(result.shards as f64)),
            ("threads", Json::Num(threads as f64)),
            ("genomes_swept", Json::Num(result.genomes_swept as f64)),
            ("max_fitness", Json::Num(f64::from(result.max_fitness))),
            ("max_count", Json::Num(result.max_count as f64)),
            ("histogram", Json::Arr(histogram.collect())),
        ]),
    );

    let full = subspace_bits == GENOME_BITS as u32;
    if full {
        let analytic = max_fitness_genomes().count() as u64;
        assert_eq!(analytic, FULL_SWEEP_MAX_SET);
        assert_eq!(
            result.max_count, analytic,
            "exhaustive max-set cardinality disagrees with the analytic construction"
        );
        let sample_complete = result.max_samples.len() as u64 == result.max_count;
        if sample_complete {
            for g in max_fitness_genomes() {
                assert!(
                    result.max_samples.binary_search(&g.bits()).is_ok(),
                    "analytic maximal genome {:#011x} missing from sweep",
                    g.bits()
                );
            }
            println!(
                "  max set verified genome-for-genome against the analytic \
                 36 x 49^2 construction"
            );
        }
    } else {
        println!(
            "  (subspace sweep: the genuine max set lives outside low prefixes — \
             low step-2 bits force right legs all-forward, breaking equilibrium)"
        );
    }

    let (converged, checked) = ga_cross_check(&result, ga_trials, ga_max_gens);
    println!(
        "\nGA-vs-oracle: {converged}/{ga_trials} seeded trials converged; \
         {checked} winner(s) membership-checked against the exhaustive max set"
    );

    let paper_secs = PAPER_ENUMERATION_HOURS * 3600.0;
    let mut table = ComparisonTable::new("E15 — exhaustive landscape enumeration (F7, F9)");
    table.push(Comparison::new(
        "search space swept",
        "2^36 = 68 billion",
        format!("2^{subspace_bits} = {}", result.genomes_swept),
        if full {
            Verdict::Reproduced
        } else {
            Verdict::Informational
        },
    ));
    table.push(Comparison::new(
        "enumeration wall-clock",
        format!("~{PAPER_ENUMERATION_HOURS:.0} h at 1 MHz"),
        format!("{wall:.1} s ({:.0}x faster)", paper_secs / wall.max(1e-9)),
        if full {
            Verdict::ShapeHolds
        } else {
            Verdict::Informational
        },
    ));
    table.push(Comparison::new(
        "maximum-fitness genomes",
        "(not reported)",
        format!("{} exact", result.max_count),
        Verdict::Informational,
    ));
    if full {
        table.push(Comparison::new(
            "max set vs analytic 36 x 49^2",
            "(not reported)",
            format!(
                "{} = {FULL_SWEEP_MAX_SET}, genome-for-genome",
                result.max_count
            ),
            Verdict::Informational,
        ));
    }
    println!("{table}");

    let manifest_path = session.manifest_path();
    session.finish();
    println!("run manifest: {}", manifest_path.display());
}
