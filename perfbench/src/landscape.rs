//! `landscape_sweep`: the exhaustive-sweep path and nothing else — plane
//! kernels, `ShardPlan`, both sweep drivers and checkpoint I/O. No GA,
//! no RNG draws inside the program, no HTTP.
//!
//! One pass sweeps the low 2^k gait subspace through
//! `landscape::Sweep` (maintaining a checkpoint file), then the same
//! subspace and all 2^24 `fsm_traces` genomes through
//! `problems::subspace_sweep::<W512>`. The sweeps are exhaustive, so the
//! seed only picks how often the `Sweep` checkpoints.

use crate::trace::Tracer;
use crate::{median_or_zero, repeat_for, Ctx, Outcome, SetupTimes, SplitMix, Tally};
use discipulus::fitness::FitnessSpec;
use leonardo_landscape::{
    score_masks, BlockKernel, Checkpoint, LandscapeResult, StopToken, Sweep, SweepConfig,
    FULL_SWEEP_MAX_SET,
};
use leonardo_problems::{subspace_sweep, ProblemSpec, SweepSummary};
use leonardo_rtl::bitslice::{Plane, W512};
use leonardo_telemetry::json::Json;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Width of the swept gait subspace.
const GAIT_BITS: u32 = 28;
/// `fsm_traces` genomes are 24 bits wide: its sweep is exhaustive.
const FSM_BITS: u32 = 24;
/// Shards of every sweep (the `Sweep` default at this width).
const SHARDS: usize = 256;
/// Checkpoint cadences, in blocks, the seed chooses among: 8, 4 or 2
/// periodic checkpoint writes per 2^28 sweep.
const CHECKPOINT_EVERY_CHOICES: [u64; 3] = [1 << 19, 1 << 20, 1 << 21];
/// Blocks the single-threaded kernel probes score.
const KERNEL_PROBE_BLOCKS: u64 = 1 << 16;
/// Set-ups timed before the first pass, and between passes.
const SETUP_REPS: usize = 21;
const SETUP_REPS_PER_PASS: usize = 5;

struct Input {
    checkpoint_every_blocks: u64,
    checkpoint: PathBuf,
    gait: &'static ProblemSpec,
    fsm: &'static ProblemSpec,
}

struct Pass {
    sweep: LandscapeResult,
    gait: SweepSummary,
    fsm: SweepSummary,
    /// Seconds in `landscape::Sweep` and in the two problem sweeps.
    times: [f64; 2],
}

fn sweep_config(input: &Input, threads: usize) -> SweepConfig {
    SweepConfig {
        num_shards: SHARDS,
        threads,
        checkpoint: Some(input.checkpoint.clone()),
        checkpoint_every_blocks: input.checkpoint_every_blocks,
        ..SweepConfig::subspace(GAIT_BITS)
    }
}

fn run_sweep(input: &Input, threads: usize) -> LandscapeResult {
    let mut sweep = Sweep::new(sweep_config(input, threads));
    sweep.run(&StopToken::never());
    sweep.result()
}

fn pass(input: &Input, threads: usize, tracer: Option<&Tracer>) -> Pass {
    let mut local = tracer.map(Tracer::local);
    let mut timed = |name: &'static str, f: &mut dyn FnMut()| -> f64 {
        let t = Instant::now();
        match local.as_mut() {
            Some(l) => l.span(name, 0, f),
            None => f(),
        }
        t.elapsed().as_secs_f64()
    };
    let mut sweep = None;
    let t_sweep = timed("landscape.sweep.run", &mut || {
        sweep = Some(run_sweep(input, threads))
    });
    let mut gait = None;
    let mut fsm = None;
    let t_problems = timed("problems.sweep.gait", &mut || {
        gait = Some(subspace_sweep::<W512>(
            input.gait, GAIT_BITS, SHARDS, threads,
        ))
    }) + timed("problems.sweep.fsm_traces", &mut || {
        fsm = Some(subspace_sweep::<W512>(input.fsm, FSM_BITS, SHARDS, threads))
    });
    Pass {
        sweep: sweep.expect("swept"),
        gait: gait.expect("swept"),
        fsm: fsm.expect("swept"),
        times: [t_sweep, t_problems],
    }
}

fn set_up(ctx: &Ctx, dir: &Path) -> Input {
    let mut rng = SplitMix::new(ctx.seed);
    let choice = rng.below(CHECKPOINT_EVERY_CHOICES.len() as u64) as usize;
    let find = |n| ProblemSpec::find(n).expect("registered problem");
    let input = Input {
        checkpoint_every_blocks: CHECKPOINT_EVERY_CHOICES[choice],
        checkpoint: dir.join("sweep.checkpoint"),
        gait: find("gait"),
        fsm: find("fsm_traces"),
    };
    std::fs::create_dir_all(dir).expect("scratch directory is creatable");
    std::hint::black_box(Sweep::new(sweep_config(&input, ctx.threads)));
    std::hint::black_box(BlockKernel::new(FitnessSpec::paper()));
    std::hint::black_box((input.gait.kernel::<W512>(), input.fsm.kernel::<W512>()));
    input
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let dir = ctx
        .out_dir
        .join(format!("sweep-tmp-{}", std::process::id()));
    let mut setup = SetupTimes::default();
    let input = setup.sample(SETUP_REPS, || set_up(ctx, &dir));

    // a traced run alternates untraced and traced passes, so drift in the
    // host's speed cannot masquerade as tracing overhead; later passes are
    // checked against the first and dropped, so memory stays flat
    let mut first: Option<Pass> = None;
    let mut times: Vec<[f64; 2]> = Vec::new();
    let mut traced: Vec<[f64; 2]> = Vec::new();
    let mut last_tracer = None;
    repeat_for(ctx.seconds, 2, &mut out.speed, ctx.threads, || {
        setup.sample(SETUP_REPS_PER_PASS, || set_up(ctx, &dir));
        let p = pass(&input, ctx.threads, None);
        times.push(p.times);
        match &first {
            None => first = Some(p),
            Some(f) => same_as(f, &p, times.len(), &mut out.tally),
        }
        if ctx.trace {
            let tracer = Tracer::new();
            let p = pass(&input, ctx.threads, Some(&tracer));
            same_as(
                first.as_ref().expect("a first pass"),
                &p,
                times.len(),
                &mut out.tally,
            );
            traced.push(p.times);
            last_tracer = Some(tracer);
        }
    });
    out.setup_s = setup.median();
    let gait_genomes = (1u64 << GAIT_BITS) as f64;
    let problem_genomes = gait_genomes + (1u64 << FSM_BITS) as f64;
    let rate = |genomes: f64, i: usize| {
        median_or_zero(
            &times
                .iter()
                .map(|t| genomes / t[i] / 1e6)
                .collect::<Vec<_>>(),
        )
    };
    out.passes = times.iter().map(|t| t.iter().sum()).collect();
    out.slowdowns = out.speed.around_passes(out.passes.len());
    out.figures
        .insert("sweep_mgenomes_per_s", rate(gait_genomes, 0));
    out.figures
        .insert("problem_sweep_mgenomes_per_s", rate(problem_genomes, 1));
    check(
        &input,
        first.as_ref().expect("a first pass"),
        &mut out.tally,
    );
    if ctx.trace {
        probes(ctx, &input, &traced, &mut out);
        if let Some(tracer) = last_tracer {
            let path = ctx
                .out_dir
                .join(format!("trace-landscape_sweep-{}.jsonl", ctx.seed));
            if let Err(e) = tracer.write_jsonl(&path) {
                out.tally
                    .record(false, || format!("cannot write {}: {e}", path.display()));
            }
        }
    }
    if let Err(e) = std::fs::remove_dir_all(&dir) {
        out.tally
            .record(false, || format!("cannot remove {}: {e}", dir.display()));
    }
    out.config = vec![
        (
            "plane_widths",
            Json::Arr(vec![Json::Str("u64".into()), Json::Str("w512".into())]),
        ),
        ("sweep_threads", Json::Num(ctx.threads as f64)),
        ("gait_subspace_bits", Json::Num(f64::from(GAIT_BITS))),
        ("fsm_subspace_bits", Json::Num(f64::from(FSM_BITS))),
        ("shards", Json::Num(SHARDS as f64)),
        (
            "checkpoint_every_blocks",
            Json::Num(input.checkpoint_every_blocks as f64),
        ),
        ("passes", Json::Num(times.len() as f64)),
    ];
    out
}

/// Correctness of the first pass, outside the timed passes: every
/// histogram holds exactly the swept genomes, the two drivers' gait
/// histograms are identical, `fsm_traces` reaches its registered maximum,
/// and a full sweep finds the known max set.
fn check(input: &Input, p: &Pass, tally: &mut Tally) {
    tally.ok(3);
    let hist = p.sweep.histogram.counts();
    tally.record(p.sweep.complete, || "Sweep did not complete".to_string());
    tally.record(hist.iter().sum::<u64>() == 1 << GAIT_BITS, || {
        format!("Sweep histogram does not sum to 2^{GAIT_BITS}")
    });
    tally.record(p.gait.genomes() == 1 << GAIT_BITS, || {
        format!("problem gait histogram does not sum to 2^{GAIT_BITS}")
    });
    let padded = |h: &[u64], len: usize| -> Vec<u64> {
        h.iter()
            .copied()
            .chain(std::iter::repeat(0))
            .take(len)
            .collect()
    };
    let len = hist.len().max(p.gait.histogram.len());
    tally.record(padded(hist, len) == padded(&p.gait.histogram, len), || {
        "the two sweep drivers' gait histograms differ".to_string()
    });
    tally.record(p.fsm.genomes() == 1 << FSM_BITS, || {
        format!("fsm_traces histogram does not sum to 2^{FSM_BITS}")
    });
    tally.record(p.fsm.best_fitness == input.fsm.max_fitness, || {
        format!(
            "fsm_traces best {} below its registered maximum {}",
            p.fsm.best_fitness, input.fsm.max_fitness
        )
    });
    if GAIT_BITS == 36 {
        tally.record(p.sweep.max_count == FULL_SWEEP_MAX_SET, || {
            format!("full sweep max set is {}", p.sweep.max_count)
        });
    }
}

/// Every later pass repeats the first.
fn same_as(first: &Pass, p: &Pass, n: usize, tally: &mut Tally) {
    tally.ok(3);
    tally.record(
        p.sweep.histogram.counts() == first.sweep.histogram.counts()
            && p.sweep.max_samples == first.sweep.max_samples
            && p.gait == first.gait
            && p.fsm == first.fsm,
        || format!("pass {n}: results differ from pass 1"),
    );
}

/// Mean nanoseconds per call of `f` over `reps` calls.
fn ns_per(reps: u64, mut f: impl FnMut(u64)) -> f64 {
    let t = Instant::now();
    for i in 0..reps {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / reps as f64
}

/// Per-layer metrics: the traced passes plus single-layer probes
/// (kernels, a one-thread sweep, checkpoint I/O).
fn probes(ctx: &Ctx, input: &Input, traced: &[[f64; 2]], out: &mut Outcome) {
    let mut rows: Vec<[f64; 4]> = Vec::new();
    let traced_s: Vec<f64> = traced.iter().map(|t| t.iter().sum()).collect();

    for _ in 0..3 {
        let mut kernel = BlockKernel::new(FitnessSpec::paper());
        let kernel_ns = ns_per(KERNEL_PROBE_BLOCKS, |b| {
            let planes = kernel.score_block(std::hint::black_box(b));
            std::hint::black_box(score_masks(&planes));
        });
        let genome_ns = |spec: &ProblemSpec| {
            let mut k = spec.kernel::<W512>();
            let mut batch = vec![0u64; W512::LANES];
            ns_per(KERNEL_PROBE_BLOCKS / 8, |i| {
                for (l, g) in batch.iter_mut().enumerate() {
                    *g = i * W512::LANES as u64 + l as u64;
                }
                std::hint::black_box(k.score_batch(&batch));
            }) / W512::LANES as f64
        };
        let t = Instant::now();
        run_sweep(input, 1);
        let one_thread_s = t.elapsed().as_secs_f64();
        rows.push([
            kernel_ns,
            genome_ns(input.gait),
            genome_ns(input.fsm),
            one_thread_s,
        ]);
    }
    let col = |i: usize| median_or_zero(&rows.iter().map(|r| r[i]).collect::<Vec<_>>());
    let blocks = ((1u64 << GAIT_BITS) / 64) as f64;
    let sweep_s = median_or_zero(&traced.iter().map(|t| t[0]).collect::<Vec<_>>());
    out.layer("landscape.kernel.ns_per_block", col(0));
    out.layer(
        "landscape.sweep.driver_overhead",
        1.0 - col(0) * 1e-9 * blocks / (sweep_s * ctx.threads as f64),
    );
    out.layer("landscape.sweep.scaling", col(3) / sweep_s);
    out.layer("problems.kernel.gait.ns_per_genome", col(1));
    out.layer("problems.kernel.fsm_traces.ns_per_genome", col(2));

    // checkpoint I/O of the finished sweep's state
    let mut sweep = Sweep::new(sweep_config(input, ctx.threads));
    sweep.run(&StopToken::never());
    let cp = sweep.checkpoint();
    let path = input.checkpoint.with_extension("probe");
    let mut io = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let wrote = cp.write(&path);
        let write_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let read = Checkpoint::read(&path);
        let read_s = t.elapsed().as_secs_f64();
        let same = matches!((&wrote, &read), (Ok(()), Ok(r)) if r.render() == cp.render());
        out.tally
            .record(same, || "checkpoint does not round-trip".to_string());
        io.push((write_s, read_s));
    }
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    out.layer(
        "landscape.checkpoint.write_s",
        median_or_zero(&io.iter().map(|r| r.0).collect::<Vec<_>>()),
    );
    out.layer(
        "landscape.checkpoint.read_s",
        median_or_zero(&io.iter().map(|r| r.1).collect::<Vec<_>>()),
    );
    out.layer("landscape.checkpoint.bytes", bytes as f64);
    out.layer(
        "trace.overhead",
        median_or_zero(&traced_s) / median_or_zero(&out.passes),
    );
}
