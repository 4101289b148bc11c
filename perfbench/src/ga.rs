//! `ga_converge`: the paper's multi-seed convergence sample on the
//! bit-sliced RTL engines, then software GA campaigns over the problem
//! registry. No sweep and no HTTP work.
//!
//! One pass runs `rtl_convergence_batch_w` at u64 and at W512 planes on
//! every core, then `problem_campaigns` for `fsm_traces` and
//! `serial_adder`. The traced pass runs the same work through
//! [`replica_batch`] — the harness's lane-refill driver rebuilt from
//! `GapRtlXW`'s public calls with spans around step, reset and harvest —
//! and through a stepped `evo::ga::Ga`; both must reproduce the library
//! drivers' per-seed results bit for bit, or the run fails.

use crate::trace::{LocalTrace, Tracer};
use crate::{median_or_zero, repeat_for, Ctx, Outcome, SetupTimes, SplitMix, Tally};
use evo::evolvable::Evolvable;
use evo::ga::{Ga, GaConfig};
use evo::problem::Problem;
use leonardo_bench::harness::{rtl_convergence_batch_w, rtl_convergence_scalar, RtlTrial};
use leonardo_bench::{problem_campaigns, ProblemTrial};
use leonardo_problems::ProblemSpec;
use leonardo_rtl::bitslice::{GapRtlXW, GapRtlXWConfig, Plane, W512};
use leonardo_telemetry::json::Json;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Generation budget per RTL trial: every paper-parameter trial
/// converges well inside it.
const MAX_GENERATIONS: u64 = 30_000;
/// Generation budget per registry campaign (the service's default).
const PROBLEM_GENERATIONS: u64 = 4_000;
const PROBLEMS: [&str; 2] = ["fsm_traces", "serial_adder"];
/// RTL seeds per core: 8 × the 512 lanes of a W512 engine, so lane
/// refills, not the first fill, dominate at both widths.
const SEEDS_PER_CORE: usize = 8 * 512;
/// Campaign seeds per problem per core.
const CAMPAIGNS_PER_CORE: usize = 16;
/// Set-ups timed before the first pass, and between passes.
const SETUP_REPS: usize = 21;
const SETUP_REPS_PER_PASS: usize = 5;
/// Mean work of one RTL trial and of one campaign (averaged over
/// `fsm_traces` and `serial_adder`) over many seeds. `pass_s` scales each
/// phase's time to this nominal work, so runs whose seeds happen to
/// converge faster or slower still compare.
const NOMINAL_CYCLES_PER_TRIAL: f64 = 74_000.0;
const NOMINAL_EVALS_PER_CAMPAIGN: f64 = 44_600.0;
/// Accepted range of the replica driver's pass time over the library
/// driver's (median over traced passes); 0.96 (u64) and 1.00 (W512) at
/// the seed commit.
const REPLICA_BAND: (f64, f64) = (0.8, 1.25);

struct Input {
    seeds: Vec<u32>,
    campaign_seeds: Vec<u64>,
    specs: Vec<&'static ProblemSpec>,
}

/// Results and phase times of one pass.
struct Pass {
    w64: Vec<RtlTrial>,
    w512: Vec<RtlTrial>,
    campaigns: Vec<Vec<ProblemTrial>>,
    /// Seconds in the u64, W512 and campaign phases.
    times: [f64; 3],
}

impl Pass {
    fn cycles(trials: &[RtlTrial]) -> f64 {
        trials.iter().map(|t| t.cycles as f64).sum()
    }

    fn evals(&self) -> f64 {
        self.campaigns
            .iter()
            .flatten()
            .map(|t| t.evaluations as f64)
            .sum()
    }

    /// Trials and campaigns the pass ran.
    fn ops(&self) -> u64 {
        (self.w64.len() + self.w512.len() + self.campaigns.iter().map(Vec::len).sum::<usize>())
            as u64
    }

    /// Nominal seconds, u64 and W512 Mcyc/s, campaign kevals/s.
    fn rates(&self) -> [f64; 4] {
        [
            self.nominal_s(),
            Self::cycles(&self.w64) / self.times[0] / 1e6,
            Self::cycles(&self.w512) / self.times[1] / 1e6,
            self.evals() / self.times[2] / 1e3,
        ]
    }

    /// Host seconds for the nominal pass at this pass's phase rates.
    fn nominal_s(&self) -> f64 {
        let trials = self.w64.len() as f64 * NOMINAL_CYCLES_PER_TRIAL;
        let campaigns = self.campaigns.iter().map(Vec::len).sum::<usize>() as f64;
        self.times[0] * trials / Self::cycles(&self.w64)
            + self.times[1] * trials / Self::cycles(&self.w512)
            + self.times[2] * campaigns * NOMINAL_EVALS_PER_CAMPAIGN / self.evals()
    }
}

fn input(ctx: &Ctx) -> Input {
    let mut rng = SplitMix::new(ctx.seed);
    Input {
        seeds: (0..SEEDS_PER_CORE * ctx.threads)
            .map(|_| rng.next_u64() as u32)
            .collect(),
        campaign_seeds: (0..CAMPAIGNS_PER_CORE * ctx.threads)
            .map(|_| rng.next_u64())
            .collect(),
        specs: PROBLEMS
            .iter()
            .map(|n| ProblemSpec::find(n).expect("registered problem"))
            .collect(),
    }
}

fn untraced_pass(input: &Input, threads: usize) -> Pass {
    let t = Instant::now();
    let w64 = rtl_convergence_batch_w::<u64>(&input.seeds, MAX_GENERATIONS, threads);
    let t64 = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let w512 = rtl_convergence_batch_w::<W512>(&input.seeds, MAX_GENERATIONS, threads);
    let t512 = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let campaigns = input
        .specs
        .iter()
        .map(|&spec| {
            problem_campaigns::<W512>(spec, &input.campaign_seeds, PROBLEM_GENERATIONS, threads)
        })
        .collect();
    Pass {
        w64,
        w512,
        campaigns,
        times: [t64, t512, t.elapsed().as_secs_f64()],
    }
}

/// Counters one width's replica driver accumulates over a pass.
#[derive(Default)]
struct Refill {
    steps: u64,
    lane_gens: u64,
    resets: u64,
    reset_lanes: u64,
    /// Last worker finishing minus first, per call.
    worker_tail_s: f64,
}

/// Span names of one plane width, and the tag (`w64`, `w512`) its
/// metric names carry.
struct Names {
    tag: &'static str,
    step: &'static str,
    reset: &'static str,
    harvest: &'static str,
    batch: &'static str,
}

fn names<P: Plane>() -> Names {
    if P::LANES == 64 {
        Names {
            tag: "w64",
            step: "rtl.w64.step",
            reset: "rtl.w64.reset",
            harvest: "rtl.w64.harvest",
            batch: "harness.w64.batch",
        }
    } else {
        Names {
            tag: "w512",
            step: "rtl.w512.step",
            reset: "rtl.w512.reset",
            harvest: "rtl.w512.harvest",
            batch: "harness.w512.batch",
        }
    }
}

/// The `rtl.<tag>.*` metrics, in the order `traced_pass` fills them.
const RTL_METRICS: [&str; 8] = [
    "step.calls",
    "step.busy_s",
    "step.ns_per_lane_gen",
    "lane_occupancy",
    "reset.calls",
    "reset.lanes",
    "reset.busy_s",
    "harvest.busy_s",
];

/// `rtl_convergence_batch_w` rebuilt from `GapRtlXW`'s public calls,
/// with a span around every step, reset and harvest: `threads` workers
/// each own an engine, claim seeds from a shared queue into lanes, and
/// refill freed lanes in groups. Per-seed results come back in seed
/// order.
fn replica_batch<P: Plane>(
    seeds: &[u32],
    max_generations: u64,
    threads: usize,
    tracer: &Tracer,
) -> (Vec<RtlTrial>, Refill) {
    let threads = threads.min(seeds.len().div_ceil(P::LANES)).max(1);
    let results = Mutex::new(Vec::with_capacity(seeds.len()));
    let totals = Mutex::new((Refill::default(), Vec::new()));
    let next = AtomicUsize::new(0);
    let epoch = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut local = tracer.local();
                let mut refill = Refill::default();
                let batch = local.open(names::<P>().batch, 0);
                let parent = local.id(batch);
                replica_worker::<P>(
                    seeds,
                    max_generations,
                    &next,
                    &results,
                    &mut local,
                    parent,
                    &mut refill,
                );
                local.close(batch);
                let done = epoch.elapsed().as_secs_f64();
                let mut t = totals.lock().expect("no worker panicked");
                t.0.steps += refill.steps;
                t.0.lane_gens += refill.lane_gens;
                t.0.resets += refill.resets;
                t.0.reset_lanes += refill.reset_lanes;
                t.1.push(done);
            });
        }
    });
    let (mut refill, finishes) = totals.into_inner().expect("no worker panicked");
    let first = finishes.iter().copied().fold(f64::INFINITY, f64::min);
    let last = finishes.iter().copied().fold(0.0, f64::max);
    refill.worker_tail_s = last - first;
    let mut collected: Vec<(usize, RtlTrial)> = results.into_inner().expect("no worker panicked");
    collected.sort_by_key(|(i, _)| *i);
    (collected.into_iter().map(|(_, t)| t).collect(), refill)
}

fn replica_worker<P: Plane>(
    seeds: &[u32],
    max_generations: u64,
    next: &AtomicUsize,
    results: &Mutex<Vec<(usize, RtlTrial)>>,
    local: &mut LocalTrace<'_>,
    parent: u64,
    refill: &mut Refill,
) {
    // the harness pools freed lanes and refills them in groups of this size
    const REFILL_GROUP: usize = 8;
    let names = names::<P>();
    let claim = |cap: usize| -> Vec<usize> {
        (0..cap)
            .map_while(|_| {
                let i = next.fetch_add(1, Ordering::Relaxed);
                (i < seeds.len()).then_some(i)
            })
            .collect()
    };
    let first = claim(P::LANES);
    if first.is_empty() {
        return;
    }
    let lane_seeds: Vec<u32> = first.iter().map(|&i| seeds[i]).collect();
    let mut gap = GapRtlXW::<P>::new(GapRtlXWConfig::paper(), &lane_seeds);
    let mut trial: Vec<Option<usize>> = vec![None; P::LANES];
    for (l, &i) in first.iter().enumerate() {
        trial[l] = Some(i);
    }
    let mut free: Vec<usize> = Vec::new();
    loop {
        let harvest = local.open(names.harvest, parent);
        let running = gap.running_mask(max_generations);
        (gap.enabled() & !running).for_each_set_lane(|l| {
            let Some(i) = trial[l].take() else { return };
            let done = RtlTrial {
                converged: gap.converged(l),
                generations: gap.generation(l),
                cycles: gap.cycles(l),
            };
            results.lock().expect("no worker panicked").push((i, done));
            free.push(l);
        });
        let mut active = P::ZERO;
        gap.enabled().for_each_set_lane(|l| {
            if trial[l].is_some() {
                active.set_bit(l, true);
            }
        });
        active &= running;
        local.close(harvest);
        if free.len() >= REFILL_GROUP || active.is_zero() {
            let claimed = claim(free.len());
            if !claimed.is_empty() {
                let resets: Vec<(usize, u32)> = claimed
                    .iter()
                    .map(|&i| {
                        let l = free.pop().expect("one free lane per claimed seed");
                        trial[l] = Some(i);
                        (l, seeds[i])
                    })
                    .collect();
                local.span(names.reset, parent, || gap.reset_lanes(&resets));
                refill.resets += 1;
                refill.reset_lanes += resets.len() as u64;
                continue;
            }
        }
        if active.is_zero() {
            return;
        }
        refill.steps += 1;
        refill.lane_gens += u64::from(active.count_ones());
        local.span(names.step, parent, || gap.step_generation_masked(active));
    }
}

/// `problem_campaigns` rebuilt as a stepped `Ga` per seed, with a span
/// around every generation. Returns trials in seed order.
fn replica_campaigns(
    spec: &'static ProblemSpec,
    seeds: &[u64],
    threads: usize,
    tracer: &Tracer,
) -> Vec<ProblemTrial> {
    let next = AtomicUsize::new(0);
    let results = Mutex::new(Vec::with_capacity(seeds.len()));
    std::thread::scope(|scope| {
        for _ in 0..threads.min(seeds.len()).max(1) {
            scope.spawn(|| {
                let mut local = tracer.local();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&seed) = seeds.get(i) else { break };
                    let run = local.open("evo.ga.run", 0);
                    let parent = local.id(run);
                    let mut ga = Ga::new(GaConfig::default(), Evolvable((spec.make)()), seed);
                    let target = ga.problem().max_fitness();
                    let reached = |ga: &Ga<_>| target.is_some_and(|t| ga.best().1 >= t);
                    while !reached(&ga) && ga.generation() < PROBLEM_GENERATIONS {
                        local.span("evo.ga.step", parent, || ga.step());
                    }
                    local.close(run);
                    let (genome, fitness) = ga.best();
                    let trial = ProblemTrial {
                        seed,
                        generations: ga.generation(),
                        evaluations: ga.evaluations(),
                        best_fitness: fitness as u32,
                        best_genome: genome.to_u64(),
                        converged: reached(&ga),
                    };
                    results.lock().expect("no worker panicked").push((i, trial));
                }
            });
        }
    });
    let mut collected: Vec<(usize, ProblemTrial)> =
        results.into_inner().expect("no worker panicked");
    collected.sort_by_key(|(i, _)| *i);
    collected.into_iter().map(|(_, t)| t).collect()
}

/// Set-up: the seeded inputs, one engine of each width per core and
/// the registry problems with their W512 kernels.
fn set_up(ctx: &Ctx) -> Input {
    let input = input(ctx);
    for _ in 0..ctx.threads {
        std::hint::black_box(GapRtlXW::<u64>::new(
            GapRtlXWConfig::paper(),
            &input.seeds[..u64::LANES],
        ));
        std::hint::black_box(GapRtlXW::<W512>::new(
            GapRtlXWConfig::paper(),
            &input.seeds[..W512::LANES],
        ));
    }
    for spec in &input.specs {
        std::hint::black_box(((spec.make)(), spec.kernel::<W512>()));
    }
    input
}

pub fn run(ctx: &Ctx) -> Outcome {
    let threads = ctx.threads;
    let mut out = Outcome::default();
    let mut setup = SetupTimes::default();
    let input = setup.sample(SETUP_REPS, || set_up(ctx));

    // a traced run alternates untraced and traced passes, so drift in the
    // host's speed cannot masquerade as tracing overhead; later passes are
    // checked against the first and dropped, so memory stays flat
    let mut first: Option<Pass> = None;
    let mut rates: Vec<[f64; 4]> = Vec::new();
    let mut traced: Vec<Traced> = Vec::new();
    let mut last_tracer = None;
    repeat_for(ctx.seconds, 2, &mut out.speed, threads, || {
        setup.sample(SETUP_REPS_PER_PASS, || set_up(ctx));
        let pass = untraced_pass(&input, threads);
        let library_s = [pass.times[0], pass.times[1]];
        rates.push(pass.rates());
        match &first {
            None => first = Some(pass),
            Some(f) => same_as(f, &pass, rates.len(), &mut out.tally),
        }
        if ctx.trace {
            let tracer = Tracer::new();
            let reference = first.as_ref().expect("a first pass");
            traced.push(traced_pass(&input, reference, library_s, threads, &tracer));
            last_tracer = Some(tracer);
        }
    });
    out.setup_s = setup.median();
    let column = |i: usize| rates.iter().map(|r| r[i]).collect::<Vec<_>>();
    out.passes = column(0);
    out.slowdowns = out.speed.around_passes(out.passes.len());
    out.figures
        .insert("ga_w64_mcyc_per_s", median_or_zero(&column(1)));
    out.figures
        .insert("ga_w512_mcyc_per_s", median_or_zero(&column(2)));
    out.figures
        .insert("ga_problem_kevals_per_s", median_or_zero(&column(3)));
    check(
        &input,
        first.as_ref().expect("a first pass"),
        &mut out.tally,
    );
    if ctx.trace {
        reduce_traced(&traced, &mut out);
        if let Some(tracer) = last_tracer {
            let path = ctx
                .out_dir
                .join(format!("trace-ga_converge-{}.jsonl", ctx.seed));
            if let Err(e) = tracer.write_jsonl(&path) {
                out.tally
                    .record(false, || format!("cannot write {}: {e}", path.display()));
            }
        }
    }
    out.config = vec![
        (
            "plane_widths",
            Json::Arr(vec![Json::Str("u64".into()), Json::Str("w512".into())]),
        ),
        ("engine_threads", Json::Num(threads as f64)),
        ("rtl_seeds", Json::Num(input.seeds.len() as f64)),
        ("rtl_max_generations", Json::Num(MAX_GENERATIONS as f64)),
        (
            "campaign_seeds_per_problem",
            Json::Num(input.campaign_seeds.len() as f64),
        ),
        (
            "campaign_generations",
            Json::Num(PROBLEM_GENERATIONS as f64),
        ),
        ("passes", Json::Num(rates.len() as f64)),
    ];
    out
}

/// Correctness of the first pass, computed outside the timed passes:
/// every trial converged, every per-seed result equals the scalar
/// `GapRtl` reference, and u64 and W512 agree.
fn check(input: &Input, first: &Pass, tally: &mut Tally) {
    let scalar = rtl_convergence_scalar(&input.seeds, MAX_GENERATIONS);
    tally.record(scalar.len() == first.w64.len(), || {
        "u64 batch lost trials".to_string()
    });
    for (i, (s, t)) in scalar.iter().zip(&first.w64).enumerate() {
        tally.record(s.converged, || {
            format!("seed {:#x} did not converge", input.seeds[i])
        });
        tally.record(s == t, || {
            format!(
                "u64 trial of seed {:#x} differs from scalar GapRtl",
                input.seeds[i]
            )
        });
    }
    tally.record(first.w512 == scalar, || {
        "W512 trials differ from u64".to_string()
    });
    tally.ok(first.ops());
}

/// Every later pass repeats the first bit for bit.
fn same_as(first: &Pass, pass: &Pass, n: usize, tally: &mut Tally) {
    tally.record(pass.w64 == first.w64, || {
        format!("pass {n}: u64 trials differ from pass 1")
    });
    tally.record(pass.w512 == first.w512, || {
        format!("pass {n}: W512 trials differ from pass 1")
    });
    tally.record(pass.campaigns == first.campaigns, || {
        format!("pass {n}: campaigns differ from pass 1")
    });
    tally.ok(pass.ops());
}

/// One traced pass reduced to its per-layer values.
struct Traced {
    nominal_s: f64,
    values: Vec<(String, f64)>,
    /// Which replica diverged from the library drivers, if any.
    diverged: Vec<&'static str>,
}

/// The replica drivers with spans, checked against the library drivers'
/// results and reduced to per-layer values. `library_s` holds the u64
/// and W512 phase times of the untraced pass just before.
fn traced_pass(
    input: &Input,
    reference: &Pass,
    library_s: [f64; 2],
    threads: usize,
    tracer: &Tracer,
) -> Traced {
    let population = GaConfig::default().population_size as u64;
    let t = Instant::now();
    let (w64, r64) = replica_batch::<u64>(&input.seeds, MAX_GENERATIONS, threads, tracer);
    let t64 = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let (w512, r512) = replica_batch::<W512>(&input.seeds, MAX_GENERATIONS, threads, tracer);
    let t512 = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let campaigns: Vec<Vec<ProblemTrial>> = input
        .specs
        .iter()
        .map(|&spec| replica_campaigns(spec, &input.campaign_seeds, threads, tracer))
        .collect();
    let pass = Pass {
        w64,
        w512,
        campaigns,
        times: [t64, t512, t.elapsed().as_secs_f64()],
    };
    let diverged = [
        ("u64 replica", pass.w64 == reference.w64),
        ("w512 replica", pass.w512 == reference.w512),
        ("campaign replica", pass.campaigns == reference.campaigns),
    ]
    .into_iter()
    .filter_map(|(what, same)| (!same).then_some(what))
    .collect();

    let busy = tracer.busy_s();
    let busy_of = |name: &str| busy.get(name).copied().unwrap_or(0.0);
    let mut values = Vec::new();
    for (names, r, lanes, replica_s, library_s) in [
        (names::<u64>(), &r64, u64::LANES, t64, library_s[0]),
        (names::<W512>(), &r512, W512::LANES, t512, library_s[1]),
    ] {
        let lanes = lanes as f64;
        let step_s = busy_of(names.step);
        let metrics = [
            r.steps as f64,
            step_s,
            step_s * 1e9 / r.lane_gens as f64,
            r.lane_gens as f64 / (lanes * r.steps as f64),
            r.resets as f64,
            r.reset_lanes as f64,
            busy_of(names.reset),
            busy_of(names.harvest),
        ];
        let tag = names.tag;
        values.extend(
            RTL_METRICS
                .iter()
                .zip(metrics)
                .map(|(m, v)| (format!("rtl.{tag}.{m}"), v)),
        );
        values.push((format!("harness.{tag}.worker_tail_s"), r.worker_tail_s));
        values.push((
            format!("harness.{tag}.replica_ratio"),
            replica_s / library_s,
        ));
    }
    let trials = pass.campaigns.iter().flatten();
    let evals: u64 = trials.clone().map(|t| t.evaluations).sum();
    // the initial population is scored in `Ga::new`, outside any step
    let step_evals: u64 = trials.map(|t| t.evaluations - population).sum();
    let ga_s = busy_of("evo.ga.step");
    values.push(("evo.ga.step.busy_s".to_string(), ga_s));
    values.push(("evo.ga.evals".to_string(), evals as f64));
    values.push((
        "evo.ga.ns_per_eval".to_string(),
        ga_s * 1e9 / step_evals as f64,
    ));
    Traced {
        nominal_s: pass.nominal_s(),
        values,
        diverged,
    }
}

/// Per-layer metrics: the median over traced passes. A replica that
/// diverged fails the run instead, and so does one whose median pass
/// time leaves [`REPLICA_BAND`] around the library driver's: the replica
/// pins the library's refill policy, and a library that has moved on
/// would leave the per-layer numbers describing a different program.
fn reduce_traced(traced: &[Traced], out: &mut Outcome) {
    for (n, t) in traced.iter().enumerate() {
        out.tally.record(t.diverged.is_empty(), || {
            format!(
                "traced pass {n}: {} diverges from the library driver",
                t.diverged.join(", ")
            )
        });
    }
    for (i, (name, _)) in traced[0].values.iter().enumerate() {
        let v: Vec<f64> = traced.iter().map(|t| t.values[i].1).collect();
        let median = median_or_zero(&v);
        if name.ends_with(".replica_ratio") {
            let (lo, hi) = REPLICA_BAND;
            out.tally.record((lo..=hi).contains(&median), || {
                format!(
                    "{name} is {median:.3}, outside [{lo}, {hi}]: the library driver's \
                     timing has left the replica's; update `replica_worker` to match it"
                )
            });
        }
        out.layer(name.clone(), median);
    }
    let nominal: Vec<f64> = traced.iter().map(|t| t.nominal_s).collect();
    out.layer(
        "trace.overhead",
        median_or_zero(&nominal) / median_or_zero(&out.passes),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replica_driver_reproduces_the_harness_per_seed() {
        // 150 seeds with a tight budget: refills past the first fill at
        // both widths, converged and out-of-budget harvests, two workers
        let mut rng = SplitMix::new(11);
        let seeds: Vec<u32> = (0..150).map(|_| rng.next_u64() as u32).collect();
        for budget in [40, MAX_GENERATIONS] {
            let tracer = Tracer::new();
            let (w64, r64) = replica_batch::<u64>(&seeds, budget, 2, &tracer);
            assert_eq!(w64, rtl_convergence_batch_w::<u64>(&seeds, budget, 2));
            let (w512, r512) = replica_batch::<W512>(&seeds, budget, 2, &tracer);
            assert_eq!(w512, rtl_convergence_batch_w::<W512>(&seeds, budget, 2));
            assert!(r64.resets > 0 && r64.lane_gens <= 64 * r64.steps);
            assert!(r512.lane_gens <= 512 * r512.steps);
            assert_eq!(tracer.spans_named("rtl.w64.step").len() as u64, r64.steps);
        }
    }

    #[test]
    fn replica_campaigns_reproduce_problem_campaigns() {
        let spec = ProblemSpec::find("fsm_traces").expect("registered");
        let seeds = [3u64, 17, 99];
        let tracer = Tracer::new();
        assert_eq!(
            replica_campaigns(spec, &seeds, 2, &tracer),
            problem_campaigns::<W512>(spec, &seeds, PROBLEM_GENERATIONS, 2)
        );
        assert!(!tracer.spans_named("evo.ga.step").is_empty());
    }
}
