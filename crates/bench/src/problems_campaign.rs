//! Registry-problem GA campaigns (experiment E17).
//!
//! The single-objective GA pointed at the problem registry: every
//! campaign is a seeded [`Ga`] run against one registered
//! [`EvolvableProblem`](evo::evolvable::EvolvableProblem), fanned out
//! over the work-stealing exec driver and bit-identical at any thread
//! count. Each trial's winner is cross-checked through the problem's
//! bit-parallel batch kernel at the caller's plane width, so a campaign
//! cannot report a fitness the sliced path disagrees with — the same
//! scalar-vs-kernel equality the conformance suite pins, enforced once
//! more on the genomes evolution actually finds.

use evo::evolvable::Evolvable;
use evo::ga::{Ga, GaConfig};
use leonardo_problems::{KernelPlane, ProblemSpec};
use leonardo_telemetry as tele;
use leonardo_telemetry::json::Json;
use std::fmt::Write as _;

use crate::harness::parallel_map_threads;

/// The outcome of one seeded GA run against a registered problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProblemTrial {
    /// RNG seed of the run.
    pub seed: u64,
    /// Generations executed.
    pub generations: u64,
    /// Fitness evaluations performed.
    pub evaluations: u64,
    /// Best fitness ever observed.
    pub best_fitness: u32,
    /// Best genome ever observed.
    pub best_genome: u64,
    /// Whether the run reached the problem's registered maximum.
    pub converged: bool,
}

/// Run one seeded GA campaign against `spec` with `config`.
pub fn problem_campaign(
    spec: &'static ProblemSpec,
    config: GaConfig,
    seed: u64,
    max_generations: u64,
) -> ProblemTrial {
    let out = Ga::new(config, Evolvable((spec.make)()), seed).run(max_generations, None);
    if tele::enabled_at(tele::Level::Metric) {
        tele::emit(
            tele::Level::Metric,
            "bench.problem_trial",
            &[
                ("problem", spec.name.into()),
                ("seed", seed.into()),
                ("generations", out.generations.into()),
                ("evaluations", out.evaluations.into()),
                ("best", out.best_fitness.into()),
                ("converged", out.reached_target.into()),
            ],
        );
    }
    ProblemTrial {
        seed,
        generations: out.generations,
        evaluations: out.evaluations,
        best_fitness: out.best_fitness as u32,
        best_genome: out.best_genome.to_u64(),
        converged: out.reached_target,
    }
}

/// Seeded GA campaigns against `spec` spread over `threads` work-stealing
/// workers (0 = one per core), each winner cross-checked through the
/// problem's width-`P` batch kernel. Each campaign is a pure function of
/// its seed, so the result vector is bit-identical at any thread count
/// and plane width.
///
/// # Panics
/// Panics if the kernel scores a winner differently from the scalar path
/// — that is a kernel bug the conformance suite should have caught.
pub fn problem_campaigns<P: KernelPlane>(
    spec: &'static ProblemSpec,
    seeds: &[u64],
    max_generations: u64,
    threads: usize,
) -> Vec<ProblemTrial> {
    parallel_map_threads(threads, seeds, |&seed| {
        let trial = problem_campaign(spec, GaConfig::default(), seed, max_generations);
        let mut kernel = spec.kernel::<P>();
        let scores = kernel.score_batch(&vec![trial.best_genome; P::LANES]);
        for (lane, &score) in scores.iter().enumerate() {
            assert_eq!(
                score,
                trial.best_fitness,
                "{}: {} kernel lane {lane} disagrees with the scalar fitness \
                 of winner {:#x}",
                spec.name,
                P::NAME,
                trial.best_genome
            );
        }
        trial
    })
}

/// A row for the manifest's `problems` table (telemetry schema v7) for
/// one trial.
pub fn problem_row(spec: &ProblemSpec, trial: &ProblemTrial) -> Json {
    Json::obj([
        ("problem", Json::Str(spec.name.to_string())),
        ("width", Json::Num(spec.width as f64)),
        ("seed", Json::Num(trial.seed as f64)),
        ("generations", Json::Num(trial.generations as f64)),
        ("evaluations", Json::Num(trial.evaluations as f64)),
        ("best_fitness", Json::Num(f64::from(trial.best_fitness))),
        (
            "best_genome",
            Json::Str(format!("{:#x}", trial.best_genome)),
        ),
        ("converged", Json::Bool(trial.converged)),
    ])
}

/// Render one problem's campaign results as the fixed-width table the
/// `e17_fsm` golden file pins. Deterministic: no wall times, no host
/// shape — only what the seeds fully determine.
pub fn problem_table(spec: &ProblemSpec, trials: &[ProblemTrial]) -> String {
    let mut out = format!(
        "problem {} ({}-bit genome, max fitness {})\n",
        spec.name, spec.width, spec.max_fitness
    );
    writeln!(
        out,
        "  {:>8} {:>6} {:>8} {:>4} {:>12}  converged",
        "seed", "gens", "evals", "best", "genome"
    )
    .unwrap();
    for t in trials {
        writeln!(
            out,
            "  {:#08x} {:>6} {:>8} {:>4} {:#012x}  {}",
            t.seed,
            t.generations,
            t.evaluations,
            t.best_fitness,
            t.best_genome,
            if t.converged { "yes" } else { "no" }
        )
        .unwrap();
    }
    let converged = trials.iter().filter(|t| t.converged).count();
    writeln!(out, "  {} of {} seed(s) converged", converged, trials.len()).unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use leonardo_rtl::bitslice::W256;

    fn spec(name: &str) -> &'static ProblemSpec {
        ProblemSpec::find(name).expect("registered")
    }

    #[test]
    fn campaigns_are_thread_and_width_unobservable() {
        let s = spec("fsm_traces");
        let seeds = [0x1000u64, 0x1007];
        let base = problem_campaigns::<u64>(s, &seeds, 50, 1);
        assert_eq!(base, problem_campaigns::<u64>(s, &seeds, 50, 2));
        assert_eq!(base, problem_campaigns::<W256>(s, &seeds, 50, 4));
        assert_eq!(base.len(), 2);
        for t in &base {
            assert!(t.best_fitness <= s.max_fitness);
            assert!(t.evaluations > 0);
        }
    }

    #[test]
    fn converged_means_registered_maximum() {
        // seed 0x1000 reaches the fsm_traces optimum in a few generations
        let s = spec("fsm_traces");
        let t = problem_campaign(s, GaConfig::default(), 0x1000, 200);
        assert!(t.converged);
        assert_eq!(t.best_fitness, s.max_fitness);
        let p = (s.make)();
        assert_eq!(
            evo::evolvable::EvolvableProblem::fitness(&p, t.best_genome),
            s.max_fitness
        );
    }

    #[test]
    fn rows_and_table_render_the_trials() {
        let s = spec("serial_adder");
        let trials = problem_campaigns::<u64>(s, &[0x1000], 5, 1);
        let row = problem_row(s, &trials[0]);
        let text = |k: &str| row.get(k).and_then(Json::as_str);
        let uint = |k: &str| row.get(k).and_then(Json::as_u64);
        assert_eq!(text("problem"), Some("serial_adder"));
        assert_eq!(uint("width"), Some(16));
        assert_eq!(uint("seed"), Some(0x1000));
        let genome = format!("{:#x}", trials[0].best_genome);
        assert_eq!(text("best_genome"), Some(genome.as_str()));
        let table = problem_table(s, &trials);
        assert!(table.contains("problem serial_adder (16-bit genome, max fitness 48)"));
        assert!(table.contains("0 of 1 seed(s) converged") || table.contains("1 of 1 seed(s)"));
    }
}
