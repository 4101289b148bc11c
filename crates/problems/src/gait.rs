//! The paper's gait landscape as a registry problem.
//!
//! This is the same fitness the hardware GAP and the bit-sliced batch
//! engines compute — restated through the [`EvolvableProblem`] contract
//! so the generic drivers (registry GA campaigns, subspace sweeps, the
//! island model, the server's `problem` dispatch) can run it next to the
//! FSM workloads. The differential pin in `tests/gait_as_problem.rs`
//! holds this path byte-identical to a direct `Problem` over
//! `FitnessSpec::paper`.

use discipulus::fitness::FitnessSpec;
use discipulus::genome::{Genome, GENOME_BITS};
use evo::evolvable::EvolvableProblem;
use std::fmt::Write as _;

/// The three-rule gait fitness over 36-bit genomes.
#[derive(Debug, Clone, Copy)]
pub struct GaitProblem {
    spec: FitnessSpec,
}

impl GaitProblem {
    /// The paper's rule set (equilibrium + symmetry + coherence, max 26).
    pub fn paper() -> GaitProblem {
        GaitProblem {
            spec: FitnessSpec::paper(),
        }
    }

    /// A custom rule set (ablations).
    pub fn with_spec(spec: FitnessSpec) -> GaitProblem {
        GaitProblem { spec }
    }

    /// The rule spec in force.
    pub fn spec(&self) -> FitnessSpec {
        self.spec
    }
}

impl EvolvableProblem for GaitProblem {
    fn name(&self) -> &'static str {
        "gait"
    }

    fn width(&self) -> usize {
        GENOME_BITS
    }

    fn fitness(&self, genome: u64) -> u32 {
        self.spec.evaluate(Genome::from_bits(genome & self.mask()))
    }

    fn max_fitness(&self) -> Option<u32> {
        Some(self.spec.max_fitness())
    }

    fn known_optimum(&self) -> Option<u64> {
        // the tripod is the canonical optimum of the paper's rules; an
        // ablated spec may rank other genomes above it
        self.spec
            .is_max(Genome::tripod())
            .then(|| Genome::tripod().bits())
    }

    fn describe(&self, genome: u64) -> String {
        let g = Genome::from_bits(genome & self.mask());
        let mut out = format!("gait {:#011x} (fitness {})", g.bits(), self.fitness(genome));
        let mut step = None;
        for (s, leg, gene) in g.genes() {
            if step != Some(s) {
                write!(out, "\n  step{}:", s.index() + 1).unwrap();
                step = Some(s);
            }
            write!(out, " {}={:03b}", leg.label(), gene.to_bits()).unwrap();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use discipulus::fitness::Rule;

    #[test]
    fn paper_instance_matches_the_scalar_spec() {
        let p = GaitProblem::paper();
        assert_eq!(p.name(), "gait");
        assert_eq!(p.width(), 36);
        assert_eq!(p.max_fitness(), Some(26));
        let spec = FitnessSpec::paper();
        for g in [0u64, Genome::tripod().bits(), 0xABC_DEF0123, 0xF_FFFF_FFFF] {
            assert_eq!(p.fitness(g), spec.evaluate(Genome::from_bits(g)));
        }
    }

    #[test]
    fn high_bits_are_ignored() {
        let p = GaitProblem::paper();
        assert_eq!(p.fitness(u64::MAX), p.fitness(0xF_FFFF_FFFF));
        assert_eq!(p.round_trip(u64::MAX), 0xF_FFFF_FFFF);
    }

    #[test]
    fn known_optimum_is_the_tripod_and_scores_max() {
        let p = GaitProblem::paper();
        let opt = p.known_optimum().expect("the tripod is known");
        assert_eq!(opt, Genome::tripod().bits());
        assert_eq!(p.fitness(opt), 26);
    }

    #[test]
    fn ablated_spec_drops_the_optimum_claim_if_tripod_is_not_max() {
        // removing symmetry keeps the tripod maximal; the claim survives
        let p = GaitProblem::with_spec(FitnessSpec::without(Rule::Symmetry));
        if let Some(opt) = p.known_optimum() {
            assert_eq!(Some(p.fitness(opt)), p.max_fitness());
        }
    }

    #[test]
    fn describe_decodes_both_steps() {
        let text = GaitProblem::paper().describe(Genome::tripod().bits());
        assert!(text.contains("step1:"));
        assert!(text.contains("step2:"));
        assert!(text.contains("fitness 26"));
    }
}
