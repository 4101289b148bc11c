//! Seeded fault campaigns with a differential recovery oracle.
//!
//! A [`Campaign`] drives a faulted engine and a fault-free twin **from
//! the same seeds** through the same generation loop. The twin gives
//! every lane its counterfactual: what the trial would have cost without
//! faults. From the pair the campaign computes the recovery metrics the
//! robustness claim needs — convergence-cost delta, permanent-failure
//! rate, and (for converged lanes) the max-fitness dwell time under
//! continued bombardment — and classifies every lane:
//!
//! * **Recovered** — the fitness register reads maximal *and* the stored
//!   best genome re-scores maximal: evolution absorbed the faults.
//! * **Corrupted** — the fitness register reads maximal but the stored
//!   genome does not re-score maximal. Only a best-genome register upset
//!   can cause this; it is the silent failure mode the oracle exists to
//!   flag (the chip would configure the walker with a broken gait while
//!   reporting success).
//! * **PermanentFailure** — the lane never reconverged in budget.
//!
//! [`CampaignReport::verify`] is the oracle: every lane must be exactly
//! one of those, corruption must be impossible for models that cannot
//! touch the best register, and a rate-0.0 campaign must be bit-exact
//! with the fault-free twin. Because the whole schedule is derived from
//! seeds and lane masks alone, the same campaign run on the scalar bank
//! and the X64 engine must agree bit-for-bit —
//! [`CampaignReport::agrees_with`] is the cross-engine half of the
//! oracle.

use crate::injector::Injector;
use crate::model::{Fault, FaultModel};
use crate::rng::FaultRng;
use leonardo_rtl::bitslice::{lanes, LaneMask};
use leonardo_telemetry as tele;
use leonardo_telemetry::json::Json;

/// One fault campaign: a model bombarding every lane at a fixed rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Campaign {
    /// The fault class to inject.
    pub model: FaultModel,
    /// Faults per generation per lane (fractional rates accumulate, like
    /// E13's upset accumulator).
    pub rate: f64,
    /// Generation budget per lane; a lane that has not reconverged by
    /// then is a permanent failure.
    pub max_generations: u64,
    /// Post-convergence bombardment window, in injection ticks: converged
    /// lanes keep receiving faults (without stepping — they are frozen)
    /// and the campaign measures how long their best register stays
    /// genuinely maximal.
    pub dwell_window: u64,
    /// Record per-tick best-fitness traces for every lane (the data the
    /// faulted scalar-vs-X64 lockstep test compares).
    pub record_traces: bool,
}

impl Campaign {
    /// A campaign of `model` at `rate` with E13's default budget, no
    /// dwell window and no traces.
    pub fn new(model: FaultModel, rate: f64) -> Campaign {
        Campaign {
            model,
            rate,
            max_generations: 100_000,
            dwell_window: 0,
            record_traces: false,
        }
    }

    /// Builder: set the generation budget.
    pub fn with_max_generations(mut self, max: u64) -> Campaign {
        self.max_generations = max;
        self
    }

    /// Builder: set the post-convergence dwell window.
    pub fn with_dwell_window(mut self, ticks: u64) -> Campaign {
        self.dwell_window = ticks;
        self
    }

    /// Builder: record per-tick best-fitness traces.
    pub fn recording(mut self) -> Campaign {
        self.record_traces = true;
        self
    }

    /// Run the campaign on `faulted` with its fault-free twin `clean`,
    /// both freshly built from `seeds` (lane `l` ↔ `seeds[l]`). Returns
    /// the per-lane report; call [`CampaignReport::verify`] to apply the
    /// oracle.
    ///
    /// # Panics
    /// Panics if the engines' lane counts disagree with `seeds`, or the
    /// rate is negative or non-finite.
    pub fn run<I: Injector>(&self, mut faulted: I, mut clean: I, seeds: &[u32]) -> CampaignReport {
        let n = seeds.len();
        assert!(n > 0 && n <= 64, "between 1 and 64 lanes");
        assert_eq!(faulted.lane_count(), n, "faulted engine lane count");
        assert_eq!(clean.lane_count(), n, "clean twin lane count");
        assert!(
            self.rate.is_finite() && self.rate >= 0.0,
            "fault rate must be finite and non-negative"
        );
        let engine = faulted.engine_name();
        let bits = self.model.domain_bits(faulted.params());
        let mut fault_rngs: Vec<FaultRng> = seeds.iter().map(|&s| FaultRng::for_seed(s)).collect();
        let mut injected = vec![0u64; n];
        let mut stuck: Vec<Vec<Fault>> = vec![Vec::new(); n];
        let mut traces: Option<Vec<Vec<u32>>> = self.record_traces.then(|| vec![Vec::new(); n]);
        let trace_events = tele::enabled_at(tele::Level::Trace);

        // --- faulted run -----------------------------------------------
        // The injection schedule is E13's: a shared per-generation
        // accumulator (exact, because every running lane has stepped the
        // same number of ticks since the common start), faults drawn from
        // per-lane seeded CA streams, injected only into lanes that just
        // stepped. Injection happens at the generation boundary, where
        // both engines are quiescent.
        let mut accumulator = 0.0f64;
        let mut tick = 0u64;
        loop {
            let running = faulted.running_mask(self.max_generations);
            if running == 0 {
                break;
            }
            faulted.step_lanes(running);
            tick += 1;
            if self.model.is_persistent() {
                // a stepped generation rewrites the population; the stuck
                // nodes reassert themselves
                for l in lanes(running) {
                    for f in stuck[l].clone() {
                        faulted.inject(l, f);
                    }
                }
            }
            accumulator += self.rate;
            while accumulator >= 1.0 {
                accumulator -= 1.0;
                for l in lanes(running) {
                    let fault = Fault {
                        model: self.model,
                        pos: fault_rngs[l].draw_below(bits) as usize,
                    };
                    faulted.inject(l, fault);
                    injected[l] += 1;
                    if self.model.is_persistent() {
                        stuck[l].push(fault);
                    }
                    if trace_events {
                        tele::emit(
                            tele::Level::Trace,
                            "fault.inject",
                            &[
                                ("engine", engine.into()),
                                ("model", self.model.name().into()),
                                ("lane", l.into()),
                                ("pos", (fault.pos as u64).into()),
                                ("tick", tick.into()),
                            ],
                        );
                    }
                }
            }
            if let Some(tr) = traces.as_mut() {
                for (l, lane_trace) in tr.iter_mut().enumerate() {
                    lane_trace.push(faulted.best(l).1);
                }
            }
        }

        // --- fault-free twin -------------------------------------------
        loop {
            let running = clean.running_mask(self.max_generations);
            if running == 0 {
                break;
            }
            clean.step_lanes(running);
        }

        // --- dwell window ----------------------------------------------
        // Converged lanes are frozen, but the world keeps bombarding
        // them: measure how many injection ticks the best register stays
        // *genuinely* maximal. Models that cannot reach the register
        // always survive the whole window.
        let mut dwell = vec![self.dwell_window; n];
        if self.dwell_window > 0 {
            let mut standing: LaneMask = 0;
            for l in 0..n {
                if faulted.converged(l) {
                    standing |= 1u64 << l;
                }
            }
            for t in 0..self.dwell_window {
                if standing == 0 {
                    break;
                }
                accumulator += self.rate;
                while accumulator >= 1.0 {
                    accumulator -= 1.0;
                    for l in lanes(standing) {
                        let fault = Fault {
                            model: self.model,
                            pos: fault_rngs[l].draw_below(bits) as usize,
                        };
                        faulted.inject(l, fault);
                        injected[l] += 1;
                    }
                }
                for l in lanes(standing) {
                    if !faulted.best_is_genuine_max(l) {
                        dwell[l] = t;
                        standing &= !(1u64 << l);
                    }
                }
            }
        }

        // --- per-lane classification -----------------------------------
        let telemetry = tele::enabled_at(tele::Level::Metric);
        let lanes_report: Vec<LaneReport> = (0..n)
            .map(|l| {
                let outcome = if !faulted.converged(l) {
                    LaneOutcome::PermanentFailure
                } else if faulted.best_is_genuine_max(l) {
                    LaneOutcome::Recovered
                } else {
                    LaneOutcome::Corrupted
                };
                let clean_generations = clean.converged(l).then(|| clean.generation(l));
                let cost_delta = (outcome == LaneOutcome::Recovered)
                    .then_some(())
                    .and(clean_generations)
                    .map(|c| faulted.generation(l) as i64 - c as i64);
                let report = LaneReport {
                    seed: seeds[l],
                    outcome,
                    generations: faulted.generation(l),
                    cycles: faulted.cycles(l),
                    clean_generations,
                    cost_delta,
                    injected: injected[l],
                    dwell_ticks: dwell[l],
                };
                if telemetry {
                    let mut fields = vec![
                        ("engine", tele::Value::from(engine)),
                        ("model", self.model.name().into()),
                        ("rate", self.rate.into()),
                        ("seed", seeds[l].into()),
                        ("outcome", report.outcome.name().into()),
                        (
                            "converged",
                            (outcome != LaneOutcome::PermanentFailure).into(),
                        ),
                        ("generations", report.generations.into()),
                        ("cycles", report.cycles.into()),
                        ("injected", report.injected.into()),
                        ("dwell_ticks", report.dwell_ticks.into()),
                    ];
                    if let Some(c) = report.clean_generations {
                        fields.push(("clean_generations", c.into()));
                    }
                    tele::emit(tele::Level::Metric, "fault.recovery", &fields);
                }
                report
            })
            .collect();

        CampaignReport {
            engine,
            model: self.model,
            rate: self.rate,
            max_generations: self.max_generations,
            lanes: lanes_report,
            traces,
        }
    }

    /// Run on the 64-lane batch engine (paper configuration): builds the
    /// faulted engine and its fault-free twin from `seeds` and calls
    /// [`Campaign::run`].
    pub fn run_x64(&self, seeds: &[u32]) -> CampaignReport {
        use leonardo_rtl::bitslice::{GapRtlX64, GapRtlX64Config};
        self.run(
            GapRtlX64::new(GapRtlX64Config::paper(), seeds),
            GapRtlX64::new(GapRtlX64Config::paper(), seeds),
            seeds,
        )
    }

    /// Run on a bank of scalar chips (paper configuration) — the slow,
    /// trusted reference the cross-engine oracle compares against.
    pub fn run_scalar(&self, seeds: &[u32]) -> CampaignReport {
        use crate::injector::ScalarBank;
        self.run(ScalarBank::new(seeds), ScalarBank::new(seeds), seeds)
    }
}

/// How one lane ended the campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneOutcome {
    /// Reconverged with a genuinely maximal best genome.
    Recovered,
    /// The fitness register claims convergence but the stored genome does
    /// not re-score maximal (best-register corruption).
    Corrupted,
    /// Never reconverged within the generation budget.
    PermanentFailure,
}

impl LaneOutcome {
    /// Stable identifier used in telemetry events.
    pub const fn name(self) -> &'static str {
        match self {
            LaneOutcome::Recovered => "recovered",
            LaneOutcome::Corrupted => "corrupted",
            LaneOutcome::PermanentFailure => "permanent_failure",
        }
    }
}

/// One lane's campaign result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneReport {
    /// The lane's trial seed.
    pub seed: u32,
    /// Oracle classification.
    pub outcome: LaneOutcome,
    /// Generations the faulted run executed.
    pub generations: u64,
    /// System cycles the faulted run executed.
    pub cycles: u64,
    /// Generations the fault-free twin needed (`None` if the twin itself
    /// failed to converge in budget).
    pub clean_generations: Option<u64>,
    /// Convergence-cost delta, faulted − clean generations (recovered
    /// lanes with a converged twin only).
    pub cost_delta: Option<i64>,
    /// Faults injected into this lane (dwell window included).
    pub injected: u64,
    /// Injection ticks the converged best register stayed genuinely
    /// maximal during the dwell window (the full window if it survived).
    pub dwell_ticks: u64,
}

/// The whole campaign's result: per-lane reports plus optional traces.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Engine the campaign ran on (`"rtl_scalar"` / `"rtl_x64"`).
    pub engine: &'static str,
    /// The fault model injected.
    pub model: FaultModel,
    /// Faults per generation per lane.
    pub rate: f64,
    /// Generation budget per lane.
    pub max_generations: u64,
    /// Per-lane results, in seed order.
    pub lanes: Vec<LaneReport>,
    /// Per-lane per-tick best-fitness traces, when recorded.
    pub traces: Option<Vec<Vec<u32>>>,
}

impl CampaignReport {
    /// Lanes that recovered.
    pub fn recovered(&self) -> usize {
        self.count(LaneOutcome::Recovered)
    }

    /// Lanes flagged as silently corrupted.
    pub fn corrupted(&self) -> usize {
        self.count(LaneOutcome::Corrupted)
    }

    /// Lanes that never reconverged (the permanent-failure count).
    pub fn permanent_failures(&self) -> usize {
        self.count(LaneOutcome::PermanentFailure)
    }

    fn count(&self, outcome: LaneOutcome) -> usize {
        self.lanes.iter().filter(|l| l.outcome == outcome).count()
    }

    /// Mean convergence-cost delta over recovered lanes with a converged
    /// twin (`None` when no lane qualifies).
    pub fn mean_cost_delta(&self) -> Option<f64> {
        let deltas: Vec<i64> = self.lanes.iter().filter_map(|l| l.cost_delta).collect();
        if deltas.is_empty() {
            return None;
        }
        Some(deltas.iter().sum::<i64>() as f64 / deltas.len() as f64)
    }

    /// The differential recovery oracle. Checks that every lane is
    /// exactly one of recovered / corrupted / permanent failure, that
    /// corruption only occurs for the one model that can reach the best
    /// register, and that a rate-0.0 campaign is bit-exact with its
    /// fault-free twin.
    pub fn verify(&self) -> Result<(), String> {
        for (l, lane) in self.lanes.iter().enumerate() {
            match lane.outcome {
                LaneOutcome::Recovered => {
                    if lane.clean_generations.is_some() && lane.cost_delta.is_none() {
                        return Err(format!(
                            "lane {l}: recovered with a converged twin but no cost delta"
                        ));
                    }
                }
                LaneOutcome::Corrupted => {
                    if self.model != FaultModel::GenomeRegFlip {
                        return Err(format!(
                            "lane {l}: {} cannot corrupt the best register, yet the \
                             oracle saw a maximal fitness register over a non-maximal genome",
                            self.model
                        ));
                    }
                }
                LaneOutcome::PermanentFailure => {
                    if lane.generations < self.max_generations {
                        return Err(format!(
                            "lane {l}: flagged permanent at generation {} of {}",
                            lane.generations, self.max_generations
                        ));
                    }
                }
            }
            if self.rate == 0.0 {
                if lane.injected != 0 {
                    return Err(format!("lane {l}: rate-0 campaign injected faults"));
                }
                let clean = lane.clean_generations;
                let faulted_converged = lane.outcome != LaneOutcome::PermanentFailure;
                if faulted_converged != clean.is_some()
                    || clean.is_some_and(|c| c != lane.generations)
                {
                    return Err(format!(
                        "lane {l}: rate-0 campaign diverged from the fault-free twin \
                         ({:?} vs clean {clean:?})",
                        lane.generations
                    ));
                }
            }
        }
        Ok(())
    }

    /// The cross-engine half of the oracle: the same campaign run on the
    /// other engine must agree on every per-lane result (and on the full
    /// best-fitness traces when both recorded them).
    pub fn agrees_with(&self, other: &CampaignReport) -> Result<(), String> {
        if self.model != other.model || self.rate != other.rate {
            return Err("comparing different campaigns".to_string());
        }
        if self.lanes.len() != other.lanes.len() {
            return Err(format!(
                "lane counts differ: {} vs {}",
                self.lanes.len(),
                other.lanes.len()
            ));
        }
        for (l, (a, b)) in self.lanes.iter().zip(&other.lanes).enumerate() {
            if a != b {
                return Err(format!(
                    "lane {l} diverged between {} and {}:\n  {a:?}\n  {b:?}",
                    self.engine, other.engine
                ));
            }
        }
        if let (Some(ta), Some(tb)) = (&self.traces, &other.traces) {
            for (l, (a, b)) in ta.iter().zip(tb).enumerate() {
                if a != b {
                    let t = a.iter().zip(b).position(|(x, y)| x != y);
                    return Err(format!(
                        "lane {l} best-fitness trace diverged at tick {t:?} \
                         between {} and {}",
                        self.engine, other.engine
                    ));
                }
            }
        }
        Ok(())
    }

    /// The campaign's row for the `campaigns` table of a
    /// [`leonardo_telemetry::RunManifest`].
    pub fn manifest_row(&self) -> Json {
        let mut row = vec![
            ("model", Json::Str(self.model.name().to_string())),
            ("engine", Json::Str(self.engine.to_string())),
            ("rate", Json::Num(self.rate)),
            ("lanes", Json::Num(self.lanes.len() as f64)),
            ("recovered", Json::Num(self.recovered() as f64)),
            ("corrupted", Json::Num(self.corrupted() as f64)),
            (
                "permanent_failures",
                Json::Num(self.permanent_failures() as f64),
            ),
        ];
        if let Some(delta) = self.mean_cost_delta() {
            row.push(("mean_cost_delta", Json::Num(delta)));
        }
        Json::obj(row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeds(n: usize) -> Vec<u32> {
        (0..n as u32).map(|i| 0x1000 + 7 * i).collect()
    }

    #[test]
    fn rate_zero_campaign_is_bit_exact_with_fault_free_twin() {
        let s = seeds(8);
        let report = Campaign::new(FaultModel::PopulationFlip, 0.0)
            .with_max_generations(20_000)
            .run_x64(&s);
        report.verify().expect("oracle");
        assert_eq!(report.permanent_failures(), 0);
        assert_eq!(report.corrupted(), 0);
        for lane in &report.lanes {
            assert_eq!(lane.cost_delta, Some(0));
            assert_eq!(lane.injected, 0);
        }
    }

    #[test]
    fn population_flips_at_mutation_pressure_recover() {
        let s = seeds(8);
        let report = Campaign::new(FaultModel::PopulationFlip, 5.0)
            .with_max_generations(50_000)
            .run_x64(&s);
        report.verify().expect("oracle");
        assert_eq!(
            report.recovered(),
            s.len(),
            "moderate upset rates are absorbed as extra mutation"
        );
        assert!(report.mean_cost_delta().is_some());
    }

    #[test]
    fn genome_register_flips_are_flagged_not_missed() {
        // Bombard the best register hard: every lane must end as either
        // recovered (a later scan re-latched a genuine maximum) or
        // corrupted — never silently trusted.
        let s = seeds(8);
        let report = Campaign::new(FaultModel::GenomeRegFlip, 5.0)
            .with_max_generations(20_000)
            .with_dwell_window(64)
            .run_x64(&s);
        report.verify().expect("oracle");
        let flagged: usize = report.corrupted()
            + report
                .lanes
                .iter()
                .filter(|l| l.dwell_ticks < 64 && l.outcome == LaneOutcome::Recovered)
                .count();
        // with 5 flips/generation into 36 bits, some lane must get hit
        // after convergence
        assert!(
            flagged > 0 || report.permanent_failures() > 0,
            "sustained register bombardment left every lane pristine"
        );
    }

    #[test]
    fn dwell_window_survives_models_that_cannot_reach_the_register() {
        let s = seeds(4);
        let report = Campaign::new(FaultModel::PopulationFlip, 5.0)
            .with_max_generations(50_000)
            .with_dwell_window(32)
            .run_x64(&s);
        report.verify().expect("oracle");
        for lane in &report.lanes {
            if lane.outcome == LaneOutcome::Recovered {
                assert_eq!(
                    lane.dwell_ticks, 32,
                    "population faults cannot corrupt the best register"
                );
            }
        }
    }

    #[test]
    fn manifest_row_summarises_the_report() {
        let s = seeds(4);
        let report = Campaign::new(FaultModel::PopulationFlip, 1.0)
            .with_max_generations(50_000)
            .run_x64(&s);
        let row = report.manifest_row();
        let uint = |k: &str| row.get(k).and_then(Json::as_u64).expect(k);
        assert_eq!(
            row.get("model").and_then(Json::as_str),
            Some("population_flip")
        );
        assert_eq!(row.get("engine").and_then(Json::as_str), Some("rtl_x64"));
        assert_eq!(uint("lanes"), 4);
        assert_eq!(
            uint("recovered") + uint("corrupted") + uint("permanent_failures"),
            uint("lanes")
        );
    }
}
