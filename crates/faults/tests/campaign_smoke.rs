//! The CI `fault-smoke` mini-campaign: 4 lanes, 2 fault models, both
//! engines, oracle-verified and cross-engine checked. Small enough for
//! every push, real enough to exercise the full campaign path —
//! injection scheduling, lane freezing, the fault-free twin, outcome
//! classification and scalar↔X64 agreement.

use leonardo_faults::{Campaign, FaultModel};
use leonardo_telemetry::json::Json;

const SMOKE_MODELS: [FaultModel; 2] = [FaultModel::PopulationFlip, FaultModel::RngUpset];
const MAX_GENS: u64 = 30_000;

fn seeds() -> Vec<u32> {
    (0..4u32).map(|i| 0x3000 + 13 * i).collect()
}

#[test]
fn mini_campaign_passes_the_oracle_on_both_engines() {
    for model in SMOKE_MODELS {
        let campaign = Campaign::new(model, 1.0)
            .with_max_generations(MAX_GENS)
            .with_dwell_window(8)
            .recording();
        let x64 = campaign.run_x64(&seeds());
        let scalar = campaign.run_scalar(&seeds());

        x64.verify()
            .unwrap_or_else(|e| panic!("{model} x64 oracle: {e}"));
        scalar
            .verify()
            .unwrap_or_else(|e| panic!("{model} scalar oracle: {e}"));
        x64.agrees_with(&scalar)
            .unwrap_or_else(|e| panic!("{model} cross-engine: {e}"));

        assert_eq!(
            x64.recovered() + x64.corrupted() + x64.permanent_failures(),
            seeds().len(),
            "{model}: every lane classified"
        );
        // neither smoke model can reach the best-genome register
        assert_eq!(x64.corrupted(), 0, "{model} cannot corrupt the register");
    }
}

#[test]
fn manifest_rows_from_the_smoke_campaign_are_consistent() {
    let report = Campaign::new(FaultModel::PopulationFlip, 1.0)
        .with_max_generations(MAX_GENS)
        .run_x64(&seeds());
    report.verify().expect("oracle");
    let row = report.manifest_row();
    let uint = |k: &str| row.get(k).and_then(Json::as_u64).expect(k);
    assert_eq!(row.get("engine").and_then(Json::as_str), Some("rtl_x64"));
    assert_eq!(
        row.get("model").and_then(Json::as_str),
        Some("population_flip")
    );
    assert_eq!(uint("lanes") as usize, seeds().len());
    assert_eq!(
        uint("recovered") + uint("corrupted") + uint("permanent_failures"),
        uint("lanes")
    );
}
