//! Every run manifest committed to the repo reads back through
//! `RunManifest::read`, with the table row counts it was written with.
//!
//! The corpus spans schema v1–v7. Files from v4 on carry every field the
//! current writer emits, so re-rendering them must reproduce the file
//! byte for byte; v1–v3 files gain the defaulted `host_cores` and
//! `plane_width` fields on re-render, so they are checked for parse and
//! row counts only.

use leonardo_telemetry::RunManifest;

/// Row counts of the five manifest tables, in on-disk order.
fn table_counts(m: &RunManifest) -> [usize; 5] {
    ["campaigns", "landscape", "server", "pareto", "problems"].map(|t| m.rows(t).len())
}

#[test]
fn committed_manifests_parse_and_v4_onwards_re_render_byte_identically() {
    // (file, schema version, [campaigns, landscape, server, pareto, problems])
    let corpus: [(&str, u64, [usize; 5]); 9] = [
        ("results/e1_convergence.manifest.json", 1, [0, 0, 0, 0, 0]),
        ("results/e8_rng.manifest.json", 1, [0, 0, 0, 0, 0]),
        ("results/e13_seu.manifest.json", 2, [6, 0, 0, 0, 0]),
        (
            "results/e14_fault_matrix.manifest.json",
            2,
            [20, 0, 0, 0, 0],
        ),
        ("results/e15_landscape.manifest.json", 3, [0, 1, 0, 0, 0]),
        ("BENCH_PR7.json.manifest.json", 4, [0, 0, 0, 0, 0]),
        ("results/bench_pr8_manifest.json", 5, [0, 0, 3, 0, 0]),
        ("results/e16_pareto.manifest.json", 6, [0, 0, 0, 4, 0]),
        ("results/e17_fsm.manifest.json", 7, [0, 3, 0, 0, 12]),
    ];
    let root = env!("CARGO_MANIFEST_DIR");
    let mut committed: Vec<String> = std::fs::read_dir(format!("{root}/results"))
        .expect("results/ is committed")
        .map(|e| e.expect("dir entry").file_name().into_string().unwrap())
        .filter(|name| name.ends_with("manifest.json"))
        .map(|name| format!("results/{name}"))
        .collect();
    committed.push("BENCH_PR7.json.manifest.json".to_string());
    committed.sort();
    let mut listed: Vec<String> = corpus.iter().map(|c| c.0.to_string()).collect();
    listed.sort();
    assert_eq!(
        committed, listed,
        "every committed manifest is in the corpus"
    );

    for (file, version, counts) in corpus {
        let path = format!("{root}/{file}");
        let m = RunManifest::read(&path).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert_eq!(m.schema_version, version, "{file}");
        assert_eq!(table_counts(&m), counts, "{file}");
        if version >= 4 {
            let text = std::fs::read_to_string(&path).expect("readable");
            assert_eq!(format!("{}\n", m.to_json()), text, "{file} re-renders");
        }
    }
}
