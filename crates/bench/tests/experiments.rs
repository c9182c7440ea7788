//! Lint of the checked-in experiment specs under `experiments/`: each
//! one must build into a sweep, declare only comparisons between cells
//! it has, and be named after its file, so a declared experiment cannot
//! rot unbuilt between the runs that regenerate it.

use ccs_bench::sweep;
use std::path::PathBuf;

#[test]
fn every_experiment_spec_builds_and_its_comparisons_resolve() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../experiments");
    let mut specs: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("experiments/ exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    specs.sort();
    assert!(!specs.is_empty(), "no specs in {}", dir.display());

    for path in &specs {
        let text = std::fs::read_to_string(path).expect("spec readable");
        let v: serde_json::Value = serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("{}: not JSON: {e}", path.display()));
        let s = sweep::from_spec(&v).unwrap_or_else(|e| panic!("{}: {e}", path.display()));

        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .expect("utf-8 name");
        assert_eq!(
            s.name,
            stem,
            "{}: name differs from file stem",
            path.display()
        );

        // The checks `Sweep::run` makes before it runs anything: unique
        // cell labels, and every comparison side naming one of them.
        let labels: Vec<String> = s.cells.iter().map(|c| c.label()).collect();
        for (i, l) in labels.iter().enumerate() {
            assert!(
                !labels[..i].contains(l),
                "{stem}: duplicate cell label '{l}'"
            );
        }
        assert!(!s.comparisons.is_empty(), "{stem}: no comparisons");
        for c in &s.comparisons {
            for side in [&c.baseline, &c.treatment] {
                assert!(
                    labels.contains(side),
                    "{stem}: comparison names unknown cell '{side}' (cells: {})",
                    labels.join(", ")
                );
            }
        }
    }
}
