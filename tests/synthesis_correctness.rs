//! End-to-end synthesis correctness: every benchmark, every architecture,
//! every minimization stage — the resulting circuit is functionally
//! correct, monotonic and conformant (hazard-free) against ground truth,
//! for both the structural flow and the state-based baseline.

use sisyn::prelude::*;
use sisyn::stg::benchmarks;

#[test]
fn structural_flow_verifies_everywhere() {
    for stg in benchmarks::synthesizable_suite() {
        for arch in [
            Architecture::ComplexGate,
            Architecture::ExcitationFunction,
            Architecture::PerRegion,
        ] {
            for stage in 0..=4 {
                let opts = SynthesisOptions {
                    architecture: arch,
                    stages: MinimizeStages::stage(stage),
                    ..Default::default()
                };
                let syn = synthesize(&stg, &opts)
                    .unwrap_or_else(|e| panic!("{} {arch:?} M{stage}: {e}", stg.name()));
                let report = Engine::new(&stg).verify(&syn.circuit).unwrap();
                assert!(
                    report.is_ok(),
                    "{} {arch:?} M{stage}: {:?}",
                    stg.name(),
                    &report.violations[..report.violations.len().min(3)]
                );
            }
        }
    }
}

#[test]
fn structural_flow_is_conformant() {
    for stg in benchmarks::synthesizable_suite() {
        let engine = Engine::new(&stg).cap(2_000_000);
        let syn = engine.synthesize().unwrap();
        let conform = engine.check_conformance(&syn.circuit).unwrap();
        assert!(
            conform.is_ok(),
            "{}: {:?}",
            stg.name(),
            &conform.failures[..conform.failures.len().min(3)]
        );
    }
}

#[test]
fn baseline_flow_verifies_everywhere() {
    for stg in benchmarks::synthesizable_suite() {
        let engine = Engine::new(&stg).cap(1_000_000);
        for flavor in [
            BaselineFlavor::ComplexGateExact,
            BaselineFlavor::ExcitationExact,
        ] {
            let syn = engine
                .synthesize_state_based(flavor)
                .unwrap_or_else(|e| panic!("{} {flavor:?}: {e}", stg.name()));
            let report = engine.verify(&syn.circuit).unwrap();
            assert!(
                report.is_ok(),
                "{} {flavor:?}: {:?}",
                stg.name(),
                &report.violations[..report.violations.len().min(3)]
            );
        }
    }
}

#[test]
fn structural_area_is_competitive_with_baseline() {
    // The paper's claim (Table V): structural approximations do not hurt
    // quality. Allow a small slack per benchmark, require parity on totals.
    let mut structural_total = 0usize;
    let mut baseline_total = 0usize;
    for stg in benchmarks::synthesizable_suite() {
        let s = synthesize(&stg, &SynthesisOptions::default()).unwrap();
        let b = Engine::new(&stg)
            .cap(1_000_000)
            .synthesize_state_based(BaselineFlavor::ExcitationExact)
            .unwrap();
        structural_total += s.literal_area;
        baseline_total += b.literal_area;
    }
    assert!(
        structural_total <= baseline_total,
        "structural {structural_total} must not exceed baseline {baseline_total} in total"
    );
}

#[test]
fn mapped_area_correlates_with_literal_area() {
    let mut total_lit = 0usize;
    let mut total_mapped = 0usize;
    for stg in benchmarks::synthesizable_suite() {
        let syn = synthesize(&stg, &SynthesisOptions::default()).unwrap();
        let mapped = map_circuit(&syn.circuit);
        // A signal implemented as a bare wire (single literal) maps to zero
        // cells; anything bigger must produce cells.
        let wires_only = syn
            .results
            .iter()
            .all(|r| r.implementation.literal_area() <= 1);
        assert!(mapped.area > 0 || wires_only, "{}", stg.name());
        total_lit += syn.literal_area;
        total_mapped += mapped.area;
    }
    assert!(total_mapped > 0 && total_lit > 0);
}
