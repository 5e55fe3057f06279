//! The `Engine` session against the free functions that remain beside
//! it: structural synthesis and CSC resolution must be bit-identical
//! across the benchmark suite, conformance keeps its small-cap contract,
//! and the `auto` minimizer must never lose literals to the espresso
//! baseline.

use sisyn::prelude::*;
use sisyn::stg::benchmarks;

#[test]
fn engine_synthesis_bit_identical_to_free_function() {
    for stg in benchmarks::synthesizable_suite() {
        let engine = Engine::new(&stg);
        for arch in [
            Architecture::ComplexGate,
            Architecture::ExcitationFunction,
            Architecture::PerRegion,
        ] {
            let opts = SynthesisOptions {
                architecture: arch,
                ..Default::default()
            };
            let via_engine = engine.synthesize_with(&opts).unwrap();
            let via_free = synthesize(&stg, &opts).unwrap();
            assert_eq!(
                via_engine.circuit,
                via_free.circuit,
                "{} under {arch:?}: engine and free-function circuits differ",
                stg.name()
            );
            assert_eq!(via_engine.literal_area, via_free.literal_area);
            assert_eq!(via_engine.csc, via_free.csc);
        }
    }
}

#[test]
fn engine_conformance_is_inconclusive_when_the_session_cap_is_too_small() {
    // Conformance reads its initial wire values from the session's own
    // state graph: a session cap smaller than the specification's state
    // space gives an inconclusive report with no product state explored
    // (no fallback graph is built outside the session).
    let stg = sisyn::stg::generators::clatch(5); // 64 states
    let syn = Engine::new(&stg).synthesize().unwrap();

    let small = Engine::new(&stg).cap(10);
    let report = small.check_conformance(&syn.circuit).unwrap();
    assert!(report.is_ok() && !report.is_conclusive());
    assert_eq!(
        report.interrupted.map(|i| i.reason),
        Some(InterruptReason::CapExceeded)
    );
    assert_eq!(report.states_explored, 0);
    assert!(small.reachability().is_err());
    assert_eq!(small.reach_build_count(), 0); // failed builds are not counted
}

#[test]
fn engine_resolve_csc_matches_free_function() {
    let raw = benchmarks::vme_read_raw();
    let engine = Engine::new(&raw);
    let (fixed_engine, plan_engine) = engine.resolve_csc(50_000).expect("resolvable");
    let options = CscOptions::default()
        .budget(50_000)
        .reach(engine.reach_options());
    let free = sisyn::csc::resolve(&raw, &options)
        .resolution
        .expect("resolvable");
    assert_eq!(plan_engine, free.plan);
    assert_eq!(fixed_engine.signal_count(), free.stg.signal_count());
    assert_eq!(write_g(&fixed_engine), write_g(&free.stg));
}

#[test]
fn auto_minimizer_never_worse_than_espresso_on_benchmarks() {
    // The acceptance gate: per benchmark and architecture, synthesizing
    // with `auto` never yields more literals than `espresso` (auto keeps
    // the espresso result as its floor per cover).
    for stg in benchmarks::synthesizable_suite() {
        let engine = Engine::new(&stg);
        for arch in [Architecture::ComplexGate, Architecture::ExcitationFunction] {
            let area_of = |minimizer| {
                engine
                    .synthesize_with(&SynthesisOptions {
                        architecture: arch,
                        minimizer,
                        ..Default::default()
                    })
                    .unwrap()
                    .literal_area
            };
            let auto = area_of(MinimizerChoice::Auto);
            let espresso = area_of(MinimizerChoice::Espresso);
            assert!(
                auto <= espresso,
                "{} under {arch:?}: auto {auto} > espresso {espresso}",
                stg.name()
            );
        }
    }
}

#[test]
fn every_minimizer_backend_passes_the_baseline_monotonicity_filter() {
    // The minimizer knob also reaches the state-based baselines, whose
    // region covers pass through the monotonicity shrink loop of
    // `region_cover`; every backend must come out the other side with a
    // verifiably speed-independent circuit under both flavors.
    for stg in benchmarks::synthesizable_suite() {
        for minimizer in MinimizerChoice::ALL {
            let engine = Engine::new(&stg).cap(1_000_000).minimizer(minimizer);
            for flavor in [
                BaselineFlavor::ComplexGateExact,
                BaselineFlavor::ExcitationExact,
            ] {
                let base = engine
                    .synthesize_state_based(flavor)
                    .unwrap_or_else(|e| panic!("{} {flavor:?} {minimizer}: {e}", stg.name()));
                let report = engine.verify(&base.circuit).unwrap();
                assert!(
                    report.is_ok(),
                    "{} {flavor:?} {minimizer}: {:?}",
                    stg.name(),
                    &report.violations[..report.violations.len().min(3)]
                );
            }
        }
    }
}

#[test]
fn every_minimizer_backend_synthesizes_and_verifies_the_suite() {
    // All four backends produce verifiably speed-independent circuits on
    // the complex-gate architecture (the one whose covers they minimize).
    for stg in benchmarks::synthesizable_suite() {
        let engine = Engine::new(&stg);
        for minimizer in MinimizerChoice::ALL {
            let syn = engine
                .synthesize_with(&SynthesisOptions {
                    architecture: Architecture::ComplexGate,
                    minimizer,
                    ..Default::default()
                })
                .unwrap_or_else(|e| panic!("{} with {minimizer}: {e}", stg.name()));
            let report = engine.verify(&syn.circuit).unwrap();
            assert!(
                report.is_ok(),
                "{} with {minimizer}: {:?}",
                stg.name(),
                &report.violations[..report.violations.len().min(3)]
            );
        }
    }
}
