//! Sanity and scaling of the generated workloads (Tables VI/VII inputs).

use sisyn::prelude::*;
use sisyn::stg::generators;

#[test]
fn clatch_structural_synthesis_scales_far_beyond_the_oracle() {
    // n = 40 → 2^41 ≈ 2.2e12 markings. Structural synthesis must succeed.
    let stg = generators::clatch(40);
    let syn = synthesize(&stg, &SynthesisOptions::default()).unwrap();
    // z = C(x0..x39): set = all inputs high, reset = all low.
    let imp = &syn.results[0].implementation;
    let (set, reset) = match &imp.kind {
        ImplKind::GcLatch { set, reset } => (set.clone(), reset.clone()),
        ImplKind::CLatch { set, reset } => (set[0].clone(), reset[0].clone()),
        other => panic!("unexpected {other:?}"),
    };
    assert_eq!(set.literal_count(), 40);
    assert_eq!(reset.literal_count(), 40);
}

#[test]
fn philosophers_synthesize_without_free_choice() {
    let stg = generators::philosophers(4);
    assert!(!stg.net().is_free_choice());
    let syn = synthesize(&stg, &SynthesisOptions::default()).unwrap();
    assert_eq!(syn.results.len(), 4); // one done_i per philosopher
    assert!(Engine::new(&stg).verify(&syn.circuit).unwrap().is_ok());
}

#[test]
fn muller_pipeline_synthesizes_and_verifies() {
    for n in [2usize, 4, 6] {
        let stg = generators::muller_pipeline(n);
        let syn = synthesize(&stg, &SynthesisOptions::default()).unwrap();
        assert_eq!(syn.results.len(), n);
        let report = Engine::new(&stg).verify(&syn.circuit).unwrap();
        assert!(report.is_ok(), "muller({n}): {:?}", &report.violations[..1]);
    }
}

#[test]
fn generator_families_grow_linearly_in_stg_size() {
    for n in [2usize, 4, 8] {
        let a = generators::burst(n);
        let b = generators::burst(2 * n);
        assert!(b.net().place_count() <= 2 * a.net().place_count() + 8);
        assert!(b.net().transition_count() <= 2 * a.net().transition_count() + 8);
    }
}

#[test]
fn selector_and_sequencer_synthesize() {
    for stg in [generators::selector(4), generators::sequencer(4)] {
        let syn = synthesize(&stg, &SynthesisOptions::default()).unwrap();
        assert!(
            Engine::new(&stg).verify(&syn.circuit).unwrap().is_ok(),
            "{}",
            stg.name()
        );
    }
}
