//! Sharded conformance-product equivalence on the large benchmark set:
//! exploring the spec×circuit product with 2/4/8 explorer shards must
//! return the **same report** as one shard — verdict, failures, state
//! count and counterexample trace — and every failing report must carry
//! a **valid witness**: a firing sequence that replays, under the product
//! semantics (fire the STG transition, toggle the signal's wire), from
//! the initial product state without ever stepping through a disabled
//! transition.
//!
//! Each member is exercised both with its (conformant) synthesized
//! circuit and with a sabotaged one whose first implementation is stuck
//! excited, so both verdict polarities cross the sharded path.

use proptest::prelude::*;
use si_bench::large_set;
use si_core::{synthesize, Circuit, Engine, SynthesisOptions};
use si_stg::Stg;
use si_verify::{ConformanceReport, EngineVerify};
use std::sync::OnceLock;

struct Member {
    stg: Stg,
    good: Circuit,
    bad: Circuit,
}

/// The large set with one synthesized and one sabotaged circuit each,
/// computed once per process (synthesis dominates the test's cost).
fn members() -> &'static [Member] {
    static MEMBERS: OnceLock<Vec<Member>> = OnceLock::new();
    MEMBERS.get_or_init(|| {
        large_set()
            .into_iter()
            .filter_map(|stg| {
                let syn = synthesize(&stg, &SynthesisOptions::default()).ok()?;
                let mut bad = syn.circuit.clone();
                bad.implementations[0].kind = si_core::ImplKind::Combinational {
                    cover: si_boolean::Cover::universe(stg.signal_count()),
                    inverted: false,
                };
                Some(Member {
                    stg,
                    good: syn.circuit,
                    bad,
                })
            })
            .collect()
    })
}

/// Replays a conformance counterexample under the product semantics and
/// asserts every step is a live firing.
fn assert_witness_replays(stg: &Stg, report: &ConformanceReport, label: &str) {
    if report.is_ok() {
        assert!(report.trace.is_none(), "{label}: spurious trace");
        return;
    }
    let trace = report
        .trace
        .as_ref()
        .unwrap_or_else(|| panic!("{label}: failing report without a trace"));
    let net = stg.net();
    let mut m = net.initial_marking();
    for &t in trace {
        assert!(net.is_enabled(&m, t), "{label}: dead witness step {t}");
        m = net.fire(&m, t);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn sharded_product_matches_sequential(
        idx in 0usize..32,
        shards in prop_oneof![Just(2usize), Just(4usize), Just(8usize)],
        sabotage in prop_oneof![Just(false), Just(true)],
    ) {
        let ms = members();
        let m = &ms[idx % ms.len()];
        let circuit = if sabotage { &m.bad } else { &m.good };
        let cap = 2_000_000;
        let seq = Engine::new(&m.stg).cap(cap).check_conformance(circuit).unwrap();
        let par = Engine::new(&m.stg)
            .cap(cap)
            .shards(shards)
            .check_conformance(circuit)
            .unwrap();
        prop_assert!(
            seq.is_conclusive() && par.is_conclusive(),
            "{}: the 2M cap must cover the whole product",
            m.stg.name()
        );
        prop_assert_eq!(
            seq.is_ok(),
            par.is_ok(),
            "{} ({} shards, sabotage={}): verdicts diverge",
            m.stg.name(),
            shards,
            sabotage
        );
        prop_assert_eq!(seq.states_explored, par.states_explored);
        prop_assert_eq!(&seq.failures, &par.failures);
        prop_assert_eq!(&seq.trace, &par.trace);
        assert_witness_replays(&m.stg, &seq, m.stg.name());
        assert_witness_replays(&m.stg, &par, m.stg.name());
    }
}
