//! Cross-crate property tests: random free-choice STGs keep every layer of
//! the flow honest.

use proptest::prelude::*;
use sisyn::prelude::*;
use sisyn::stg::{Direction, SignalKind, Stg};

/// Builds a random live/safe/consistent free-choice STG: a ring of
/// handshakes with optional parallel sections.
fn build_random_stg(shape: &[u8]) -> Stg {
    let mut b = Stg::builder("random");
    let n = shape.len().max(1);
    let mut prev: Option<si_petri::TransId> = None;
    let mut first = None;
    for (i, &kind) in shape.iter().enumerate().take(n) {
        let r = b.add_signal(format!("r{i}"), SignalKind::Input);
        let a = b.add_signal(format!("a{i}"), SignalKind::Output);
        let rp = b.add_transition(r, Direction::Rise);
        let ap = b.add_transition(a, Direction::Rise);
        let rm = b.add_transition(r, Direction::Fall);
        let am = b.add_transition(a, Direction::Fall);
        match kind % 3 {
            0 => {
                // sequential handshake
                b.arc(rp, ap);
                b.arc(ap, rm);
                b.arc(rm, am);
            }
            1 => {
                // output concurrent with the release
                b.arc(rp, ap);
                b.arc(rp, rm); // hmm? r+ then r- direct, a+ in parallel
                b.arc(ap, am);
                b.arc(rm, am);
            }
            _ => {
                // four-phase with early acknowledge
                b.arc(rp, ap);
                b.arc(ap, rm);
                b.arc(rm, am);
            }
        }
        if let Some(p) = prev {
            b.arc(p, rp);
        } else {
            first = Some(rp);
        }
        prev = Some(am);
    }
    let p0 = b.arc(prev.unwrap(), first.unwrap());
    b.mark_place(p0);
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_stgs_synthesize_and_verify(shape in proptest::collection::vec(0u8..3, 1..4)) {
        let stg = build_random_stg(&shape);
        let rg = ReachabilityGraph::build(stg.net(), 100_000).expect("safe");
        prop_assume!(sisyn::stg::StateEncoding::compute(&stg, &rg).is_ok());
        let syn = match synthesize(&stg, &SynthesisOptions::default()) {
            Ok(s) => s,
            Err(sisyn::core::SynthesisError::CscViolationPossible { .. }) => return Ok(()),
            Err(e) => panic!("unexpected synthesis failure: {e}"),
        };
        let report = Engine::new(&stg).verify(&syn.circuit).unwrap();
        prop_assert!(report.is_ok(), "{:?}", &report.violations[..report.violations.len().min(2)]);
    }

    #[test]
    fn structural_never_beats_oracle_on_csc(shape in proptest::collection::vec(0u8..3, 1..4)) {
        // If the structural verdict accepts, the oracle must agree.
        let stg = build_random_stg(&shape);
        let rg = ReachabilityGraph::build(stg.net(), 100_000).expect("safe");
        prop_assume!(sisyn::stg::StateEncoding::compute(&stg, &rg).is_ok());
        let enc = sisyn::stg::StateEncoding::compute(&stg, &rg).unwrap();
        let coding = sisyn::stg::CodingAnalysis::compute(&stg, &rg, &enc);
        let ctx = StructuralContext::build(&stg).unwrap();
        if !matches!(ctx.csc_verdict(), CscVerdict::Unknown { .. }) {
            prop_assert!(coding.has_csc(), "structural CSC accepted a violating STG");
        }
    }

    #[test]
    fn minimization_stages_monotone(shape in proptest::collection::vec(0u8..3, 1..3)) {
        let stg = build_random_stg(&shape);
        let mut prev = usize::MAX;
        for n in 0..=4 {
            let opts = SynthesisOptions {
                architecture: Architecture::PerRegion,
                stages: MinimizeStages::stage(n),
                ..Default::default()
            };
            match synthesize(&stg, &opts) {
                Ok(s) => {
                    prop_assert!(s.literal_area <= prev);
                    prev = s.literal_area;
                }
                Err(sisyn::core::SynthesisError::CscViolationPossible { .. }) => return Ok(()),
                Err(e) => panic!("unexpected: {e}"),
            }
        }
    }
}
