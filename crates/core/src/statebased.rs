//! State-based baseline synthesis (§IX-B/C comparators).
//!
//! This is the conventional flow of SIS / ASSASSIN / SYN / FORCAGE that the
//! paper measures against: build the **entire reachability graph**, extract
//! exact regions and next-state functions from the binary codes, and run
//! two-level minimization on explicit minterm sets. Functionally it produces
//! the same class of circuits as the structural flow; computationally it
//! pays the state-explosion price — which is exactly what Tables VI/VII
//! quantify.

use crate::circuit::{Circuit, ImplKind, SignalImplementation};
use si_boolean::{Bits, Cover, Cube, Minimizer, MinimizerChoice};
use si_petri::{ReachError, ReachabilityGraph};
use si_stg::{
    codes_of, CodingAnalysis, EncodingError, SignalId, SignalRegions, StateEncoding, Stg,
};

/// Which historical tool family the baseline mimics.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum BaselineFlavor {
    /// One complex gate per signal from the exact next-state function
    /// (SIS-style, no architectural constraints beyond eq. 1).
    ComplexGateExact,
    /// Set/reset covers for a C-latch, minimized against the exact region
    /// codes with the monotonicity filter (SYN / FORCAGE style).
    ExcitationExact,
}

/// Why the baseline failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BaselineError {
    /// The reachability graph exploded past the cap — the regime where
    /// only the structural flow survives.
    StateExplosion(ReachError),
    /// The STG is behaviourally inconsistent.
    Inconsistent(EncodingError),
    /// A CSC conflict makes the next-state functions ill-defined.
    CscConflict,
}

impl std::fmt::Display for BaselineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BaselineError::StateExplosion(e) => write!(f, "state-based flow failed: {e}"),
            BaselineError::Inconsistent(e) => write!(f, "inconsistent STG: {e}"),
            BaselineError::CscConflict => write!(f, "CSC conflict"),
        }
    }
}

impl std::error::Error for BaselineError {}

/// Result of a baseline run.
#[derive(Clone, Debug)]
pub struct BaselineSynthesis {
    /// The synthesized circuit.
    pub circuit: Circuit,
    /// Area in the same normalized literal units as the structural flow.
    pub literal_area: usize,
    /// Number of reachable markings that had to be enumerated.
    pub states: usize,
}

fn minterms(codes: &[Bits]) -> Vec<Cube> {
    codes.iter().map(Cube::from_vertex).collect()
}

/// The baseline over a **prebuilt** reachability graph and state encoding
/// — the form [`crate::Engine::synthesize_state_based`] calls over its
/// artifact cache, so a baseline-then-verify pipeline computes both
/// exactly once — with an explicit two-level minimizer backend for the
/// exact region covers.
///
/// # Errors
///
/// [`BaselineError::CscConflict`]; state explosion and inconsistency
/// cannot occur here (the caller already built the graph and the
/// encoding).
pub(crate) fn synthesize_state_based_on(
    stg: &Stg,
    flavor: BaselineFlavor,
    rg: &ReachabilityGraph,
    enc: &StateEncoding,
    minimizer: MinimizerChoice,
) -> Result<BaselineSynthesis, BaselineError> {
    let backend = minimizer.backend();
    let coding = CodingAnalysis::compute(stg, rg, enc);
    if !coding.has_csc() {
        return Err(BaselineError::CscConflict);
    }
    let nsig = stg.signal_count();
    let mut implementations = Vec::new();

    for signal in stg.synthesized_signals() {
        let regions = SignalRegions::compute(stg, rg, signal);
        let ger_rise = codes_of(enc, &regions.ger_rise);
        let ger_fall = codes_of(enc, &regions.ger_fall);
        let gqr_one = codes_of(enc, &regions.gqr_one);
        let gqr_zero = codes_of(enc, &regions.gqr_zero);

        let kind = match flavor {
            BaselineFlavor::ComplexGateExact => {
                let mut on: Vec<Bits> = ger_rise.clone();
                on.extend(gqr_one.iter().cloned());
                let mut off: Vec<Bits> = ger_fall.clone();
                off.extend(gqr_zero.iter().cloned());
                let on_cover = Cover::from_cubes(nsig, minterms(&on));
                let off_cover = Cover::from_cubes(nsig, minterms(&off));
                let min = crate::synthesis::observed_minimize(
                    backend,
                    &on_cover,
                    &Cover::empty(nsig),
                    &off_cover,
                )
                .cover;
                ImplKind::Combinational {
                    cover: min,
                    inverted: false,
                }
            }
            BaselineFlavor::ExcitationExact => {
                let set = region_cover(
                    stg, rg, enc, signal, backend, &ger_rise, &ger_fall, &gqr_zero, true,
                );
                let reset = region_cover(
                    stg, rg, enc, signal, backend, &ger_fall, &ger_rise, &gqr_one, false,
                );
                // Complete-cover detection was standard practice in the
                // era tools (Appendix B cites [5]): when the set cover
                // already contains all quiescent-one codes the latch is
                // dropped.
                let covers_all =
                    |cover: &Cover, codes: &[Bits]| codes.iter().all(|c| cover.contains_vertex(c));
                if covers_all(&set, &gqr_one) {
                    ImplKind::Combinational {
                        cover: set,
                        inverted: false,
                    }
                } else if covers_all(&reset, &gqr_zero) {
                    ImplKind::Combinational {
                        cover: reset,
                        inverted: true,
                    }
                } else {
                    ImplKind::CLatch {
                        set: vec![set],
                        reset: vec![reset],
                    }
                }
            }
        };
        implementations.push(SignalImplementation { signal, kind });
    }

    let circuit = Circuit { implementations };
    Ok(BaselineSynthesis {
        literal_area: circuit.literal_area(),
        circuit,
        states: rg.state_count(),
    })
}

/// Exact set/reset cover: minterms of the own GER expanded against the
/// exact off codes, then filtered to stay monotonic on the RG edges
/// (Property 1 — the state-based analog of the paper's Property 16).
#[allow(clippy::too_many_arguments)]
fn region_cover(
    stg: &Stg,
    rg: &ReachabilityGraph,
    enc: &StateEncoding,
    signal: SignalId,
    backend: &dyn Minimizer,
    own_ger: &[Bits],
    opp_ger: &[Bits],
    opp_gqr: &[Bits],
    is_set: bool,
) -> Cover {
    let nsig = stg.signal_count();
    let mut off: Vec<Bits> = opp_ger.to_vec();
    off.extend(opp_gqr.iter().cloned());
    let off_cover = Cover::from_cubes(nsig, minterms(&off));
    let on_cover = Cover::from_cubes(nsig, minterms(own_ger));
    let mut cover =
        crate::synthesis::observed_minimize(backend, &on_cover, &Cover::empty(nsig), &off_cover)
            .cover;

    // Monotonicity filter: while some RG edge shows a re-rise (signal high,
    // cover 0→1 for set; low for reset) or a pre-excitation fall, shrink
    // the cover by cutting the offending target minterm out of the cube.
    loop {
        let mut offending: Option<Bits> = None;
        'scan: for s in rg.states() {
            for &(_, d) in rg.successors(s) {
                let (vs, vd) = (enc.value(s, signal), enc.value(d, signal));
                let phase = if is_set { vs && vd } else { !vs && !vd };
                if phase
                    && !cover.contains_vertex(enc.code(s))
                    && cover.contains_vertex(enc.code(d))
                {
                    offending = Some(enc.code(d).clone());
                    break 'scan;
                }
                let pre_phase = if is_set { !vs && !vd } else { vs && vd };
                if pre_phase
                    && cover.contains_vertex(enc.code(s))
                    && !cover.contains_vertex(enc.code(d))
                {
                    offending = Some(enc.code(s).clone());
                    break 'scan;
                }
            }
        }
        let Some(bad) = offending else { break };
        let bad_cube = Cube::from_vertex(&bad);
        cover = cover.sharp(&Cover::from_cube(bad_cube));
        // Never cut the mandatory excitation codes.
        debug_assert!(own_ger.iter().all(|c| {
            cover.contains_vertex(c) || {
                // re-add if a mandatory code was cut (cannot happen: GER
                // codes are never monotonicity offenders)
                false
            }
        }));
    }
    cover
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use si_stg::benchmarks;

    fn synthesize_state_based(
        stg: &Stg,
        flavor: BaselineFlavor,
        cap: usize,
    ) -> Result<BaselineSynthesis, BaselineError> {
        Engine::new(stg).cap(cap).synthesize_state_based(flavor)
    }

    #[test]
    fn baseline_synthesizes_the_suite() {
        for stg in benchmarks::synthesizable_suite() {
            for flavor in [
                BaselineFlavor::ComplexGateExact,
                BaselineFlavor::ExcitationExact,
            ] {
                let r = synthesize_state_based(&stg, flavor, 1_000_000);
                assert!(r.is_ok(), "{} {flavor:?}: {:?}", stg.name(), r.err());
                let syn = r.unwrap();
                assert!(syn.literal_area > 0);
                assert!(syn.states > 0);
            }
        }
    }

    #[test]
    fn state_explosion_reported() {
        let stg = si_stg::generators::clatch(12); // 2^13 states
        let err = synthesize_state_based(&stg, BaselineFlavor::ComplexGateExact, 1000).unwrap_err();
        assert!(matches!(err, BaselineError::StateExplosion(_)));
    }

    #[test]
    fn csc_conflict_rejected() {
        let stg = benchmarks::vme_read_raw();
        let err =
            synthesize_state_based(&stg, BaselineFlavor::ComplexGateExact, 100_000).unwrap_err();
        assert_eq!(err, BaselineError::CscConflict);
    }

    #[test]
    fn clatch_baseline_matches_structural_shape() {
        let stg = si_stg::generators::clatch(2);
        let syn = synthesize_state_based(&stg, BaselineFlavor::ExcitationExact, 100_000).unwrap();
        match &syn.circuit.implementations[0].kind {
            ImplKind::CLatch { set, reset } => {
                // exact covers of the C-element: x0·x1 and x0'·x1'
                assert_eq!(set[0].literal_count(), 2);
                assert_eq!(reset[0].literal_count(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
