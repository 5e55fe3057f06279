//! Randomized unbounded-delay simulation.
//!
//! [`crate::EngineVerify::check_conformance`] explores the circuit ×
//! environment product exhaustively; this module complements it with long
//! *random walks* under adversarial scheduling — cheap on specifications
//! whose product is too large to exhaust, and a natural fault-injection
//! harness: a sabotaged circuit is expected to fail within a few thousand
//! steps. The walks run as [`crate::EngineVerify::random_walks`].

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use si_boolean::Bits;
use si_core::Circuit;
use si_petri::TransId;
use si_stg::{SignalId, SignalKind, Stg};

/// Outcome of one random walk.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalkOutcome {
    /// Completed all steps without a violation.
    Clean {
        /// Steps actually taken.
        steps: usize,
    },
    /// The circuit excited an output with no matching enabled transition.
    UnexpectedOutput {
        /// The offending signal.
        signal: SignalId,
        /// Step index of the failure.
        step: usize,
    },
    /// A firing removed the excitation of another output.
    DisabledOutput {
        /// The output that lost its excitation.
        signal: SignalId,
        /// Step index of the failure.
        step: usize,
    },
    /// No transition could fire but the specification is not finished —
    /// the composed system deadlocked.
    Deadlock {
        /// Step index of the deadlock.
        step: usize,
    },
}

impl WalkOutcome {
    /// `true` for [`WalkOutcome::Clean`].
    pub fn is_clean(&self) -> bool {
        matches!(self, WalkOutcome::Clean { .. })
    }
}

/// One-shot spelling of [`crate::EngineVerify::random_walks`] over a
/// fresh default [`si_core::Engine`] session. Crate code calls the
/// method on its own session; this wrapper is kept because the
/// benchmark's traced run (`perfbench/src/trace.rs`) calls it.
///
/// # Panics
///
/// Panics when the specification's reachability graph cannot be built
/// within the default session's 4M-state cap, or the specification is
/// unsafe or inconsistent.
pub fn random_walks(
    stg: &Stg,
    circuit: &Circuit,
    walks: usize,
    steps: usize,
    seed: u64,
) -> WalkOutcome {
    crate::EngineVerify::random_walks(&si_core::Engine::new(stg), circuit, walks, steps, seed)
        .unwrap_or_else(|e| panic!("random walks need the state space: {e}"))
}

/// The walk loop: `count` random schedules of `steps` steps from the
/// initial wire values `code0`, all drawn from one RNG seeded with
/// `seed`. Returns the first non-clean outcome, or the clean summary of
/// the longest walk; `trace` records every fired transition.
pub(crate) fn walks(
    stg: &Stg,
    circuit: &Circuit,
    code0: &Bits,
    count: usize,
    steps: usize,
    seed: u64,
    mut trace: Option<&mut Vec<TransId>>,
) -> WalkOutcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut longest = 0;
    for _ in 0..count {
        match walk(stg, circuit, code0, steps, &mut rng, trace.as_deref_mut()) {
            WalkOutcome::Clean { steps } => longest = longest.max(steps),
            failure => return failure,
        }
    }
    WalkOutcome::Clean { steps: longest }
}

fn walk(
    stg: &Stg,
    circuit: &Circuit,
    code0: &Bits,
    steps: usize,
    rng: &mut StdRng,
    mut trace: Option<&mut Vec<TransId>>,
) -> WalkOutcome {
    let net = stg.net();
    let mut code = code0.clone();
    let mut marking = net.initial_marking();

    let excited = |code: &Bits| -> Vec<SignalId> {
        circuit
            .implementations
            .iter()
            .filter(|imp| {
                imp.next_value(code, code.get(imp.signal.index())) != code.get(imp.signal.index())
            })
            .map(|imp| imp.signal)
            .collect()
    };

    for step in 0..steps {
        let enabled = net.enabled_transitions(&marking);
        let excited_now = excited(&code);

        // Conformance: every excited output must be justified.
        for &z in &excited_now {
            let target = !code.get(z.index());
            let ok = enabled
                .iter()
                .any(|&t| stg.signal_of(t) == z && stg.direction_of(t).target_value() == target);
            if !ok {
                return WalkOutcome::UnexpectedOutput { signal: z, step };
            }
        }

        // Fireable moves: inputs freely, outputs when excited.
        let mut moves: Vec<TransId> = Vec::new();
        for &t in &enabled {
            let sig = stg.signal_of(t);
            let level_ok = code.get(sig.index()) != stg.direction_of(t).target_value();
            if !level_ok {
                continue;
            }
            if stg.signal_kind(sig) == SignalKind::Input || excited_now.contains(&sig) {
                moves.push(t);
            }
        }
        let Some(&t) = moves.choose(rng) else {
            return WalkOutcome::Deadlock { step };
        };
        // Occasionally bias toward racing outputs first (adversarial-ish).
        let t = if rng.gen_bool(0.3) {
            *moves
                .iter()
                .find(|&&u| stg.signal_kind(stg.signal_of(u)).is_synthesized())
                .unwrap_or(&t)
        } else {
            t
        };

        marking = net.fire(&marking, t);
        if let Some(tr) = trace.as_deref_mut() {
            tr.push(t);
        }
        let fired_sig = stg.signal_of(t);
        code.toggle(fired_sig.index());

        // Hazard: previously excited outputs must stay excited.
        let excited_after = excited(&code);
        for &z in &excited_now {
            if z != fired_sig && !excited_after.contains(&z) {
                return WalkOutcome::DisabledOutput { signal: z, step };
            }
        }
    }
    WalkOutcome::Clean { steps }
}

#[cfg(test)]
mod tests {
    use crate::EngineVerify;
    use si_core::{Engine, ImplKind};

    #[test]
    fn clean_circuits_walk_clean() {
        for stg in [
            si_stg::benchmarks::burst2(),
            si_stg::benchmarks::vme_read_csc(),
            si_stg::generators::clatch(4),
        ] {
            let engine = Engine::new(&stg);
            let syn = engine.synthesize().unwrap();
            let outcome = engine.random_walks(&syn.circuit, 8, 4000, 42).unwrap();
            assert!(outcome.is_clean(), "{}: {outcome:?}", stg.name());
        }
    }

    #[test]
    fn fault_injection_is_detected() {
        let stg = si_stg::generators::clatch(3);
        let engine = Engine::new(&stg);
        let mut syn = engine.synthesize().unwrap();
        // Sabotage: make z combinational-high whenever any input is high —
        // fires far too early.
        let z = syn.results[0].signal;
        let w = stg.signal_count();
        let mut any_input = si_boolean::Cover::empty(w);
        for s in stg.signals() {
            if stg.signal_kind(s) == si_stg::SignalKind::Input {
                any_input.push(si_boolean::Cube::literal(w, s.index(), true));
            }
        }
        syn.circuit.implementations[0] = si_core::SignalImplementation {
            signal: z,
            kind: ImplKind::Combinational {
                cover: any_input,
                inverted: false,
            },
        };
        let outcome = engine.random_walks(&syn.circuit, 8, 4000, 7).unwrap();
        assert!(!outcome.is_clean(), "sabotage must be detected");
    }

    #[test]
    fn deterministic_given_seed() {
        let stg = si_stg::benchmarks::half_handshake();
        let engine = Engine::new(&stg);
        let syn = engine.synthesize().unwrap();
        let a = engine.random_walks(&syn.circuit, 2, 500, 99).unwrap();
        let b = engine.random_walks(&syn.circuit, 2, 500, 99).unwrap();
        assert_eq!(a, b);
        // The recorded walk is the first walk of the same seed.
        let (one, trace) = engine.record_walk(&syn.circuit, 500, 99).unwrap();
        assert_eq!(one, engine.random_walks(&syn.circuit, 1, 500, 99).unwrap());
        assert_eq!(trace.len(), 500);
    }
}
