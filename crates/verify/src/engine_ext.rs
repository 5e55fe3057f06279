//! Verification methods on the synthesis session.
//!
//! `si_core::Engine` owns the cached reachability artifacts but cannot
//! depend on this crate (the dependency points the other way), so the
//! verification half of the pipeline arrives as an extension trait:
//! import [`EngineVerify`] (it is in `sisyn::prelude`) and the whole flow
//! reads as methods on one session object.

use crate::check::{verify_on, VerificationReport};
use crate::conform::{engine_conformance, ConformanceReport};
use crate::sim::{walks, WalkOutcome};
use si_boolean::Bits;
use si_core::{Circuit, Engine, StateGraphError};
use si_petri::{StateId, TransId};

/// Speed-independence verification over an [`Engine`]'s cached artifacts.
///
/// Every method reuses the session's reachability graph and encoding: a
/// synthesize-then-verify-then-conformance-then-walk pipeline explores
/// the specification's state space **exactly once** (pinned by a
/// build-count test).
///
/// # Examples
///
/// ```
/// use si_core::Engine;
/// use si_verify::EngineVerify;
///
/// let stg = si_stg::generators::clatch(2);
/// let engine = Engine::new(&stg);
/// let syn = engine.synthesize()?;
/// assert!(engine.verify(&syn.circuit)?.is_ok());
/// assert!(engine.check_conformance(&syn.circuit)?.is_ok());
/// assert!(engine.random_walks(&syn.circuit, 4, 1000, 7)?.is_clean());
/// assert_eq!(engine.reach_build_count(), 1); // graph shared by every check
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub trait EngineVerify {
    /// Functional + monotonic-cover verification over the cached graph.
    /// The violation search runs on the session's configured shard count
    /// (`Engine::shards`) under the session's soft budget (deadline /
    /// cancellation — an interrupted search returns a partial report
    /// tagged [`VerificationReport::interrupted`]); the report is
    /// identical at any shard count.
    ///
    /// # Errors
    ///
    /// Any reachability error from building the session's graph —
    /// including [`si_petri::ReachError::Interrupted`] when the budget
    /// ran out mid-build — or
    /// [`si_petri::ReachError::WorkerPanicked`] from the search, as
    /// [`StateGraphError::Reach`]; [`StateGraphError::Encoding`] when the
    /// specification has no well-defined state encoding.
    fn verify(&self, circuit: &Circuit) -> Result<VerificationReport, StateGraphError>;

    /// Product-automaton conformance checking, seeded with the initial
    /// wire values of the session's encoding. The session's budget bounds
    /// the product exploration (exhausting it returns a partial report
    /// tagged [`ConformanceReport::interrupted`], not an error) and the
    /// session's shard count parallelizes it. When the session's own
    /// graph build runs out of budget (cap, deadline, cancellation), the
    /// report is inconclusive with zero product states.
    ///
    /// # Errors
    ///
    /// [`si_petri::ReachError::NotSafe`] on a broken specification and
    /// [`si_petri::ReachError::WorkerPanicked`] from the exploration, as
    /// [`StateGraphError::Reach`]; [`StateGraphError::Encoding`] when the
    /// specification has no well-defined state encoding.
    fn check_conformance(&self, circuit: &Circuit) -> Result<ConformanceReport, StateGraphError>;

    /// Runs `walks` random schedules of `steps` steps each; returns the
    /// first non-clean outcome, or the clean summary of the longest walk.
    /// The walks read only the initial wire values from the session (each
    /// firing toggles one wire), so they build no graph of their own.
    ///
    /// # Errors
    ///
    /// The [`Engine::encoding`] error.
    fn random_walks(
        &self,
        circuit: &Circuit,
        walks: usize,
        steps: usize,
        seed: u64,
    ) -> Result<WalkOutcome, StateGraphError>;

    /// One random walk that also returns the fired transitions (for
    /// waveform rendering / debugging).
    ///
    /// # Errors
    ///
    /// As [`EngineVerify::random_walks`].
    fn record_walk(
        &self,
        circuit: &Circuit,
        steps: usize,
        seed: u64,
    ) -> Result<(WalkOutcome, Vec<TransId>), StateGraphError>;
}

impl EngineVerify for Engine<'_> {
    fn verify(&self, circuit: &Circuit) -> Result<VerificationReport, StateGraphError> {
        let rg = self.reachability()?;
        let enc = self.encoding()?;
        Ok(verify_on(
            self.stg(),
            circuit,
            rg,
            enc,
            &self.reach_options(),
        )?)
    }

    fn check_conformance(&self, circuit: &Circuit) -> Result<ConformanceReport, StateGraphError> {
        engine_conformance(self, circuit)
    }

    fn random_walks(
        &self,
        circuit: &Circuit,
        count: usize,
        steps: usize,
        seed: u64,
    ) -> Result<WalkOutcome, StateGraphError> {
        let code0 = initial_code(self)?;
        let _span = si_obs::span("verify.walks");
        Ok(walks(self.stg(), circuit, &code0, count, steps, seed, None))
    }

    fn record_walk(
        &self,
        circuit: &Circuit,
        steps: usize,
        seed: u64,
    ) -> Result<(WalkOutcome, Vec<TransId>), StateGraphError> {
        let code0 = initial_code(self)?;
        let _span = si_obs::span("verify.walks");
        let mut trace = Vec::new();
        let outcome = walks(
            self.stg(),
            circuit,
            &code0,
            1,
            steps,
            seed,
            Some(&mut trace),
        );
        Ok((outcome, trace))
    }
}

/// The wire values of the specification's initial state, read from the
/// session's encoding (the reachability graph numbers its initial marking
/// 0).
pub(crate) fn initial_code(engine: &Engine<'_>) -> Result<Bits, StateGraphError> {
    Ok(engine.encoding()?.code(StateId(0)).clone())
}
