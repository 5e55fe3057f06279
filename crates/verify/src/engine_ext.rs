//! Verification methods on the synthesis session.
//!
//! `si_core::Engine` owns the cached reachability artifacts but cannot
//! depend on this crate (the dependency points the other way), so the
//! verification half of the pipeline arrives as an extension trait:
//! import [`EngineVerify`] (it is in `sisyn::prelude`) and the whole flow
//! reads as methods on one session object.

use crate::check::{verify_on, VerificationReport};
use crate::conform::{engine_conformance, ConformanceReport};
use si_core::{Circuit, Engine};
use si_petri::ReachError;

/// Speed-independence verification over an [`Engine`]'s cached artifacts.
///
/// Both methods reuse the session's reachability graph: a
/// synthesize-then-verify-then-conformance pipeline explores the
/// specification's state space **exactly once** (pinned by a build-count
/// test).
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
/// assert_eq!(engine.reach_build_count(), 1); // graph shared by both checks
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub trait EngineVerify {
    /// Functional + monotonic-cover verification
    /// ([`crate::verify_circuit_with`] semantics) over the cached graph.
    /// The violation search runs on the session's configured shard count
    /// (`Engine::shards`) under the session's soft budget (deadline /
    /// cancellation — an interrupted search returns a partial report
    /// tagged [`VerificationReport::interrupted`]); the report is
    /// identical at any shard count.
    ///
    /// # Errors
    ///
    /// Any [`ReachError`] from building the session's reachability graph
    /// — including [`ReachError::Interrupted`] when the budget ran out
    /// mid-build — or [`ReachError::WorkerPanicked`] from the search.
    fn verify(&self, circuit: &Circuit) -> Result<VerificationReport, ReachError>;

    /// Product-automaton conformance checking
    /// ([`crate::check_conformance_with`] semantics). The session's
    /// budget bounds the product exploration (exhausting it returns a
    /// partial report tagged [`ConformanceReport::interrupted`], not an
    /// error) and the session's shard count parallelizes it; the probe
    /// graph falls back to the historical 4M-state headroom (one-shot,
    /// outside the session cache) when the session cap is too small for
    /// the specification, so a small cap still allows partial product
    /// exploration.
    ///
    /// # Errors
    ///
    /// [`ReachError::NotSafe`] on a broken specification and
    /// [`ReachError::WorkerPanicked`] from the exploration.
    fn check_conformance(&self, circuit: &Circuit) -> Result<ConformanceReport, ReachError>;
}

impl EngineVerify for Engine<'_> {
    fn verify(&self, circuit: &Circuit) -> Result<VerificationReport, ReachError> {
        let rg = self.reachability()?;
        let enc = self.encoding()?;
        verify_on(self.stg(), circuit, rg, enc, &self.reach_options())
    }

    fn check_conformance(&self, circuit: &Circuit) -> Result<ConformanceReport, ReachError> {
        engine_conformance(self, circuit, self.reach_options())
    }
}
