//! Speed-independence verification of synthesized circuits.
//!
//! This crate plays the role of the BDD model checker of reference \[32\] in the
//! paper's flow: every circuit produced by the structural synthesis is
//! independently verified against its STG specification on the explicit
//! state space. The checks are methods of [`EngineVerify`] on the
//! `si_core::Engine` session, so they share its cached reachability
//! graph and encoding — the state space is built once however many
//! checks run:
//!
//! * [`EngineVerify::verify`]: functional correctness at every reachable
//!   marking plus Property-1 monotonicity of every set/reset network;
//! * [`EngineVerify::check_conformance`]: exhaustive product-automaton
//!   exploration under the unbounded gate delay model, detecting
//!   unexpected outputs, disabled (hazardous) outputs and starved
//!   outputs;
//! * [`EngineVerify::random_walks`]: long random schedules of the same
//!   product, from the initial wire values alone.
//!
//! The first two are implemented as [`si_petri::space::StateSpace`]s
//! driven by the workspace's generic explorer: `Engine::shards` expands
//! the violation search and the conformance product on that many
//! threads (with the same result), and every failing report carries a
//! shortest firing-sequence counterexample ([`VerificationReport::trace`],
//! [`ConformanceReport::trace`]).
//!
//! # Examples
//!
//! Synthesize, verify and conformance-check over one session, building
//! the reachability graph once:
//!
//! ```
//! use si_core::Engine;
//! use si_verify::EngineVerify;
//!
//! let stg = si_stg::generators::clatch(2);
//! let engine = Engine::new(&stg);
//! let syn = engine.synthesize()?;
//! assert!(engine.verify(&syn.circuit)?.is_ok());
//! assert!(engine.check_conformance(&syn.circuit)?.is_ok());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod check;
mod conform;
mod engine_ext;
mod sim;

pub use check::{VerificationReport, Violation};
pub use conform::{ConformanceFailure, ConformanceReport};
pub use engine_ext::EngineVerify;
pub use sim::{random_walks, WalkOutcome};
