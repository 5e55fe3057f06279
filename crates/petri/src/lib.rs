//! Petri-net kernel for speed-independent circuit synthesis.
//!
//! Part of the `sisyn` workspace reproducing Pastor, Cortadella, Kondratyev
//! and Roig, *“Structural Methods for the Synthesis of Speed-Independent
//! Circuits”*. This crate hosts everything of §II-B and §V that is pure
//! Petri-net machinery, independent of signal interpretation:
//!
//! * [`PetriNet`] — places/transitions/flow with a safe marking and the
//!   firing rule, plus free-choice / state-machine / marked-graph checks;
//! * [`space`] — the generic state-space layer: the [`space::StateSpace`]
//!   abstraction (packed states + lazy successors + a verdict hook) with
//!   **one** breadth-first explorer ([`space::explore`]), parallel across
//!   shards and identical at every shard count, behind every traversal
//!   in the workspace — reachability, speed-independence verification,
//!   conformance and deadlock checking;
//! * [`ReachabilityGraph`] — the explicit state space (the thing the paper
//!   avoids; used as baseline and oracle), built on the generic explorer
//!   over the trivial marking space under [`ReachOptions`];
//! * [`SymbolicReach`] — the BDD reachability backend: markings as BDD
//!   variables, per-transition relation BDDs from the [`FiringView`]
//!   masks, the reachable set by symbolic image iteration — cardinality,
//!   membership and safeness without enumerating states, cross-checked
//!   against the explicit oracle;
//! * [`SmComponent`], [`SmFinder`], [`sm_cover`] — one-token state-machine
//!   components and SM-covers;
//! * [`ConcurrencyRelation`] — the structural concurrency fixpoint (§V-A);
//! * [`ForwardReduction`] — the `N ⇓ T'` operator (§V-B).
//!
//! # Examples
//!
//! ```
//! use si_petri::{sm_cover, ConcurrencyRelation, PetriNet, ReachabilityGraph};
//!
//! let mut b = PetriNet::builder();
//! let p0 = b.add_place("idle", true);
//! let p1 = b.add_place("busy", false);
//! let go = b.add_transition("go");
//! let done = b.add_transition("done");
//! b.arc_pt(p0, go);
//! b.arc_tp(go, p1);
//! b.arc_pt(p1, done);
//! b.arc_tp(done, p0);
//! let net = b.build();
//!
//! assert!(net.is_free_choice());
//! let rg = ReachabilityGraph::build(&net, 100)?;
//! assert_eq!(rg.state_count(), 2);
//! assert_eq!(sm_cover(&net).unwrap().len(), 1);
//! assert_eq!(ConcurrencyRelation::compute(&net).pair_count(), 0);
//! # Ok::<(), si_petri::ReachError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod budget;
mod concurrency;
mod net;
mod reach;
mod reduce;
mod siphon;
mod sm;
pub mod space;
mod summary;
mod symbolic;

pub use budget::{Budget, CancelToken, Interrupt, InterruptReason};
pub use concurrency::ConcurrencyRelation;
pub use net::{FiringView, Marking, Node, PetriNet, PetriNetBuilder, PlaceId, TransId};
pub use reach::{ReachError, ReachOptions, ReachabilityGraph, StateId};
pub use reduce::ForwardReduction;
pub use siphon::{
    check_live_safe_fc, is_siphon, is_trap, maximal_trap_within, minimal_siphons, StructuralCheck,
};
pub use sm::{sm_cover, SmComponent, SmCoverError, SmFinder};
pub use summary::{ParseSummaryError, ReachSummary};
pub use symbolic::SymbolicReach;
