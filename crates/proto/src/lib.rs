//! `si-proto`: a CFSM channel-protocol front end on the shared
//! state-space engine — parse or generate a system of communicating
//! finite state machines, build its product space as a
//! [`si_petri::space::StateSpace`], and detect global deadlocks,
//! dangling sends and channel overflows with replayable
//! action-sequence witnesses.
//!
//! The crate is the second user-facing workload of the engine (after
//! circuit synthesis/verification): the same explorer, budgets, partial
//! verdicts and witness machinery run a protocol product space they were
//! never specialized for.
//!
//! ```text
//!  .proto text ──parse_proto──▶ ProtoSystem ──ProtoSpace::new──▶ StateSpace
//!  generators ─┘ (validated,     │                                  │
//!  ring/dining…   canonical)     │                        explore (breadth-
//!                                │                         first, any shard
//!                                ▼                         count, a Budget)
//!                      check_deadlock[_with] ◀────────── Exploration
//!                                │                         (violations +
//!                                ▼                          witness parents)
//!                        DeadlockReport: canonical violations, action-
//!                        sequence trace, inconclusive tag on interruption
//! ```
//!
//! # Examples
//!
//! ```
//! use si_proto::{check_deadlock, dining, pipeline};
//!
//! let report = check_deadlock(&pipeline(4)).unwrap();
//! assert!(report.is_ok() && report.is_conclusive());
//!
//! let report = check_deadlock(&dining(3)).unwrap();
//! assert!(report.deadlocks() >= 1);
//! for step in report.trace.as_ref().unwrap() {
//!     println!("{step}"); // e.g. "l0: phil0.thinking -> has_left | fork0.free -> busy_l"
//! }
//! ```

#![warn(missing_docs)]

pub mod check;
pub mod generators;
pub mod model;
pub mod parse;
pub mod space;

pub use check::{check_deadlock, check_deadlock_with, DeadlockReport, ProtoError, DEFAULT_CAP};
pub use generators::{dining, fork_join, pipeline, ring};
pub use model::{
    ActionKind, Channel, ChannelId, ChannelKind, LocalTransition, ModelError, Module, ModuleId,
    ProtoBuilder, ProtoSystem,
};
pub use parse::{parse_proto, write_proto, ParseError};
pub use space::{GlobalState, ProtoSpace, ProtoViolation};
