//! The generic state-space layer: one lazy-successor abstraction and one
//! breadth-first explorer behind every traversal.
//!
//! Reachability-graph construction, speed-independence verification,
//! product-automaton conformance checking and CFSM deadlock checking are
//! all the same computation — enumerate the states reachable from an
//! initial packed state, watch for violations along the way. This module
//! factors the traversal out:
//!
//! * [`StateSpace`] — a state space as data: a packed-word state format,
//!   an [`initial`](StateSpace::initial) state, a lazy
//!   [`for_each_successor`](StateSpace::for_each_successor) function and a
//!   [`Verdict`]-producing [`inspect`](StateSpace::inspect) hook;
//! * [`explore`] — the explorer: breadth-first over a flat-arena
//!   interner, expanding bounded batches of frontier states in
//!   `shards` parallel slices and merging them in id order;
//! * [`ExploreOptions`] / [`Exploration`] — one knob set (cap, shard
//!   count, violation budget, edge recording, witness reconstruction) and
//!   one result shape for every client.
//!
//! ```text
//!    spaces                    explorer                         clients
//!   ┌───────────────┐   ┌─────────────────────────────┐   ┌──────────────────┐
//!   │ MarkingSpace  │──▶│ explore                     │──▶│ ReachabilityGraph│
//!   │ (firing rule) │ ┌▶│                             │   │ ::build_with     │
//!   ├───────────────┤ │ │  frontier = ids next..len   │   ├──────────────────┤
//!   │ SI-verify     │─┤ │  batch ─▶ slice 0 │ slice 1 │──▶│ Engine::verify   │
//!   │ (rg walk)     │ │ │  (inspect + successors into │   ├──────────────────┤
//!   ├───────────────┤ │ │   private buffers, threads) │   │ conform::        │
//!   │ spec×circuit  │─┤ │         │                   │   │   check_*        │
//!   │ product       │ │ │         ▼                   │   ├──────────────────┤
//!   ├───────────────┤ │ │  merge in id order: intern, │──▶│ si_proto::       │
//!   │ CFSM channel  │─┘ │  cap, edges, parents,       │   │   check_deadlock │
//!   │ protocols     │   │  violations, fatal error    │   └──────────────────┘
//!   └───────────────┘   └─────────────────────────────┘
//! ```
//!
//! The abstraction is not Petri-net shaped: `si_proto::ProtoSpace` packs
//! communicating finite-state machines (module control states + channel
//! slots) into the same word format and gets deadlock checking from this
//! explorer unchanged.
//!
//! States take ids in breadth-first discovery order, so the
//! firing-sequence **witness** [`Exploration::witness`] reconstructs (the
//! label path from the initial state to any discovered state) is a
//! shortest one — which is how verification, conformance and deadlock
//! reports grow counterexample traces for free. Only the expansion runs
//! in parallel; the merge applies the one-worker rules in id order, so
//! the whole [`Exploration`] — ids, edges, violations, witnesses, errors
//! — is the same at every shard count.

use crate::budget::{Budget, Interrupt, InterruptReason};
use crate::net::{FiringView, PetriNet, TransId};
use crate::reach::{MarkingInterner, ReachError};
use si_fault::{fail_point, fail_trigger, run_isolated};
use std::time::{Duration, Instant};

/// How often (in merged states) the explorer consults the soft budget
/// limits (deadline / cancellation / bytes).
const GOVERN_STRIDE: usize = 256;

/// Frontier states one slice expands per batch. A bound, not a whole
/// breadth-first level, so the buffered successors stay small next to
/// the interner.
const BATCH_PER_SHARD: usize = 2048;

/// Batches with fewer states than this expand their slices on the
/// calling thread: a thread start would cost more than it saves.
const INLINE_BELOW: usize = 512;

/// Outcome of inspecting one state.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Nothing wrong at this state; keep exploring.
    Continue,
    /// The state violates the property under check (details are reported
    /// through the visitor's [`SpaceVisitor::violation`] channel).
    Violation,
}

/// Receiver of one state's expansion: the explorer hands an implementation
/// of this to [`StateSpace::for_each_successor`] and
/// [`StateSpace::inspect`].
pub trait SpaceVisitor<V> {
    /// A successor reached by firing `label`. Returns `false` when the
    /// space must stop enumerating (cap reached or exploration aborted) —
    /// implementations of [`StateSpace::for_each_successor`] must return
    /// `Ok(())` immediately in that case.
    fn successor(&mut self, label: u32, next: &[u64]) -> bool;

    /// A non-fatal violation observed at the current state (or on one of
    /// its outgoing edges).
    fn violation(&mut self, v: V);
}

/// A lazily-defined state space over packed `u64`-word states.
///
/// Implementations define *what* the states and successors are; the
/// explorer of this module defines *how* the space is walked. A space must
/// be [`Sync`]: the explorer shares it by reference across its expansion
/// threads.
///
/// States are fixed-width word vectors ([`Self::words`] words each): the
/// explorer interns them in a flat arena exactly like reachability
/// markings, so a space never sees its own visited set — it only maps a
/// state to its successors (and violations).
pub trait StateSpace: Sync {
    /// The violation payload this space can report — speed-independence
    /// violations, conformance failures, or [`ReachError`] for the plain
    /// marking space.
    type Violation: Send;

    /// Words per packed state.
    fn words(&self) -> usize;

    /// The initial packed state.
    fn initial(&self) -> Vec<u64>;

    /// Per-state verdict hook, called once when a state is explored,
    /// before its successors are enumerated. Report the details of each
    /// violation through `sink`, and return [`Verdict::Violation`] iff
    /// any was reported: the explorer then re-checks the violation budget
    /// immediately, so a spent budget (e.g.
    /// [`ExploreOptions::max_violations`]`(1)`) skips even this state's
    /// successor expansion.
    ///
    /// The default implementation reports nothing.
    fn inspect<Vis: SpaceVisitor<Self::Violation>>(
        &self,
        state: &[u64],
        sink: &mut Vis,
    ) -> Verdict {
        let _ = (state, sink);
        Verdict::Continue
    }

    /// Enumerates the successors of `state` in canonical (ascending label)
    /// order, calling `visit.successor(label, next)` for each. `scratch`
    /// is a caller-provided buffer of [`Self::words`] words for building
    /// successor states without per-call allocation. Non-fatal per-edge
    /// violations go through `visit.violation`.
    ///
    /// # Errors
    ///
    /// A **fatal** violation (one that invalidates the whole exploration,
    /// like a safeness violation of the underlying net) aborts the
    /// traversal and is returned as the explorer's error.
    fn for_each_successor<Vis: SpaceVisitor<Self::Violation>>(
        &self,
        state: &[u64],
        scratch: &mut [u64],
        visit: &mut Vis,
    ) -> Result<(), Self::Violation>;
}

/// Tuning knobs of a generic exploration — one surface for every client.
#[derive(Clone, Debug)]
pub struct ExploreOptions {
    /// Resource budget: state cap, approximate byte ceiling, wall-clock
    /// deadline, cooperative cancellation. Exhausting any dimension
    /// *interrupts* the exploration — the partial result is returned,
    /// tagged with [`Exploration::interrupted`].
    pub budget: Budget,
    /// Number of slices each batch of frontier states is expanded in
    /// (= threads when > 1 and the batch is large enough); see
    /// [`crate::ReachOptions::shards`] for normalization. The result does
    /// not depend on it.
    pub shards: usize,
    /// Stop exploring new states once this many violations were collected
    /// (`usize::MAX` = exhaustive). `1` is the early-exit-on-first-
    /// violation mode.
    pub max_violations: usize,
    /// Record the full labelled successor adjacency — needed by
    /// reachability-graph construction, wasted on verdict-only clients.
    pub record_edges: bool,
    /// Record each state's discovering edge so
    /// [`Exploration::witness`] can reconstruct a firing sequence from
    /// the initial state.
    pub witness: bool,
}

impl ExploreOptions {
    /// Exhaustive exploration with the given state cap, one shard, no
    /// edge recording, no witnesses.
    pub fn with_cap(cap: usize) -> Self {
        ExploreOptions {
            budget: Budget::with_cap(cap),
            shards: 1,
            max_violations: usize::MAX,
            record_edges: false,
            witness: false,
        }
    }

    /// Replaces the whole resource budget.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the shard count (normalized like
    /// [`crate::ReachOptions::shards`]).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.clamp(1, 64).next_power_of_two();
        self
    }

    /// Sets the violation budget (`1` = stop at the first violation).
    pub fn max_violations(mut self, max: usize) -> Self {
        self.max_violations = max;
        self
    }

    /// Enables successor-adjacency recording.
    pub fn record_edges(mut self) -> Self {
        self.record_edges = true;
        self
    }

    /// Enables witness (firing-sequence) reconstruction.
    pub fn witness(mut self) -> Self {
        self.witness = true;
        self
    }
}

impl From<crate::ReachOptions> for ExploreOptions {
    fn from(r: crate::ReachOptions) -> Self {
        let shards = r.shards;
        ExploreOptions {
            budget: r.budget,
            shards: 1,
            max_violations: usize::MAX,
            record_edges: false,
            witness: false,
        }
        .shards(shards)
    }
}

impl From<&crate::ReachOptions> for ExploreOptions {
    fn from(r: &crate::ReachOptions) -> Self {
        ExploreOptions::from(r.clone())
    }
}

/// Sentinel parent of the initial state.
const NO_PARENT: u32 = u32::MAX;

/// Result of a generic exploration — everything any client needs:
/// the interned states, the optional adjacency, the violations (tagged
/// with the state they were observed at) and the parent links for
/// witness reconstruction.
///
/// State ids are dense `u32`s in breadth-first discovery order: id `0` is
/// the initial state, and the result is the same at every shard count.
#[derive(Debug)]
pub struct Exploration<V> {
    store: MarkingInterner,
    /// Successor edges `(label, dst)` when
    /// [`ExploreOptions::record_edges`]; state `s` owns
    /// `succ_edges[succ_ranges[s].0 .. succ_ranges[s].1]`.
    succ_edges: Vec<(u32, u32)>,
    /// Per-state `(start, end)` ranges into [`Self::succ_edges`].
    succ_ranges: Vec<(u32, u32)>,
    /// Per-state discovering edge `(parent, label)` when
    /// [`ExploreOptions::witness`]; the root's parent is [`NO_PARENT`].
    parents: Vec<(u32, u32)>,
    /// Violations in discovery order, tagged with the id of the state
    /// they were observed at.
    pub violations: Vec<(u32, V)>,
    /// `Some(reason)` when the exploration stopped because a
    /// [`Budget`] dimension ran out (cap, deadline, cancellation,
    /// bytes) — the result is *partial* but valid: every recorded state,
    /// edge, witness and violation is real.
    pub interrupted: Option<InterruptReason>,
    /// Number of states explored (capped at the budget's state cap).
    pub states: usize,
    /// Wall time the exploration ran (set whether or not it completed,
    /// so partial verdicts can report elapsed time alongside
    /// [`Self::states`]).
    pub elapsed: Duration,
}

impl<V> Exploration<V> {
    /// The packed words of state `s`.
    pub fn key(&self, s: u32) -> &[u64] {
        self.store.key(s as usize)
    }

    /// The interruption, if any, paired with the number of states the
    /// partial result covers — ready for a "no violation in the N states
    /// explored" verdict.
    pub fn interrupt(&self) -> Option<Interrupt> {
        self.interrupted.map(|reason| Interrupt {
            reason,
            states_explored: self.states,
            elapsed: self.elapsed,
        })
    }

    /// Whether the exploration was truncated by the state cap
    /// (compatibility shorthand for matching on [`Self::interrupted`]).
    pub fn cap_exceeded(&self) -> bool {
        self.interrupted == Some(InterruptReason::CapExceeded)
    }

    /// Number of states interned (on a capped run this can exceed
    /// [`Self::states`] by the one state that burst the cap).
    pub fn interned(&self) -> usize {
        self.store.len()
    }

    /// Decomposes an exploration into its interner and recorded
    /// adjacency — the packing path of
    /// [`crate::ReachabilityGraph::build`].
    #[allow(clippy::type_complexity)]
    pub(crate) fn into_interned_parts(self) -> (MarkingInterner, Vec<(u32, u32)>, Vec<(u32, u32)>) {
        (self.store, self.succ_edges, self.succ_ranges)
    }

    /// The firing sequence (label path) from the initial state to `s`,
    /// reconstructed from the recorded discovering edges. States are
    /// discovered breadth-first, so this is a shortest such sequence.
    ///
    /// # Panics
    ///
    /// Panics if the exploration ran without [`ExploreOptions::witness`].
    pub fn witness(&self, s: u32) -> Vec<u32> {
        assert!(
            !self.parents.is_empty() || self.store.len() == 0,
            "exploration ran without witness recording"
        );
        let mut labels = Vec::new();
        let mut cur = s;
        while cur != 0 {
            let (p, l) = self.parents[cur as usize];
            debug_assert_ne!(p, NO_PARENT, "unreachable state in witness chain");
            labels.push(l);
            cur = p;
        }
        labels.reverse();
        labels
    }
}

/// How a generic exploration can fail *fatally* (as opposed to being
/// interrupted by its budget, which yields a partial [`Exploration`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExploreError<V> {
    /// A fatal violation returned by [`StateSpace::for_each_successor`]
    /// (one that invalidates the whole exploration, like a safeness
    /// violation of the underlying net).
    Fatal(V),
    /// The expansion of one slice of a batch panicked. The panic was
    /// caught at the slice boundary and the process is intact; only this
    /// exploration is lost.
    WorkerPanicked {
        /// Index of the slice whose expansion panicked.
        shard: usize,
        /// The panic message.
        message: String,
    },
}

impl<V: std::fmt::Display> std::fmt::Display for ExploreError<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExploreError::Fatal(v) => v.fmt(f),
            ExploreError::WorkerPanicked { shard, message } => {
                write!(f, "exploration worker {shard} panicked: {message}")
            }
        }
    }
}

/// The generic explorer: breadth-first over an interned flat-arena
/// visited set, for any [`StateSpace`] and any shard count.
///
/// States take ids in discovery order, are expanded in id order, and
/// each state's successors are taken in ascending label order. Each step
/// cuts the next batch of unexpanded states into `opts.shards`
/// contiguous slices and expands them (`inspect` + `for_each_successor`)
/// into private buffers — on their own threads, or inline when the batch
/// is small. The calling thread then merges the slices in id order under
/// the one-worker rules (interning, state cap, edges, witnesses,
/// violation budget, fatal errors), so the result is identical at every
/// shard count.
///
/// # Errors
///
/// [`ExploreError::Fatal`] with the first fatal violation (in expansion
/// order) returned by [`StateSpace::for_each_successor`];
/// [`ExploreError::WorkerPanicked`] when a slice's expansion panicked.
/// Budget exhaustion (cap, deadline, cancellation, bytes) is **not** an
/// error: the partial exploration is returned, tagged
/// [`Exploration::interrupted`].
pub fn explore<S: StateSpace>(
    space: &S,
    opts: ExploreOptions,
) -> Result<Exploration<S::Violation>, ExploreError<S::Violation>> {
    let _span = si_obs::span("explore");
    let t0 = Instant::now();
    let nw = space.words();
    let init = space.initial();
    debug_assert_eq!(init.len(), nw);
    let mut merge = Merge {
        interner: MarkingInterner::new(nw),
        nw,
        succ_edges: Vec::new(),
        succ_ranges: Vec::new(),
        parents: Vec::new(),
        violations: Vec::new(),
        states: 1,
        interrupted: None,
        opts: &opts,
    };
    merge.interner.intern(&init);
    if opts.record_edges {
        merge.succ_ranges.push((0, 0));
    }
    if opts.witness {
        merge.parents.push((NO_PARENT, 0));
    }
    // Soft limits (deadline/cancel/bytes) are consulted once per
    // GOVERN_STRIDE merged states, never per state — an unbounded budget
    // costs one branch per stride. Progress heartbeats piggyback on the
    // same checkpoint, so arming them adds no per-state branch.
    let governed = opts.budget.has_soft_limits();
    let ticking = si_obs::progress_armed();
    let mut slices: Vec<Slice<S::Violation>> = Vec::new();
    // Next state to expand: ids below it are expanded, ids from it up to
    // the interner's length are the breadth-first frontier.
    let mut next = 0usize;
    let shards = opts.shards.max(1);
    'explore: while next < merge.interner.len() && !merge.done() {
        let end = merge.interner.len().min(next + BATCH_PER_SHARD * shards);
        let budget_left = opts.max_violations - merge.violations.len();
        expand_batch(
            space,
            &merge.interner,
            next..end,
            budget_left,
            shards,
            &mut slices,
        )?;
        for slice in &mut slices {
            let mut pending = Pending {
                total: slice.violations.len(),
                iter: std::mem::take(&mut slice.violations).into_iter(),
            };
            let mut succ_start = 0;
            for rec in &slice.states {
                if merge.done() {
                    break 'explore;
                }
                if (governed || ticking) && next.is_multiple_of(GOVERN_STRIDE) {
                    if governed {
                        if let Some(reason) = opts.budget.check_soft(merge.approx_bytes()) {
                            merge.interrupted = Some(reason);
                            break 'explore;
                        }
                    }
                    if ticking {
                        si_obs::progress_tick(next, merge.interner.len() - next);
                    }
                }
                if !merge.replay(next as u32, slice, succ_start, rec, &mut pending) {
                    break 'explore;
                }
                next += 1;
                succ_start = rec.succ_end;
            }
            if let Some(v) = slice.fatal.take() {
                return Err(ExploreError::Fatal(v));
            }
        }
    }

    let states = merge.states.min(opts.budget.cap);
    if si_obs::enabled() {
        si_obs::counter_add("explore.states", states as u64);
        si_obs::counter_add("explore.edges", merge.succ_edges.len() as u64);
    }
    Ok(Exploration {
        store: merge.interner,
        succ_edges: merge.succ_edges,
        succ_ranges: merge.succ_ranges,
        parents: merge.parents,
        violations: merge.violations,
        interrupted: merge.interrupted,
        states,
        elapsed: t0.elapsed(),
    })
}

/// Expands the states `ids` (interned, not yet expanded) into `slices`:
/// up to `shards` contiguous, non-empty slices, each under
/// [`run_isolated`] — on its own thread when the batch is large enough to
/// pay for one, inline otherwise.
///
/// # Errors
///
/// [`ExploreError::WorkerPanicked`] naming the lowest slice that
/// panicked.
fn expand_batch<S: StateSpace>(
    space: &S,
    interner: &MarkingInterner,
    ids: std::ops::Range<usize>,
    budget_left: usize,
    shards: usize,
    slices: &mut Vec<Slice<S::Violation>>,
) -> Result<(), ExploreError<S::Violation>> {
    let k = shards.clamp(1, ids.len());
    slices.resize_with(k, Slice::default);
    let bound = |i: usize| ids.start + i * ids.len() / k;
    let run = |i: usize, slice: &mut Slice<S::Violation>| {
        run_isolated(|| {
            // Injection site: a slice that dies or stalls before it
            // expands anything (value = slice index).
            fail_point!("shard::worker", i);
            slice.expand(space, interner, bound(i)..bound(i + 1), budget_left);
        })
        .map_err(|message| ExploreError::WorkerPanicked { shard: i, message })
    };
    if k == 1 || ids.len() < INLINE_BELOW {
        return slices
            .iter_mut()
            .enumerate()
            .try_for_each(|(i, s)| run(i, s));
    }
    let outcomes: Vec<_> = std::thread::scope(|scope| {
        let (first, rest) = slices.split_first_mut().expect("k >= 1");
        let handles: Vec<_> = rest
            .iter_mut()
            .enumerate()
            .map(|(i, slice)| scope.spawn(move || run(i + 1, slice)))
            .collect();
        std::iter::once(run(0, first))
            .chain(handles.into_iter().map(|h| h.join().expect("isolated")))
            .collect()
    });
    outcomes.into_iter().collect()
}

/// One expanded state of a [`Slice`]: where its successors and
/// violations end in the slice's buffers.
#[derive(Copy, Clone, Debug)]
struct Expanded {
    /// Whether `inspect` returned [`Verdict::Violation`].
    violating: bool,
    /// End of its `inspect` violations in [`Slice::violations`].
    inspect_end: u32,
    /// End of all its violations in [`Slice::violations`].
    violations_end: u32,
    /// End of its successors in [`Slice::labels`].
    succ_end: u32,
}

/// One slice's expansion of a run of consecutive states, buffered for the
/// merge. The buffers are reused from batch to batch.
#[derive(Debug)]
struct Slice<V> {
    /// Successor states, `nw` words each, in enumeration order.
    words: Vec<u64>,
    /// Successor labels, parallel to [`Self::words`].
    labels: Vec<u32>,
    /// Violations, each tagged with the number of successors the slice
    /// had enumerated when it was reported, so the merge replays it at
    /// the same point relative to a cap burst.
    violations: Vec<(u32, V)>,
    /// The expanded states, in id order.
    states: Vec<Expanded>,
    /// The fatal violation that stopped the slice at its last state.
    fatal: Option<V>,
}

impl<V> Default for Slice<V> {
    fn default() -> Self {
        Slice {
            words: Vec::new(),
            labels: Vec::new(),
            violations: Vec::new(),
            states: Vec::new(),
            fatal: None,
        }
    }
}

impl<V> Slice<V> {
    /// Expands the states `ids` of `interner`, stopping after a fatal
    /// violation or once this slice alone reported `budget_left`
    /// violations (the merge cannot get past that state).
    fn expand<S: StateSpace<Violation = V>>(
        &mut self,
        space: &S,
        interner: &MarkingInterner,
        ids: std::ops::Range<usize>,
        budget_left: usize,
    ) {
        self.words.clear();
        self.labels.clear();
        self.violations.clear();
        self.states.clear();
        self.fatal = None;
        let mut scratch = vec![0u64; space.words()];
        for s in ids {
            let key = interner.key(s);
            let violating = space.inspect(key, self) == Verdict::Violation;
            let inspect_end = self.violations.len() as u32;
            // A violating verdict that spends the budget skips even this
            // state's successor expansion.
            if !(violating && self.violations.len() >= budget_left) {
                self.fatal = space.for_each_successor(key, &mut scratch, self).err();
            }
            self.states.push(Expanded {
                violating,
                inspect_end,
                violations_end: self.violations.len() as u32,
                succ_end: self.labels.len() as u32,
            });
            if self.fatal.is_some() || self.violations.len() >= budget_left {
                return;
            }
        }
    }
}

impl<V> SpaceVisitor<V> for Slice<V> {
    fn successor(&mut self, label: u32, next: &[u64]) -> bool {
        self.words.extend_from_slice(next);
        self.labels.push(label);
        true
    }

    fn violation(&mut self, v: V) {
        self.violations.push((self.labels.len() as u32, v));
    }
}

/// The merge side of [`explore`]: the interner and every record of the
/// result, updated by replaying expanded slices in id order.
struct Merge<'o, V> {
    interner: MarkingInterner,
    /// Words per state.
    nw: usize,
    succ_edges: Vec<(u32, u32)>,
    succ_ranges: Vec<(u32, u32)>,
    parents: Vec<(u32, u32)>,
    violations: Vec<(u32, V)>,
    /// States accepted (the over-cap key is interned but not accepted).
    states: usize,
    interrupted: Option<InterruptReason>,
    opts: &'o ExploreOptions,
}

impl<V> Merge<'_, V> {
    /// Whether the exploration is over: interrupted, or the violation
    /// budget is spent.
    fn done(&self) -> bool {
        self.interrupted.is_some() || self.violations.len() >= self.opts.max_violations
    }

    /// Approximate live bytes: state arena + interner table + recorded
    /// adjacency (the dominant allocations of an exploration).
    fn approx_bytes(&self) -> usize {
        self.interner.approx_bytes()
            + self.succ_edges.len() * 8
            + (self.succ_ranges.len() + self.parents.len()) * 8
    }

    /// Replays the expansion `rec` of state `s` from `slice`, whose
    /// successors start at `succ_start`: its `inspect` violations, then
    /// its successors with the per-edge violations interleaved where they
    /// were reported. `pending` holds the slice's unmerged violations.
    /// Returns `false` when the exploration must stop here (cap burst,
    /// violation budget spent).
    fn replay(
        &mut self,
        s: u32,
        slice: &Slice<V>,
        succ_start: u32,
        rec: &Expanded,
        pending: &mut Pending<V>,
    ) -> bool {
        pending.take_into(&mut self.violations, s, rec.inspect_end, u32::MAX);
        if rec.violating && self.violations.len() >= self.opts.max_violations {
            return false;
        }
        let start = self.succ_edges.len() as u32;
        for j in succ_start..rec.succ_end {
            pending.take_into(&mut self.violations, s, rec.violations_end, j);
            let at = j as usize * self.nw;
            if !self.accept(s, slice.labels[j as usize], &slice.words[at..at + self.nw]) {
                return false;
            }
        }
        pending.take_into(&mut self.violations, s, rec.violations_end, u32::MAX);
        if self.opts.record_edges {
            self.succ_ranges[s as usize] = (start, self.succ_edges.len() as u32);
        }
        true
    }

    /// Interns the successor `key` of `src` by `label`, recording the
    /// edge and (for a new state) its discovering edge. Returns `false`
    /// when a new state bursts the cap.
    fn accept(&mut self, src: u32, label: u32, key: &[u64]) -> bool {
        let (id, is_new) = self.interner.intern(key);
        if is_new {
            // Injection site: simulate the cap bursting at state k
            // (value = states accepted so far).
            if fail_trigger!("shard::accept", self.states) || self.states >= self.opts.budget.cap {
                self.interrupted = Some(InterruptReason::CapExceeded);
                return false;
            }
            self.states += 1;
            if self.opts.record_edges {
                self.succ_ranges.push((0, 0));
            }
            if self.opts.witness {
                self.parents.push((src, label));
            }
        }
        if self.opts.record_edges {
            self.succ_edges.push((label, id.0));
        }
        true
    }
}

/// A slice's violations not merged yet, in report order.
struct Pending<V> {
    iter: std::vec::IntoIter<(u32, V)>,
    /// Number of violations the slice reported.
    total: usize,
}

impl<V> Pending<V> {
    /// Moves the violations up to slice index `end` that were reported
    /// before successor `pos` into `out`, tagged with state `s`.
    fn take_into(&mut self, out: &mut Vec<(u32, V)>, s: u32, end: u32, pos: u32) {
        while self.total - self.iter.len() < end as usize
            && self.iter.as_slice().first().is_some_and(|&(p, _)| p <= pos)
        {
            let (_, v) = self.iter.next().expect("checked non-empty");
            out.push((s, v));
        }
    }
}

/// The trivial state space of a Petri net's reachable markings: states are
/// markings, labels are transition indices, successors follow the firing
/// rule `(m \ •t) ∪ t•` via a [`FiringView`]. A safeness violation is
/// fatal ([`ReachError::NotSafe`]).
///
/// This is the space behind [`crate::ReachabilityGraph::build_with`]; it
/// reports no [`inspect`](StateSpace::inspect) violations.
#[derive(Debug)]
pub struct MarkingSpace {
    view: FiringView,
    initial: Vec<u64>,
}

impl MarkingSpace {
    /// The marking space of `net`.
    pub fn new(net: &PetriNet) -> Self {
        MarkingSpace {
            view: net.firing_view(),
            initial: net.initial_marking().as_words().to_vec(),
        }
    }
}

impl StateSpace for MarkingSpace {
    type Violation = ReachError;

    fn words(&self) -> usize {
        self.view.words()
    }

    fn initial(&self) -> Vec<u64> {
        self.initial.clone()
    }

    fn for_each_successor<Vis: SpaceVisitor<ReachError>>(
        &self,
        m: &[u64],
        scratch: &mut [u64],
        visit: &mut Vis,
    ) -> Result<(), ReachError> {
        for ti in 0..self.view.transition_count() {
            if !self.view.is_enabled(m, ti) {
                continue;
            }
            if self.view.violates_safeness(m, ti) {
                return Err(ReachError::NotSafe {
                    transition: TransId(ti as u32),
                });
            }
            self.view.fire_into(m, ti, scratch);
            if !visit.successor(ti as u32, scratch) {
                return Ok(());
            }
        }
        Ok(())
    }
}

/// Single-word fast path of [`MarkingSpace`] for nets of at most 64
/// places: one interleaved `[pre, gain, post]` record per transition, so
/// enable / safeness / firing are a handful of scalar ALU ops.
#[derive(Debug)]
pub(crate) struct ScalarMarkingSpace {
    masks: Vec<[u64; 3]>,
    initial: u64,
}

impl ScalarMarkingSpace {
    pub(crate) fn new(net: &PetriNet) -> Self {
        debug_assert_eq!(net.initial_marking().as_words().len(), 1);
        ScalarMarkingSpace {
            masks: net
                .transitions()
                .map(|t| {
                    [
                        net.pre_mask(t).as_words()[0],
                        net.gain_mask(t).as_words()[0],
                        net.post_mask(t).as_words()[0],
                    ]
                })
                .collect(),
            initial: net.initial_marking().as_words()[0],
        }
    }
}

impl StateSpace for ScalarMarkingSpace {
    type Violation = ReachError;

    fn words(&self) -> usize {
        1
    }

    fn initial(&self) -> Vec<u64> {
        vec![self.initial]
    }

    fn for_each_successor<Vis: SpaceVisitor<ReachError>>(
        &self,
        m: &[u64],
        scratch: &mut [u64],
        visit: &mut Vis,
    ) -> Result<(), ReachError> {
        let cur = m[0];
        for (ti, &[pre, gain, post]) in self.masks.iter().enumerate() {
            if pre & !cur != 0 {
                continue; // •t ⊄ m
            }
            if gain & cur != 0 {
                return Err(ReachError::NotSafe {
                    transition: TransId(ti as u32),
                });
            }
            scratch[0] = (cur & !pre) | post;
            if !visit.successor(ti as u32, scratch) {
                return Ok(());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reach::ReachabilityGraph;

    /// p0 -> t0 -> p1 -> t1 -> p0 with a side choice p1 -> t2 -> p0.
    fn ring_with_choice() -> PetriNet {
        let mut b = PetriNet::builder();
        let p0 = b.add_place("p0", true);
        let p1 = b.add_place("p1", false);
        let t0 = b.add_transition("t0");
        let t1 = b.add_transition("t1");
        let t2 = b.add_transition("t2");
        b.arc_pt(p0, t0);
        b.arc_tp(t0, p1);
        b.arc_pt(p1, t1);
        b.arc_tp(t1, p0);
        b.arc_pt(p1, t2);
        b.arc_tp(t2, p0);
        b.build()
    }

    #[test]
    fn shard_counts_normalize_without_overflow() {
        for (asked, runs) in [(0, 1), (1, 1), (3, 4), (64, 64), (65, 64), (usize::MAX, 64)] {
            assert_eq!(
                ExploreOptions::with_cap(1).shards(asked).shards,
                runs,
                "{asked}"
            );
        }
    }

    #[test]
    fn sequential_marking_exploration() {
        let net = ring_with_choice();
        let space = MarkingSpace::new(&net);
        let e = explore(
            &space,
            ExploreOptions::with_cap(100).record_edges().witness(),
        )
        .unwrap();
        assert_eq!(e.states, 2);
        assert!(!e.cap_exceeded());
        assert_eq!(e.interrupt(), None);
        assert_eq!(e.key(0), net.initial_marking().as_words());
        // State 1 (p1) discovered from state 0 by t0.
        assert_eq!(e.witness(1), vec![0]);
        assert_eq!(e.witness(0), Vec::<u32>::new());
        // Edges: s0 -t0-> s1; s1 -t1-> s0, s1 -t2-> s0.
        assert_eq!(e.succ_edges, vec![(0, 1), (1, 0), (2, 0)]);
    }

    #[test]
    fn cap_truncates() {
        let net = ring_with_choice();
        let space = MarkingSpace::new(&net);
        let e = explore(&space, ExploreOptions::with_cap(1)).unwrap();
        assert!(e.cap_exceeded());
        assert_eq!(e.states, 1);
        let i = e.interrupt().unwrap();
        assert_eq!(i.reason, InterruptReason::CapExceeded);
        assert_eq!(i.states_explored, 1);
        assert_eq!(i.elapsed, e.elapsed);
    }

    /// A space that flags every state whose low bit is set.
    struct OddFlagger;

    impl StateSpace for OddFlagger {
        type Violation = u64;

        fn words(&self) -> usize {
            1
        }

        fn initial(&self) -> Vec<u64> {
            vec![0]
        }

        fn inspect<Vis: SpaceVisitor<u64>>(&self, state: &[u64], sink: &mut Vis) -> Verdict {
            if state[0] % 2 == 1 {
                sink.violation(state[0]);
                Verdict::Violation
            } else {
                Verdict::Continue
            }
        }

        fn for_each_successor<Vis: SpaceVisitor<u64>>(
            &self,
            state: &[u64],
            scratch: &mut [u64],
            visit: &mut Vis,
        ) -> Result<(), u64> {
            if state[0] < 10 {
                scratch[0] = state[0] + 1;
                if !visit.successor(0, scratch) {
                    return Ok(());
                }
            }
            Ok(())
        }
    }

    #[test]
    fn violation_budget_stops_exploration() {
        let all = explore(&OddFlagger, ExploreOptions::with_cap(1000)).unwrap();
        assert_eq!(all.violations.len(), 5); // 1, 3, 5, 7, 9
        let first = explore(
            &OddFlagger,
            ExploreOptions::with_cap(1000).max_violations(1),
        )
        .unwrap();
        assert_eq!(first.violations.len(), 1);
        assert_eq!(first.violations[0].1, 1);
        assert!(first.states < all.states);
    }

    #[test]
    fn sharded_dispatch_matches_sequential_verdicts() {
        let seq = explore(&OddFlagger, ExploreOptions::with_cap(1000)).unwrap();
        let par = explore(&OddFlagger, ExploreOptions::with_cap(1000).shards(4)).unwrap();
        assert_eq!(seq.states, par.states);
        assert_eq!(seq.violations, par.violations);
    }

    /// A wide space over `0..n` (frontier batches big enough for threads):
    /// three successors per state, an `inspect` violation at multiples of
    /// 13, a per-edge violation after every successor divisible by 11 and
    /// a fatal error at the nonzero multiples of `fatal_every`.
    struct Lattice {
        n: u64,
        fatal_every: Option<u64>,
    }

    impl StateSpace for Lattice {
        type Violation = u64;

        fn words(&self) -> usize {
            1
        }

        fn initial(&self) -> Vec<u64> {
            vec![0]
        }

        fn inspect<Vis: SpaceVisitor<u64>>(&self, state: &[u64], sink: &mut Vis) -> Verdict {
            if state[0].is_multiple_of(13) {
                sink.violation(state[0]);
                Verdict::Violation
            } else {
                Verdict::Continue
            }
        }

        fn for_each_successor<Vis: SpaceVisitor<u64>>(
            &self,
            state: &[u64],
            scratch: &mut [u64],
            visit: &mut Vis,
        ) -> Result<(), u64> {
            let x = state[0];
            for (label, next) in [(x * 3 + 1) % self.n, (x * 7 + 2) % self.n, (x + 1) % self.n]
                .into_iter()
                .enumerate()
            {
                if label == 1 && x > 0 && self.fatal_every.is_some_and(|f| x.is_multiple_of(f)) {
                    return Err(x);
                }
                scratch[0] = next;
                if !visit.successor(label as u32, scratch) {
                    return Ok(());
                }
                if next.is_multiple_of(11) {
                    visit.violation(1_000_000 + next);
                }
            }
            Ok(())
        }
    }

    /// The one-worker rules written out directly, as the oracle of the
    /// batched explorer: states in a FIFO by id, each inspected, then
    /// expanded with every successor interned the moment it is reported.
    #[derive(Default)]
    struct Reference {
        ids: std::collections::HashMap<u64, u32>,
        keys: Vec<u64>,
        edges: Vec<(u32, u32)>,
        parents: Vec<(u32, u32)>,
        violations: Vec<(u32, u64)>,
        src: u32,
        cap: usize,
        capped: bool,
    }

    impl SpaceVisitor<u64> for Reference {
        fn successor(&mut self, label: u32, next: &[u64]) -> bool {
            let id = match self.ids.get(&next[0]) {
                Some(&id) => id,
                None if self.keys.len() >= self.cap => {
                    self.capped = true;
                    return false;
                }
                None => {
                    let id = self.keys.len() as u32;
                    self.ids.insert(next[0], id);
                    self.keys.push(next[0]);
                    self.parents.push((self.src, label));
                    id
                }
            };
            self.edges.push((label, id));
            true
        }

        fn violation(&mut self, v: u64) {
            self.violations.push((self.src, v));
        }
    }

    fn reference(space: &Lattice, cap: usize, max_violations: usize) -> Result<Reference, u64> {
        let mut r = Reference {
            keys: vec![0],
            parents: vec![(NO_PARENT, 0)],
            cap,
            ..Reference::default()
        };
        r.ids.insert(0, 0);
        let mut scratch = [0u64];
        let mut s = 0;
        while s < r.keys.len() && !r.capped && r.violations.len() < max_violations {
            r.src = s as u32;
            let key = [r.keys[s]];
            if space.inspect(&key, &mut r) == Verdict::Violation
                && r.violations.len() >= max_violations
            {
                break;
            }
            space.for_each_successor(&key, &mut scratch, &mut r)?;
            s += 1;
        }
        Ok(r)
    }

    #[test]
    fn explorations_are_identical_at_every_shard_count() {
        let space = Lattice {
            n: 20_000,
            fatal_every: None,
        };
        for (cap, max_violations) in [
            (usize::MAX, usize::MAX),
            (usize::MAX, 1),
            (usize::MAX, 700),
            (5_000, usize::MAX),
            (9_999, 40),
        ] {
            let want = reference(&space, cap, max_violations).unwrap();
            for shards in [1, 2, 4, 8] {
                let opts = ExploreOptions::with_cap(cap)
                    .max_violations(max_violations)
                    .record_edges()
                    .witness()
                    .shards(shards);
                let e = explore(&space, opts).unwrap();
                let what = format!("cap {cap}, budget {max_violations}, {shards} shards");
                assert_eq!(e.states, want.keys.len(), "{what}: states");
                assert_eq!(e.cap_exceeded(), want.capped, "{what}: interrupted");
                assert_eq!(e.violations, want.violations, "{what}: violations");
                assert_eq!(e.succ_edges, want.edges, "{what}: edges");
                assert_eq!(e.parents, want.parents, "{what}: parents");
                for (s, &key) in want.keys.iter().enumerate() {
                    assert_eq!(e.key(s as u32), [key], "{what}: key of {s}");
                }
            }
        }
    }

    #[test]
    fn the_first_fatal_in_expansion_order_wins_at_every_shard_count() {
        // Several fatal states: the one expanded first is reported, even
        // when a later slice reaches another one first in wall-clock time.
        let space = Lattice {
            n: 20_000,
            fatal_every: Some(1_000),
        };
        let first = reference(&space, usize::MAX, usize::MAX)
            .err()
            .expect("a fatal state is reachable");
        for shards in [1, 2, 4, 8] {
            let r = explore(&space, ExploreOptions::with_cap(usize::MAX).shards(shards));
            assert_eq!(
                r.unwrap_err(),
                ExploreError::Fatal(first),
                "{shards} shards"
            );
        }
    }

    /// An `n`-stage pipeline of fork-joins — enough states to exercise
    /// table growth.
    fn pipeline(n: usize) -> PetriNet {
        let mut b = PetriNet::builder();
        let mut prev = b.add_place("p0", true);
        for i in 0..n {
            let fork = b.add_transition(format!("fork{i}"));
            let a = b.add_place(format!("a{i}"), false);
            let c = b.add_place(format!("b{i}"), false);
            let a2 = b.add_place(format!("a{i}x"), false);
            let c2 = b.add_place(format!("b{i}x"), false);
            let join = b.add_transition(format!("join{i}"));
            let next = b.add_place(format!("p{}", i + 1), false);
            b.arc_pt(prev, fork);
            b.arc_tp(fork, a);
            b.arc_tp(fork, c);
            let ta = b.add_transition(format!("ta{i}"));
            let tb = b.add_transition(format!("tb{i}"));
            b.arc_pt(a, ta);
            b.arc_tp(ta, a2);
            b.arc_pt(c, tb);
            b.arc_tp(tb, c2);
            b.arc_pt(a2, join);
            b.arc_pt(c2, join);
            b.arc_tp(join, next);
            prev = next;
        }
        // Close the loop so the net is live.
        let back = b.add_transition("back");
        let first = crate::net::PlaceId(0);
        b.arc_pt(prev, back);
        b.arc_tp(back, first);
        b.build()
    }

    fn build(net: &PetriNet, cap: usize, shards: usize) -> Result<ReachabilityGraph, ReachError> {
        ReachabilityGraph::build_with(net, crate::ReachOptions::with_cap(cap).shards(shards))
    }

    fn assert_identical(a: &ReachabilityGraph, b: &ReachabilityGraph) {
        assert_eq!(a.state_count(), b.state_count());
        assert_eq!(a.edge_count(), b.edge_count());
        for s in a.states() {
            assert_eq!(a.marking(s), b.marking(s), "marking of {s:?}");
            assert_eq!(a.successors(s), b.successors(s), "succs of {s:?}");
            assert_eq!(a.predecessors(s), b.predecessors(s), "preds of {s:?}");
        }
    }

    #[test]
    fn sharded_matches_sequential_bit_for_bit() {
        for n in [1, 3, 6] {
            let net = pipeline(n);
            let seq = ReachabilityGraph::build(&net, 1_000_000).unwrap();
            for shards in [2, 4, 8] {
                let par = build(&net, 1_000_000, shards).unwrap();
                assert_identical(&seq, &par);
                for t in net.transitions() {
                    assert_eq!(seq.states_enabling(t), par.states_enabling(t));
                }
                assert_eq!(seq.is_live(&net), par.is_live(&net));
            }
        }
    }

    #[test]
    fn sharded_respects_cap() {
        let net = pipeline(4);
        let full = ReachabilityGraph::build(&net, 1_000_000).unwrap();
        let cap = full.state_count() - 1;
        let err = build(&net, cap, 4).unwrap_err();
        assert_eq!(err, ReachError::StateCapExceeded { cap });
    }

    #[test]
    fn sharded_detects_unsafe_nets() {
        // Two producers race tokens onto p1.
        let mut b = PetriNet::builder();
        let p0 = b.add_place("p0", true);
        let p1 = b.add_place("p1", false);
        let p2 = b.add_place("p2", true);
        let t0 = b.add_transition("t0");
        let t1 = b.add_transition("t1");
        b.arc_pt(p0, t0);
        b.arc_tp(t0, p1);
        b.arc_pt(p2, t1);
        b.arc_tp(t1, p1);
        b.arc_tp(t1, p0);
        let net = b.build();
        let r = build(&net, 100, 2);
        assert!(matches!(r, Err(ReachError::NotSafe { .. })));
    }

    #[test]
    fn one_shard_falls_back_to_sequential() {
        let net = pipeline(2);
        let a = build(&net, 1_000, 1).unwrap();
        let b = ReachabilityGraph::build(&net, 1_000).unwrap();
        assert_identical(&a, &b);
    }

    #[test]
    fn wide_nets_cross_word_boundaries() {
        // > 64 places forces multi-word markings through the slice buffers.
        let n = 40; // 6 places per stage + 1 => ~241 places
        let net = pipeline(n);
        let seq = ReachabilityGraph::build(&net, 1_000_000).unwrap();
        let par = build(&net, 1_000_000, 4).unwrap();
        assert_identical(&seq, &par);
    }

    #[test]
    fn sharded_witnesses_replay() {
        let net = pipeline(3);
        let space = MarkingSpace::new(&net);
        let e = explore(
            &space,
            ExploreOptions::with_cap(1_000_000).shards(4).witness(),
        )
        .unwrap();
        // Every discovered state's witness must replay, via the firing
        // rule, from m0 to that state's packed words.
        let view = net.firing_view();
        let nw = view.words();
        for s in (0..e.interned() as u32).step_by(7) {
            let mut cur = net.initial_marking().as_words().to_vec();
            let mut scratch = vec![0u64; nw];
            for label in e.witness(s) {
                assert!(view.is_enabled(&cur, label as usize));
                view.fire_into(&cur, label as usize, &mut scratch);
                std::mem::swap(&mut cur, &mut scratch);
            }
            assert_eq!(&cur[..], e.key(s), "witness of state {s} does not replay");
        }
    }
}
