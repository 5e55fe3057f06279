//! Property tests of exploration governance: cooperative cancellation
//! fired at a random point of the walk always yields a *clean* partial
//! exploration (no panic, no deadlock, a tagged reason, a plausible state
//! count) at every engine width, and the state count of a cap-bounded
//! exploration is monotone in the cap.

use proptest::prelude::*;
use si_petri::space::{explore, ExploreOptions, MarkingSpace, SpaceVisitor, StateSpace};
use si_petri::{Budget, CancelToken, InterruptReason, PetriNet, ReachError, SymbolicReach};
use std::sync::atomic::{AtomicUsize, Ordering};

/// `n` disjoint two-place rings, each with its own token: safe, live, and
/// exactly `2^n` reachable markings — a state space whose size is known
/// in closed form at any shard count.
fn rings(n: usize) -> PetriNet {
    let mut b = PetriNet::builder();
    for i in 0..n {
        let a = b.add_place(format!("a{i}"), true);
        let c = b.add_place(format!("c{i}"), false);
        let go = b.add_transition(format!("go{i}"));
        let back = b.add_transition(format!("back{i}"));
        b.arc_pt(a, go);
        b.arc_tp(go, c);
        b.arc_pt(c, back);
        b.arc_tp(back, a);
    }
    b.build()
}

/// A marking space that cancels `token` on its `k`-th expansion — the
/// proptest's stand-in for a user hitting Ctrl-C at an arbitrary moment.
struct CancelAt {
    inner: MarkingSpace,
    token: CancelToken,
    k: usize,
    expansions: AtomicUsize,
}

impl StateSpace for CancelAt {
    type Violation = ReachError;

    fn words(&self) -> usize {
        self.inner.words()
    }

    fn initial(&self) -> Vec<u64> {
        self.inner.initial()
    }

    fn for_each_successor<Vis: SpaceVisitor<ReachError>>(
        &self,
        state: &[u64],
        scratch: &mut [u64],
        visit: &mut Vis,
    ) -> Result<(), ReachError> {
        if self.expansions.fetch_add(1, Ordering::Relaxed) + 1 == self.k {
            self.token.cancel();
        }
        self.inner.for_each_successor(state, scratch, visit)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Cancelling at a random expansion leaves a clean partial result:
    /// the explorers return `Ok`, tag the interruption (or finish — the
    /// checks are amortized, so a late cancel can lose the race against
    /// termination), and never report more states than exist.
    #[test]
    fn cancellation_mid_walk_is_clean_at_every_width(
        k in 1usize..512,
        shards in prop_oneof![Just(1usize), Just(2usize), Just(4usize), Just(8usize)],
    ) {
        let net = rings(9); // 512 states
        let total = 512usize;
        let token = CancelToken::new();
        let space = CancelAt {
            inner: MarkingSpace::new(&net),
            token: token.clone(),
            k,
            expansions: AtomicUsize::new(0),
        };
        let opts = ExploreOptions::with_cap(usize::MAX)
            .budget(Budget::unbounded().cancel(token.clone()))
            .shards(shards);
        let expl = explore(&space, opts).expect("cancellation is not an error");
        prop_assert!(expl.violations.is_empty());
        match expl.interrupted {
            Some(reason) => {
                prop_assert_eq!(reason, InterruptReason::Cancelled);
                prop_assert!(expl.states >= 1);
                prop_assert!(expl.states <= total, "states {} > total", expl.states);
                let i = expl.interrupt().unwrap();
                prop_assert_eq!(i.states_explored, expl.states);
            }
            // The walk outran the next governance checkpoint: it must
            // then be the complete exploration.
            None => prop_assert_eq!(expl.states, total),
        }
        // The token is spent either way — the cancel fired.
        prop_assert!(token.is_cancelled());
    }

    /// The explored-state count of a cap-bounded sequential exploration
    /// is exactly `min(total, cap)` — and therefore monotone in the cap.
    #[test]
    fn capped_state_counts_are_monotone_in_the_budget(
        c1 in 1usize..600,
        c2 in 1usize..600,
    ) {
        let net = rings(9); // 512 states
        let total = 512usize;
        let (lo, hi) = (c1.min(c2), c1.max(c2));
        let run = |cap: usize| {
            let space = MarkingSpace::new(&net);
            explore(&space, ExploreOptions::with_cap(cap)).unwrap()
        };
        let el = run(lo);
        let eh = run(hi);
        prop_assert_eq!(el.states, total.min(lo));
        prop_assert_eq!(eh.states, total.min(hi));
        prop_assert!(el.states <= eh.states);
        prop_assert_eq!(el.interrupted.is_some(), lo < total);
        prop_assert_eq!(
            el.cap_exceeded(),
            lo < total,
            "a sub-total cap must tag the partial result"
        );
    }
}

// ---------------------------------------------------------------------
// Symbolic-backend governance: the BDD fixpoint honors the same soft
// budget limits with per-iteration amortized checks, and interruption is
// the same tagged partial verdict (`Ok` + `interrupt()`, never an error).

#[test]
fn symbolic_pre_cancelled_token_is_a_clean_tagged_partial_verdict() {
    let net = rings(9); // 512 states
    let token = CancelToken::new();
    token.cancel();
    let sym = SymbolicReach::build_with(&net, &Budget::unbounded().cancel(token))
        .expect("cancellation is not an error");
    let i = sym.interrupt().expect("tagged partial verdict");
    assert_eq!(i.reason, InterruptReason::Cancelled);
    assert!(!sym.is_complete());
    // The check fires before the first image: only the initial cube.
    assert_eq!(sym.iterations(), 0);
    assert_eq!(sym.state_count(), 1);
    assert_eq!(i.states_explored, 1);
    assert!(sym.contains(&net.initial_marking()));
}

#[test]
fn symbolic_expired_deadline_is_a_clean_tagged_partial_verdict() {
    let net = rings(9);
    let already_past = std::time::Instant::now() - std::time::Duration::from_millis(1);
    let sym = SymbolicReach::build_with(&net, &Budget::unbounded().deadline(already_past))
        .expect("deadline expiry is not an error");
    let i = sym.interrupt().expect("tagged partial verdict");
    assert_eq!(i.reason, InterruptReason::DeadlineExpired);
    assert!(sym.state_count() >= 1);
    assert!(sym.state_count() <= 512);
}

/// The explicit state cap deliberately does not bound the symbolic
/// fixpoint (nothing is enumerated): a cap far below the state count
/// still yields the complete set.
#[test]
fn symbolic_ignores_the_enumeration_cap() {
    let net = rings(9);
    let sym = SymbolicReach::build_with(&net, &Budget::with_cap(4)).expect("complete build");
    assert!(sym.is_complete());
    assert_eq!(sym.state_count(), 512);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Cancelling the symbolic fixpoint at an arbitrary moment (here: a
    /// token cancelled up front, a deadline in the near future or the
    /// unbounded budget) always yields a clean result — complete with the
    /// closed-form count, or a tagged underapproximation of it.
    #[test]
    fn symbolic_budget_interruption_is_clean_at_every_width(
        n in 4usize..11,
        deadline_us in 0u64..200,
    ) {
        let net = rings(n);
        let total = 1u128 << n;
        let deadline = std::time::Instant::now() + std::time::Duration::from_micros(deadline_us);
        let sym = SymbolicReach::build_with(&net, &Budget::unbounded().deadline(deadline))
            .expect("deadline expiry is not an error");
        prop_assert!(sym.state_count() >= 1);
        prop_assert!(sym.state_count() <= total);
        match sym.interrupt() {
            Some(i) => {
                prop_assert_eq!(i.reason, InterruptReason::DeadlineExpired);
                prop_assert!(!sym.is_complete());
                prop_assert_eq!(i.states_explored as u128, sym.state_count());
            }
            None => prop_assert_eq!(sym.state_count(), total),
        }
        // The initial marking is in every partial set.
        prop_assert!(sym.contains(&net.initial_marking()));
    }
}
