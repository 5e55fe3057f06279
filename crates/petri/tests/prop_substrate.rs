//! Equivalence property tests for the word-parallel state substrate: the
//! mask-based firing rule, the interned CSR reachability engine and the
//! batched concurrency fixpoint must agree *exactly* with the naive
//! reference implementations on random live, safe, free-choice nets —
//! and the explorer's result must not depend on its shard count.

use proptest::prelude::*;
use si_petri::space::{explore, ExploreOptions, MarkingSpace};
use si_petri::{
    ConcurrencyRelation, PetriNet, PetriNetBuilder, PlaceId, ReachError, ReachOptions,
    ReachabilityGraph, StateId,
};
use std::collections::VecDeque;

/// Expansion step applied to a random place of a ring (same grammar as the
/// structural property tests: the result stays live/safe/free-choice).
#[derive(Clone, Debug)]
enum Expand {
    ForkJoin,
    Choice,
    Chain,
}

fn arb_expansions() -> impl Strategy<Value = Vec<(usize, Expand)>> {
    proptest::collection::vec(
        (
            0..64usize,
            prop_oneof![
                Just(Expand::ForkJoin),
                Just(Expand::Choice),
                Just(Expand::Chain)
            ],
        ),
        0..6,
    )
}

/// Builds a net by starting from a 2-place ring and expanding places.
fn build_net(expansions: &[(usize, Expand)]) -> PetriNet {
    net_builder(expansions).0.build()
}

/// [`build_net`] plus a transition that copies the token of the last
/// place onto the initially marked one — unsafe as soon as it fires
/// while that place still holds its token.
fn build_unsafe_net(expansions: &[(usize, Expand)]) -> PetriNet {
    let (mut builder, places) = net_builder(expansions);
    let last = *places.last().expect("at least two places");
    let dup = builder.add_transition("dup");
    builder.arc_pt(last, dup);
    builder.arc_tp(dup, last);
    builder.arc_tp(dup, places[0]);
    builder.build()
}

/// The builder behind [`build_net`], with its places.
fn net_builder(expansions: &[(usize, Expand)]) -> (PetriNetBuilder, Vec<PlaceId>) {
    // Symbolic transitions over abstract place ids, starting from the ring
    // p0 -> t -> p1 -> t' -> p0.
    let mut nplaces: usize = 2;
    let mut trans: Vec<(Vec<usize>, Vec<usize>)> = vec![(vec![0], vec![1]), (vec![1], vec![0])];
    for (pick, ex) in expansions {
        let target = pick % nplaces;
        match ex {
            Expand::Chain => {
                // target -> te -> fresh; consumers of target move to fresh.
                let fresh = nplaces;
                nplaces += 1;
                for (pre, _) in trans.iter_mut() {
                    for p in pre.iter_mut() {
                        if *p == target {
                            *p = fresh;
                        }
                    }
                }
                trans.push((vec![target], vec![fresh]));
            }
            Expand::ForkJoin => {
                // target -> te -> (a ∥ b) -> tx -> exit; consumers move to exit.
                let (a, b, exit) = (nplaces, nplaces + 1, nplaces + 2);
                nplaces += 3;
                for (pre, _) in trans.iter_mut() {
                    for p in pre.iter_mut() {
                        if *p == target {
                            *p = exit;
                        }
                    }
                }
                trans.push((vec![target], vec![a, b]));
                trans.push((vec![a, b], vec![exit]));
            }
            Expand::Choice => {
                // target -> (ta | tb) -> (a | b) -> (tja | tjb) -> exit.
                let (a, b, exit) = (nplaces, nplaces + 1, nplaces + 2);
                nplaces += 3;
                for (pre, _) in trans.iter_mut() {
                    for p in pre.iter_mut() {
                        if *p == target {
                            *p = exit;
                        }
                    }
                }
                trans.push((vec![target], vec![a]));
                trans.push((vec![target], vec![b]));
                trans.push((vec![a], vec![exit]));
                trans.push((vec![b], vec![exit]));
            }
        }
    }
    let mut builder = PetriNet::builder();
    let places: Vec<_> = (0..nplaces)
        .map(|i| builder.add_place(format!("p{i}"), i == 0))
        .collect();
    for (i, (pre, post)) in trans.iter().enumerate() {
        let t = builder.add_transition(format!("t{i}"));
        for &p in pre {
            builder.arc_pt(places[p], t);
        }
        for &p in post {
            builder.arc_tp(t, places[p]);
        }
    }
    (builder, places)
}

fn build_at(net: &PetriNet, cap: usize, shards: usize) -> Result<ReachabilityGraph, ReachError> {
    ReachabilityGraph::build_with(net, ReachOptions::with_cap(cap).shards(shards))
}

/// Breadth-first distance of every state of `rg` from state 0.
fn bfs_distances(rg: &ReachabilityGraph) -> Vec<usize> {
    let mut dist = vec![usize::MAX; rg.state_count()];
    dist[0] = 0;
    let mut queue = VecDeque::from([StateId(0)]);
    while let Some(s) = queue.pop_front() {
        for &(_, d) in rg.successors(s) {
            if dist[d.index()] == usize::MAX {
                dist[d.index()] = dist[s.index()] + 1;
                queue.push_back(d);
            }
        }
    }
    dist
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mask_firing_rule_matches_naive(exps in arb_expansions()) {
        let net = build_net(&exps);
        let rg = ReachabilityGraph::build(&net, 20_000).unwrap();
        for s in rg.states() {
            let m = rg.marking(s);
            for t in net.transitions() {
                prop_assert_eq!(
                    net.is_enabled(m, t),
                    net.is_enabled_naive(m, t),
                    "enable mismatch at {:?} for {}", s, t
                );
                if net.is_enabled(m, t) {
                    let mut out = m.clone();
                    net.fire_into(m, t, &mut out);
                    prop_assert_eq!(&out, &net.fire_naive(m, t), "fire mismatch for {}", t);
                    prop_assert_eq!(&out, &net.fire(m, t));
                }
            }
        }
    }

    #[test]
    fn interned_reachability_matches_naive(exps in arb_expansions()) {
        let net = build_net(&exps);
        let fast = ReachabilityGraph::build(&net, 20_000).unwrap();
        let naive = ReachabilityGraph::build_naive(&net, 20_000).unwrap();
        prop_assert_eq!(fast.state_count(), naive.state_count());
        prop_assert_eq!(fast.edge_count(), naive.edge_count());
        for s in fast.states() {
            prop_assert_eq!(fast.marking(s), naive.marking(s));
            prop_assert_eq!(fast.successors(s), naive.successors(s));
            prop_assert_eq!(fast.predecessors(s), naive.predecessors(s));
            prop_assert_eq!(fast.state_of(fast.marking(s)), Some(s));
        }
        for t in net.transitions() {
            prop_assert_eq!(fast.states_enabling(t), naive.states_enabling(t));
        }
        prop_assert_eq!(fast.is_live(&net), naive.is_live(&net));
        prop_assert_eq!(fast.is_strongly_connected(), naive.is_strongly_connected());
    }

    #[test]
    fn batched_concurrency_matches_naive(exps in arb_expansions()) {
        let net = build_net(&exps);
        let fast = ConcurrencyRelation::compute(&net);
        let naive = ConcurrencyRelation::compute_naive(&net);
        prop_assert_eq!(fast.pair_count(), naive.pair_count());
        for p in net.places() {
            for q in net.places() {
                if p != q {
                    prop_assert_eq!(fast.places(p, q), naive.places(p, q), "{} {}", p, q);
                }
            }
            for t in net.transitions() {
                prop_assert_eq!(
                    fast.place_transition(p, t),
                    naive.place_transition(p, t),
                    "{} {}", p, t
                );
            }
        }
        for a in net.transitions() {
            for b in net.transitions() {
                if a != b {
                    prop_assert_eq!(fast.transitions(a, b), naive.transitions(a, b), "{} {}", a, b);
                }
            }
        }
    }

    #[test]
    fn sharded_reachability_matches_sequential(
        exps in arb_expansions(),
        shards in prop_oneof![Just(2usize), Just(4usize), Just(8usize)],
    ) {
        let net = build_net(&exps);
        let seq = ReachabilityGraph::build(&net, 20_000).unwrap();
        let par = build_at(&net, 20_000, shards).unwrap();
        // The shard count never changes the numbering, so the comparison
        // is bit-for-bit — not merely up to permutation.
        prop_assert_eq!(par.state_count(), seq.state_count());
        prop_assert_eq!(par.edge_count(), seq.edge_count());
        for s in seq.states() {
            prop_assert_eq!(par.marking(s), seq.marking(s));
            prop_assert_eq!(par.successors(s), seq.successors(s));
            prop_assert_eq!(par.predecessors(s), seq.predecessors(s));
            prop_assert_eq!(par.state_of(par.marking(s)), Some(s));
        }
        for t in net.transitions() {
            prop_assert_eq!(par.states_enabling(t), seq.states_enabling(t));
        }
        prop_assert_eq!(par.is_live(&net), seq.is_live(&net));
        prop_assert_eq!(par.is_strongly_connected(), seq.is_strongly_connected());
    }

    #[test]
    fn sharded_cap_errors_agree(exps in arb_expansions()) {
        let net = build_net(&exps);
        let full = ReachabilityGraph::build(&net, 20_000).unwrap();
        if full.state_count() > 1 {
            let cap = full.state_count() - 1;
            let seq = ReachabilityGraph::build(&net, cap);
            let par = build_at(&net, cap, 4);
            prop_assert!(par.is_err());
            prop_assert_eq!(seq.unwrap_err(), par.unwrap_err());
        }
    }

    /// On a net that is both unsafe and larger than the cap, which error
    /// comes first is fixed by breadth-first order: every shard count and
    /// the naive oracle report the same one.
    #[test]
    fn unsafe_over_cap_errors_agree_at_every_shard_count(
        exps in arb_expansions(),
        cap in 1usize..40,
    ) {
        let net = build_unsafe_net(&exps);
        let naive = ReachabilityGraph::build_naive(&net, cap).map(|rg| rg.state_count());
        for shards in [1, 2, 4, 8] {
            let r = build_at(&net, cap, shards).map(|rg| rg.state_count());
            prop_assert_eq!(&r, &naive, "{} shards", shards);
        }
    }

    /// Witnesses are shortest: each state's witness replays to it and is
    /// exactly as long as its breadth-first distance in the naive graph.
    #[test]
    fn witnesses_are_shortest_firing_sequences(exps in arb_expansions()) {
        let net = build_net(&exps);
        let naive = ReachabilityGraph::build_naive(&net, 20_000).unwrap();
        let dist = bfs_distances(&naive);
        let e = explore(
            &MarkingSpace::new(&net),
            ExploreOptions::with_cap(20_000).witness(),
        )
        .unwrap();
        prop_assert_eq!(e.interned(), naive.state_count());
        for s in 0..e.interned() as u32 {
            let witness = e.witness(s);
            let mut m = net.initial_marking();
            for &t in &witness {
                let t = si_petri::TransId(t);
                prop_assert!(net.is_enabled(&m, t), "dead witness step {}", t);
                m = net.fire(&m, t);
            }
            let target = naive.state_of(&m).expect("the witness reaches a state");
            prop_assert_eq!(m.as_words(), e.key(s));
            prop_assert_eq!(witness.len(), dist[target.index()], "state {}", s);
        }
    }

    #[test]
    fn cap_and_errors_agree(exps in arb_expansions()) {
        let net = build_net(&exps);
        let full = ReachabilityGraph::build(&net, 20_000).unwrap();
        if full.state_count() > 1 {
            let cap = full.state_count() - 1;
            let a = ReachabilityGraph::build(&net, cap);
            let b = ReachabilityGraph::build_naive(&net, cap);
            prop_assert!(a.is_err() && b.is_err());
            prop_assert_eq!(a.unwrap_err(), b.unwrap_err());
        }
    }
}
