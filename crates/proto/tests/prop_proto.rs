//! Property suite pinning the protocol checker's shard invariance: the
//! deadlock report — verdict, canonically-sorted violation list,
//! explored-state count and witness — must be **identical** at 1/2/4/8
//! shards, on
//! every generator family and on random CFSM systems, and every reported
//! witness must replay through [`ProtoSpace::replay`] to the state of
//! the canonically-first violation. The text format is pinned alongside:
//! `parse_proto(write_proto(sys))` reproduces the canonical form.

use proptest::prelude::*;
use si_petri::{Budget, ReachOptions};
use si_proto::{
    check_deadlock_with, dining, fork_join, parse_proto, pipeline, ring, write_proto, ChannelKind,
    DeadlockReport, ProtoSpace, ProtoSystem,
};

/// Cap far above every system this suite builds: explorations must
/// finish, because partial (interrupted) reports are not shard-portable.
const CAP: usize = 500_000;

fn check_at(sys: &ProtoSystem, shards: usize) -> DeadlockReport {
    let mut reach = ReachOptions::with_cap(CAP);
    reach.shards = shards;
    check_deadlock_with(sys, reach).expect("no worker panics")
}

/// The pinned property: sequential and sharded runs agree exactly, and
/// witnesses replay.
fn assert_shard_invariant(sys: &ProtoSystem) {
    let seq = check_at(sys, 1);
    assert!(
        seq.interrupted.is_none(),
        "{}: suite systems must fit the cap",
        sys.name()
    );
    let space = ProtoSpace::new(sys);
    for shards in [2usize, 4, 8] {
        let sh = check_at(sys, shards);
        assert_eq!(
            sh.violations,
            seq.violations,
            "{}: violation list at {shards} shards",
            sys.name()
        );
        assert_eq!(
            sh.states_explored,
            seq.states_explored,
            "{}: state count at {shards} shards",
            sys.name()
        );
        assert_eq!(
            sh.trace_labels,
            seq.trace_labels,
            "{}: witness at {shards} shards",
            sys.name()
        );
        assert_eq!(sh.is_ok(), seq.is_ok());
        assert_eq!(sh.is_conclusive(), seq.is_conclusive());
        if let Some(labels) = &sh.trace_labels {
            let state = space.replay(labels).expect("witness must replay");
            assert_eq!(
                space.decode(&state),
                sh.violations[0].state,
                "{}: witness target at {shards} shards",
                sys.name()
            );
            assert!(space
                .violations_at(&state)
                .contains(&sh.violations[0].violation));
        }
    }
}

/// Round-trip through the text format reproduces the canonical form and
/// the same report.
fn assert_text_roundtrip(sys: &ProtoSystem) {
    let text = write_proto(sys);
    let again = parse_proto(&text).unwrap_or_else(|e| panic!("{}: reparse: {e}", sys.name()));
    assert_eq!(write_proto(&again), text, "{}: canonical form", sys.name());
    assert_eq!(
        check_at(&again, 1).violations,
        check_at(sys, 1).violations,
        "{}: report after round-trip",
        sys.name()
    );
}

#[test]
fn generator_families_are_shard_invariant() {
    for sys in [
        ring(2),
        ring(5),
        ring(8),
        pipeline(1),
        pipeline(4),
        fork_join(1),
        fork_join(3),
        dining(2),
        dining(3),
        dining(5),
    ] {
        assert_shard_invariant(&sys);
        assert_text_roundtrip(&sys);
    }
}

#[test]
fn zero_deadline_reports_inconclusive_at_any_shard_count() {
    let sys = dining(5);
    for shards in [1usize, 4] {
        let mut reach = ReachOptions::with_cap(CAP)
            .budget(Budget::with_cap(CAP).timeout(std::time::Duration::ZERO));
        reach.shards = shards;
        let report = check_deadlock_with(&sys, reach).expect("no worker panics");
        assert!(report.interrupted.is_some(), "shards={shards}");
        assert!(report.is_ok() || report.is_conclusive());
    }
}

// ---------------------------------------------------------------------
// Random CFSM systems.

/// Raw material of one random channel: endpoint picks, kind, and the
/// local states its mandatory send/receive connect.
type ChanSpec = (u8, u8, u8, u8, u8, u8, u8);
/// Raw material of one extra transition: module pick, action pick,
/// channel pick, from, to.
type ExtraSpec = (u8, u8, u8, u8, u8);

fn arb_system() -> impl Strategy<Value = ProtoSystem> {
    (
        2..5usize,                            // modules
        proptest::collection::vec(1..4u8, 4), // states per module
        proptest::collection::vec(
            (
                any::<u8>(),
                any::<u8>(),
                0..3u8,
                any::<u8>(),
                any::<u8>(),
                any::<u8>(),
                any::<u8>(),
            ),
            1..4,
        ),
        proptest::collection::vec(
            (any::<u8>(), 0..3u8, any::<u8>(), any::<u8>(), any::<u8>()),
            0..8,
        ),
    )
        .prop_map(|(nmod, nstates, chans, extras)| build_system(nmod, &nstates, &chans, &extras))
}

/// Deterministically builds a *valid* system from raw picks: every
/// channel gets distinct endpoints plus its mandatory send/receive pair,
/// extra transitions are kept only when the module is the right endpoint.
fn build_system(
    nmod: usize,
    nstates: &[u8],
    chans: &[ChanSpec],
    extras: &[ExtraSpec],
) -> ProtoSystem {
    let states = |m: usize| nstates[m % nstates.len()].max(1) as usize;
    let name_of = |s: u8, m: usize| format!("s{}", s as usize % states(m));
    let mut b = ProtoSystem::builder("random");
    let mods: Vec<_> = (0..nmod).map(|i| b.module(format!("m{i}"))).collect();
    for (i, &m) in mods.iter().enumerate() {
        b.init(m, "s0");
        // A tau cycle over all states keeps every module connected (and
        // every state meaningful) regardless of the random transitions.
        for s in 0..states(i) {
            b.tau(m, &format!("s{s}"), &format!("s{}", (s + 1) % states(i)));
        }
    }
    let mut ends = Vec::new();
    for (ci, &(sp, rp, kind, sf, st, rf, rt)) in chans.iter().enumerate() {
        let sender = sp as usize % nmod;
        let receiver = (sender + 1 + rp as usize % (nmod - 1)) % nmod;
        let kind = match kind {
            0 => ChannelKind::Rendezvous,
            1 => ChannelKind::Buffered,
            _ => ChannelKind::Async,
        };
        let c = b.channel(format!("c{ci}"), kind);
        b.send(mods[sender], &name_of(sf, sender), &name_of(st, sender), c);
        b.recv(
            mods[receiver],
            &name_of(rf, receiver),
            &name_of(rt, receiver),
            c,
        );
        ends.push((sender, receiver, c));
    }
    for &(mp, action, cp, f, t) in extras {
        let m = mp as usize % nmod;
        let (sender, receiver, c) = ends[cp as usize % ends.len()];
        match action {
            0 => b.tau(mods[m], &name_of(f, m), &name_of(t, m)),
            1 if m == sender => b.send(mods[m], &name_of(f, m), &name_of(t, m), c),
            2 if m == receiver => b.recv(mods[m], &name_of(f, m), &name_of(t, m), c),
            _ => {} // wrong endpoint: dropping keeps point-to-point validity
        }
    }
    b.build().expect("random systems are valid by construction")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random CFSM systems: sharded reports are bit-identical to the
    /// sequential oracle and witnesses replay.
    #[test]
    fn random_systems_are_shard_invariant(sys in arb_system()) {
        assert_shard_invariant(&sys);
    }

    /// Random systems survive the canonical-text round trip.
    #[test]
    fn random_systems_round_trip(sys in arb_system()) {
        assert_text_roundtrip(&sys);
    }
}
