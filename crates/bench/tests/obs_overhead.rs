//! The observability overhead contract.
//!
//! The whole stack is instrumented, so the price of that has to be
//! pinned down from the outside:
//!
//! * with the switch **off** (the default), a run records nothing into
//!   the registry — [`si_obs::record_count`] is the tamper-evident seal —
//!   and produces results identical to an instrumented-and-enabled run;
//! * with the switch **on**, the span tree is well-formed: phase times
//!   of the children sum to no more than their parent, and the spans the
//!   exploration layer promises actually appear.
//!
//! The registry and the enable switch are process-global, so every test
//! here serialises on one lock (cargo runs `#[test]`s concurrently).

use std::sync::{Mutex, MutexGuard, OnceLock};

use si_petri::ReachabilityGraph;
use si_stg::Stg;

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// A deterministic fingerprint of a reachability graph: counts plus an
/// FNV-1a fold of the full successor relation.
fn fingerprint(rg: &ReachabilityGraph) -> (usize, usize, u64) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for s in rg.states() {
        mix(s.index() as u64);
        for (t, succ) in rg.successors(s) {
            mix(t.index() as u64);
            mix(succ.index() as u64);
        }
    }
    (rg.state_count(), rg.edge_count(), h)
}

fn explore_all(specs: &[Stg], cap: usize) -> Vec<(usize, usize, u64)> {
    specs
        .iter()
        .map(|stg| fingerprint(&ReachabilityGraph::build(stg.net(), cap).expect("fits the cap")))
        .collect()
}

#[test]
fn disabled_tracing_records_nothing_and_results_match_enabled() {
    let _guard = serial();

    si_obs::set_enabled(false);
    si_obs::reset();
    let specs = si_bench::small_set();
    let records_before = si_obs::record_count();
    let off = explore_all(&specs, 1 << 20);
    assert_eq!(
        si_obs::record_count(),
        records_before,
        "a disabled run must not touch the registry"
    );
    assert!(
        si_obs::span_snapshot().is_empty(),
        "a disabled run must not grow the span tree"
    );

    // The same workload with observation on: identical graphs, and now
    // the registry has seen records.
    si_obs::set_enabled(true);
    let on = explore_all(&specs, 1 << 20);
    let recorded = si_obs::record_count() > records_before;
    si_obs::set_enabled(false);
    si_obs::reset();

    assert_eq!(off, on, "tracing must not perturb exploration results");
    assert!(recorded, "an enabled run must actually record");
}

#[test]
fn enabled_profile_span_tree_is_well_formed() {
    let _guard = serial();

    si_obs::set_enabled(false);
    si_obs::reset();
    si_obs::set_enabled(true);
    for stg in si_bench::large_set() {
        let _ = ReachabilityGraph::build(stg.net(), 1 << 22).expect("fits the cap");
    }
    let spans = si_obs::span_snapshot();
    si_obs::set_enabled(false);

    // Shape: `reach.build` is a root with the explorer below it, called
    // once per spec.
    let build = spans
        .iter()
        .find(|s| s.name == "reach.build")
        .expect("reach.build span present");
    assert_eq!(build.calls, si_bench::large_set().len() as u64);
    assert!(
        build.children.iter().any(|c| c.name == "explore"),
        "exploration runs under the build span"
    );

    // Times are a tree: children can never exceed their parent.
    fn check(node: &si_obs::SpanSnapshot) {
        let child_sum: u64 = node.children.iter().map(|c| c.total_ns).sum();
        assert!(
            child_sum <= node.total_ns,
            "span {:?}: children sum {child_sum} ns > total {} ns",
            node.name,
            node.total_ns
        );
        for c in &node.children {
            check(c);
        }
    }
    for root in &spans {
        check(root);
    }
    si_obs::reset();
}

#[test]
fn disabled_switch_leaves_counters_unregistered() {
    let _guard = serial();

    si_obs::set_enabled(false);
    si_obs::reset();
    let before = si_obs::record_count();
    si_obs::counter_inc("overhead.test.counter");
    si_obs::histogram_record("overhead.test.histogram", 7);
    assert_eq!(si_obs::counter_value("overhead.test.counter"), None);
    assert_eq!(si_obs::record_count(), before);

    si_obs::set_enabled(true);
    si_obs::counter_inc("overhead.test.counter");
    assert_eq!(si_obs::counter_value("overhead.test.counter"), Some(1));
    si_obs::set_enabled(false);
    si_obs::reset();
}
