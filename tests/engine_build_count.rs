//! The artifact-cache guarantee, pinned by the build-count hook: an
//! `Engine` running the whole pipeline — synthesize, state-based baseline,
//! functional verification, conformance, random walks — constructs the
//! reachability graph **exactly once**, and so does one `verify` request
//! to the service.
//!
//! This test is deliberately alone in its binary: the hook
//! (`ReachabilityGraph::build_count`) is process-wide, and a sibling test
//! building graphs concurrently would make the delta assertion racy.

use sisyn::prelude::*;
use sisyn::serve::json::escape;
use sisyn::serve::{ArtifactStore, Service};
use std::sync::Arc;

#[test]
fn pipeline_builds_the_reachability_graph_exactly_once() {
    let stg = sisyn::stg::benchmarks::vme_read_csc();
    let engine = Engine::new(&stg).cap(500_000);

    let before = ReachabilityGraph::build_count();
    let syn = engine.synthesize().expect("synthesizable");
    assert_eq!(
        ReachabilityGraph::build_count(),
        before,
        "structural synthesis must not touch the state graph"
    );

    let functional = engine.verify(&syn.circuit).expect("within cap");
    assert!(functional.is_ok());
    let conformance = engine.check_conformance(&syn.circuit).expect("within cap");
    assert!(conformance.is_ok());
    let walks = engine.random_walks(&syn.circuit, 4, 1000, 7);
    assert!(walks.expect("within cap").is_clean());
    let baseline = engine
        .synthesize_state_based(BaselineFlavor::ExcitationExact)
        .expect("within cap");
    assert!(baseline.literal_area > 0);

    assert_eq!(
        ReachabilityGraph::build_count() - before,
        1,
        "verify + conformance + walks + baseline must share one cached graph"
    );
    assert_eq!(engine.reach_build_count(), 1);

    // One `verify` request: every check and walk reads the one session.
    let service = Service::new(Arc::new(ArtifactStore::in_memory(16 << 20)));
    let line = format!(
        "{{\"op\": \"verify\", \"spec\": {}}}",
        escape(&write_g(&stg))
    );
    let before = ReachabilityGraph::build_count();
    let response = service.execute(&line);
    let built = ReachabilityGraph::build_count() - before;
    assert!(response.body.contains("\"ok\": true"), "{}", response.body);
    assert_eq!(built, 1, "one verify request builds the state graph once");
    assert_eq!(response.reach_builds, built);
}
