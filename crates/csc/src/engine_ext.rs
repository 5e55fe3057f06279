//! CSC resolution as an [`Engine`] method.
//!
//! `si-csc` depends on `si-core` (resolution drives whole `Engine`
//! sessions per candidate), so — like speed-independence verification in
//! `si-verify` — the engine surface lives here as an extension trait. It
//! is re-exported from `sisyn::prelude`, so `engine.resolve_csc(..)`
//! keeps reading exactly as before the subsystem split.

use crate::search::{resolve, CscOptions, Resolution, ResolveOutcome, ResolveStats};
use si_core::{no_conflict_resolution, Engine};
use si_stg::{InsertionPlan, Stg};

/// CSC resolution methods of the synthesis session.
pub trait EngineResolve {
    /// CSC resolution by state-signal insertion with the session's
    /// reachability options as the acceptance oracle and the default
    /// greedy strategy.
    ///
    /// Returns the repaired STG and the insertion plan, or `None` when no
    /// candidate within `budget` works. When the input already satisfies
    /// CSC it is returned unchanged together with the no-op sentinel plan
    /// (`rise_split == fall_split == PlaceId(0)`, no waits — impossible
    /// for a real insertion, whose split places always differ).
    fn resolve_csc(&self, budget: usize) -> Option<(Stg, InsertionPlan)>;

    /// The full-control form: explicit [`CscOptions`] (strategy, beam
    /// width, workers, oracle reach options), returning the search
    /// statistics alongside the resolution. The session's cached
    /// structural context serves the no-conflict fast path.
    fn resolve_csc_outcome(&self, options: &CscOptions) -> ResolveOutcome;
}

impl EngineResolve for Engine<'_> {
    fn resolve_csc(&self, budget: usize) -> Option<(Stg, InsertionPlan)> {
        self.resolve_csc_outcome(
            &CscOptions::default()
                .budget(budget)
                .reach(self.reach_options()),
        )
        .resolution
        .map(|r| (r.stg, r.plan))
    }

    fn resolve_csc_outcome(&self, options: &CscOptions) -> ResolveOutcome {
        // Reuse the session's cached context: a check-then-resolve
        // pipeline analyzes the input once.
        if let Ok(ctx) = self.context() {
            if let Some((same, plan)) = no_conflict_resolution(self.stg(), ctx) {
                return ResolveOutcome {
                    resolution: Some(Resolution {
                        stg: same,
                        plan,
                        cost: 0,
                    }),
                    stats: ResolveStats::new(options.strategy),
                };
            }
        }
        resolve(self.stg(), options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_resolve_matches_free_function() {
        let raw = si_stg::benchmarks::vme_read_raw();
        let engine = Engine::new(&raw).cap(100_000);
        let (fixed_engine, plan_engine) = engine.resolve_csc(50_000).expect("resolvable");
        let options = CscOptions::default()
            .budget(50_000)
            .reach(engine.reach_options());
        let Resolution {
            stg: fixed_free,
            plan: plan_free,
            ..
        } = resolve(&raw, &options).resolution.expect("resolvable");
        assert_eq!(plan_engine, plan_free);
        assert_eq!(si_stg::write_g(&fixed_engine), si_stg::write_g(&fixed_free));
    }

    #[test]
    fn fast_path_reports_zero_search() {
        let stg = si_stg::benchmarks::burst2();
        let engine = Engine::new(&stg);
        let outcome = engine.resolve_csc_outcome(&CscOptions::default());
        assert!(outcome.resolution.is_some());
        assert_eq!(outcome.stats.evaluated, 0);
        assert_eq!(outcome.stats.oracle_calls, 0);
    }
}
