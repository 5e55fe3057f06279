//! Per-layer metrics of the traced run: span totals by layer, the
//! replay facts, si-obs's own counters, and the serving layer's
//! statistics.

use std::collections::HashMap;

use si_serve::StoreStats;

use crate::jobs::{Class, Job, Outcome};
use crate::stats::{geomean, median, ratio, Metrics};
use crate::trace::{total_ms, unattributed_share, Facts, Span, Tracer};

/// What the serving layer reported while the workload ran.
#[derive(Debug, Default)]
pub struct ServeFacts {
    /// `execute` time of requests answered from the response cache.
    pub hit_exec_ms: Vec<f64>,
    /// Submit-to-start wait of queued requests.
    pub queue_wait_ms: Vec<f64>,
    /// `QueueStats.busy_ms / (workers × wall)`; 0 without a queue.
    pub busy_share: f64,
    pub store_hits: u64,
    pub store_misses: u64,
    pub covers_reused: usize,
    pub covers_derived: usize,
    pub fresh_reach_builds: usize,
    pub fresh: usize,
}

impl ServeFacts {
    /// A primary (fresh) request's execution facts.
    pub fn fresh(&mut self, class: Class, out: &Outcome) {
        if class == Class::Fresh {
            self.fresh += 1;
            self.fresh_reach_builds += out.reach_builds;
        }
    }

    /// A follow-up request (resend or edit) on a warm store.
    pub fn follow_up(&mut self, class: Class, out: &Outcome, exec_ms: f64) {
        if out.cache_hit {
            self.hit_exec_ms.push(exec_ms);
        }
        if class == Class::Edit {
            self.covers_reused += out.covers_reused;
            self.covers_derived += out.covers_derived;
        }
    }

    pub fn store(&mut self, s: StoreStats) {
        self.store_hits += s.hits + s.disk_hits;
        self.store_misses += s.misses;
    }
}

/// Accumulated replay facts of the traced pass.
#[derive(Debug, Default)]
pub struct Layers {
    facts: Vec<(String, usize, Facts)>,
    roots: Vec<usize>,
    stg_jobs: usize,
}

fn counter(name: &str) -> f64 {
    si_obs::counter_value(name).unwrap_or(0) as f64
}

/// Σ at 1 shard over Σ at 2 shards, over the specs measured at both.
fn shard_speedup(facts: &[(String, usize, Facts)], ms: impl Fn(&Facts) -> f64) -> f64 {
    let mut by_spec: HashMap<&str, [f64; 2]> = HashMap::new();
    for (key, shards, f) in facts {
        if !key.is_empty() && (1..=2).contains(shards) && ms(f) > 0.0 {
            by_spec.entry(key.as_str()).or_insert([0.0; 2])[shards - 1] += ms(f);
        }
    }
    let (one, two) = by_spec
        .values()
        .filter(|v| v[0] > 0.0 && v[1] > 0.0)
        .fold((0.0, 0.0), |(a, b), v| (a + v[0], b + v[1]));
    ratio(one, two)
}

impl Layers {
    pub fn add(&mut self, job: &Job, root: usize, facts: Facts) {
        if job.op != "deadlock" {
            self.stg_jobs += 1;
        }
        self.roots.push(root);
        // Deadline jobs stop at a wall-clock point: no speedup pairing.
        let key = if job.class == Class::Deadline {
            String::new()
        } else {
            job.twin_key()
        };
        self.facts.push((key, job.shards, facts));
    }

    fn sum(&self, f: impl Fn(&Facts) -> f64) -> f64 {
        self.facts.iter().map(|(_, _, x)| f(x)).sum()
    }

    /// Geometric mean of the replayed jobs' root spans.
    pub fn root_geomean_ms(&self, tracer: &Tracer) -> f64 {
        let spans = tracer.spans();
        geomean(
            &self
                .roots
                .iter()
                .map(|&r| spans[r].ms())
                .collect::<Vec<_>>(),
        )
    }

    /// Every per-layer metric. `trace_gap` (traced over untraced job
    /// geomean) and `op_p50` come from the workload's own runs.
    pub fn metrics(
        &self,
        tracer: &Tracer,
        serve: &ServeFacts,
        trace_gap: f64,
        op_p50: impl Fn(&str) -> f64,
    ) -> Metrics {
        let spans: Vec<Span> = tracer.spans();
        let canon: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == "serve.canon")
            .map(Span::ms)
            .collect();
        let mut m = Metrics::default();

        m.put("serve.hit_execute_ms", median(&serve.hit_exec_ms), "ms");
        m.put("serve.canon_ms", median(&canon), "ms");
        let waits = &serve.queue_wait_ms;
        m.put(
            "serve.queue_wait_ms",
            ratio(waits.iter().sum(), waits.len() as f64),
            "ms",
        );
        m.put("serve.worker_busy_share", serve.busy_share, "ratio");
        m.put(
            "serve.store_hit_ratio",
            ratio(
                serve.store_hits as f64,
                (serve.store_hits + serve.store_misses) as f64,
            ),
            "ratio",
        );
        m.put(
            "serve.cover_reuse_ratio",
            ratio(
                serve.covers_reused as f64,
                (serve.covers_reused + serve.covers_derived) as f64,
            ),
            "ratio",
        );
        m.put(
            "serve.reach_builds",
            ratio(serve.fresh_reach_builds as f64, serve.fresh as f64),
            "count",
        );

        m.put("core.context_ms", total_ms(&spans, "core.context"), "ms");
        m.put(
            "core.refinement_rounds",
            self.sum(|f| f.refinement_rounds as f64),
            "count",
        );
        m.put(
            "core.synthesize_ms",
            total_ms(&spans, "core.synthesize"),
            "ms",
        );
        m.put(
            "core.reach_builds_per_job",
            ratio(self.sum(|f| f.reach_builds as f64), self.stg_jobs as f64),
            "count",
        );

        m.put("boolean.minimize_calls", counter("minimize.calls"), "count");
        m.put(
            "boolean.literals_before",
            counter("minimize.literals_before"),
            "count",
        );
        m.put(
            "boolean.literals_after",
            counter("minimize.literals_after"),
            "count",
        );

        let reach_ms = self.sum(|f| f.reach_ms);
        m.put("petri.reach_ms", reach_ms, "ms");
        m.put(
            "petri.reach_states_per_s",
            ratio(self.sum(|f| f.reach_states as f64), reach_ms / 1e3),
            "1/s",
        );
        m.put(
            "petri.shard_speedup",
            shard_speedup(&self.facts, |f| f.reach_ms),
            "ratio",
        );
        m.put(
            "petri.explore_idle_spins",
            counter("explore.idle_spins"),
            "count",
        );
        m.put("petri.explore_flushes", counter("explore.flushes"), "count");
        m.put(
            "petri.symbolic_reach_ms",
            total_ms(&spans, "petri.symbolic_reach"),
            "ms",
        );
        m.put(
            "petri.symbolic_iterations",
            counter("symbolic.iterations"),
            "count",
        );
        let (hits, misses) = (counter("bdd.cache_hits"), counter("bdd.cache_misses"));
        m.put(
            "petri.bdd_cache_hit_ratio",
            ratio(hits, hits + misses),
            "ratio",
        );
        m.put(
            "petri.bdd_peak_nodes",
            si_obs::gauge_value("symbolic.peak_nodes").unwrap_or(0) as f64,
            "count",
        );

        let encode_ms = self.sum(|f| f.encode_ms);
        m.put("stg.encode_ms", encode_ms, "ms");
        // Over the jobs that encode (verify), against their own builds.
        let verify_reach: f64 = self
            .facts
            .iter()
            .filter(|(_, _, f)| f.encode_ms > 0.0)
            .map(|(_, _, f)| f.reach_ms)
            .sum();
        m.put(
            "stg.encode_to_reach_ratio",
            ratio(encode_ms, verify_reach),
            "ratio",
        );
        m.put(
            "stg.symbolic_analysis_ms",
            total_ms(&spans, "stg.symbolic_analysis"),
            "ms",
        );

        m.put("verify.check_ms", total_ms(&spans, "verify.check"), "ms");
        m.put(
            "verify.conformance_ms",
            total_ms(&spans, "verify.conformance"),
            "ms",
        );
        m.put("verify.walks_ms", total_ms(&spans, "verify.walks"), "ms");

        let resolve_ms = self.sum(|f| f.resolve_ms);
        let evaluated = self.sum(|f| f.evaluated as f64);
        let oracle = self.sum(|f| f.oracle_calls as f64);
        m.put("csc.resolve_ms", resolve_ms, "ms");
        m.put("csc.evaluated", evaluated, "count");
        m.put("csc.oracle_calls", oracle, "count");
        m.put(
            "csc.oracle_accept_ratio",
            ratio(oracle - self.sum(|f| f.oracle_rejected as f64), oracle),
            "ratio",
        );
        m.put(
            "csc.evaluated_per_s",
            ratio(evaluated, resolve_ms / 1e3),
            "1/s",
        );

        let proto_ms = self.sum(|f| f.proto_ms);
        m.put("proto.check_ms", proto_ms, "ms");
        m.put(
            "proto.states_per_s",
            ratio(self.sum(|f| f.proto_states as f64), proto_ms / 1e3),
            "1/s",
        );
        m.put(
            "proto.shard_speedup",
            shard_speedup(&self.facts, |f| f.proto_ms),
            "ratio",
        );

        for op in ["check", "synth", "verify", "resolve", "deadlock"] {
            m.put(&format!("op.{op}.p50_ms"), op_p50(op), "ms");
        }
        m.put("bench.trace_gap_ratio", trace_gap, "ratio");
        m.put(
            "bench.unattributed_share",
            unattributed_share(&spans),
            "ratio",
        );
        m
    }
}
