//! The batch workloads: one job at a time, each on a fresh service and
//! store (what one CLI run costs), in whole passes over the job list.
//!
//! Every batch runs `rounds` times a pass, at shuffled places, and a run
//! makes at least `MIN_PASSES` passes. The workload's latency figures are
//! taken over jobs, so that every job weighs the same. A job's latency is
//! the geometric mean of its samples: on a shared host a core can switch
//! between speeds some 1.6x apart for tenths of a second at a time, and
//! the median of such samples jumps from one speed to the other when each
//! holds about half of them, where their mean moves smoothly.

use std::collections::HashMap;
use std::time::Instant;

use si_serve::json::Value;

use crate::expected::Expected;
use crate::jobs::{self, Class, Job};
use crate::layers::{Layers, ServeFacts};
use crate::specs::Rng;
use crate::stats::{geomean, median, quantile, ratio, Metrics};
use crate::trace::{replay, Tracer};
use crate::workloads::Batch;

/// Passes a timed run makes at least.
pub const MIN_PASSES: usize = 3;

/// Samples and tallies of one or more passes.
#[derive(Debug, Default)]
pub struct Tally {
    /// Per batch: the primary job's latency in each run of it.
    primary: HashMap<usize, Vec<f64>>,
    /// Per (batch, follow-up): the follow-up's latency in each run of it.
    follow: HashMap<(usize, usize), Vec<f64>>,
    /// Requests sent (primary jobs and follow-ups) and their summed
    /// latencies, which leave out the judging between them.
    sent: usize,
    busy_ms: f64,
    pub passes: usize,
    pub attempted: usize,
    pub failed: usize,
    pub literals: u64,
    pub serve: ServeFacts,
}

impl Tally {
    fn fail(&mut self, label: &str, why: &str) {
        self.failed += 1;
        if self.failed <= 10 {
            eprintln!("perfbench: FAILED {label}: {why}");
        }
    }

    /// Judges `out` and returns its answer (`None` counted as failed).
    fn judge(&mut self, job: &Job, out: &jobs::Outcome, expected: &Expected) -> Option<Value> {
        self.attempted += 1;
        match jobs::judge(job, out, expected) {
            Ok(v) => Some(v),
            Err(why) => {
                self.fail(&job.label, &why);
                None
            }
        }
    }

    /// Requests per second of their summed latencies over the run.
    pub fn rate(&self) -> f64 {
        ratio(self.sent as f64 * 1e3, self.busy_ms)
    }

    /// The latency of each primary job that satisfies `keep`, over the run.
    fn primary_ms(&self, batches: &[Batch], keep: impl Fn(&Job) -> bool) -> Vec<f64> {
        self.primary
            .iter()
            .filter(|(&i, _)| keep(&batches[i].primary))
            .map(|(_, s)| geomean(s))
            .collect()
    }

    /// The latency of each follow-up whose class satisfies `keep`, over
    /// the run.
    fn follow_ms(&self, batches: &[Batch], keep: impl Fn(Class) -> bool) -> Vec<f64> {
        self.follow
            .iter()
            .filter(|(&(i, k), _)| keep(batches[i].follow_ups[k].class))
            .map(|(_, s)| geomean(s))
            .collect()
    }

    /// The end-to-end metrics of the batch workloads.
    pub fn metrics(&self, batches: &[Batch], setup_s: f64) -> Metrics {
        let ms = self.primary_ms(batches, |_| true);
        let of = |c: Class| self.primary_ms(batches, |j| j.class == c);
        let mut m = Metrics::default();
        m.put("setup_s", setup_s, "s");
        m.put("jobs_per_s", self.rate(), "1/s");
        m.put("job_p50_ms", median(&ms), "ms");
        m.put("job_p90_ms", quantile(&ms, 0.9), "ms");
        m.put("job_geomean_ms", geomean(&ms), "ms");
        m.put("peak_rss_mb", crate::stats::peak_rss_mb(), "MiB");
        m.put("circuit_literals", self.literals as f64, "count");
        m.put("deadline_wall_p50_ms", median(&of(Class::Deadline)), "ms");
        m.put("fresh_p50_ms", median(&of(Class::Fresh)), "ms");
        m.put(
            "repeat_p50_ms",
            median(&self.follow_ms(batches, |c| c != Class::Edit)),
            "ms",
        );
        m.put(
            "edit_p50_ms",
            median(&self.follow_ms(batches, |c| c == Class::Edit)),
            "ms",
        );
        m
    }

    /// p50 of the primary jobs of `op`, for the per-subcommand times.
    pub fn op_p50(&self, batches: &[Batch], op: &str) -> f64 {
        median(&self.primary_ms(batches, |j| j.op == op))
    }
}

/// The pass order: every batch `rounds` times, shuffled by `rng`, so
/// that the rounds of a batch are spread over the pass.
fn order(batches: &[Batch], rng: &mut Rng) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..batches.len())
        .flat_map(|i| std::iter::repeat_n(i, batches[i].rounds))
        .collect();
    rng.shuffle(&mut idx);
    idx
}

/// Runs one pass through the service, judging every answer and
/// cross-checking shard twins and resends.
fn pass(batches: &[Batch], idx: &[usize], expected: &Expected, t: &mut Tally) {
    let (mut sent, mut busy_ms) = (0, 0.0);
    let mut twins: HashMap<String, Value> = HashMap::new();
    for &i in idx {
        let b = &batches[i];
        let job = &b.primary;
        // Circuit sizes are summed over each batch's first run only.
        let first = !t.primary.contains_key(&i);
        let started = Instant::now();
        let service = jobs::fresh_service();
        let (out, _) = jobs::run(job, &service);
        let ms = started.elapsed().as_secs_f64() * 1e3;
        t.primary.entry(i).or_default().push(ms);
        sent += 1;
        busy_ms += ms;
        t.serve.fresh(job.class, &out);
        let Some(answer) = t.judge(job, &out, expected) else {
            continue;
        };
        // A deadline job reports a circuit only when the deadline let
        // synthesis finish: not a figure of the circuit's size.
        if first && job.class != Class::Deadline {
            t.literals += jobs::literals(&answer);
        }
        if job.class != Class::Deadline {
            match twins.get(&job.twin_key()) {
                Some(twin) if *twin != answer => t.fail(&job.label, "differs from its shard twin"),
                Some(_) => {}
                None => {
                    twins.insert(job.twin_key(), answer.clone());
                }
            }
        }
        // A count past the check cap is not cached: resends would redo it.
        if matches!(answer.get("spec_states"), Some(Value::Null)) {
            continue;
        }
        for (k, f) in b.follow_ups.iter().enumerate() {
            let (fo, fms) = jobs::run(f, &service);
            t.serve.follow_up(f.class, &fo, fms);
            t.follow.entry((i, k)).or_default().push(fms);
            sent += 1;
            busy_ms += fms;
            let Some(fa) = t.judge(f, &fo, expected) else {
                continue;
            };
            if f.class == Class::Edit {
                if first {
                    t.literals += jobs::literals(&fa);
                }
            } else if fa != answer {
                t.fail(&f.label, "resend answer differs from the first answer");
            }
        }
        t.serve.store(service.store().stats());
    }
    t.sent += sent;
    t.busy_ms += busy_ms;
    t.passes += 1;
}

/// Whole passes until `seconds` have elapsed and `min_passes` were made.
pub fn timed(
    batches: &[Batch],
    seed: u64,
    seconds: f64,
    min_passes: usize,
    expected: &Expected,
) -> Tally {
    let mut rng = Rng::new(seed ^ 0x0bad_cafe);
    let mut t = Tally::default();
    let t0 = Instant::now();
    while t.passes < min_passes.max(1) || t0.elapsed().as_secs_f64() < seconds {
        let idx = order(batches, &mut rng);
        pass(batches, &idx, expected, &mut t);
    }
    t
}

/// The traced run: one untraced pass through the service, then one pass
/// replaying every primary job as layer calls with si-obs on.
pub fn traced(
    batches: &[Batch],
    seed: u64,
    expected: &Expected,
    tracer: &Tracer,
) -> (Metrics, usize, usize) {
    let untraced = timed(batches, seed, 0.0, 1, expected);
    let mut rng = Rng::new(seed ^ 0x7ace);
    let mut idx: Vec<usize> = (0..batches.len()).collect();
    rng.shuffle(&mut idx);
    si_obs::reset();
    si_obs::set_enabled(true);
    let mut layers = Layers::default();
    for (jid, &i) in idx.iter().enumerate() {
        let job = &batches[i].primary;
        let (root, facts) = replay(job, tracer, jid);
        layers.add(job, root, facts);
    }
    si_obs::set_enabled(false);
    let gap = ratio(
        layers.root_geomean_ms(tracer),
        geomean(&untraced.primary_ms(batches, |_| true)),
    );
    let m = layers.metrics(tracer, &untraced.serve, gap, |op| {
        untraced.op_p50(batches, op)
    });
    (m, untraced.attempted, untraced.failed)
}
