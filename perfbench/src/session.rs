//! `serve_session`: two closed-loop clients against one `JobQueue` of two
//! workers over one `Service` and one long-lived store — what
//! `si_serve::serve` builds, minus the socket.
//!
//! The request stream is made of rounds of one fixed composition; the
//! seed only orders the requests. No record of real traffic backs the
//! mix: it is the simplest one with every class the workload is for.
//! Every round sends each spec of a small grid once under a new signal
//! alphabet (`fresh`), resends each of those once byte-identical
//! (`repeat`) and once with its graph lines reordered (`permute`), sends
//! one one-component edit of each handshake composition (`edit`), and one
//! deadline request. Judge serve changes by the per-class medians, which
//! do not depend on these shares.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use si_serve::json::Value;
use si_serve::{ArtifactStore, JobQueue, Response, Service};
use si_stg::{canonical_g, parse_g};

use crate::expected::Expected;
use crate::jobs::{self, Class, Input, Job, Opts, STORE_BYTES};
use crate::layers::{Layers, ServeFacts};
use crate::specs::{permute_graph_lines, rename_signals, Family, Gen, Rng};
use crate::stats::{geomean, median, quantile, ratio, Metrics};
use crate::trace::{replay, Tracer};

/// `sisyn serve`'s default worker count, and the client count.
const WORKERS: usize = 2;
const CLIENTS: usize = 2;
/// The fresh grid: every op of `OPS` on every family instance of
/// `FAMILIES`, plus `resolve` on the CSC conflicts of `RESOLVE`.
const FAMILIES: [(&str, usize); 6] = [
    ("clatch", 7),
    ("muller", 6),
    ("sequencer", 5),
    ("selector", 5),
    ("philosophers", 4),
    ("burst", 4),
];
const OPS: [&str; 3] = ["check", "synth", "verify"];
const RESOLVE: [(&str, usize); 2] = [("vme_read_raw", 0), ("vme_chain", 2)];
/// Handshake compositions per round (component counts); each is synthed
/// and then edited once.
const BASES: [usize; 4] = [3, 4, 5, 6];
/// The deadline request: verify of clatch(n) with a timeout that lands
/// inside its reachability build (over 100 ms for its 2^17 states), so it
/// ends inconclusive however fast the machine is.
const SERVE_DEADLINE_CLATCH: usize = 16;
const SERVE_DEADLINE_MS: u64 = 20;

/// One request of the stream.
#[derive(Clone, Debug)]
pub struct Req {
    pub job: Job,
    pub round: usize,
    /// The request this one must follow: the first send of a resent
    /// job, or the base of an edit.
    pub after: Option<usize>,
}

/// The generated specs the stream is made from: the fresh grid with its
/// ops, and the deadline spec.
pub struct Specs {
    grid: Vec<(Family, &'static str)>,
    deadline: Family,
}

/// The generator calls of the stream, through `gen`.
pub fn specs(gen: &mut Gen) -> Specs {
    let mut grid = Vec::new();
    for (family, n) in FAMILIES {
        let f = gen.stg(family, n);
        grid.extend(OPS.map(|op| (f.clone(), op)));
    }
    for (family, n) in RESOLVE {
        grid.push((gen.stg(family, n), "resolve"));
    }
    Specs {
        grid,
        deadline: gen.stg("clatch", SERVE_DEADLINE_CLATCH),
    }
}

/// `f` under the alphabet `prefix`, graph lines reordered, as `op`.
fn fresh_job(
    f: &Family,
    op: &'static str,
    prefix: &str,
    o: Opts,
    class: Class,
    rng: &mut Rng,
) -> Job {
    let text = permute_graph_lines(&rename_signals(&f.text, prefix), rng);
    let name = format!("{prefix}{}", f.name);
    Job::stg(f.family, f.n, &name, op, text, o, class)
}

/// The seeded stream of `rounds` rounds.
pub fn stream(specs: &Specs, seed: u64, rounds: usize) -> Vec<Req> {
    let mut rng = Rng::new(seed);
    let mut out: Vec<Req> = Vec::new();
    for round in 0..rounds {
        // Each first send with the requests that must follow it.
        let mut firsts: Vec<(Job, Vec<Job>)> = Vec::new();
        let resends = |job: &Job, rng: &mut Rng| {
            let spec = job.spec().expect("serve requests are STG ops");
            vec![
                job.resend(Class::Repeat, None),
                job.resend(Class::Permute, Some(permute_graph_lines(spec, rng))),
            ]
        };
        for (i, (f, op)) in specs.grid.iter().enumerate() {
            let job = fresh_job(
                f,
                op,
                &format!("r{round}f{i}_"),
                Opts::default(),
                Class::Fresh,
                &mut rng,
            );
            let follow = resends(&job, &mut rng);
            firsts.push((job, follow));
        }
        for (b, &k) in BASES.iter().enumerate() {
            let prefix = format!("r{round}h{b}_");
            let base = Job::handshakes(&prefix, k, "synth", None);
            let mut follow = resends(&base, &mut rng);
            follow.push(Job::handshakes(&prefix, k, "synth", Some(rng.below(k))));
            firsts.push((base, follow));
        }
        let o = Opts {
            timeout_ms: Some(SERVE_DEADLINE_MS),
            ..Opts::default()
        };
        let deadline = fresh_job(
            &specs.deadline,
            "verify",
            &format!("r{round}d_"),
            o,
            Class::Deadline,
            &mut rng,
        );
        firsts.push((deadline, Vec::new()));
        rng.shuffle(&mut firsts);
        // Every step sends one of the requests that may go next, chosen
        // uniformly: the next first send, or a follow-up whose first
        // send has gone.
        let mut ready: Vec<(Job, usize)> = Vec::new();
        let mut next = 0;
        loop {
            let unsent = firsts.len() - next;
            let total = unsent + ready.len();
            if total == 0 {
                break;
            }
            let pick = rng.below(total);
            let index = out.len();
            let (job, after) = if pick < unsent {
                let (job, follow) = firsts[next].clone();
                next += 1;
                ready.extend(follow.into_iter().map(|f| (f, index)));
                (job, None)
            } else {
                let (job, of) = ready.swap_remove(pick - unsent);
                (job, Some(of))
            };
            out.push(Req { job, round, after });
        }
    }
    out
}

/// One completed request.
#[derive(Clone, Debug)]
pub struct Done {
    pub index: usize,
    pub latency_ms: f64,
    pub wait_ms: f64,
    pub exec_ms: f64,
    pub response: Option<Response>,
}

/// The closed-loop session: runs rounds until `seconds` have elapsed,
/// finishing the round in progress.
pub struct Session {
    pub service: Arc<Service>,
    pub queue: Arc<JobQueue>,
}

impl Session {
    pub fn new() -> Session {
        let store = Arc::new(ArtifactStore::in_memory(STORE_BYTES));
        Session {
            service: Arc::new(Service::new(store)),
            queue: Arc::new(JobQueue::new(WORKERS)),
        }
    }

    /// Drives `reqs` with the clients; spans go to `tracer` when given.
    pub fn drive(&self, reqs: &[Req], seconds: f64, tracer: Option<&Tracer>) -> (Vec<Done>, f64) {
        let next = AtomicUsize::new(0);
        let limit = AtomicUsize::new(reqs.len());
        let done: Mutex<Vec<bool>> = Mutex::new(vec![false; reqs.len()]);
        let ready = Condvar::new();
        let results: Mutex<Vec<Done>> = Mutex::new(Vec::new());
        let round_end = |i: usize| {
            let r = reqs[i.min(reqs.len() - 1)].round;
            reqs.iter().position(|q| q.round > r).unwrap_or(reqs.len())
        };
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..CLIENTS {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    if i >= limit.load(Ordering::SeqCst) {
                        break;
                    }
                    let req = &reqs[i];
                    if let Some(a) = req.after {
                        let mut d = done.lock().expect("client threads do not panic");
                        while !d[a] {
                            d = ready.wait(d).expect("client threads do not panic");
                        }
                    }
                    let Input::Stg { line, spec } = &req.job.input else {
                        unreachable!("serve requests are STG ops")
                    };
                    if let Some(tr) = tracer {
                        let _ = tr.time("serve.canon", i, None, || {
                            parse_g(spec)
                                .map(|stg| parse_g(&canonical_g(&stg)).map(|c| c.signal_count()))
                        });
                    }
                    let slot: Arc<Mutex<Option<(Instant, Instant, Response)>>> =
                        Arc::new(Mutex::new(None));
                    let (svc, line2, slot2) =
                        (Arc::clone(&self.service), line.clone(), Arc::clone(&slot));
                    let submitted = Instant::now();
                    let body = self.queue.submit(move || {
                        let start = Instant::now();
                        let resp = svc.execute(&line2);
                        let body = resp.body.clone();
                        *slot2.lock().expect("one writer") = Some((start, Instant::now(), resp));
                        body
                    });
                    let returned = Instant::now();
                    let filled = slot.lock().expect("worker finished").take();
                    let ms =
                        |a: Instant, b: Instant| b.saturating_duration_since(a).as_secs_f64() * 1e3;
                    let (wait_ms, exec_ms, response) = match (body, filled) {
                        (Ok(_), Some((start, end, resp))) => {
                            if let Some(tr) = tracer {
                                let root = tr.record(
                                    &format!("job.{}", req.job.op),
                                    i,
                                    None,
                                    submitted,
                                    returned,
                                );
                                tr.record("serve.queue_wait", i, Some(root), submitted, start);
                                tr.record("serve.execute", i, Some(root), start, end);
                            }
                            (ms(submitted, start), ms(start, end), Some(resp))
                        }
                        _ => (0.0, 0.0, None),
                    };
                    results
                        .lock()
                        .expect("client threads do not panic")
                        .push(Done {
                            index: i,
                            latency_ms: ms(submitted, returned),
                            wait_ms,
                            exec_ms,
                            response,
                        });
                    done.lock().expect("client threads do not panic")[i] = true;
                    ready.notify_all();
                    if t0.elapsed().as_secs_f64() >= seconds {
                        limit.fetch_min(round_end(next.load(Ordering::SeqCst)), Ordering::SeqCst);
                    }
                });
            }
        });
        let wall = t0.elapsed().as_secs_f64();
        let mut out = results.into_inner().expect("clients joined");
        out.sort_by_key(|d| d.index);
        (out, wall)
    }
}

/// The judged session: samples, tallies and serving facts.
#[derive(Debug, Default)]
pub struct Judged {
    pub attempted: usize,
    pub failed: usize,
    rounds: BTreeSet<usize>,
    pub all: Vec<f64>,
    by_class: HashMap<&'static str, Vec<f64>>,
    pub ops: HashMap<&'static str, Vec<f64>>,
    pub literals: u64,
    pub serve: ServeFacts,
}

fn class_name(c: Class) -> &'static str {
    match c {
        Class::Fresh => "fresh",
        Class::Repeat | Class::Permute => "repeat",
        Class::Edit => "edit",
        Class::Deadline => "deadline",
    }
}

/// Judges every completed request against the expected answers, the
/// first answer of a resent job, and the edit cover counts.
pub fn judge(reqs: &[Req], done: &[Done], expected: &Expected) -> Judged {
    let mut j = Judged::default();
    let mut answers: HashMap<usize, Value> = HashMap::new();
    for d in done {
        let req = &reqs[d.index];
        let job = &req.job;
        j.attempted += 1;
        j.rounds.insert(req.round);
        j.all.push(d.latency_ms);
        j.by_class
            .entry(class_name(job.class))
            .or_default()
            .push(d.latency_ms);
        j.ops.entry(job.op).or_default().push(d.latency_ms);
        j.serve.queue_wait_ms.push(d.wait_ms);
        let verdict = match &d.response {
            None => Err("the job panicked".to_string()),
            Some(resp) => {
                let out = jobs::Outcome {
                    body: resp.body.clone(),
                    cache_hit: resp.cache_hit,
                    reach_builds: resp.reach_builds,
                    covers_reused: resp.covers_reused,
                    covers_derived: resp.covers_derived,
                };
                match job.class {
                    Class::Fresh => j.serve.fresh(Class::Fresh, &out),
                    Class::Deadline => {}
                    c => j.serve.follow_up(c, &out, d.exec_ms),
                }
                jobs::judge(job, &out, expected).and_then(|answer| {
                    if req.round == 0 && matches!(job.class, Class::Fresh | Class::Edit) {
                        j.literals += jobs::literals(&answer);
                    }
                    match (job.class, req.after) {
                        (Class::Repeat | Class::Permute, Some(of))
                            if answers.get(&of) != Some(&answer) =>
                        {
                            Err("resend answer differs from the first answer".to_string())
                        }
                        _ => {
                            answers.insert(d.index, answer);
                            Ok(())
                        }
                    }
                })
            }
        };
        if let Err(why) = verdict {
            j.failed += 1;
            if j.failed <= 10 {
                eprintln!("perfbench: FAILED {}: {why}", job.label);
            }
        }
    }
    j
}

impl Judged {
    /// The end-to-end metrics over every request of the session, which
    /// ran for `wall_s` seconds.
    pub fn metrics(&self, setup_s: f64, wall_s: f64) -> Metrics {
        let class = |c: &str| median(self.by_class.get(c).map_or(&[][..], Vec::as_slice));
        let mut m = Metrics::default();
        m.put("setup_s", setup_s, "s");
        m.put("jobs_per_s", ratio(self.all.len() as f64, wall_s), "1/s");
        m.put("job_p50_ms", median(&self.all), "ms");
        m.put("job_p90_ms", quantile(&self.all, 0.9), "ms");
        m.put("job_geomean_ms", geomean(&self.all), "ms");
        m.put("peak_rss_mb", crate::stats::peak_rss_mb(), "MiB");
        m.put("circuit_literals", self.literals as f64, "count");
        m.put("deadline_wall_p50_ms", class("deadline"), "ms");
        m.put("fresh_p50_ms", class("fresh"), "ms");
        m.put("repeat_p50_ms", class("repeat"), "ms");
        m.put("edit_p50_ms", class("edit"), "ms");
        m
    }

    pub fn rounds(&self) -> usize {
        self.rounds.len()
    }

    pub fn op_p50(&self, op: &str) -> f64 {
        median(&self.ops.get(op).cloned().unwrap_or_default())
    }
}

/// The traced run: an untraced session, then a traced one on a fresh
/// service, then the layer replay of round 0's fresh requests.
pub fn traced(
    reqs: &[Req],
    seconds: f64,
    expected: &Expected,
    tracer: &Tracer,
) -> (Metrics, usize, usize) {
    let (done, _) = Session::new().drive(reqs, seconds / 2.0, None);
    let untraced = judge(reqs, &done, expected);
    si_obs::reset();
    si_obs::set_enabled(true);
    let session = Session::new();
    let (done, wall) = session.drive(reqs, seconds / 2.0, Some(tracer));
    let mut traced = judge(reqs, &done, expected);
    let busy_ms = session.queue.stats().busy_ms as f64;
    traced.serve.busy_share = busy_ms / (WORKERS as f64 * wall * 1e3);
    traced.serve.store(session.service.store().stats());
    let mut layers = Layers::default();
    let base = reqs.len();
    for (k, req) in reqs
        .iter()
        .filter(|r| r.round == 0 && r.job.class == Class::Fresh)
        .enumerate()
    {
        let (root, facts) = replay(&req.job, tracer, base + k);
        layers.add(&req.job, root, facts);
    }
    si_obs::set_enabled(false);
    // The traced session's requests, not the replay, are what the
    // untraced session is compared with.
    let gap = ratio(geomean(&traced.all), geomean(&untraced.all));
    let m = layers.metrics(tracer, &traced.serve, gap, |op| untraced.op_p50(op));
    (
        m,
        untraced.attempted + traced.attempted,
        untraced.failed + traced.failed,
    )
}
