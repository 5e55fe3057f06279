//! The traced run's instruments: benchmark-side spans around calls into
//! each crate's public functions, and the replay of a job as the
//! sequence of layer calls its op makes.
//!
//! The program gets no spans of its own here; the si-obs switch is only
//! turned on so that its existing counters (minimizer literals, explorer
//! flushes, BDD cache) record during the traced pass.

use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use si_core::{map_circuit, to_verilog, Architecture, Backend, CscVerdict, Engine};
use si_csc::{CscOptions, EngineResolve, Strategy};
use si_petri::{check_live_safe_fc, ReachError, ReachOptions};
use si_stg::{canonical_g, parse_g, StgAnalysis};
use si_verify::{random_walks, EngineVerify};

use crate::jobs::{Input, Job};

/// One benchmark-side span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub job: usize,
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// In-memory span log, written out when the run ends.
#[derive(Debug)]
pub struct Tracer {
    base: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            base: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_us(&self) -> f64 {
        self.base.elapsed().as_secs_f64() * 1e6
    }

    fn log(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("no span writer panics while holding the log")
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&self, name: &str, job: usize, parent: Option<usize>) -> usize {
        let t = self.now_us();
        let mut log = self.log();
        log.push(Span {
            name: name.to_string(),
            job,
            parent,
            start_us: t,
            end_us: t,
        });
        log.len() - 1
    }

    pub fn close(&self, id: usize) {
        let t = self.now_us();
        self.log()[id].end_us = t;
    }

    /// Records a span whose interval is already known.
    pub fn record(
        &self,
        name: &str,
        job: usize,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let at = |i: Instant| i.saturating_duration_since(self.base).as_secs_f64() * 1e6;
        let mut log = self.log();
        log.push(Span {
            name: name.to_string(),
            job,
            parent,
            start_us: at(start),
            end_us: at(end),
        });
        log.len() - 1
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &self,
        name: &str,
        job: usize,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, job, parent);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.log().clone()
    }

    /// Writes the spans as JSON lines (`id`, `name`, `job`, `parent`,
    /// `start_us`, `end_us`).
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::new();
        for (id, s) in self.log().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\": {id}, \"name\": \"{}\", \"job\": {}, \"parent\": {parent}, \"start_us\": {:.1}, \"end_us\": {:.1}}}",
                s.name, s.job, s.start_us, s.end_us
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(text.as_bytes())?;
        f.sync_all()
    }
}

/// What a replayed job reports besides its spans.
#[derive(Clone, Debug, Default)]
pub struct Facts {
    pub refinement_rounds: usize,
    pub reach_builds: usize,
    pub reach_states: usize,
    pub reach_ms: f64,
    pub encode_ms: f64,
    pub evaluated: usize,
    pub oracle_calls: usize,
    pub oracle_rejected: usize,
    pub resolve_ms: f64,
    pub proto_states: usize,
    pub proto_ms: f64,
}

fn arch(name: &str) -> Architecture {
    match name {
        "complex" => Architecture::ComplexGate,
        "per-region" => Architecture::PerRegion,
        _ => Architecture::ExcitationFunction,
    }
}

/// The service's reachability options for `op` (per-op default caps).
fn reach(job: &Job, timeout: Option<Duration>) -> ReachOptions {
    let cap = match job.op {
        "check" => 100_000,
        "resolve" => 1_000_000,
        _ => 4_000_000,
    };
    let r = ReachOptions::with_cap(cap).shards(job.shards);
    match timeout {
        Some(d) => r.timeout(d),
        None => r,
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Replays `job` as the layer calls its op makes, each inside a span
/// under one root span `job.<op>`. Returns the root span id.
pub fn replay(job: &Job, tracer: &Tracer, jid: usize) -> (usize, Facts) {
    let root = tracer.open(&format!("job.{}", job.op), jid, None);
    let mut facts = Facts::default();
    let p = Some(root);
    let timeout = job.opts.timeout_ms.map(Duration::from_millis);
    match &job.input {
        Input::Proto { text } => {
            let sys = tracer.time("proto.parse", jid, p, || si_proto::parse_proto(text));
            if let Ok(sys) = sys {
                let t = Instant::now();
                let opts = ReachOptions::with_cap(si_proto::DEFAULT_CAP).shards(job.shards);
                let report = tracer.time("proto.check", jid, p, || {
                    si_proto::check_deadlock_with(&sys, opts)
                });
                facts.proto_ms = ms_since(t);
                facts.proto_states = report.map_or(0, |r| r.states_explored);
            }
        }
        Input::Stg { spec, .. } => {
            let stg = tracer.time("serve.canon", jid, p, || {
                let parsed = parse_g(spec).expect("generated spec parses");
                parse_g(&canonical_g(&parsed)).expect("canonical form reparses")
            });
            let mut engine = Engine::new(&stg)
                .reach(reach(job, timeout))
                .architecture(arch(job.arch));
            if job.variant == "symbolic" {
                engine = engine.backend(Backend::Symbolic);
            }
            let timed_reach = |facts: &mut Facts| {
                let t = Instant::now();
                let states = tracer.time("petri.reach", jid, p, || match engine.reachability() {
                    Ok(rg) => rg.state_count(),
                    // A capped or interrupted build explored states too.
                    Err(ReachError::StateCapExceeded { cap }) => cap,
                    Err(ReachError::Interrupted {
                        states_explored, ..
                    }) => states_explored,
                    Err(_) => 0,
                });
                facts.reach_ms += ms_since(t);
                facts.reach_states += states;
            };
            match job.op {
                "check" => {
                    if job.variant == "symbolic" {
                        let _ = tracer
                            .time("petri.symbolic_reach", jid, p, || engine.spec_state_count());
                    } else {
                        timed_reach(&mut facts);
                    }
                    tracer.time("petri.live_safe", jid, p, || check_live_safe_fc(stg.net()));
                    let _ = tracer.time("stg.consistency", jid, p, || {
                        StgAnalysis::analyze(&stg).is_ok()
                    });
                    if let Ok(ctx) = tracer.time("core.context", jid, p, || engine.context()) {
                        facts.refinement_rounds += ctx.refinement_rounds;
                        if matches!(ctx.csc_verdict(), CscVerdict::Unknown { .. })
                            && job.variant == "symbolic"
                        {
                            let _ = tracer.time("stg.symbolic_analysis", jid, p, || {
                                engine.symbolic().ok().and_then(|s| s.has_csc())
                            });
                        }
                    }
                }
                "synth" | "verify" => {
                    if let Ok(ctx) = tracer.time("core.context", jid, p, || engine.context()) {
                        facts.refinement_rounds += ctx.refinement_rounds;
                    }
                    let syn = tracer.time("core.synthesize", jid, p, || engine.synthesize());
                    if let Ok(syn) = syn {
                        if job.op == "synth" {
                            tracer.time("core.techmap", jid, p, || {
                                (
                                    map_circuit(&syn.circuit).area,
                                    to_verilog(&stg, &syn.circuit).len(),
                                )
                            });
                        } else {
                            timed_reach(&mut facts);
                            let t = Instant::now();
                            let _ = tracer.time("stg.encode", jid, p, || {
                                engine.encoding().map(|e| e.codes().len())
                            });
                            facts.encode_ms += ms_since(t);
                            let f =
                                tracer.time("verify.check", jid, p, || engine.verify(&syn.circuit));
                            let c = tracer.time("verify.conformance", jid, p, || {
                                engine.check_conformance(&syn.circuit)
                            });
                            if f.is_ok() && c.is_ok() {
                                tracer.time("verify.walks", jid, p, || {
                                    random_walks(&stg, &syn.circuit, 4, 4000, 7).is_clean()
                                });
                            }
                        }
                    }
                }
                _ => {
                    let options = CscOptions::default()
                        .budget(100_000)
                        .strategy(Strategy::Greedy)
                        .reach(reach(job, timeout));
                    let t = Instant::now();
                    let outcome = tracer.time("csc.resolve", jid, p, || {
                        engine.resolve_csc_outcome(&options)
                    });
                    facts.resolve_ms += ms_since(t);
                    facts.evaluated += outcome.stats.evaluated;
                    facts.oracle_calls += outcome.stats.oracle_calls;
                    facts.oracle_rejected += outcome.stats.oracle_rejected;
                }
            }
            facts.reach_builds = engine.reach_build_count();
        }
    }
    tracer.close(root);
    (root, facts)
}

/// Sum of span durations by name, in ms.
pub fn total_ms(spans: &[Span], name: &str) -> f64 {
    spans.iter().filter(|s| s.name == name).map(Span::ms).sum()
}

/// Share of the root spans' time that no direct child span covers.
pub fn unattributed_share(spans: &[Span]) -> f64 {
    let mut covered = vec![0.0; spans.len()];
    for s in spans {
        if let Some(parent) = s.parent {
            covered[parent] += s.ms();
        }
    }
    let (mut root_ms, mut child_ms) = (0.0, 0.0);
    for (s, covered) in spans.iter().zip(covered) {
        if s.parent.is_none() && s.name.starts_with("job.") {
            root_ms += s.ms();
            child_ms += covered;
        }
    }
    crate::stats::ratio((root_ms - child_ms).max(0.0), root_ms)
}
