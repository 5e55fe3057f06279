//! Request execution over the artifact store.
//!
//! One [`Service`] holds the shared [`ArtifactStore`] and turns a request
//! line into a response body. Every spec is first *canonicalized*
//! ([`si_stg::canonical_g`]) and reparsed, so identifiers, cube columns
//! and implicit place names are identical across sessions and textual
//! permutations of the same STG — the content hash of the canonical text
//! is the spec's identity.
//!
//! Artifacts are keyed content-addressed:
//!
//! | key              | payload                                        |
//! |------------------|------------------------------------------------|
//! | `resp:<job>`     | the cached core response body of a job         |
//! | `manifest:<job>` | the sub-artifact keys the response was built on |
//! | `reach:<spec>`   | the spec's [`ReachSummary`] wire form          |
//! | `cover:<fp>`     | one signal's derived clusters (wire form)      |
//!
//! `<job>` hashes (op, canonical spec, the options that determine the
//! *outcome*); resource knobs — `cap`, `shards`, `timeout_ms` — are
//! deliberately excluded, and only conclusive responses are cached, so a
//! budget-starved run never poisons the cache for a better-funded rerun.
//! `<fp>` is [`si_core::signal_fingerprint`]: a per-signal digest of the
//! structural covers, so a one-signal edit re-derives only the covers it
//! dirtied. Reuse stays sound independently of the digest because every
//! cached cluster set is re-checked against the current context by
//! [`si_core::revalidate_clusters`] before it is realized.
//!
//! Every op's flow and report exist only here: `sisyn check|synth|verify|
//! resolve` runs this same [`Service`] in process (see [`crate::cli`]),
//! and response bodies put the artifact (`verilog`, `resolved`) last so
//! the CLI can print the report without it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use si_boolean::hash::{fnv1a_64, Fnv64};
use si_boolean::MinimizerChoice;
use si_core::{
    clusters_from_wire, clusters_to_wire, derive_clusters, map_circuit, revalidate_clusters,
    signal_fingerprint, synthesize_with_context, to_verilog, Analysis, Architecture, Backend,
    CscVerdict, Engine, MinimizeStages, StateGraphError, Synthesis, SynthesisError,
    SynthesisOptions,
};
use si_csc::{CscOptions, EngineResolve, InsertionPlan, ResolveStats, Strategy};
use si_petri::{
    check_live_safe_fc, CancelToken, Interrupt, ReachError, ReachOptions, ReachSummary,
    StructuralCheck,
};
use si_stg::{canonical_g, parse_g, write_g, EncodingError, Stg, StgAnalysis};
use si_verify::EngineVerify;

use crate::json::{escape, parse, Value};
use crate::queue::QueueStats;
use crate::store::{ArtifactStore, StoreStats};

/// A parsed request: the operation plus the same knobs the CLI exposes
/// as flags, with the same defaults.
#[derive(Clone, Debug)]
pub struct Request {
    /// `check` | `synth` | `verify` | `resolve` | `stats`.
    pub op: String,
    /// The `.g` spec text (empty for `stats`).
    pub spec: String,
    /// `--arch`.
    pub arch: Architecture,
    /// `--stages`.
    pub stages: MinimizeStages,
    /// `--minimizer`.
    pub minimizer: MinimizerChoice,
    /// `--cap` (`None` keeps the per-op default).
    pub cap: Option<usize>,
    /// `--shards`.
    pub shards: usize,
    /// `--budget` (resolve).
    pub budget: usize,
    /// `--strategy` (resolve).
    pub strategy: Strategy,
    /// `--backend` (check / verify).
    pub backend: Backend,
    /// `--timeout`.
    pub timeout: Option<Duration>,
}

/// The outcome of executing one request: the core response body (a JSON
/// object, the report `sisyn <op> --json` prints) plus the volatile
/// execution facts the server splices into the final line.
#[derive(Clone, Debug)]
pub struct Response {
    /// Core JSON object (always starts with `{`).
    pub body: String,
    /// Whether the body came straight from the response cache.
    pub cache_hit: bool,
    /// Reachability graphs built while executing (0 on a cache hit).
    pub reach_builds: usize,
    /// Per-signal cover artifacts revalidated and reused.
    pub covers_reused: usize,
    /// Per-signal cover artifacts derived fresh (and stored).
    pub covers_derived: usize,
}

impl Response {
    fn fresh(body: String) -> Self {
        Response {
            body,
            cache_hit: false,
            reach_builds: 0,
            covers_reused: 0,
            covers_derived: 0,
        }
    }

    fn error(op: &str, model: Option<&str>, kind: &str, detail: &str) -> Self {
        Response::fresh(error_body(op, model, kind, detail))
    }
}

/// A structured error body: the op, the model when the spec parsed, and
/// an [`error_json`] object.
fn error_body(op: &str, model: Option<&str>, kind: &str, detail: &str) -> String {
    format!(
        "{{\"command\": {}, \"ok\": false, \"model\": {}, \"error\": {}}}",
        escape(op),
        model.map_or("null".to_string(), escape),
        error_json(kind, detail, 0),
    )
}

/// The stable CLI identifier of an architecture — the same vocabulary
/// `--arch` accepts, so reports round-trip into reproduction commands.
fn arch_name(arch: Architecture) -> &'static str {
    match arch {
        Architecture::ComplexGate => "complex",
        Architecture::ExcitationFunction => "excitation",
        Architecture::PerRegion => "per-region",
    }
}

fn stage_bits(stages: MinimizeStages) -> u64 {
    stages.expand as u64
        | (stages.merge as u64) << 1
        | (stages.complete as u64) << 2
        | (stages.collapse as u64) << 3
        | (stages.backward as u64) << 4
}

impl Request {
    /// Parses one request line. `Err` carries (op-or-`?`, detail). This
    /// is the one validation of the options, whether they arrive on the
    /// wire or as `sisyn` flags.
    pub fn parse(line: &str) -> Result<Request, (String, String)> {
        let v = parse(line).map_err(|e| ("?".to_string(), e.to_string()))?;
        let op = v
            .get("op")
            .and_then(Value::as_str)
            .ok_or_else(|| ("?".to_string(), "missing \"op\"".to_string()))?
            .to_string();
        let spec = v
            .get("spec")
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_string();
        let mut req = Request {
            op: op.clone(),
            spec,
            arch: Architecture::ExcitationFunction,
            stages: MinimizeStages::full(),
            minimizer: MinimizerChoice::Espresso,
            cap: None,
            shards: 1,
            budget: 100_000,
            strategy: Strategy::Greedy,
            backend: Backend::Explicit,
            timeout: None,
        };
        if let Value::Obj(fields) = &v {
            for (key, value) in fields {
                req.set(key, value).map_err(|detail| (op.clone(), detail))?;
            }
        }
        // Only check and verify ask state-space questions a backend could
        // answer; elsewhere the option is a mistake worth naming.
        if req.backend != Backend::Explicit && !matches!(op.as_str(), "check" | "verify") {
            return Err((
                op,
                "\"backend\" applies to check and verify only".to_string(),
            ));
        }
        Ok(req)
    }

    /// Sets the request field `key` from its wire value (`op` and `spec`
    /// are read before); an unknown key is an error, so a misspelt option
    /// is not silently ignored.
    fn set(&mut self, key: &str, value: &Value) -> Result<(), String> {
        let text = || {
            value
                .as_str()
                .ok_or_else(|| format!("\"{key}\" must be a string"))
        };
        let count = |min: usize| {
            value
                .as_usize()
                .filter(|&n| n >= min)
                .ok_or_else(|| format!("\"{key}\" must be an integer >= {min}"))
        };
        match key {
            "op" | "spec" => {}
            "arch" => {
                self.arch = match text()? {
                    "complex" => Architecture::ComplexGate,
                    "excitation" => Architecture::ExcitationFunction,
                    "per-region" => Architecture::PerRegion,
                    other => return Err(format!("unknown architecture {other:?}")),
                }
            }
            "stages" => {
                self.stages = match (value.as_str(), value.as_usize()) {
                    (Some("full"), _) => MinimizeStages::full(),
                    (Some("none"), _) => MinimizeStages::none(),
                    (None, Some(n)) if n <= 4 => MinimizeStages::stage(n),
                    _ => return Err("bad \"stages\" (0..4, \"full\" or \"none\")".to_string()),
                }
            }
            "minimizer" => self.minimizer = text()?.parse()?,
            "cap" => self.cap = Some(count(1)?),
            "shards" => self.shards = count(1)?,
            "budget" => self.budget = count(0)?,
            "strategy" => self.strategy = text()?.parse()?,
            "backend" => {
                let b = text()?;
                self.backend = Backend::parse(b).ok_or_else(|| format!("unknown backend {b:?}"))?;
            }
            "timeout_ms" => self.timeout = Some(Duration::from_millis(count(0)? as u64)),
            other => return Err(format!("unknown option {other:?}")),
        }
        Ok(())
    }

    /// Reachability options for an oracle whose per-op default cap is
    /// `default_cap`, under the request's shard count and deadline.
    pub fn reach(&self, default_cap: usize) -> ReachOptions {
        let mut reach = ReachOptions::with_cap(self.cap.unwrap_or(default_cap)).shards(self.shards);
        if let Some(d) = self.timeout {
            reach = reach.timeout(d);
        }
        reach
    }

    /// The synthesis options of this request.
    pub fn synthesis(&self) -> SynthesisOptions {
        SynthesisOptions {
            architecture: self.arch,
            stages: self.stages,
            minimizer: self.minimizer,
        }
    }

    /// The job key: a digest of the canonical spec and every option that
    /// determines the *outcome* of this op. Resource knobs (cap, shards,
    /// timeout) are excluded — they decide whether a run finishes, not
    /// what a finished run reports, and only conclusive runs are cached.
    fn job_key(&self, canonical_spec: &str) -> u64 {
        let mut h = Fnv64::new();
        h.write_str("job-v1");
        h.write_str(&self.op);
        h.write_str(canonical_spec);
        h.write_str(arch_name(self.arch));
        h.write_u64(stage_bits(self.stages));
        h.write_str(self.minimizer.name());
        match self.op.as_str() {
            "check" | "verify" => {
                h.write_str(self.backend.as_str());
            }
            "resolve" => {
                h.write_usize(self.budget);
                h.write_str(self.strategy.name());
            }
            _ => {}
        }
        h.finish()
    }
}

/// The request executor: parses, canonicalizes, consults the store,
/// runs the engine, and writes new artifacts back.
#[derive(Debug)]
pub struct Service {
    store: Arc<ArtifactStore>,
    cancel: Option<CancelToken>,
}

/// What the per-signal cover cache did during one synthesis.
struct Covers {
    reused: usize,
    derived: usize,
    manifest: Vec<String>,
}

impl Service {
    /// A service over `store`.
    pub fn new(store: Arc<ArtifactStore>) -> Self {
        Service {
            store,
            cancel: None,
        }
    }

    /// Puts `token` into every run's budget, so cancelling it winds a
    /// running job down into a partial verdict. `sisyn <op>` passes its
    /// Ctrl-C token; the server passes none, because its queued jobs
    /// drain on shutdown.
    pub fn cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The shared artifact store.
    pub fn store(&self) -> &Arc<ArtifactStore> {
        &self.store
    }

    /// Executes one request line.
    pub fn execute(&self, line: &str) -> Response {
        let _span = si_obs::span("serve.execute");
        let t0 = std::time::Instant::now();
        let resp = self.execute_inner(line);
        if si_obs::enabled() {
            // Per-op latency, keyed by the command the response names —
            // cache hits included, so the histogram shows what clients
            // actually experienced.
            si_obs::histogram_record(
                op_latency_metric(&resp.body),
                t0.elapsed().as_micros() as u64,
            );
            if resp.cache_hit {
                si_obs::counter_inc("serve.cache_hits");
            }
        }
        resp
    }

    fn execute_inner(&self, line: &str) -> Response {
        let req = match Request::parse(line) {
            Ok(req) => req,
            Err((op, detail)) => return Response::error(&op, None, "bad-request", &detail),
        };
        if req.op == "stats" {
            return Response::fresh("{\"command\": \"stats\", \"ok\": true}".to_string());
        }
        if !matches!(req.op.as_str(), "check" | "synth" | "verify" | "resolve") {
            return Response::error(
                &req.op,
                None,
                "bad-request",
                "unknown op (expected check, synth, verify, resolve, stats or metrics)",
            );
        }
        let parsed = match parse_g(&req.spec) {
            Ok(stg) => stg,
            Err(e) => return Response::error(&req.op, None, "parse-error", &e.to_string()),
        };
        // Work on the canonical reparse: node ids, cube columns and
        // implicit place names are then identical for every textual
        // permutation of the same STG, so per-signal fingerprints and
        // cluster wire forms transfer across sessions.
        let canon = canonical_g(&parsed);
        let stg = parse_g(&canon).expect("canonical form reparses");
        let spec_hash = fnv1a_64(canon.as_bytes());
        let job = req.job_key(&canon);
        let resp_key = format!("resp:{job:016x}");
        if let Some(body) = self.store.get(&resp_key) {
            return Response {
                cache_hit: true,
                ..Response::fresh(body)
            };
        }
        let run = match req.op.as_str() {
            "check" => self.run_check(&stg, spec_hash, &req),
            "synth" => self.run_synth(&stg, &req),
            "verify" => self.run_verify(&stg, spec_hash, &req),
            _ => self.run_resolve(&stg, &req),
        };
        if run.conclusive {
            self.store.put(&resp_key, &run.response.body);
            let manifest = format!("manifest-v1\n{}\n", run.manifest.join("\n"));
            self.store.put(&format!("manifest:{job:016x}"), &manifest);
        }
        run.response
    }

    /// The request's reachability options plus this service's
    /// cancellation token.
    fn reach(&self, req: &Request, default_cap: usize) -> ReachOptions {
        let reach = req.reach(default_cap);
        match &self.cancel {
            Some(token) => reach.cancel(token.clone()),
            None => reach,
        }
    }

    /// The configured session over `stg`.
    fn engine<'a>(&self, stg: &'a Stg, req: &Request, default_cap: usize) -> Engine<'a> {
        Engine::new(stg)
            .reach(self.reach(req, default_cap))
            .options(req.synthesis())
            .backend(req.backend)
    }

    /// Imports the spec's cached reachability summary into `engine`, or
    /// records after the run whichever graph the engine built. Returns
    /// the artifact key when the summary participated.
    fn import_summary<'a>(
        &self,
        engine: Engine<'a>,
        spec_hash: u64,
    ) -> (Engine<'a>, Option<String>) {
        let key = format!("reach:{spec_hash:016x}");
        match self
            .store
            .get(&key)
            .and_then(|wire| ReachSummary::from_wire(&wire).ok())
        {
            Some(summary) => (engine.reach_summary(summary), Some(key)),
            None => (engine, None),
        }
    }

    fn export_summary(&self, engine: &Engine<'_>, spec_hash: u64, manifest: &mut Vec<String>) {
        if let Some(summary) = engine.export_reach_summary() {
            let key = format!("reach:{spec_hash:016x}");
            self.store.put(&key, &summary.to_wire());
            if !manifest.contains(&key) {
                manifest.push(key);
            }
        }
    }

    fn run_check(&self, stg: &Stg, spec_hash: u64, req: &Request) -> Run {
        let engine = self.engine(stg, req, 100_000);
        let (engine, summary_key) = self.import_summary(engine, spec_hash);
        let mut manifest: Vec<String> = summary_key.into_iter().collect();

        // The count is informational: the structural flow never needs the
        // state graph, so running out of budget is not a failure.
        let count = engine
            .spec_state_count()
            .map_err(|e| since_armed(&e, &engine, req));
        let count_inconclusive = count.as_ref().is_err_and(ReachError::is_inconclusive);
        let live_safe = matches!(check_live_safe_fc(stg.net()), StructuralCheck::Ok);
        let consistent = StgAnalysis::analyze(stg).is_ok();
        let analysis = engine.analyze();
        let witness_places = match &analysis {
            Ok(Analysis {
                csc: CscVerdict::Unknown { places },
                ..
            }) => Some(places.len()),
            _ => None,
        };
        // The structural CSC verdict is conservative; a non-default
        // backend settles an unknown exactly from the reachable set.
        let (csc, csc_ok, csc_conclusive) = match &analysis {
            Ok(a) => match &a.csc {
                CscVerdict::UscHolds => ("usc-holds", true, true),
                CscVerdict::CscHolds => ("csc-holds", true, true),
                CscVerdict::Unknown { .. } if req.backend != Backend::Explicit => {
                    match engine.symbolic().ok().and_then(|s| s.has_csc()) {
                        Some(true) => ("csc-holds", true, true),
                        Some(false) => ("csc-violation", false, true),
                        None => ("unknown", false, false),
                    }
                }
                CscVerdict::Unknown { .. } => ("unknown", false, true),
            },
            Err(_) => ("unknown", false, true),
        };
        self.export_summary(&engine, spec_hash, &mut manifest);

        let count_ok = count.is_ok() || count_inconclusive;
        let ok = count_ok && live_safe && consistent && csc_ok && analysis.is_ok();
        let (conflicts, rounds, sm, cubes) = match &analysis {
            Ok(a) => (
                a.conflicts.to_string(),
                a.refinement_rounds.to_string(),
                a.sm_count.to_string(),
                a.place_cover_cubes.to_string(),
            ),
            Err(_) => ("null".into(), "null".into(), "null".into(), "null".into()),
        };
        let body = format!(
            "{{\"command\": \"check\", \"ok\": {ok}, \"model\": {}, \
             \"signals\": {}, \"transitions\": {}, \"places\": {}, \
             \"free_choice\": {}, \"spec_states\": {}, \"spec_states_error\": {}, \
             \"backend\": {}, \"live_safe\": {live_safe}, \"consistent\": {consistent}, \
             \"conflicts\": {conflicts}, \"refinement_rounds\": {rounds}, \
             \"sm_count\": {sm}, \"place_cover_cubes\": {cubes}, \
             \"csc\": {}, \"witness_places\": {}, \"analysis_error\": {}}}",
            escape(stg.name()),
            stg.signal_count(),
            stg.net().transition_count(),
            stg.net().place_count(),
            stg.net().is_free_choice(),
            count.as_ref().map_or("null".to_string(), u128::to_string),
            count
                .as_ref()
                .err()
                .map_or("null".to_string(), reach_error_json),
            escape(req.backend.as_str()),
            escape(csc),
            witness_places.map_or("null".to_string(), |n| n.to_string()),
            analysis
                .as_ref()
                .err()
                .map_or("null".to_string(), |e| escape(&e.to_string())),
        );
        Run {
            response: Response {
                reach_builds: engine.reach_build_count(),
                ..Response::fresh(body)
            },
            conclusive: !count_inconclusive && csc_conclusive,
            manifest,
        }
    }

    /// Synthesizes on the per-signal pool with the store as each signal's
    /// cluster source: `cover:<fingerprint>` → parse → revalidate against
    /// the *current* context, or a fresh derivation (stored for next
    /// time) on a miss.
    fn synthesize(&self, engine: &Engine<'_>) -> Result<(Synthesis, Covers), SynthesisError> {
        let ctx = engine.context()?;
        let stg = engine.stg();
        let options = engine.synthesis_options();
        let reused = AtomicUsize::new(0);
        let manifest = Mutex::new(Vec::new());
        let source = |signal| {
            let key = format!("cover:{:016x}", signal_fingerprint(ctx, signal, options));
            let cached = self
                .store
                .get(&key)
                .and_then(|wire| clusters_from_wire(stg, &wire))
                .filter(|c| c.signal == signal)
                .filter(|c| revalidate_clusters(ctx, c, options));
            let clusters = match cached {
                Some(clusters) => {
                    reused.fetch_add(1, Ordering::Relaxed);
                    clusters
                }
                None => {
                    let clusters = derive_clusters(ctx, signal, options)?;
                    self.store.put(&key, &clusters_to_wire(stg, &clusters));
                    clusters
                }
            };
            let line = format!("{key} signal={}", stg.signal_name(signal));
            si_fault::relock(&manifest).push((signal, line));
            Ok(clusters)
        };
        let syn = synthesize_with_context(ctx, options, Some(&source))?;
        let mut manifest = manifest
            .into_inner()
            .expect("the manifest lock is held only across a push");
        manifest.sort_unstable();
        let reused = reused.into_inner();
        Ok((
            syn,
            Covers {
                reused,
                derived: manifest.len() - reused,
                manifest: manifest.into_iter().map(|(_, line)| line).collect(),
            },
        ))
    }

    fn run_synth(&self, stg: &Stg, req: &Request) -> Run {
        let engine = self.engine(stg, req, 4_000_000);
        match self.synthesize(&engine) {
            Ok((syn, covers)) => {
                let mapped = map_circuit(&syn.circuit);
                let body = format!(
                    "{{\"command\": \"synth\", \"ok\": true, \"model\": {}, \
                     \"architecture\": {}, \"minimizer\": {}, \
                     \"signals\": {}, \"literal_area\": {}, \"mapped_area\": {}, \
                     \"place_cover_cubes\": {}, \"sm_count\": {}, \
                     \"refinement_rounds\": {}, \"verilog\": {}}}",
                    escape(stg.name()),
                    escape(arch_name(req.arch)),
                    escape(req.minimizer.name()),
                    syn.results.len(),
                    syn.literal_area,
                    mapped.area,
                    syn.place_cover_cubes,
                    syn.sm_count,
                    syn.refinement_rounds,
                    escape(&to_verilog(stg, &syn.circuit)),
                );
                Run {
                    response: Response {
                        covers_reused: covers.reused,
                        covers_derived: covers.derived,
                        reach_builds: engine.reach_build_count(),
                        ..Response::fresh(body)
                    },
                    conclusive: true,
                    manifest: covers.manifest,
                }
            }
            Err(e) => synthesis_failed(stg, req, &e),
        }
    }

    fn run_verify(&self, stg: &Stg, spec_hash: u64, req: &Request) -> Run {
        let engine = self.engine(stg, req, 4_000_000);
        let (engine, summary_key) = self.import_summary(engine, spec_hash);
        let mut manifest: Vec<String> = summary_key.into_iter().collect();
        let (syn, covers) = match self.synthesize(&engine) {
            Ok(parts) => parts,
            Err(e) => return synthesis_failed(stg, req, &e),
        };
        manifest.extend(covers.manifest);
        let volatile = |resp: Response| Response {
            covers_reused: covers.reused,
            covers_derived: covers.derived,
            reach_builds: engine.reach_build_count(),
            ..resp
        };
        let reach_failed = |e: &StateGraphError| Run {
            response: volatile(Response::fresh(format!(
                "{{\"command\": \"verify\", \"ok\": false, \"inconclusive\": {}, \
                 \"model\": {}, \"error\": {}}}",
                e.is_inconclusive(),
                escape(stg.name()),
                match e {
                    StateGraphError::Reach(e) => reach_error_json(&since_armed(e, &engine, req)),
                    StateGraphError::Encoding(e) => encoding_error_json(e),
                },
            ))),
            conclusive: !e.is_inconclusive(),
            manifest: Vec::new(),
        };
        let functional = match engine.verify(&syn.circuit) {
            Ok(report) => report,
            Err(e) => return reach_failed(&e),
        };
        let conformance = match engine.check_conformance(&syn.circuit) {
            Ok(report) => report,
            Err(e) => return reach_failed(&e),
        };
        let sim = match engine.random_walks(&syn.circuit, 4, 4000, 7) {
            Ok(outcome) => outcome,
            Err(e) => return reach_failed(&e),
        };
        self.export_summary(&engine, spec_hash, &mut manifest);
        let spec_states = engine.spec_state_count().ok();
        let symbolic = (req.backend == Backend::Symbolic)
            .then(|| {
                engine
                    .symbolic_reach()
                    .ok()
                    .map(|s| (s.iterations(), s.peak_nodes()))
            })
            .flatten();
        let failed = !functional.is_ok() || !conformance.is_ok() || !sim.is_clean();
        let inconclusive = !functional.is_conclusive() || !conformance.is_conclusive();
        let ok = !failed && !inconclusive;
        let trace = functional.trace.as_ref().or(conformance.trace.as_ref());
        let trace_json = trace.map_or("null".to_string(), |ts| {
            format!(
                "[{}]",
                ts.iter()
                    .map(|&t| escape(stg.net().transition_name(t)))
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        });
        let body = format!(
            "{{\"command\": \"verify\", \"ok\": {ok}, \"inconclusive\": {inconclusive}, \
             \"model\": {}, \"backend\": {}, \"spec_states\": {}, \"symbolic\": {}, \
             \"functional_ok\": {}, \"violations\": {}, \"states_checked\": {}, \
             \"functional_interrupted\": {}, \
             \"conformance_ok\": {}, \"conformance_failures\": {}, \
             \"states_explored\": {}, \"conformance_interrupted\": {}, \
             \"trace\": {trace_json}, \
             \"random_walks_ok\": {}, \"literal_area\": {}, \"minimizer\": {}}}",
            escape(stg.name()),
            escape(req.backend.as_str()),
            spec_states.map_or("null".to_string(), |n| n.to_string()),
            symbolic.map_or("null".to_string(), |(iterations, peak)| format!(
                "{{\"iterations\": {iterations}, \"peak_nodes\": {peak}}}"
            )),
            functional.is_ok(),
            functional.violations.len(),
            functional.states_checked,
            interrupt_json(functional.interrupted),
            conformance.is_ok(),
            conformance.failures.len(),
            conformance.states_explored,
            interrupt_json(conformance.interrupted),
            sim.is_clean(),
            syn.literal_area,
            escape(req.minimizer.name()),
        );
        Run {
            response: volatile(Response::fresh(body)),
            conclusive: !inconclusive,
            manifest,
        }
    }

    fn run_resolve(&self, stg: &Stg, req: &Request) -> Run {
        // The cap bounds each candidate's behavioural acceptance oracle;
        // the budget bounds the candidate search itself.
        let engine = self.engine(stg, req, 1_000_000);
        let options = CscOptions::default()
            .budget(req.budget)
            .strategy(req.strategy)
            .reach(self.reach(req, 1_000_000));
        let outcome = engine.resolve_csc_outcome(&options);
        let stats = &outcome.stats;
        let run = |body, conclusive| Run {
            response: Response {
                reach_builds: engine.reach_build_count(),
                ..Response::fresh(body)
            },
            conclusive,
            manifest: Vec::new(),
        };
        match outcome.resolution {
            Some(resolution) => run(
                format!(
                    "{{\"command\": \"resolve\", \"ok\": true, \"model\": {}, \
                     \"signals_before\": {}, \"signals_after\": {}, \
                     \"plan\": {}, \"cost\": {}, \"stats\": {}, \"resolved\": {}}}",
                    escape(stg.name()),
                    stg.signal_count(),
                    resolution.stg.signal_count(),
                    plan_json(stg, &resolution.plan),
                    resolution.cost,
                    stats_json(stats),
                    escape(&write_g(&resolution.stg)),
                ),
                true,
            ),
            None => {
                let (kind, detail) = match stats.interrupted {
                    Some(i) => (
                        i.reason.as_str(),
                        "candidate search interrupted before a resolution was found",
                    ),
                    None => (
                        "no-resolution",
                        "no single-signal insertion found within budget",
                    ),
                };
                run(
                    format!(
                        "{{\"command\": \"resolve\", \"ok\": false, \
                         \"inconclusive\": {}, \"model\": {}, \"error\": {}, \
                         \"stats\": {}, \"resolved\": null}}",
                        stats.interrupted.is_some(),
                        escape(stg.name()),
                        error_json(kind, detail, stats.evaluated),
                        stats_json(stats),
                    ),
                    stats.interrupted.is_none(),
                )
            }
        }
    }
}

struct Run {
    response: Response,
    conclusive: bool,
    manifest: Vec<String>,
}

/// The run of a failed synthesis. Structural failures are deterministic
/// verdicts about the spec and may be cached; a worker panic is not.
fn synthesis_failed(stg: &Stg, req: &Request, e: &SynthesisError) -> Run {
    let kind = synthesis_error_kind(e);
    Run {
        response: Response::error(&req.op, Some(stg.name()), kind, &e.to_string()),
        conclusive: !matches!(e, SynthesisError::WorkerPanicked { .. }),
        manifest: Vec::new(),
    }
}

/// The stable machine-readable kind of a synthesis error.
fn synthesis_error_kind(e: &SynthesisError) -> &'static str {
    match e {
        SynthesisError::WorkerPanicked { .. } => "worker-panicked",
        _ => "synthesis-failed",
    }
}

/// The per-op latency histogram name for a response body, keyed by its
/// `"command"` prefix (the body always leads with it, so a prefix probe
/// avoids reparsing the JSON on every job).
fn op_latency_metric(body: &str) -> &'static str {
    for (op, metric) in [
        ("check", "serve.op.check_us"),
        ("synth", "serve.op.synth_us"),
        ("verify", "serve.op.verify_us"),
        ("resolve", "serve.op.resolve_us"),
        ("stats", "serve.op.stats_us"),
    ] {
        if body.starts_with(&format!("{{\"command\": \"{op}\"")) {
            return metric;
        }
    }
    "serve.op.other_us"
}

/// A structured error object: a stable machine-readable kind, a
/// human-readable detail, and how far the exploration got before
/// stopping (0 when no state space was involved).
pub fn error_json(kind: &str, detail: &str, states_explored: usize) -> String {
    format!(
        "{{\"kind\": {}, \"detail\": {}, \"states_explored\": {states_explored}}}",
        escape(kind),
        escape(detail),
    )
}

/// `e` with an interruption's `elapsed_ms` counted from when the
/// request's deadline was armed ([`Request::reach`]) instead of from the
/// start of the traversal that stopped: synthesis runs first, so a short
/// deadline can pass before that traversal begins.
fn since_armed(e: &ReachError, engine: &Engine<'_>, req: &Request) -> ReachError {
    let mut e = e.clone();
    let deadline = engine.reach_options().budget.deadline;
    let armed = deadline
        .zip(req.timeout)
        .and_then(|(at, d)| at.checked_sub(d));
    if let (ReachError::Interrupted { elapsed_ms, .. }, Some(armed)) = (&mut e, armed) {
        *elapsed_ms = armed.elapsed().as_millis() as u64;
    }
    e
}

/// The error object of a [`ReachError`]. The kind vocabulary matches
/// [`si_petri::InterruptReason`]'s stable identifiers (`cap-exceeded`,
/// `deadline-expired`, `cancelled`, `memory-exhausted`) plus `not-safe`
/// and `worker-panicked`; a cap overflow reports the cap as
/// `states_explored`.
fn reach_error_json(e: &ReachError) -> String {
    let (kind, states, elapsed_ms) = match e {
        ReachError::StateCapExceeded { cap } => ("cap-exceeded", *cap, 0),
        ReachError::Interrupted {
            reason,
            states_explored,
            elapsed_ms,
        } => (reason.as_str(), *states_explored, *elapsed_ms),
        ReachError::WorkerPanicked { .. } => ("worker-panicked", 0, 0),
        ReachError::NotSafe { .. } => ("not-safe", 0, 0),
    };
    format!(
        "{{\"kind\": {}, \"detail\": {}, \"states_explored\": {states}, \
         \"elapsed_ms\": {elapsed_ms}}}",
        escape(kind),
        escape(&e.to_string()),
    )
}

/// Why and after how many states a partial verify phase stopped (`null`
/// when it finished).
fn interrupt_json(interrupted: Option<Interrupt>) -> String {
    interrupted.map_or("null".to_string(), |i| {
        format!(
            "{{\"reason\": {}, \"states_explored\": {}}}",
            escape(i.reason.as_str()),
            i.states_explored
        )
    })
}

/// The error object of an ill-defined state encoding: kind
/// `undetermined-signal` (a signal never switches, so no reachable
/// marking fixes its value) or `inconsistent-encoding` (contradictory
/// values at one marking).
fn encoding_error_json(e: &EncodingError) -> String {
    let kind = match e {
        EncodingError::Undetermined { .. } => "undetermined-signal",
        EncodingError::Inconsistent { .. } => "inconsistent-encoding",
    };
    error_json(kind, &e.to_string(), 0)
}

/// The per-candidate search statistics as a JSON object.
fn stats_json(stats: &ResolveStats) -> String {
    let interrupted = match stats.interrupted {
        None => "null".to_string(),
        Some(i) => format!(
            "{{\"reason\": {}, \"candidates_evaluated\": {}}}",
            escape(i.reason.as_str()),
            i.states_explored
        ),
    };
    format!(
        "{{\"strategy\": {}, \"cores\": {}, \"candidates_generated\": {}, \
         \"candidates_evaluated\": {}, \"candidates_rejected\": {}, \
         \"candidates_panicked\": {}, \"oracle_calls\": {}, \
         \"oracle_rejected\": {}, \"interrupted\": {interrupted}, \
         \"wall_ms\": {:.3}}}",
        escape(stats.strategy.name()),
        stats.cores,
        stats.generated,
        stats.evaluated,
        stats.rejected,
        stats.panicked,
        stats.oracle_calls,
        stats.oracle_rejected,
        stats.wall_ms,
    )
}

/// An accepted insertion plan over the STG's node names (`null` for the
/// no-conflict sentinel plan).
fn plan_json(stg: &Stg, plan: &InsertionPlan) -> String {
    if plan.rise_split == plan.fall_split {
        return "null".to_string(); // sentinel: input already satisfied CSC
    }
    let net = stg.net();
    let waits = plan
        .rise_waits
        .iter()
        .map(|&(t, marked)| {
            format!(
                "{{\"after\": {}, \"marked\": {marked}}}",
                escape(&stg.transition_display(t))
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"rise_split\": {}, \"fall_split\": {}, \"rise_waits\": [{waits}]}}",
        escape(net.place_name(plan.rise_split)),
        escape(net.place_name(plan.fall_split)),
    )
}

/// Splices the volatile execution facts and the current counters into a
/// core response body: the wire line every client sees. The core object
/// is cached verbatim; this wrapper is recomputed per send, so `cache_hit`
/// and the counters stay truthful on hits.
pub fn envelope(resp: &Response, job_ms: f64, store: &StoreStats, queue: &QueueStats) -> String {
    debug_assert!(resp.body.starts_with('{'));
    format!(
        "{{\"cache_hit\": {}, \"job_ms\": {job_ms:.3}, \"reach_builds\": {}, \
         \"covers_reused\": {}, \"covers_derived\": {}, \
         \"store\": {{\"hits\": {}, \"disk_hits\": {}, \"misses\": {}, \
         \"evictions\": {}, \"disk_writes\": {}, \"mem_bytes\": {}, \
         \"mem_entries\": {}}}, \
         \"queue\": {{\"submitted\": {}, \"executed\": {}, \"panicked\": {}, \
         \"depth\": {}, \"busy_ms\": {}}}, {}",
        resp.cache_hit,
        resp.reach_builds,
        resp.covers_reused,
        resp.covers_derived,
        store.hits,
        store.disk_hits,
        store.misses,
        store.evictions,
        store.disk_writes,
        store.mem_bytes,
        store.mem_entries,
        queue.submitted,
        queue.executed,
        queue.panicked,
        queue.depth,
        queue.busy_ms,
        &resp.body[1..],
    )
}

/// A worker-panic response for a job that never produced a body.
pub fn panic_body(detail: &str) -> String {
    error_body("?", None, "worker-panicked", detail)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::ArtifactStore;

    fn service() -> Service {
        Service::new(Arc::new(ArtifactStore::in_memory(8 << 20)))
    }

    fn spec() -> String {
        write_g(&si_stg::generators::clatch(2))
    }

    fn req(op: &str, spec: &str) -> String {
        format!("{{\"op\": {}, \"spec\": {}}}", escape(op), escape(spec))
    }

    #[test]
    fn bad_requests_are_structured_errors() {
        let s = service();
        let spec = escape(&spec());
        let non_integral = [
            format!("{{\"op\": \"synth\", \"spec\": {spec}, \"stages\": 2.5}}"),
            format!("{{\"op\": \"resolve\", \"spec\": {spec}, \"budget\": 1.5}}"),
            format!("{{\"op\": \"check\", \"spec\": {spec}, \"shards\": 1e30}}"),
            format!("{{\"op\": \"verify\", \"spec\": {spec}, \"timeout\": 5}}"),
        ];
        let lines = ["not json", "{}", "{\"op\": \"launder\"}"];
        for line in lines
            .iter()
            .copied()
            .chain(non_integral.iter().map(String::as_str))
        {
            let r = s.execute(line);
            assert!(r.body.contains("\"ok\": false"), "{line}: {}", r.body);
            assert!(r.body.contains("bad-request"), "{line}: {}", r.body);
        }
        let r = s.execute(&req(
            "synth",
            ".model broken\n.inputs a\n.graph\na+\n.end\n",
        ));
        assert!(r.body.contains("parse-error"), "{}", r.body);
    }

    #[test]
    fn synth_caches_and_second_request_hits() {
        let s = service();
        let line = req("synth", &spec());
        let first = s.execute(&line);
        assert!(!first.cache_hit);
        assert_eq!(first.covers_derived, 1);
        assert!(first.body.contains("\"verilog\""));
        let second = s.execute(&line);
        assert!(second.cache_hit);
        assert_eq!(second.body, first.body);
        assert_eq!(second.covers_derived, 0);
    }

    #[test]
    fn permuted_spec_hits_the_same_response() {
        // Same STG, declarations in a different order: canonicalization
        // makes it the same job.
        let base = spec();
        let s = service();
        assert!(!s.execute(&req("synth", &base)).cache_hit);
        let permuted = base.replace(".inputs x0 x1", ".inputs x1 x0");
        assert_ne!(permuted, base);
        assert!(s.execute(&req("synth", &permuted)).cache_hit);
    }

    #[test]
    fn check_exports_then_imports_the_reach_summary() {
        let s = service();
        let line = req("check", &spec());
        let first = s.execute(&line);
        assert!(first.body.contains("\"spec_states\": 8"), "{}", first.body);
        assert_eq!(first.reach_builds, 1);
        // Different op options → different job key, but the reach
        // summary artifact is shared: no second graph build.
        let line2 = format!(
            "{{\"op\": \"check\", \"spec\": {}, \"arch\": \"complex\"}}",
            escape(&spec())
        );
        let second = s.execute(&line2);
        assert!(!second.cache_hit);
        assert_eq!(second.reach_builds, 0, "{}", second.body);
        assert!(
            second.body.contains("\"spec_states\": 8"),
            "{}",
            second.body
        );
    }

    #[test]
    fn verify_runs_end_to_end() {
        let s = service();
        let r = s.execute(&req("verify", &spec()));
        assert!(r.body.contains("\"command\": \"verify\""), "{}", r.body);
        assert!(r.body.contains("\"ok\": true"), "{}", r.body);
        assert!(s.execute(&req("verify", &spec())).cache_hit);
    }

    #[test]
    fn envelope_splices_cleanly() {
        let resp = Response::fresh("{\"command\": \"stats\", \"ok\": true}".to_string());
        let line = envelope(&resp, 1.5, &StoreStats::default(), &QueueStats::default());
        let v = crate::json::parse(&line).expect("envelope is valid json");
        assert_eq!(v.get("cache_hit").and_then(Value::as_bool), Some(false));
        assert_eq!(v.get("command").and_then(Value::as_str), Some("stats"));
        assert!(v.get("store").is_some() && v.get("queue").is_some());
    }
}
