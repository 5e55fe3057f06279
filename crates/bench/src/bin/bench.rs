//! `bench` — the substrate performance tracker.
//!
//! Times the state substrate before/after the word-parallel rewrite on the
//! §IX benchmark sets and emits `BENCH_substrates.json` so the performance
//! trajectory is tracked from PR to PR:
//!
//! * `reach_naive_ms` / `reach_interned_ms` — `ReachabilityGraph::build_naive`
//!   (the seed's `HashMap<Marking, StateId>` engine) vs the interned +
//!   mask-based engine;
//! * `conc_naive_ms` / `conc_batched_ms` — pairwise-worklist vs batched
//!   word-parallel concurrency fixpoint;
//! * `synth_ms` — the full structural synthesis flow;
//! * `shard_scaling` — reachability (`ReachabilityGraph::build_with`) at
//!   1/2/4/8 shards on the exponentially-growing `clatch(n)` family;
//! * `minimizer_backends` — literal counts and wall time of the pluggable
//!   two-level minimizer backends (espresso / exact / bdd / auto) on the
//!   complex-gate synthesis of the large set;
//! * `product_exploration` — the spec×circuit conformance product on the
//!   generic explorers (`si_petri::space`): wall time and states/s of the
//!   sequential vs sharded exploration on the large set (the probe graph
//!   is cached per engine, so only the product walk is timed);
//! * `csc_resolution` — the CSC resolve subsystem on the conflicted
//!   `vme_read_raw` / `vme_chain(n)` / `vme_burst(n)` workloads at one
//!   worker thread: end-to-end wall time of the pre-subsystem blind
//!   search (full context rebuild per candidate) vs the conflict-core
//!   greedy search (incremental re-analysis), plus the per-candidate
//!   structural-evaluation rate on both paths;
//! * `symbolic_reachability` — the symbolic BDD backend
//!   (`si_petri::SymbolicReach`) against the explicit enumerating engine
//!   on the `clatch(n)` and `vme_burst(n)` sweeps: wall time of both,
//!   fixpoint iteration count and peak BDD node count, including a
//!   beyond-the-cap workload the explicit engine cannot finish;
//! * `protocol_deadlock` — the CFSM deadlock checker
//!   (`si_proto::check_deadlock_with`) on the clean `ring(n)` and the
//!   deadlocking `dining(n)` families: wall time, states/s and speedup of
//!   the sequential vs sharded exploration at 1/2/4/8 shards (the check
//!   is exhaustive, so every engine walks the identical state space);
//! * `artifact_cache` — the serve layer's content-addressed response
//!   cache (`si_serve::Service`) on the large-set synth workloads: cold
//!   latency (full structural synthesis into a fresh store) vs warm
//!   latency (the identical request answered from the cache, i.e.
//!   canonicalize + hash + lookup only);
//! * `tracing_overhead` — the identical reachability workload with the
//!   `si_obs` switch off (the default: every probe is one relaxed atomic
//!   load) and on (spans, counters and histograms recorded), pinning the
//!   cost of the observability layer in both states.
//!
//! ```text
//! bench [--iters N] [--smoke] [--cap N] [--out FILE]
//!
//!   --iters N   timing iterations per measurement, best-of (default 5;
//!               the shard-scaling sweep tapers it on big workloads)
//!   --smoke     single iteration, small cap — CI bitrot check
//!   --cap N     reachability state cap, all sections (default 4_000_000,
//!               which admits clatch(20)'s 2_097_152 markings)
//!   --out FILE  output path (default BENCH_substrates.json)
//! ```

use si_bench::{fmt_duration, large_set, small_set};
use si_boolean::MinimizerChoice;
use si_core::{synthesize, Architecture, SynthesisOptions};
use si_petri::{ConcurrencyRelation, ReachOptions, ReachabilityGraph, SymbolicReach};
use si_stg::Stg;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

struct Config {
    iters: usize,
    cap: usize,
    out: String,
    smoke: bool,
}

/// One workload of the shard-scaling section.
struct ShardEntry {
    name: String,
    places: usize,
    transitions: usize,
    states: usize,
    /// Shard count -> best-of wall time (index-aligned with the configured
    /// shard counts; `[0]` is the sequential engine).
    times: Vec<(usize, Duration)>,
}

struct Entry {
    set: &'static str,
    name: String,
    places: usize,
    transitions: usize,
    states: Option<usize>,
    reach_naive: Option<Duration>,
    reach_interned: Option<Duration>,
    conc_naive: Duration,
    conc_batched: Duration,
    synth: Option<Duration>,
}

fn parse_args() -> Config {
    let mut cfg = Config {
        iters: 5,
        cap: 4_000_000,
        out: "BENCH_substrates.json".to_string(),
        smoke: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--iters" => {
                cfg.iters = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n >= 1)
                    .unwrap_or_else(|| die("--iters needs a positive number"))
            }
            "--cap" => {
                cfg.cap = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--cap needs a number"))
            }
            "--out" => cfg.out = argv.next().unwrap_or_else(|| die("--out needs a path")),
            "--smoke" => {
                cfg.iters = 1;
                cfg.cap = 100_000;
                cfg.smoke = true;
            }
            other => die(&format!("unknown argument {other:?}")),
        }
    }
    cfg
}

fn die(msg: &str) -> ! {
    eprintln!("bench: {msg}");
    eprintln!("usage: bench [--iters N] [--smoke] [--cap N] [--out FILE]");
    std::process::exit(2);
}

/// Best-of-N wall time of `f`, discarding the results.
fn best_of<T>(iters: usize, mut f: impl FnMut() -> T) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..iters {
        let t0 = Instant::now();
        std::hint::black_box(f());
        best = best.min(t0.elapsed());
    }
    best
}

fn measure(set: &'static str, stg: &Stg, cfg: &Config) -> Entry {
    let net = stg.net();
    let states = ReachabilityGraph::build(net, cfg.cap)
        .ok()
        .map(|rg| rg.state_count());
    let reach_interned = states.is_some().then(|| {
        best_of(cfg.iters, || {
            ReachabilityGraph::build(net, cfg.cap).unwrap()
        })
    });
    let reach_naive = states.is_some().then(|| {
        best_of(cfg.iters, || {
            ReachabilityGraph::build_naive(net, cfg.cap).unwrap()
        })
    });
    let conc_batched = best_of(cfg.iters, || ConcurrencyRelation::compute(net));
    let conc_naive = best_of(cfg.iters, || ConcurrencyRelation::compute_naive(net));
    let synth = synthesize(stg, &SynthesisOptions::default())
        .is_ok()
        .then(|| {
            best_of(cfg.iters, || {
                synthesize(stg, &SynthesisOptions::default()).unwrap()
            })
        });
    Entry {
        set,
        name: stg.name().to_string(),
        places: net.place_count(),
        transitions: net.transition_count(),
        states,
        reach_naive,
        reach_interned,
        conc_naive,
        conc_batched,
        synth,
    }
}

/// Times the sequential engine (shard count 1) and the sharded engine on
/// the `clatch(n)` family — the workloads whose reachability graph is the
/// whole cost. Honors `--cap` (workloads over the cap are skipped with a
/// note) and `--iters`, tapering iterations as the state count grows so
/// the full sweep stays affordable.
fn measure_shard_scaling(cfg: &Config) -> (usize, Vec<usize>, Vec<ShardEntry>) {
    let cap = cfg.cap;
    let (sizes, counts): (Vec<usize>, Vec<usize>) = if cfg.smoke {
        (vec![10], vec![1, 2])
    } else {
        (vec![14, 16, 18, 20], vec![1, 2, 4, 8])
    };
    debug_assert_eq!(counts[0], 1, "the sweep leads with the sequential engine");
    let mut entries = Vec::new();
    for n in sizes {
        let stg = si_stg::generators::clatch(n);
        let net = stg.net();
        // The first sequential build doubles as the state-count probe (and
        // the skip check), so the most expensive graph is never built
        // untimed.
        let t0 = Instant::now();
        let states = match ReachabilityGraph::build(net, cap) {
            Ok(rg) => rg.state_count(),
            Err(e) => {
                eprintln!("shard-scaling: clatch({n}) skipped ({e})");
                continue;
            }
        };
        let first_seq = t0.elapsed();
        // Best-of tapering: 2M-state workloads get one shot per engine.
        let iters = if states > 600_000 {
            1
        } else {
            cfg.iters.min(3)
        };
        let mut times = Vec::new();
        for &k in &counts {
            let extra = if k == 1 { iters - 1 } else { iters };
            let mut d = best_of(extra, || {
                ReachabilityGraph::build_with(net, ReachOptions::with_cap(cap).shards(k)).unwrap()
            });
            if k == 1 {
                d = d.min(first_seq);
            }
            times.push((k, d));
        }
        eprint!("shard/clatch_{n} ({states} states):");
        for &(k, d) in &times {
            eprint!(" {k}={}", fmt_duration(d));
        }
        eprintln!();
        entries.push(ShardEntry {
            name: stg.name().to_string(),
            places: net.place_count(),
            transitions: net.transition_count(),
            states,
            times,
        });
    }
    (cap, counts, entries)
}

/// One workload of the minimizer-backend section.
struct MinimizerEntry {
    name: String,
    /// Backend name -> (literal area, best-of wall time); input order
    /// follows [`MinimizerChoice::ALL`].
    per_backend: Vec<(&'static str, usize, Duration)>,
}

/// Times every minimizer backend on the complex-gate synthesis (the
/// architecture whose covers are plain two-level problems) of the large
/// set. Workloads the structural flow rejects are skipped.
fn measure_minimizer_backends(cfg: &Config) -> Vec<MinimizerEntry> {
    let mut entries = Vec::new();
    for stg in large_set() {
        let mut per_backend = Vec::new();
        for choice in MinimizerChoice::ALL {
            let opts = SynthesisOptions {
                architecture: Architecture::ComplexGate,
                minimizer: choice,
                ..Default::default()
            };
            let Ok(first) = synthesize(&stg, &opts) else {
                break;
            };
            let d = best_of(cfg.iters.min(3), || synthesize(&stg, &opts).unwrap());
            per_backend.push((choice.name(), first.literal_area, d));
        }
        if per_backend.is_empty() {
            eprintln!("minimizers/{}: skipped (not synthesizable)", stg.name());
            continue;
        }
        eprint!("minimizers/{}:", stg.name());
        for &(name, lits, d) in &per_backend {
            eprint!(" {name}={lits}lit/{}", fmt_duration(d));
        }
        eprintln!();
        entries.push(MinimizerEntry {
            name: stg.name().to_string(),
            per_backend,
        });
    }
    entries
}

/// One workload of the product-exploration section.
struct ProductEntry {
    name: String,
    /// Product states of the (conformant) synthesized circuit.
    product_states: usize,
    /// Shard count -> best-of wall time of the product exploration
    /// (`[0]` is the sequential explorer).
    times: Vec<(usize, Duration)>,
}

/// Times the conformance product of each large-set member's synthesized
/// circuit on the sequential and sharded explorers. Each engine caches
/// its probe graph before the timed loop, so the measurement isolates the
/// product walk itself.
fn measure_product_exploration(cfg: &Config) -> (Vec<usize>, Vec<ProductEntry>) {
    use si_verify::EngineVerify;
    let counts: Vec<usize> = if cfg.smoke {
        vec![1, 2]
    } else {
        vec![1, 2, 4, 8]
    };
    debug_assert_eq!(counts[0], 1, "the sweep leads with the sequential explorer");
    let mut entries = Vec::new();
    for stg in large_set() {
        let Ok(syn) = synthesize(&stg, &SynthesisOptions::default()) else {
            eprintln!("product/{}: skipped (not synthesizable)", stg.name());
            continue;
        };
        let mut times = Vec::new();
        let mut product_states = 0usize;
        let mut skipped = false;
        for &k in &counts {
            let engine = si_core::Engine::new(&stg).cap(cfg.cap).shards(k);
            if engine.reachability().is_err() {
                eprintln!("product/{}: skipped (probe over cap)", stg.name());
                skipped = true;
                break;
            }
            let Ok(first) = engine.check_conformance(&syn.circuit) else {
                eprintln!("product/{}: skipped (exploration error)", stg.name());
                skipped = true;
                break;
            };
            if !first.is_ok() {
                eprintln!("product/{}: skipped (inconclusive or failing)", stg.name());
                skipped = true;
                break;
            }
            product_states = first.states_explored;
            let d = best_of(cfg.iters.min(3), || engine.check_conformance(&syn.circuit));
            times.push((k, d));
        }
        if skipped || times.is_empty() {
            continue;
        }
        eprint!("product/{} ({product_states} states):", stg.name());
        for &(k, d) in &times {
            eprint!(" {k}={}", fmt_duration(d));
        }
        eprintln!();
        entries.push(ProductEntry {
            name: stg.name().to_string(),
            product_states,
            times,
        });
    }
    (counts, entries)
}

/// One workload of the CSC-resolution section.
struct CscEntry {
    name: String,
    places: usize,
    transitions: usize,
    /// End-to-end blind search (full rebuild per candidate).
    blind: Duration,
    /// End-to-end conflict-core greedy search (incremental re-analysis).
    greedy: Duration,
    /// End-to-end beam search.
    beam: Duration,
    /// Candidates the greedy search structurally evaluated.
    greedy_evaluated: usize,
    /// Per-candidate structural evaluation over a fixed plan sample:
    /// full rebuild vs incremental re-analysis (total over the sample).
    sample: usize,
    rebuild: Duration,
    reanalyze: Duration,
}

/// Times the resolve subsystem against the pre-subsystem blind baseline
/// on conflicted workloads, at one scoring worker (`--smoke` shrinks the
/// family sweep). Both paths run the same acceptance-oracle cap.
fn measure_csc_resolution(cfg: &Config) -> (usize, usize, Vec<CscEntry>) {
    use si_csc::{
        conflict_cores, resolve, resolve_csc_blind, targeted_candidates, CscOptions, Strategy,
    };
    let oracle_cap = 1_000_000.min(cfg.cap);
    let budget = 2_000_000;
    let reach = si_petri::ReachOptions::with_cap(oracle_cap);
    let mut workloads = vec![si_stg::benchmarks::vme_read_raw()];
    let sizes: &[usize] = if cfg.smoke { &[2] } else { &[4, 8, 12] };
    for &n in sizes {
        workloads.push(si_stg::generators::vme_chain(n));
    }
    workloads.push(si_stg::generators::vme_burst(if cfg.smoke { 2 } else { 4 }));
    let mut entries = Vec::new();
    for stg in workloads {
        let iters = cfg.iters.min(3);
        let blind = best_of(iters, || resolve_csc_blind(&stg, budget, reach.clone()));
        let opts = CscOptions::default()
            .budget(budget)
            .reach(reach.clone())
            .workers(1);
        // The search is deterministic, so the stats of the timed runs are
        // interchangeable — capture them from inside the loop instead of
        // paying one extra untimed resolve.
        let mut evaluated = 0;
        let greedy = best_of(iters, || {
            evaluated = resolve(&stg, &opts).stats.evaluated;
        });
        let beam = best_of(iters, || {
            resolve(&stg, &opts.clone().strategy(Strategy::Beam))
        });
        // Per-candidate structural evaluation on a fixed plan sample.
        let (parent, trace) = si_core::StructuralContext::build_traced(&stg).unwrap();
        let cores = conflict_cores(&parent);
        let plans = targeted_candidates(&parent, &cores, 100);
        let rebuild = best_of(iters, || {
            for plan in &plans {
                let (cand, _) = si_stg::apply_insertion_mapped(&stg, "cscx", plan);
                if let Ok(ctx) = si_core::StructuralContext::build(&cand) {
                    std::hint::black_box(ctx.csc_holds());
                }
            }
        });
        let reanalyze = best_of(iters, || {
            for plan in &plans {
                let (cand, map) = si_stg::apply_insertion_mapped(&stg, "cscx", plan);
                if let Ok(ctx) =
                    si_core::StructuralContext::build_incremental(&parent, &trace, &cand, &map)
                {
                    std::hint::black_box(ctx.csc_holds());
                }
            }
        });
        eprintln!(
            "csc/{}: blind {} greedy {} ({} cand) beam {} | sample x{}: rebuild {} reanalyze {}",
            stg.name(),
            fmt_duration(blind),
            fmt_duration(greedy),
            evaluated,
            fmt_duration(beam),
            plans.len(),
            fmt_duration(rebuild),
            fmt_duration(reanalyze),
        );
        entries.push(CscEntry {
            name: stg.name().to_string(),
            places: stg.net().place_count(),
            transitions: stg.net().transition_count(),
            blind,
            greedy,
            beam,
            greedy_evaluated: evaluated,
            sample: plans.len(),
            rebuild,
            reanalyze,
        });
    }
    (oracle_cap, budget, entries)
}

/// One workload of the symbolic-reachability section.
struct SymbolicEntry {
    name: String,
    places: usize,
    transitions: usize,
    /// Reachable markings (the symbolic fixpoint always finishes).
    states: u128,
    /// Explicit enumerating build; `None` if the state cap was exceeded.
    explicit: Option<Duration>,
    symbolic: Duration,
    iterations: usize,
    peak_nodes: usize,
}

/// Times the symbolic BDD reachability fixpoint against the explicit
/// enumerating engine on the `clatch(n)` / `vme_burst(n)` sweeps, plus a
/// beyond-the-cap `clatch` instance the explicit engine cannot finish
/// (its column is recorded as `null`). Differential equivalence of the
/// two backends is pinned elsewhere (`crates/petri/tests/prop_symbolic.rs`);
/// this section only tracks cost.
fn measure_symbolic_reachability(cfg: &Config) -> Vec<SymbolicEntry> {
    use si_stg::generators::{clatch, vme_burst};
    let workloads: Vec<Stg> = if cfg.smoke {
        vec![clatch(10), vme_burst(2)]
    } else {
        // clatch(22) (2^23 markings) overflows the 4M default cap: the
        // explicit column goes null, the symbolic one still finishes.
        vec![
            clatch(14),
            clatch(16),
            clatch(18),
            clatch(20),
            clatch(22),
            vme_burst(2),
            vme_burst(4),
            vme_burst(6),
        ]
    };
    let mut entries = Vec::new();
    for stg in &workloads {
        let net = stg.net();
        // The first explicit build doubles as the timing of a cap probe.
        let t0 = Instant::now();
        let explicit_states = ReachabilityGraph::build(net, cfg.cap)
            .ok()
            .map(|rg| rg.state_count());
        let first_explicit = t0.elapsed();
        let explicit = explicit_states.map(|states| {
            let iters = if states > 600_000 {
                0
            } else {
                cfg.iters.min(3) - 1
            };
            (0..iters)
                .map(|_| best_of(1, || ReachabilityGraph::build(net, cfg.cap).unwrap()))
                .fold(first_explicit, Duration::min)
        });
        let t0 = Instant::now();
        let sym = SymbolicReach::build(net).expect("generator nets are safe");
        let symbolic = (1..cfg.iters.min(3))
            .map(|_| best_of(1, || SymbolicReach::build(net).unwrap()))
            .fold(t0.elapsed(), Duration::min);
        eprintln!(
            "symbolic/{} ({} states): explicit {} | symbolic {} ({} iters, {} peak nodes)",
            stg.name(),
            sym.state_count(),
            explicit.map(fmt_duration).unwrap_or_else(|| "-".into()),
            fmt_duration(symbolic),
            sym.iterations(),
            sym.peak_nodes(),
        );
        entries.push(SymbolicEntry {
            name: stg.name().to_string(),
            places: net.place_count(),
            transitions: net.transition_count(),
            states: sym.state_count(),
            explicit,
            symbolic,
            iterations: sym.iterations(),
            peak_nodes: sym.peak_nodes(),
        });
    }
    entries
}

/// One workload of the artifact-cache section.
struct CacheEntry {
    name: String,
    signals: usize,
    /// Full structural synthesis into a fresh store.
    cold: Duration,
    /// The identical request against the primed store (response-cache
    /// hit: canonicalize + hash + lookup, no synthesis).
    warm: Duration,
}

/// Times the serve layer's content-addressed artifact cache on the
/// large-set synth workloads. Workloads the structural flow rejects are
/// skipped (their failure responses are cached too, but the cold column
/// would not measure a synthesis).
fn measure_artifact_cache(cfg: &Config) -> Vec<CacheEntry> {
    use si_serve::{json, ArtifactStore, Service};
    use std::sync::Arc;
    let mut entries = Vec::new();
    for stg in large_set() {
        let spec = si_stg::write_g(&stg);
        let line = format!("{{\"op\": \"synth\", \"spec\": {}}}", json::escape(&spec));
        let service = Service::new(Arc::new(ArtifactStore::in_memory(64 << 20)));
        let first = service.execute(&line);
        let ok = json::parse(&first.body)
            .ok()
            .and_then(|v| v.get("ok").and_then(json::Value::as_bool))
            == Some(true);
        if !ok {
            eprintln!("cache/{}: skipped (not synthesizable)", stg.name());
            continue;
        }
        let iters = cfg.iters.min(3);
        let cold = best_of(iters, || {
            Service::new(Arc::new(ArtifactStore::in_memory(64 << 20))).execute(&line)
        });
        let warm = best_of(iters, || service.execute(&line));
        eprintln!(
            "cache/{}: cold {} warm {}",
            stg.name(),
            fmt_duration(cold),
            fmt_duration(warm)
        );
        entries.push(CacheEntry {
            name: stg.name().to_string(),
            signals: stg.synthesized_signals().len(),
            cold,
            warm,
        });
    }
    entries
}

/// One workload of the tracing-overhead section.
struct OverheadEntry {
    name: String,
    states: usize,
    untraced: Duration,
    traced: Duration,
}

/// Times the identical reachability workload with the observability
/// switch off (the default; every probe degenerates to one relaxed
/// atomic load) and on (spans, counters and histograms recorded at the
/// amortized budget checkpoints). The registry is cleared between traced
/// iterations so its size stays constant across the sweep.
fn measure_tracing_overhead(cfg: &Config) -> Vec<OverheadEntry> {
    let workloads: Vec<Stg> = if cfg.smoke {
        vec![si_stg::generators::clatch(8)]
    } else {
        vec![
            si_stg::generators::clatch(12),
            si_stg::generators::clatch(16),
            si_stg::generators::muller_pipeline(12),
            si_stg::generators::philosophers(7),
        ]
    };
    let mut entries = Vec::new();
    for stg in &workloads {
        let Ok(rg) = ReachabilityGraph::build(stg.net(), cfg.cap) else {
            eprintln!("tracing/{}: skipped (over cap)", stg.name());
            continue;
        };
        let states = rg.state_count();
        drop(rg);
        si_obs::set_enabled(false);
        let untraced = best_of(cfg.iters, || ReachabilityGraph::build(stg.net(), cfg.cap));
        si_obs::set_enabled(true);
        let traced = best_of(cfg.iters, || {
            let rg = ReachabilityGraph::build(stg.net(), cfg.cap);
            si_obs::reset();
            rg
        });
        si_obs::set_enabled(false);
        si_obs::reset();
        eprintln!(
            "tracing/{}: untraced {} traced {}",
            stg.name(),
            fmt_duration(untraced),
            fmt_duration(traced)
        );
        entries.push(OverheadEntry {
            name: stg.name().to_string(),
            states,
            untraced,
            traced,
        });
    }
    entries
}

/// One workload of the protocol-deadlock section.
struct ProtoEntry {
    name: String,
    modules: usize,
    channels: usize,
    /// Global states the exhaustive deadlock check explored.
    states: usize,
    violations: usize,
    /// Shard count -> best-of wall time of the full check (`[0]` is the
    /// sequential explorer).
    times: Vec<(usize, Duration)>,
}

/// Times the CFSM deadlock checker (`si_proto::check_deadlock_with`) on
/// the clean `ring(n)` family and the deadlocking `dining(n)` family, at
/// the same shard counts as the other exploration sections. The check is
/// exhaustive either way (violations do not stop the sweep), so sharded
/// and sequential runs walk the identical state space.
fn measure_protocol_deadlock(cfg: &Config) -> (Vec<usize>, Vec<ProtoEntry>) {
    let counts: Vec<usize> = if cfg.smoke {
        vec![1, 2]
    } else {
        vec![1, 2, 4, 8]
    };
    debug_assert_eq!(counts[0], 1, "the sweep leads with the sequential explorer");
    let workloads: Vec<si_proto::ProtoSystem> = if cfg.smoke {
        vec![si_proto::ring(4), si_proto::dining(3)]
    } else {
        // ring(16) (>4M global states) overflows the default cap and
        // would be skipped; ring(14)'s 1.18M states are the ceiling.
        vec![
            si_proto::ring(10),
            si_proto::ring(14),
            si_proto::dining(8),
            si_proto::dining(12),
        ]
    };
    let mut entries = Vec::new();
    for sys in &workloads {
        let check = |shards: usize| {
            let mut reach = si_petri::ReachOptions::with_cap(cfg.cap);
            reach.shards = shards;
            si_proto::check_deadlock_with(sys, reach).expect("no worker panics")
        };
        // The first sequential run doubles as the cap probe and supplies
        // the verdict columns.
        let t0 = Instant::now();
        let probe = check(1);
        let first_seq = t0.elapsed();
        if probe.interrupted.is_some() {
            eprintln!("proto/{}: skipped (over the cap)", sys.name());
            continue;
        }
        let iters = cfg.iters.min(3);
        let mut times = Vec::new();
        for &k in &counts {
            let extra = if k == 1 { iters - 1 } else { iters };
            let mut d = best_of(extra, || check(k));
            if k == 1 {
                d = d.min(first_seq);
            }
            times.push((k, d));
        }
        eprint!(
            "proto/{} ({} states, {} violations):",
            sys.name(),
            probe.states_explored,
            probe.violations.len()
        );
        for &(k, d) in &times {
            eprint!(" {k}={}", fmt_duration(d));
        }
        eprintln!();
        entries.push(ProtoEntry {
            name: sys.name().to_string(),
            modules: sys.modules().len(),
            channels: sys.channels().len(),
            states: probe.states_explored,
            violations: probe.violations.len(),
            times,
        });
    }
    (counts, entries)
}

fn json_ms(d: Option<Duration>) -> String {
    match d {
        Some(d) => format!("{:.6}", d.as_secs_f64() * 1e3),
        None => "null".to_string(),
    }
}

fn json_speedup(naive: Option<Duration>, fast: Option<Duration>) -> String {
    match (naive, fast) {
        (Some(n), Some(f)) if !f.is_zero() => {
            format!("{:.3}", n.as_secs_f64() / f.as_secs_f64())
        }
        _ => "null".to_string(),
    }
}

fn main() {
    let cfg = parse_args();
    let mut entries = Vec::new();
    for (set, stgs) in [("small", small_set()), ("large", large_set())] {
        for stg in &stgs {
            eprint!("{set}/{} ...", stg.name());
            let e = measure(set, stg, &cfg);
            eprintln!(
                " reach {} -> {} | conc {} -> {} | synth {}",
                e.reach_naive
                    .map(fmt_duration)
                    .unwrap_or_else(|| "-".into()),
                e.reach_interned
                    .map(fmt_duration)
                    .unwrap_or_else(|| "-".into()),
                fmt_duration(e.conc_naive),
                fmt_duration(e.conc_batched),
                e.synth.map(fmt_duration).unwrap_or_else(|| "-".into()),
            );
            entries.push(e);
        }
    }

    let (shard_cap, shard_counts, shard_entries) = measure_shard_scaling(&cfg);
    let minimizer_entries = measure_minimizer_backends(&cfg);
    let (product_counts, product_entries) = measure_product_exploration(&cfg);
    let (csc_cap, csc_budget, csc_entries) = measure_csc_resolution(&cfg);
    let symbolic_entries = measure_symbolic_reachability(&cfg);
    let (proto_counts, proto_entries) = measure_protocol_deadlock(&cfg);
    let cache_entries = measure_artifact_cache(&cfg);
    let overhead_entries = measure_tracing_overhead(&cfg);

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"schema\": \"sisyn/bench-substrates/v9\",");
    let _ = writeln!(json, "  \"iters\": {},", cfg.iters);
    let _ = writeln!(json, "  \"state_cap\": {},", cfg.cap);
    let _ = writeln!(
        json,
        "  \"timing\": \"best-of-iters wall time, milliseconds\","
    );
    let _ = writeln!(json, "  \"entries\": [");
    for (i, e) in entries.iter().enumerate() {
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"set\": \"{}\",", e.set);
        let _ = writeln!(json, "      \"name\": \"{}\",", e.name);
        let _ = writeln!(json, "      \"places\": {},", e.places);
        let _ = writeln!(json, "      \"transitions\": {},", e.transitions);
        let _ = writeln!(
            json,
            "      \"states\": {},",
            e.states
                .map(|s| s.to_string())
                .unwrap_or_else(|| "null".into())
        );
        let _ = writeln!(
            json,
            "      \"reach_naive_ms\": {},",
            json_ms(e.reach_naive)
        );
        let _ = writeln!(
            json,
            "      \"reach_interned_ms\": {},",
            json_ms(e.reach_interned)
        );
        let _ = writeln!(
            json,
            "      \"reach_speedup\": {},",
            json_speedup(e.reach_naive, e.reach_interned)
        );
        let _ = writeln!(
            json,
            "      \"conc_naive_ms\": {},",
            json_ms(Some(e.conc_naive))
        );
        let _ = writeln!(
            json,
            "      \"conc_batched_ms\": {},",
            json_ms(Some(e.conc_batched))
        );
        let _ = writeln!(
            json,
            "      \"conc_speedup\": {},",
            json_speedup(Some(e.conc_naive), Some(e.conc_batched))
        );
        let _ = writeln!(json, "      \"synth_ms\": {}", json_ms(e.synth));
        let _ = writeln!(
            json,
            "    }}{}",
            if i + 1 < entries.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    // Shard-scaling section: the sharded reachability engine vs the
    // sequential one (shard count 1) on the clatch family.
    let _ = writeln!(json, "  \"shard_scaling\": {{");
    let _ = writeln!(json, "    \"state_cap\": {shard_cap},");
    let _ = writeln!(
        json,
        "    \"shard_counts\": [{}],",
        shard_counts
            .iter()
            .map(|k| k.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(
        json,
        "    \"hardware_threads\": {},",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let _ = writeln!(json, "    \"entries\": [");
    for (i, e) in shard_entries.iter().enumerate() {
        let _ = writeln!(json, "      {{");
        let _ = writeln!(json, "        \"name\": \"{}\",", e.name);
        let _ = writeln!(json, "        \"places\": {},", e.places);
        let _ = writeln!(json, "        \"transitions\": {},", e.transitions);
        let _ = writeln!(json, "        \"states\": {},", e.states);
        let _ = writeln!(
            json,
            "        \"reach_ms\": {{{}}},",
            e.times
                .iter()
                .map(|&(k, d)| format!("\"{k}\": {}", json_ms(Some(d))))
                .collect::<Vec<_>>()
                .join(", ")
        );
        let seq = e.times[0].1;
        let _ = writeln!(
            json,
            "        \"speedup_vs_seq\": {{{}}}",
            e.times[1..]
                .iter()
                .map(|&(k, d)| format!("\"{k}\": {}", json_speedup(Some(seq), Some(d))))
                .collect::<Vec<_>>()
                .join(", ")
        );
        let _ = writeln!(
            json,
            "      }}{}",
            if i + 1 < shard_entries.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "    ]");
    let _ = writeln!(json, "  }},");
    // Minimizer-backend section: literal counts and wall time per backend
    // on the complex-gate synthesis of the large set.
    let _ = writeln!(json, "  \"minimizer_backends\": {{");
    let _ = writeln!(json, "    \"architecture\": \"complex-gate\",");
    let _ = writeln!(
        json,
        "    \"backends\": [{}],",
        MinimizerChoice::ALL
            .iter()
            .map(|c| format!("\"{}\"", c.name()))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(json, "    \"entries\": [");
    for (i, e) in minimizer_entries.iter().enumerate() {
        let _ = writeln!(json, "      {{");
        let _ = writeln!(json, "        \"name\": \"{}\",", e.name);
        let _ = writeln!(
            json,
            "        \"literals\": {{{}}},",
            e.per_backend
                .iter()
                .map(|&(n, lits, _)| format!("\"{n}\": {lits}"))
                .collect::<Vec<_>>()
                .join(", ")
        );
        let _ = writeln!(
            json,
            "        \"synth_ms\": {{{}}}",
            e.per_backend
                .iter()
                .map(|&(n, _, d)| format!("\"{n}\": {}", json_ms(Some(d))))
                .collect::<Vec<_>>()
                .join(", ")
        );
        let _ = writeln!(
            json,
            "      }}{}",
            if i + 1 < minimizer_entries.len() {
                ","
            } else {
                ""
            }
        );
    }
    let _ = writeln!(json, "    ]");
    let _ = writeln!(json, "  }},");
    // Product-exploration section: the conformance product on the generic
    // sequential vs sharded explorers, large set.
    let _ = writeln!(json, "  \"product_exploration\": {{");
    let _ = writeln!(json, "    \"state_cap\": {},", cfg.cap);
    let _ = writeln!(
        json,
        "    \"shard_counts\": [{}],",
        product_counts
            .iter()
            .map(|k| k.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(
        json,
        "    \"hardware_threads\": {},",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let _ = writeln!(json, "    \"entries\": [");
    for (i, e) in product_entries.iter().enumerate() {
        let _ = writeln!(json, "      {{");
        let _ = writeln!(json, "        \"name\": \"{}\",", e.name);
        let _ = writeln!(json, "        \"product_states\": {},", e.product_states);
        let _ = writeln!(
            json,
            "        \"conform_ms\": {{{}}},",
            e.times
                .iter()
                .map(|&(k, d)| format!("\"{k}\": {}", json_ms(Some(d))))
                .collect::<Vec<_>>()
                .join(", ")
        );
        let _ = writeln!(
            json,
            "        \"states_per_s\": {{{}}},",
            e.times
                .iter()
                .map(|&(k, d)| {
                    let rate = if d.is_zero() {
                        "null".to_string()
                    } else {
                        format!("{:.0}", e.product_states as f64 / d.as_secs_f64())
                    };
                    format!("\"{k}\": {rate}")
                })
                .collect::<Vec<_>>()
                .join(", ")
        );
        let seq = e.times[0].1;
        let _ = writeln!(
            json,
            "        \"speedup_vs_seq\": {{{}}}",
            e.times[1..]
                .iter()
                .map(|&(k, d)| format!("\"{k}\": {}", json_speedup(Some(seq), Some(d))))
                .collect::<Vec<_>>()
                .join(", ")
        );
        let _ = writeln!(
            json,
            "      }}{}",
            if i + 1 < product_entries.len() {
                ","
            } else {
                ""
            }
        );
    }
    let _ = writeln!(json, "    ]");
    let _ = writeln!(json, "  }},");
    // CSC-resolution section: blind baseline vs conflict-core subsystem,
    // one scoring worker.
    let _ = writeln!(json, "  \"csc_resolution\": {{");
    let _ = writeln!(json, "    \"oracle_cap\": {csc_cap},");
    let _ = writeln!(json, "    \"budget\": {csc_budget},");
    let _ = writeln!(json, "    \"workers\": 1,");
    let _ = writeln!(json, "    \"entries\": [");
    for (i, e) in csc_entries.iter().enumerate() {
        let _ = writeln!(json, "      {{");
        let _ = writeln!(json, "        \"name\": \"{}\",", e.name);
        let _ = writeln!(json, "        \"places\": {},", e.places);
        let _ = writeln!(json, "        \"transitions\": {},", e.transitions);
        let _ = writeln!(
            json,
            "        \"resolve_blind_ms\": {},",
            json_ms(Some(e.blind))
        );
        let _ = writeln!(
            json,
            "        \"resolve_greedy_ms\": {},",
            json_ms(Some(e.greedy))
        );
        let _ = writeln!(
            json,
            "        \"resolve_beam_ms\": {},",
            json_ms(Some(e.beam))
        );
        let _ = writeln!(
            json,
            "        \"end_to_end_speedup\": {},",
            json_speedup(Some(e.blind), Some(e.greedy))
        );
        let _ = writeln!(
            json,
            "        \"greedy_candidates\": {},",
            e.greedy_evaluated
        );
        let _ = writeln!(json, "        \"sample_candidates\": {},", e.sample);
        let rate = |d: Duration| {
            if d.is_zero() {
                "null".to_string()
            } else {
                format!("{:.0}", e.sample as f64 / d.as_secs_f64())
            }
        };
        let _ = writeln!(
            json,
            "        \"rebuild_candidates_per_s\": {},",
            rate(e.rebuild)
        );
        let _ = writeln!(
            json,
            "        \"reanalyze_candidates_per_s\": {},",
            rate(e.reanalyze)
        );
        let _ = writeln!(
            json,
            "        \"reanalyze_speedup\": {}",
            json_speedup(Some(e.rebuild), Some(e.reanalyze))
        );
        let _ = writeln!(
            json,
            "      }}{}",
            if i + 1 < csc_entries.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "    ]");
    let _ = writeln!(json, "  }},");
    // Symbolic-reachability section: the BDD fixpoint vs the explicit
    // enumerating engine (null where the cap overflows).
    let _ = writeln!(json, "  \"symbolic_reachability\": {{");
    let _ = writeln!(json, "    \"state_cap\": {},", cfg.cap);
    let _ = writeln!(json, "    \"entries\": [");
    for (i, e) in symbolic_entries.iter().enumerate() {
        let _ = writeln!(json, "      {{");
        let _ = writeln!(json, "        \"name\": \"{}\",", e.name);
        let _ = writeln!(json, "        \"places\": {},", e.places);
        let _ = writeln!(json, "        \"transitions\": {},", e.transitions);
        let _ = writeln!(json, "        \"states\": {},", e.states);
        let _ = writeln!(json, "        \"iterations\": {},", e.iterations);
        let _ = writeln!(json, "        \"peak_nodes\": {},", e.peak_nodes);
        let _ = writeln!(
            json,
            "        \"reach_explicit_ms\": {},",
            json_ms(e.explicit)
        );
        let _ = writeln!(
            json,
            "        \"reach_symbolic_ms\": {},",
            json_ms(Some(e.symbolic))
        );
        let _ = writeln!(
            json,
            "        \"symbolic_speedup\": {}",
            json_speedup(e.explicit, Some(e.symbolic))
        );
        let _ = writeln!(
            json,
            "      }}{}",
            if i + 1 < symbolic_entries.len() {
                ","
            } else {
                ""
            }
        );
    }
    let _ = writeln!(json, "    ]");
    let _ = writeln!(json, "  }},");
    // Protocol-deadlock section: the CFSM deadlock checker on the generic
    // sequential vs sharded explorers, ring/dining families.
    let _ = writeln!(json, "  \"protocol_deadlock\": {{");
    let _ = writeln!(json, "    \"state_cap\": {},", cfg.cap);
    let _ = writeln!(
        json,
        "    \"shard_counts\": [{}],",
        proto_counts
            .iter()
            .map(|k| k.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(
        json,
        "    \"hardware_threads\": {},",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let _ = writeln!(json, "    \"entries\": [");
    for (i, e) in proto_entries.iter().enumerate() {
        let _ = writeln!(json, "      {{");
        let _ = writeln!(json, "        \"name\": \"{}\",", e.name);
        let _ = writeln!(json, "        \"modules\": {},", e.modules);
        let _ = writeln!(json, "        \"channels\": {},", e.channels);
        let _ = writeln!(json, "        \"states\": {},", e.states);
        let _ = writeln!(json, "        \"violations\": {},", e.violations);
        let _ = writeln!(
            json,
            "        \"check_ms\": {{{}}},",
            e.times
                .iter()
                .map(|&(k, d)| format!("\"{k}\": {}", json_ms(Some(d))))
                .collect::<Vec<_>>()
                .join(", ")
        );
        let _ = writeln!(
            json,
            "        \"states_per_s\": {{{}}},",
            e.times
                .iter()
                .map(|&(k, d)| {
                    let rate = if d.is_zero() {
                        "null".to_string()
                    } else {
                        format!("{:.0}", e.states as f64 / d.as_secs_f64())
                    };
                    format!("\"{k}\": {rate}")
                })
                .collect::<Vec<_>>()
                .join(", ")
        );
        let seq = e.times[0].1;
        let _ = writeln!(
            json,
            "        \"speedup_vs_seq\": {{{}}}",
            e.times[1..]
                .iter()
                .map(|&(k, d)| format!("\"{k}\": {}", json_speedup(Some(seq), Some(d))))
                .collect::<Vec<_>>()
                .join(", ")
        );
        let _ = writeln!(
            json,
            "      }}{}",
            if i + 1 < proto_entries.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "    ]");
    let _ = writeln!(json, "  }},");
    // Artifact-cache section: cold (fresh store) vs warm (response-cache
    // hit) latency of the serve layer on the large-set synth workloads.
    let _ = writeln!(json, "  \"artifact_cache\": {{");
    let _ = writeln!(json, "    \"op\": \"synth\",");
    let _ = writeln!(json, "    \"store_bytes\": {},", 64usize << 20);
    let _ = writeln!(json, "    \"entries\": [");
    for (i, e) in cache_entries.iter().enumerate() {
        let _ = writeln!(json, "      {{");
        let _ = writeln!(json, "        \"name\": \"{}\",", e.name);
        let _ = writeln!(json, "        \"signals\": {},", e.signals);
        let _ = writeln!(json, "        \"cold_ms\": {},", json_ms(Some(e.cold)));
        let _ = writeln!(json, "        \"warm_ms\": {},", json_ms(Some(e.warm)));
        let _ = writeln!(
            json,
            "        \"warm_speedup\": {}",
            json_speedup(Some(e.cold), Some(e.warm))
        );
        let _ = writeln!(
            json,
            "      }}{}",
            if i + 1 < cache_entries.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "    ]");
    let _ = writeln!(json, "  }},");
    // Tracing-overhead section: the observability layer's cost with the
    // switch off (the shipping default) and on.
    let _ = writeln!(json, "  \"tracing_overhead\": {{");
    let _ = writeln!(json, "    \"workload\": \"ReachabilityGraph::build\",");
    let _ = writeln!(json, "    \"state_cap\": {},", cfg.cap);
    let _ = writeln!(json, "    \"entries\": [");
    for (i, e) in overhead_entries.iter().enumerate() {
        let _ = writeln!(json, "      {{");
        let _ = writeln!(json, "        \"name\": \"{}\",", e.name);
        let _ = writeln!(json, "        \"states\": {},", e.states);
        let _ = writeln!(
            json,
            "        \"untraced_ms\": {},",
            json_ms(Some(e.untraced))
        );
        let _ = writeln!(json, "        \"traced_ms\": {},", json_ms(Some(e.traced)));
        let overhead = if e.untraced.is_zero() {
            "null".to_string()
        } else {
            format!(
                "{:.4}",
                e.traced.as_secs_f64() / e.untraced.as_secs_f64() - 1.0
            )
        };
        let _ = writeln!(json, "        \"traced_overhead\": {overhead}");
        let _ = writeln!(
            json,
            "      }}{}",
            if i + 1 < overhead_entries.len() {
                ","
            } else {
                ""
            }
        );
    }
    let _ = writeln!(json, "    ]");
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");
    if let Err(e) = std::fs::write(&cfg.out, &json) {
        eprintln!("bench: cannot write {}: {e}", cfg.out);
        std::process::exit(1);
    }
    // Headline number: geometric-mean reachability speedup on the large set.
    let large: Vec<f64> = entries
        .iter()
        .filter(|e| e.set == "large")
        .filter_map(|e| match (e.reach_naive, e.reach_interned) {
            (Some(n), Some(f)) if !f.is_zero() => Some(n.as_secs_f64() / f.as_secs_f64()),
            _ => None,
        })
        .collect();
    if !large.is_empty() {
        let geo = (large.iter().map(|s| s.ln()).sum::<f64>() / large.len() as f64).exp();
        eprintln!("large-set reachability speedup (geomean): {geo:.2}x");
    }
    eprintln!("wrote {}", cfg.out);
}
