//! The two batch workloads' job lists. Which specs and sizes each holds,
//! and why, is documented in `perfbench/README.md`.

use std::time::Instant;

use si_core::Engine;
use si_petri::ReachOptions;
use si_stg::parse_g;

use crate::jobs::{Class, Job, Opts};
use crate::specs::{permute_graph_lines, Family, Gen, Rng};
use crate::stats::median;

/// A primary job plus the requests that follow it on the same store,
/// run `rounds` times a pass, each time on a fresh store.
#[derive(Clone, Debug)]
pub struct Batch {
    pub primary: Job,
    pub follow_ups: Vec<Job>,
    pub rounds: usize,
}

const ARCHS: [&str; 3] = ["complex", "excitation", "per-region"];

/// Deadline of the structural deadline jobs: inside the CSC search,
/// which takes 160 ms to 4 s on these specs.
pub const RESOLVE_DEADLINE_MS: u64 = 40;

/// The state-space deadline jobs verify clatch(15). Their deadline is
/// `DEADLINE_PER_REACH` times the reachability build time of that spec,
/// measured at the same shard count at the start of the run: after the
/// build (about 90 ms at 1 shard, 150 ms at 2 on a 2-thread machine) and
/// before the verification's last deadline check (about 350 ms at 1
/// shard, over 500 ms at 2), with a margin of about 2x on either side
/// whatever the machine's speed during the run. A program whose later steps
/// get faster may finish before the deadline; that answer is judged as
/// the job's answer without a deadline.
pub const DEADLINE_CLATCH: usize = 15;
const DEADLINE_PER_REACH: f64 = 2.0;
/// Reachability builds per shard count when measuring.
const REACH_SAMPLES: usize = 3;

/// The deadlines in ms of the clatch(15) verify jobs at 1 and 2 shards:
/// `DEADLINE_PER_REACH` times the median of `REACH_SAMPLES` builds of its
/// reachability graph with `Engine::reachability`. Not part of the
/// set-up time: it measures the machine, not the program's set-up.
pub fn verify_deadlines_ms() -> [u64; 2] {
    let stg = parse_g(&Gen::default().stg("clatch", DEADLINE_CLATCH).text)
        .expect("generated spec parses");
    [1, 2].map(|shards| {
        let ms: Vec<f64> = (0..REACH_SAMPLES)
            .map(|_| {
                let engine =
                    Engine::new(&stg).reach(ReachOptions::with_cap(4_000_000).shards(shards));
                let t0 = Instant::now();
                engine.reachability().expect("clatch(15) has 2^16 states");
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        (DEADLINE_PER_REACH * median(&ms)).ceil() as u64
    })
}

/// `op` on `f` with its graph lines in a seeded order.
fn job(f: &Family, op: &'static str, o: Opts, class: Class, rng: &mut Rng) -> Job {
    Job::stg(
        f.family,
        f.n,
        &f.name,
        op,
        permute_graph_lines(&f.text, rng),
        o,
        class,
    )
}

fn alone(primary: Job) -> Batch {
    Batch {
        primary,
        follow_ups: Vec::new(),
        rounds: 1,
    }
}

/// `job` followed on its store by a byte-identical resend and a resend
/// with its graph lines reordered: both answered from the cache.
fn with_reads(job: Job, rng: &mut Rng) -> Batch {
    let Some(spec) = job.spec() else {
        return alone(job);
    };
    let repeat = job.resend(Class::Repeat, None);
    let permute = job.resend(Class::Permute, Some(permute_graph_lines(spec, rng)));
    Batch {
        primary: job,
        follow_ups: vec![repeat, permute],
        rounds: 1,
    }
}

/// A synthesizing op on a k-component handshake composition, followed on
/// its store by the same op on each of its k one-component edits, in a
/// seeded order, all `rounds` times a pass.
fn handshake_edit(op: &'static str, k: usize, rounds: usize, rng: &mut Rng) -> Batch {
    let mut flips: Vec<usize> = (0..k).collect();
    rng.shuffle(&mut flips);
    Batch {
        primary: Job::handshakes("", k, op, None),
        follow_ups: flips
            .into_iter()
            .map(|f| Job::handshakes("", k, op, Some(f)))
            .collect(),
        rounds,
    }
}

/// Rounds a pass of the structural edit batches. An edit takes about
/// 1-3 ms, so that a few samples of one would each see a single speed
/// period of a shared host (see `batch`); more, spread over the pass, see
/// many.
const STRUCTURAL_EDIT_ROUNDS: usize = 8;

/// `structural_batch`: the paper's own flow, one CLI-sized job at a time.
/// The generator calls go through `gen`.
pub fn structural(seed: u64, gen: &mut Gen) -> Vec<Batch> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::new();
    let mut specs = gen.small_set();
    specs.extend(gen.stgs(&[
        ("clatch", &[8, 16, 24]),
        ("muller", &[8, 16]),
        ("burst", &[6]),
        ("sequencer", &[8, 16]),
        ("selector", &[8, 12]),
        ("philosophers", &[5, 9]),
    ]));
    for f in &specs {
        for arch in ARCHS {
            let o = Opts {
                arch: Some(arch),
                ..Opts::default()
            };
            let j = job(f, "synth", o, Class::Fresh, &mut rng);
            out.push(with_reads(j, &mut rng));
        }
        let j = job(f, "check", Opts::default(), Class::Fresh, &mut rng);
        out.push(with_reads(j, &mut rng));
    }
    for f in &gen.stgs(&[
        ("vme_read_raw", &[0]),
        ("vme_chain", &[2, 3, 4]),
        ("vme_burst", &[2]),
    ]) {
        let j = job(f, "resolve", Opts::default(), Class::Fresh, &mut rng);
        out.push(with_reads(j, &mut rng));
    }
    for f in &gen.stgs(&[("vme_chain", &[3, 4]), ("vme_burst", &[3, 4])]) {
        let o = Opts {
            timeout_ms: Some(RESOLVE_DEADLINE_MS),
            ..Opts::default()
        };
        out.push(alone(job(f, "resolve", o, Class::Deadline, &mut rng)));
    }
    for k in 3..=8 {
        out.push(handshake_edit("synth", k, STRUCTURAL_EDIT_ROUNDS, &mut rng));
    }
    out
}

/// `state_space_batch`: the state-based half, one job at a time, every
/// explicit job at 1 and at 2 shards. The generator calls go through
/// `gen`; `deadlines_ms` are those of `verify_deadlines_ms`.
pub fn state_space(seed: u64, gen: &mut Gen, deadlines_ms: [u64; 2]) -> Vec<Batch> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::new();
    // Small sizes too, so that a run has over a hundred distinct jobs
    // and p90 ten samples beyond it.
    let mut verify = gen.small_set();
    verify.extend(gen.stgs(&[
        ("clatch", &[4, 6, 8, 10, 11, 12, 14]),
        ("muller", &[4, 6, 8, 9, 10, 12]),
        ("philosophers", &[3, 5, 7]),
        ("selector", &[4, 5, 6, 8]),
        ("sequencer", &[4, 6, 8, 10]),
        ("burst", &[4, 6]),
    ]));
    for f in &verify {
        for shards in [1, 2] {
            let o = Opts {
                shards,
                ..Opts::default()
            };
            let j = job(f, "verify", o, Class::Fresh, &mut rng);
            out.push(with_reads(j, &mut rng));
        }
    }
    for f in &gen.stgs(&[
        ("clatch", &[18, 20, 22]),
        ("vme_read_raw", &[0]),
        ("vme_chain", &[2, 3]),
    ]) {
        let o = Opts {
            symbolic: true,
            ..Opts::default()
        };
        let j = job(f, "check", o, Class::Fresh, &mut rng);
        out.push(with_reads(j, &mut rng));
    }
    let f = gen.stg("clatch", DEADLINE_CLATCH);
    for (shards, deadline) in [1, 2].into_iter().zip(deadlines_ms) {
        let o = Opts {
            shards,
            timeout_ms: Some(deadline),
            ..Opts::default()
        };
        out.push(alone(job(&f, "verify", o, Class::Deadline, &mut rng)));
    }
    for (family, n) in [
        ("ring", 10),
        ("pipeline", 7),
        ("fork_join", 8),
        ("dining", 10),
    ] {
        let text = gen.proto(family, n);
        for shards in [1, 2] {
            out.push(alone(Job::proto(family, n, text.clone(), shards)));
        }
    }
    for k in 3..=6 {
        out.push(handshake_edit("verify", k, 1, &mut rng));
    }
    out
}
