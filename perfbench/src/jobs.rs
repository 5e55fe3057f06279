//! One job: a request the program answers, how to run it through the
//! public entry points, and how to judge its answer.

use std::sync::Arc;
use std::time::Instant;

use si_petri::ReachOptions;
use si_serve::json::{escape, parse, Value};
use si_serve::{ArtifactStore, Service};

use crate::expected::Expected;
use crate::specs::handshakes;

/// Byte ceiling of the service's memory tier: `sisyn serve`'s default.
pub const STORE_BYTES: usize = 64 << 20;

/// The request class the stream intended (serve) or the role of a
/// request in a batch job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// A spec and op not seen before.
    Fresh,
    /// A byte-identical resend.
    Repeat,
    /// The same spec with its graph lines reordered.
    Permute,
    /// A handshake composition with one component re-sequenced.
    Edit,
    /// A job whose `timeout_ms` lands before its work is done.
    Deadline,
}

/// What the program is asked to do.
#[derive(Clone, Debug)]
pub enum Input {
    /// A `Service::execute` request line over `.g` text.
    Stg { line: String, spec: String },
    /// A `.proto` system for `parse_proto` + `check_deadlock_with`.
    Proto { text: String },
}

#[derive(Clone, Debug)]
pub struct Job {
    pub label: String,
    pub family: &'static str,
    pub n: usize,
    /// `check` | `synth` | `verify` | `resolve` | `deadlock`.
    pub op: &'static str,
    /// `""`, `"symbolic"` or `"deadline"`: selects the expected answer.
    pub variant: &'static str,
    pub arch: &'static str,
    pub shards: usize,
    pub class: Class,
    pub input: Input,
    /// For `Edit`: the component count k of the composition.
    pub components: usize,
    /// The options the request line was built with.
    pub opts: Opts,
}

/// Request options beyond op and spec.
#[derive(Clone, Copy, Debug, Default)]
pub struct Opts {
    pub arch: Option<&'static str>,
    pub shards: usize,
    pub symbolic: bool,
    pub timeout_ms: Option<u64>,
}

/// The request line `Service::execute` takes, in the CLI's flag
/// vocabulary.
pub fn request_line(op: &str, spec: &str, o: Opts) -> String {
    let mut line = format!("{{\"op\": {}, \"spec\": {}", escape(op), escape(spec));
    if let Some(a) = o.arch {
        line.push_str(&format!(", \"arch\": {}", escape(a)));
    }
    if o.shards > 1 {
        line.push_str(&format!(", \"shards\": {}", o.shards));
    }
    if o.symbolic {
        line.push_str(", \"backend\": \"symbolic\"");
    }
    if let Some(t) = o.timeout_ms {
        line.push_str(&format!(", \"timeout_ms\": {t}"));
    }
    line.push('}');
    line
}

impl Job {
    #[allow(clippy::too_many_arguments)]
    pub fn stg(
        family: &'static str,
        n: usize,
        name: &str,
        op: &'static str,
        spec: String,
        o: Opts,
        class: Class,
    ) -> Job {
        let variant = if o.timeout_ms.is_some() {
            "deadline"
        } else if o.symbolic {
            "symbolic"
        } else {
            ""
        };
        let arch = o.arch.unwrap_or("excitation");
        let shards = o.shards.max(1);
        Job {
            label: format!("{op} {name} arch={arch} shards={shards} {variant}")
                .trim_end()
                .to_string(),
            family,
            n,
            op,
            variant,
            arch,
            shards,
            class,
            input: Input::Stg {
                line: request_line(op, &spec, o),
                spec,
            },
            components: 0,
            opts: o,
        }
    }

    /// `op` on a composition of `k` handshakes over the alphabet
    /// `prefix`, with component `flip` re-sequenced if given (an edit).
    pub fn handshakes(prefix: &str, k: usize, op: &'static str, flip: Option<usize>) -> Job {
        let (label, class) = match flip {
            Some(f) => (format!("{prefix}handshakes({k}) edit={f}"), Class::Edit),
            None => (format!("{prefix}handshakes({k})"), Class::Fresh),
        };
        let spec = handshakes(prefix, k, flip);
        let mut job = Job::stg("handshake", k, &label, op, spec, Opts::default(), class);
        job.components = k;
        job
    }

    pub fn proto(family: &'static str, n: usize, text: String, shards: usize) -> Job {
        Job {
            label: format!("deadlock {family}{n} shards={shards}"),
            family,
            n,
            op: "deadlock",
            variant: "",
            arch: "",
            shards,
            class: Class::Fresh,
            input: Input::Proto { text },
            components: 0,
            opts: Opts {
                shards,
                ..Opts::default()
            },
        }
    }

    /// The key of the expected-answers file: `op` or `op/variant`.
    pub fn rule_op(&self) -> String {
        match self.variant {
            "" => self.op.to_string(),
            v => format!("{}/{v}", self.op),
        }
    }

    /// The `.g` text of an STG job.
    pub fn spec(&self) -> Option<&str> {
        match &self.input {
            Input::Stg { spec, .. } => Some(spec),
            Input::Proto { .. } => None,
        }
    }

    /// The same job sent again as `class`, over `text` (the same spec
    /// with its graph lines reordered) when given.
    pub fn resend(&self, class: Class, text: Option<String>) -> Job {
        let mut job = self.clone();
        job.class = class;
        if let Some(spec) = text {
            job.input = Input::Stg {
                line: request_line(self.op, &spec, self.opts),
                spec,
            };
        }
        job
    }

    /// The label without its shard count: jobs that differ only in
    /// shards must report the same answer.
    pub fn twin_key(&self) -> String {
        self.label
            .split_whitespace()
            .filter(|w| !w.starts_with("shards="))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// A job's answer plus the execution facts the service reports.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub body: String,
    pub cache_hit: bool,
    pub reach_builds: usize,
    pub covers_reused: usize,
    pub covers_derived: usize,
}

impl Outcome {
    fn of(resp: si_serve::Response) -> Outcome {
        Outcome {
            body: resp.body,
            cache_hit: resp.cache_hit,
            reach_builds: resp.reach_builds,
            covers_reused: resp.covers_reused,
            covers_derived: resp.covers_derived,
        }
    }
}

/// A fresh service over a fresh in-memory store: what one CLI run costs.
pub fn fresh_service() -> Service {
    Service::new(Arc::new(ArtifactStore::in_memory(STORE_BYTES)))
}

/// Runs `job` on `service` (ignored for `deadlock`), returning the
/// outcome and its wall time in milliseconds.
pub fn run(job: &Job, service: &Service) -> (Outcome, f64) {
    let t0 = Instant::now();
    let out = match &job.input {
        Input::Stg { line, .. } => Outcome::of(service.execute(line)),
        Input::Proto { text } => Outcome {
            body: deadlock_body(text, job.shards),
            cache_hit: false,
            reach_builds: 0,
            covers_reused: 0,
            covers_derived: 0,
        },
    };
    (out, t0.elapsed().as_secs_f64() * 1e3)
}

/// `sisyn deadlock`'s calls on `.proto` text, reduced to the report
/// fields the expected answers and the shard cross-check read.
pub fn deadlock_body(text: &str, shards: usize) -> String {
    let sys = match si_proto::parse_proto(text) {
        Ok(sys) => sys,
        Err(e) => return format!("{{\"ok\": false, \"error\": {}}}", escape(&e.to_string())),
    };
    let reach = ReachOptions::with_cap(si_proto::DEFAULT_CAP).shards(shards);
    match si_proto::check_deadlock_with(&sys, reach) {
        Ok(r) => format!(
            "{{\"command\": \"deadlock\", \"ok\": {}, \"inconclusive\": {}, \
             \"states_explored\": {}, \"violations\": {}, \"deadlocks\": {}, \
             \"dangling_sends\": {}, \"overflows\": {}, \"state\": {}}}",
            r.is_ok() && r.is_conclusive(),
            !r.is_conclusive(),
            r.states_explored,
            r.violations.len(),
            r.deadlocks(),
            r.dangling_sends(),
            r.overflows(),
            // The witness target, not the path to it: the path may differ
            // between shard counts, the state may not.
            r.violations
                .first()
                .map_or("null".to_string(), |v| escape(&v.state.render(&sys))),
        ),
        Err(e) => format!("{{\"ok\": false, \"error\": {}}}", escape(&e.to_string())),
    }
}

/// Response fields that measure time rather than report an answer.
const TIMING_FIELDS: [&str; 2] = ["wall_ms", "elapsed_ms"];

/// `body` parsed, with its timing fields removed at every depth.
pub fn answer(body: &str) -> Value {
    fn strip(v: Value) -> Value {
        match v {
            Value::Obj(map) => Value::Obj(
                map.into_iter()
                    .filter(|(k, _)| !TIMING_FIELDS.contains(&k.as_str()))
                    .map(|(k, v)| (k, strip(v)))
                    .collect(),
            ),
            Value::Arr(items) => Value::Arr(items.into_iter().map(strip).collect()),
            other => other,
        }
    }
    strip(parse(body).unwrap_or(Value::Null))
}

/// Judges one outcome: the expected answer of its family and op, plus
/// the edit cross-check. `Err` says what was wrong.
pub fn judge(job: &Job, out: &Outcome, expected: &Expected) -> Result<Value, String> {
    let v = answer(&out.body);
    if matches!(v, Value::Null) {
        return Err(format!("unparsable body {}", out.body));
    }
    // A deadline job that finished before its deadline must give the
    // answer the job gives without one.
    let rule = if job.variant == "deadline" && v.get("inconclusive") != Some(&Value::Bool(true)) {
        job.op.to_string()
    } else {
        job.rule_op()
    };
    expected.check(job.family, job.n, &rule, &v)?;
    if job.class == Class::Edit
        && (out.covers_derived != 1 || out.covers_reused + 1 != job.components)
    {
        return Err(format!(
            "edit of a {}-component spec derived {} and reused {} covers",
            job.components, out.covers_derived, out.covers_reused
        ));
    }
    Ok(v)
}

/// The literal area a synthesizing op reports (0 for other ops).
pub fn literals(v: &Value) -> u64 {
    v.get("literal_area").and_then(Value::as_usize).unwrap_or(0) as u64
}
