//! The hand-written expected answers (`expected.txt`) and the check of a
//! response body against them.

use si_serve::json::Value;

const RULES: &str = include_str!("../expected.txt");

struct Rule {
    family: String,
    op: String,
    fields: Vec<(String, String)>,
}

fn rules() -> Vec<Rule> {
    RULES
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .filter(|l| !l.is_empty())
        .map(|l| {
            let mut words = l.split_whitespace();
            let family = words.next().expect("rule has a family").to_string();
            let op = words.next().expect("rule has an op").to_string();
            let fields = words
                .map(|w| {
                    let (k, v) = w.split_once('=').expect("rule field is key=value");
                    (k.to_string(), v.to_string())
                })
                .collect();
            Rule { family, op, fields }
        })
        .collect()
}

/// Evaluates `EXPR` of a `states=` field: an integer or `2^(an+b)`.
fn eval(expr: &str, n: usize) -> u128 {
    if let Ok(v) = expr.parse() {
        return v;
    }
    let inner = expr
        .strip_prefix("2^(")
        .and_then(|e| e.strip_suffix(')'))
        .unwrap_or_else(|| panic!("unsupported expression {expr}"));
    let (a, b) = match inner.split_once('n') {
        Some((a, b)) => (
            if a.is_empty() {
                1
            } else {
                a.parse::<u32>().expect("coefficient")
            },
            b.trim_start_matches('+').parse::<u32>().unwrap_or(0),
        ),
        None => (0, inner.parse().expect("constant exponent")),
    };
    1u128 << (a * n as u32 + b)
}

/// The expected-answer table, parsed once.
pub struct Expected(Vec<Rule>);

impl Expected {
    pub fn load() -> Self {
        Expected(rules())
    }

    /// Checks `body` (the job's response or report) for a job of
    /// `family(n)` under `op` (with its `/variant`). `Err` names the
    /// first field that disagrees.
    pub fn check(&self, family: &str, n: usize, op: &str, body: &Value) -> Result<(), String> {
        let rule = self
            .0
            .iter()
            .find(|r| r.family == family && r.op == op)
            .or_else(|| self.0.iter().find(|r| r.family == "*" && r.op == op))
            .ok_or_else(|| format!("no expected answer for {family} {op}"))?;
        let cap = rule
            .fields
            .iter()
            .find(|(k, _)| k == "cap")
            .map(|(_, v)| v.parse::<u128>().expect("cap is a number"));
        for (key, want) in &rule.fields {
            let bad = |got: &Value| Err(format!("{key}: expected {want}, got {got:?}"));
            let get = |k: &str| body.get(k).cloned().unwrap_or(Value::Null);
            match key.as_str() {
                "cap" => {}
                "ok" | "inconclusive" => {
                    let got = get(key);
                    if got.as_bool() != Some(want == "true") {
                        return bad(&got);
                    }
                }
                "csc" => {
                    let got = get("csc");
                    if got.as_str() != Some(want.as_str()) {
                        return bad(&got);
                    }
                }
                "plan" => {
                    let got = get("plan");
                    if matches!(got, Value::Null) {
                        return bad(&got);
                    }
                }
                "deadlocks" => {
                    let got = get("deadlocks");
                    let d = got.as_usize().unwrap_or(usize::MAX);
                    let fine = if want == "some" {
                        d > 0 && d != usize::MAX
                    } else {
                        d == 0
                    };
                    if !fine {
                        return bad(&got);
                    }
                }
                "states" => {
                    let field = if op == "deadlock" {
                        "states_explored"
                    } else {
                        "spec_states"
                    };
                    let got = get(field);
                    let expect = eval(want, n);
                    let fine = match (cap, &got) {
                        (Some(cap), Value::Null) => expect > cap,
                        (_, Value::Num(v)) => *v == expect as f64,
                        _ => false,
                    };
                    if !fine {
                        return bad(&got);
                    }
                }
                other => panic!("unknown expected-answer field {other}"),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expressions() {
        assert_eq!(eval("2^(n+1)", 3), 16);
        assert_eq!(eval("2^(2n+3)", 2), 128);
        assert_eq!(eval("12", 0), 12);
    }

    #[test]
    fn rules_parse_and_match() {
        let e = Expected::load();
        let body = si_serve::json::parse("{\"ok\": true, \"spec_states\": null}").unwrap();
        // clatch(20) has 2^21 states, above the 100000 cap: null is right.
        assert!(e.check("clatch", 20, "check", &body).is_ok());
        assert!(e.check("clatch", 4, "check", &body).is_err());
        assert!(e.check("muller", 4, "check", &body).is_ok());
    }
}
