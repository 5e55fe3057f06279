//! Spec generation. Every input the program receives is `.g` or `.proto`
//! text built here: the generator families of `si-stg` / `si-proto`,
//! serialized, then reshaped by the seed (graph lines reordered, signals
//! renamed) so that no two seeds send byte-identical text.

use std::time::{Duration, Instant};

use si_stg::{benchmarks, generators, write_g, Stg};

/// SplitMix64: a small, well-mixed deterministic generator, so the
/// benchmark's inputs depend on nothing but `--seed`.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5eed_5eed_d1ce_f00d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// An STG generator family instance as the program's generator and
/// `write_g` produce it, named the way the expected-answers file names it.
#[derive(Clone, Debug)]
pub struct Family {
    pub family: &'static str,
    pub n: usize,
    /// The model name.
    pub name: String,
    /// The `.g` text `write_g` gives.
    pub text: String,
}

/// The program's share of a workload's set-up: every generator call and
/// its serialization goes through here and is timed. What the benchmark
/// then does with the text (reordering, renaming, request lines) is not.
#[derive(Debug, Default)]
pub struct Gen {
    pub spent: Duration,
}

impl Gen {
    /// Runs `f`, adding its wall time to `spent`.
    pub fn timed<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.spent += t0.elapsed();
        out
    }

    fn serialize(&mut self, family: &'static str, n: usize, make: impl FnOnce() -> Stg) -> Family {
        self.timed(|| {
            let stg = make();
            Family {
                family,
                n,
                name: stg.name().to_string(),
                text: write_g(&stg),
            }
        })
    }

    /// The STG family instance `family(n)`.
    pub fn stg(&mut self, family: &'static str, n: usize) -> Family {
        self.serialize(family, n, || match family {
            "clatch" => generators::clatch(n),
            "muller" => generators::muller_pipeline(n),
            "burst" => generators::burst(n),
            "sequencer" => generators::sequencer(n),
            "selector" => generators::selector(n),
            "philosophers" => generators::philosophers(n),
            "vme_chain" => generators::vme_chain(n),
            "vme_burst" => generators::vme_burst(n),
            "vme_read_raw" => benchmarks::vme_read_raw(),
            other => panic!("unknown STG family {other}"),
        })
    }

    /// The STG family instances of every `(family, sizes)` entry.
    pub fn stgs(&mut self, list: &[(&'static str, &[usize])]) -> Vec<Family> {
        list.iter()
            .flat_map(|&(family, sizes)| sizes.iter().map(move |&n| (family, n)))
            .map(|(family, n)| self.stg(family, n))
            .collect()
    }

    /// The §IX small set: the fixed controllers every synthesis tool of
    /// the paper's comparison handles (family `small`, numbered in suite
    /// order).
    pub fn small_set(&mut self) -> Vec<Family> {
        let suite = self.timed(benchmarks::synthesizable_suite);
        suite
            .into_iter()
            .enumerate()
            .map(|(i, stg)| self.serialize("small", i, || stg))
            .collect()
    }

    /// The `.proto` text of the CFSM family instance `family(n)`.
    pub fn proto(&mut self, family: &str, n: usize) -> String {
        self.timed(|| {
            let sys = match family {
                "ring" => si_proto::ring(n),
                "pipeline" => si_proto::pipeline(n),
                "fork_join" => si_proto::fork_join(n),
                "dining" => si_proto::dining(n),
                other => panic!("unknown CFSM family {other}"),
            };
            si_proto::write_proto(&sys)
        })
    }
}

/// Reorders the lines between `.graph` and the next directive.
pub fn permute_graph_lines(text: &str, rng: &mut Rng) -> String {
    let lines: Vec<&str> = text.lines().collect();
    let Some(start) = lines.iter().position(|l| l.trim() == ".graph") else {
        return text.to_string();
    };
    let end = lines[start + 1..]
        .iter()
        .position(|l| l.trim_start().starts_with('.'))
        .map_or(lines.len(), |i| start + 1 + i);
    let mut body: Vec<&str> = lines[start + 1..end].to_vec();
    // A one-line body has only one order; anything longer must move.
    let original = body.clone();
    while body.len() > 1 && body == original {
        rng.shuffle(&mut body);
    }
    let mut out: Vec<&str> = lines[..=start].to_vec();
    out.extend(body);
    out.extend(&lines[end..]);
    let mut s = out.join("\n");
    s.push('\n');
    s
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Prefixes every signal name (declarations and transition tokens) and
/// the model name with `prefix`, leaving explicit places alone: the same
/// STG over a fresh alphabet, which the service must treat as a new job
/// down to its per-signal cover fingerprints.
pub fn rename_signals(text: &str, prefix: &str) -> String {
    let mut signals: Vec<String> = Vec::new();
    for line in text.lines() {
        let mut words = line.split_whitespace();
        if let Some(".inputs" | ".outputs" | ".internal") = words.next() {
            signals.extend(words.map(str::to_string));
        }
    }
    let mut out = String::with_capacity(text.len() + 64);
    for line in text.lines() {
        let mut words = line.split_whitespace();
        match words.next() {
            Some(d @ (".inputs" | ".outputs" | ".internal")) => {
                out.push_str(d);
                for w in words {
                    out.push(' ');
                    out.push_str(prefix);
                    out.push_str(w);
                }
            }
            Some(".model") => {
                out.push_str(".model ");
                out.push_str(prefix);
                out.push_str(words.next().unwrap_or("stg"));
            }
            _ => {
                // Rename identifier runs that are followed by a sign and
                // name a signal: those are transition tokens.
                let chars: Vec<char> = line.chars().collect();
                let mut i = 0;
                while i < chars.len() {
                    if is_ident(chars[i]) && (i == 0 || !is_ident(chars[i - 1])) {
                        let mut j = i;
                        while j < chars.len() && is_ident(chars[j]) {
                            j += 1;
                        }
                        let word: String = chars[i..j].iter().collect();
                        let signed = matches!(chars.get(j), Some('+' | '-'));
                        if signed && signals.contains(&word) {
                            out.push_str(prefix);
                        }
                        out.push_str(&word);
                        i = j;
                    } else {
                        out.push(chars[i]);
                        i += 1;
                    }
                }
            }
        }
        out.push('\n');
    }
    out
}

/// A composition of `k` independent four-phase handshakes `(a_i, x_i)`
/// in one specification, over the alphabet `<prefix>a_i` /
/// `<prefix>x_i`. Component `flip` (if any) is re-sequenced so that the
/// output leads — the same four codes, but `x_flip`'s excitation regions
/// move while every other component is bit-identical (the shape of
/// `examples/specs/pipeline_pair_edit.g`).
pub fn handshakes(prefix: &str, k: usize, flip: Option<usize>) -> String {
    let w = k.saturating_sub(1).to_string().len();
    let name = |s: &str, i: usize| format!("{prefix}{s}{i:0w$}");
    let ins: Vec<String> = (0..k).map(|i| name("a", i)).collect();
    let outs: Vec<String> = (0..k).map(|i| name("x", i)).collect();
    let mut g = format!(
        ".model {prefix}handshakes{k}\n.inputs {}\n.outputs {}\n.graph\n",
        ins.join(" "),
        outs.join(" ")
    );
    let mut marking = Vec::new();
    for i in 0..k {
        let (a, x) = (&ins[i], &outs[i]);
        if flip == Some(i) {
            // x+ a+ x- a- : the output leads the handshake.
            g.push_str(&format!("{x}+ {a}+\n{a}+ {x}-\n{x}- {a}-\n{a}- {x}+\n"));
            marking.push(format!("<{a}-,{x}+>"));
        } else {
            // a+ x+ a- x- : the input leads.
            g.push_str(&format!("{a}+ {x}+\n{x}+ {a}-\n{a}- {x}-\n{x}- {a}+\n"));
            marking.push(format!("<{x}-,{a}+>"));
        }
    }
    g.push_str(&format!(".marking {{ {} }}\n.end\n", marking.join(" ")));
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use si_stg::{canonical_g, parse_g};

    #[test]
    fn permutation_keeps_the_canonical_form() {
        let stg = generators::clatch(4);
        let mut rng = Rng::new(3);
        let text = permute_graph_lines(&write_g(&stg), &mut rng);
        assert_ne!(text, write_g(&stg));
        let back = parse_g(&text).expect("permuted text parses");
        assert_eq!(canonical_g(&back), canonical_g(&stg));
    }

    #[test]
    fn renaming_prefixes_signals_only() {
        let text = rename_signals(&write_g(&generators::selector(3)), "q7_");
        let stg = parse_g(&text).expect("renamed text parses");
        assert!(stg.signals().all(|s| stg.signal_name(s).starts_with("q7_")));
        assert!(stg.name().starts_with("q7_"));
    }

    #[test]
    fn handshake_edit_parses() {
        for flip in [None, Some(1)] {
            let stg = parse_g(&handshakes("h_", 3, flip)).expect("composition parses");
            assert_eq!(stg.signal_count(), 6);
        }
    }
}
