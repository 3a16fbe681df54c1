//! The benchmark's own contract: names match `BENCHMARK.json`, a seed
//! fully determines counts and digests, and the seed reaches the inputs.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (the workloads simulate hundreds of thousands of requests).

use std::collections::BTreeMap;

use perfbench::workloads::{FleetStorm, PaperSweep, SessionsAgent, Workload};
use perfbench::{run, Options, DEFAULT_SEED, END_TO_END, PER_LAYER, WORKLOADS};

/// A parsed JSON value (just enough JSON for `BENCHMARK.json` and the
/// result line).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing characters in JSON");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            _ => panic!("not an object"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(m) => m.keys().map(String::as_str).collect(),
            _ => panic!("not an object"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            _ => panic!("not an array"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => panic!("not a string"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s[self.i], c,
            "expected {:?} at byte {}",
            c as char, self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key must be a string")
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k, v).is_none(), "duplicate key");
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut v = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(v);
                }
                loop {
                    v.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(v);
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let start = self.i;
                while self.s[self.i] != b'"' {
                    assert_ne!(self.s[self.i], b'\\', "escapes are not used here");
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).expect("utf-8"))
            }
            b't' | b'f' | b'n' => {
                for (word, v) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.s[self.i..].starts_with(word.as_bytes()) {
                        self.i += word.len();
                        return v;
                    }
                }
                panic!("bad literal at byte {}", self.i)
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii");
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
            }
        }
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

fn names(list: &Json) -> Vec<(String, String)> {
    list.arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_owned(),
                m.get("unit").str().to_owned(),
            )
        })
        .collect()
}

fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
        .collect()
}

#[test]
fn names_and_units_match_benchmark_json() {
    let b = benchmark_json();
    let workloads: Vec<&str> = b
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    assert_eq!(workloads, WORKLOADS);
    assert_eq!(names(b.get("end_to_end")), owned(&END_TO_END));
    assert_eq!(names(b.get("per_layer")), owned(&PER_LAYER));
}

#[test]
fn result_line_is_the_contract_json() {
    let s = run(&Options {
        workload: "fleet_storm".into(),
        seed: DEFAULT_SEED,
        seconds: 0.0,
        trace: false,
    })
    .expect("runs");
    let line = Json::parse(&s.json());
    assert_eq!(line.keys(), ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(line.get("correct"), &Json::Bool(true), "{:?}", s.log);
    assert_eq!(line.get("failed"), &Json::Num(0.0));
    let mut reported = line.get("metrics").keys();
    let mut expected: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
    reported.sort_unstable();
    expected.sort_unstable();
    assert_eq!(reported, expected);
    assert_eq!(s.metric("pass_rate"), Some(1.0));
}

/// Digest of a whole run at `seed`, after checking that no two parts
/// repeat one input.
fn digest<W: Workload>(seed: u64) -> u64 {
    let w = W::setup(seed).expect("set-up builds");
    let parts = w.run_parts().expect("simulates");
    let mut each: Vec<u64> = parts.iter().map(|r| w.digest(r)).collect();
    each.sort_unstable();
    each.dedup();
    assert_eq!(each.len(), w.parts(), "two parts repeat one input");
    w.run_digest(&parts)
}

#[test]
fn another_seed_changes_every_digest() {
    let pairs = [
        (digest::<SessionsAgent>(5), digest::<SessionsAgent>(6)),
        (digest::<FleetStorm>(5), digest::<FleetStorm>(6)),
        (digest::<PaperSweep>(5), digest::<PaperSweep>(6)),
    ];
    for (w, (a, b)) in WORKLOADS.iter().zip(pairs) {
        assert_ne!(a, b, "{w}: the seed does not reach the inputs");
    }
}

#[test]
fn one_seed_repeats_counts_and_digests_and_passes_the_gate() {
    for w in WORKLOADS {
        let o = Options {
            workload: w.into(),
            seed: 7,
            seconds: 0.0,
            trace: true,
        };
        let a = run(&o).expect("runs");
        let b = run(&o).expect("runs");
        assert!(a.correct && b.correct, "{w}: {:?} {:?}", a.log, b.log);
        assert_eq!(a.digest, b.digest, "{w}: digest differs between runs");
        assert_eq!(a.counts, b.counts, "{w}: counts differ between runs");
        let counts = |s: &perfbench::Summary| -> Vec<(&str, f64)> {
            s.metrics
                .iter()
                .filter(|m| m.unit == "count")
                .map(|m| (m.name, m.value))
                .collect()
        };
        assert_eq!(counts(&a), counts(&b), "{w}: per-layer counts differ");
        let mut reported: Vec<&str> = a.metrics.iter().map(|m| m.name).collect();
        let mut expected: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        reported.sort_unstable();
        expected.sort_unstable();
        assert_eq!(reported, expected, "{w}");
    }
}
