//! The benchmark's own tests: the output contract of `BENCHMARK.json` on
//! every workload (run in smoke mode), the metric map beside it, and the
//! correctness checks on a deliberately out-of-band input.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

/// A parsed JSON value (just enough JSON for the benchmark's own files).
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
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(map) => map.get(key).unwrap_or(&Json::Null),
            _ => &Json::Null,
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("expected a string, got {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            other => panic!("expected an array, got {other:?}"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(map) => map.keys().map(String::as_str).collect(),
            other => panic!("expected an object, got {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing characters in {text:?}");
        v
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&b),
            "expected {:?} at {}",
            b as char,
            self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut map = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(map);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object keys are strings")
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(map.insert(k.clone(), v).is_none(), "duplicate key {k}");
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(map);
                    }
                    assert_eq!(self.s[self.i - 1], b',');
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
                    assert_eq!(self.s[self.i - 1], b',');
                }
            }
            b'"' => {
                self.i += 1;
                let mut out = String::new();
                loop {
                    let c = self.s[self.i];
                    self.i += 1;
                    match c {
                        b'"' => return Json::Str(out),
                        b'\\' => {
                            let e = self.s[self.i];
                            self.i += 1;
                            out.push(match e {
                                b'n' => '\n',
                                b't' => '\t',
                                b'u' => {
                                    let hex = std::str::from_utf8(&self.s[self.i..self.i + 4])
                                        .expect("ascii escape");
                                    self.i += 4;
                                    char::from_u32(u32::from_str_radix(hex, 16).expect("hex"))
                                        .expect("scalar")
                                }
                                other => other as char,
                            });
                        }
                        _ => {
                            // Copy a whole UTF-8 sequence.
                            let start = self.i - 1;
                            let mut end = self.i;
                            while end < self.s.len() && (self.s[end] & 0xC0) == 0x80 {
                                end += 1;
                            }
                            out.push_str(std::str::from_utf8(&self.s[start..end]).expect("utf-8"));
                            self.i = end;
                        }
                    }
                }
            }
            b't' => {
                self.i += 4;
                Json::Bool(true)
            }
            b'f' => {
                self.i += 5;
                Json::Bool(false)
            }
            b'n' => {
                self.i += 4;
                Json::Null
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii number");
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }
}

fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read_json(path: PathBuf) -> Json {
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    Parser::parse(&text)
}

fn benchmark_json() -> Json {
    read_json(package_dir().join("..").join("BENCHMARK.json"))
}

/// Runs the benchmark binary in smoke mode; returns its exit code and the
/// parsed last line of its standard output.
fn smoke(workload: &str, trace: bool) -> (i32, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.2"])
        .args(["--trace", if trace { "1" } else { "0" }, "--smoke"])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("at least one line of output");
    (out.status.code().unwrap_or(-1), Parser::parse(last))
}

#[test]
fn every_listed_metric_is_printed_with_its_unit_on_every_workload() {
    let bench = benchmark_json();
    let workloads: Vec<&str> = bench
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    assert_eq!(workloads, ["grid_crash", "count_substrates"]);
    for workload in workloads {
        for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
            let (code, result) = smoke(workload, trace);
            let context = format!("{workload} trace={trace}");
            assert_eq!(code, 0, "{context}: exit code");
            assert_eq!(
                result.keys(),
                ["attempted", "correct", "failed", "metrics"],
                "{context}: result keys"
            );
            assert_eq!(result.get("correct"), &Json::Bool(true), "{context}");
            assert_eq!(result.get("failed"), &Json::Num(0.0), "{context}");
            let Json::Num(attempted) = result.get("attempted") else {
                panic!("{context}: attempted is a number")
            };
            assert!(*attempted >= 1.0, "{context}: attempted");
            let metrics = result.get("metrics");
            let listed = bench.get(list).arr();
            assert_eq!(
                metrics.keys().len(),
                listed.len(),
                "{context}: metric count"
            );
            for m in listed {
                let name = m.get("name").str();
                let printed = metrics.get(name);
                assert!(
                    matches!(printed.get("value"), Json::Num(v) if v.is_finite()),
                    "{context}: {name} has a numeric value"
                );
                assert_eq!(
                    printed.get("unit").str(),
                    m.get("unit").str(),
                    "{context}: {name} unit"
                );
            }
        }
    }
}

#[test]
fn the_metric_map_covers_every_listed_metric() {
    let bench = benchmark_json();
    let map = read_json(package_dir().join("map.json"));
    let workloads: Vec<&str> = bench
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    for list in ["end_to_end", "per_layer"] {
        for m in bench.get(list).arr() {
            let name = m.get("name").str();
            let entry = map.get("metrics").get(name);
            assert_eq!(entry.get("kind").str(), list, "{name} kind");
            assert_eq!(entry.get("unit").str(), m.get("unit").str(), "{name} unit");
            assert_eq!(
                entry.get("better").str(),
                m.get("better").str(),
                "{name} better"
            );
            assert!(
                !entry.get("layer").str().is_empty(),
                "{name} names its layer"
            );
            if list == "per_layer" {
                for moved in entry.get("moves").arr() {
                    assert!(
                        workloads.contains(&moved.get("workload").str()),
                        "{name} moves a listed workload"
                    );
                    let target = moved.get("metric").str();
                    assert!(
                        bench
                            .get("end_to_end")
                            .arr()
                            .iter()
                            .any(|e| e.get("name").str() == target),
                        "{name} moves the end-to-end metric {target}"
                    );
                }
            }
        }
    }
    for w in &workloads {
        assert!(
            !map.get("workloads")
                .get(w)
                .get("stands_for")
                .arr()
                .is_empty(),
            "{w} names the registry experiments it stands for"
        );
    }
}

#[test]
fn checks_fail_on_an_out_of_band_population() {
    use dsc_core::{DscConfig, DynamicSizeCounting};
    use perfbench::checks;
    use pp_sim::Simulator;

    // Every agent starts with a planted estimate of 2^200, far above the
    // band of 2^12 agents ([6, 48]) and far beyond what a 30 pt horizon can
    // bring down; the grid_crash convergence check must reject every run.
    let n = 1 << 12;
    let protocol = DynamicSizeCounting::new(DscConfig::empirical());
    let planted = protocol.state_with_estimate(200);
    let grid = pp_sim::Sweep::new(protocol)
        .populations([n])
        .runs(2)
        .master_seed(3)
        .horizon(30.0)
        .snapshot_every(1.0)
        .init_with(move |_| planted)
        .run_on::<Simulator<_>, _>(pp_sim::ScannedEstimates)
        .expect("an agent-array grid");
    for run in grid.cells[0].runs() {
        assert_eq!(checks::static_convergence(run, n), None);
    }

    // A report with a failed operation is not correct, and says so on its
    // result line (the binary then exits 1).
    let report = perfbench::Report {
        attempted: 3,
        failed: 1,
        ..perfbench::Report::default()
    };
    assert!(!report.correct());
    assert!(report.result_line().starts_with("{\"correct\": false, "));
}

#[test]
fn a_bad_command_line_exits_with_usage_and_no_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("the benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
