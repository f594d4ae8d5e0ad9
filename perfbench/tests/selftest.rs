//! Short-length self-test of every workload: runs the benchmark binary with
//! `--smoke` (a one-hour trace for the simulator, one second of lookups for
//! UDP) in both modes, and checks that its result line is well formed and
//! reports every metric `BENCHMARK.json` names, with that metric's unit and
//! a finite value.

use std::process::Command;

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// A minimal JSON reader: enough for the benchmark's own output and
/// `BENCHMARK.json` (no escapes beyond `\"` and `\\`).
struct Reader<'a> {
    s: &'a [u8],
    i: usize,
}

impl Reader<'_> {
    fn parse(text: &str) -> Json {
        let mut r = Reader {
            s: text.as_bytes(),
            i: 0,
        };
        let v = r.value();
        r.ws();
        assert_eq!(r.i, r.s.len(), "trailing bytes after JSON value");
        v
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s.get(self.i), Some(&c), "expected {}", c as char);
        self.i += 1;
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = Vec::new();
        while self.s[self.i] != b'"' {
            if self.s[self.i] == b'\\' {
                self.i += 1;
            }
            out.push(self.s[self.i]);
            self.i += 1;
        }
        self.i += 1;
        String::from_utf8(out).expect("utf-8")
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = Vec::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    let k = self.string();
                    self.eat(b':');
                    m.push((k, self.value()));
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut a = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(a);
                }
                loop {
                    a.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(a);
                    }
                }
            }
            b'"' => Json::Str(self.string()),
            b't' | b'f' | b'n' => {
                let word: &[u8] = match self.s[self.i] {
                    b't' => b"true",
                    b'f' => b"false",
                    _ => b"null",
                };
                assert!(self.s[self.i..].starts_with(word));
                self.i += word.len();
                match word {
                    b"true" => Json::Bool(true),
                    b"false" => Json::Bool(false),
                    _ => Json::Null,
                }
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii");
                Json::Num(text.parse().unwrap_or_else(|_| panic!("number {text}")))
            }
        }
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Reader::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench"))
}

/// Runs one smoke measurement and checks its result line against the
/// metric list `BENCHMARK.json` gives for the mode.
fn check(workload: &str, trace: u8) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--smoke"])
        .output()
        .expect("run perfbench");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload}: {stderr}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let result = Reader::parse(stdout.lines().last().expect("a result line"));
    let Json::Obj(top) = &result else {
        panic!("result is not an object")
    };
    let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{stderr}");
    let attempted = result.get("attempted").and_then(Json::num).expect("count");
    let failed = result.get("failed").and_then(Json::num).expect("count");
    assert!(attempted >= 1.0 && attempted.fract() == 0.0);
    assert!(failed >= 0.0 && failed.fract() == 0.0 && failed <= attempted);

    let section = if trace == 1 {
        "per_layer"
    } else {
        "end_to_end"
    };
    let Some(Json::Arr(wanted)) = benchmark_json().get(section).cloned() else {
        panic!("BENCHMARK.json has no {section} list")
    };
    let metrics = result.get("metrics").expect("metrics");
    let Json::Obj(reported) = metrics else {
        panic!("metrics is not an object")
    };
    assert_eq!(reported.len(), wanted.len(), "{workload}: metric count");
    for m in &wanted {
        let name = m.get("name").and_then(Json::str).expect("metric name");
        let unit = m.get("unit").and_then(Json::str).expect("metric unit");
        let got = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{workload}: {name} missing"));
        assert_eq!(got.get("unit").and_then(Json::str), Some(unit), "{name}");
        let v = got.get("value").and_then(Json::num);
        assert!(v.is_some_and(f64::is_finite), "{workload}: {name} = {v:?}");
    }
}

#[test]
fn sim_churn_reports_every_metric() {
    check("sim_churn", 0);
    check("sim_churn", 1);
}

#[test]
fn sim_lookups_reports_every_metric() {
    check("sim_lookups", 0);
    check("sim_lookups", 1);
}

#[test]
fn udp_cluster_reports_every_metric() {
    check("udp_cluster", 0);
    check("udp_cluster", 1);
}
