//! The run result: the JSON object printed as the last line of stdout and
//! written to the result file.

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Outcome of one benchmark run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunResult {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (epochs, screen batches, or requests).
    pub attempted: u64,
    /// Operations that failed, were refused, or returned wrong bytes.
    pub failed: u64,
    /// The reported metrics, in order.
    pub metrics: Vec<Metric>,
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl RunResult {
    /// Renders the result as one line of JSON. Values keep every digit
    /// (Rust's shortest round-trip float formatting); a non-finite value,
    /// which JSON cannot carry, is written as 0 and marks the run incorrect.
    pub fn to_json(&self) -> String {
        let all_finite = self.metrics.iter().all(|m| m.value.is_finite());
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_string(m.name),
                    v,
                    json_string(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct && all_finite,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// The subset of JSON the result uses.
    #[derive(Debug, PartialEq)]
    enum Json {
        Bool(bool),
        Num(f64),
        Str(String),
        Obj(BTreeMap<String, Json>),
    }

    struct Parser<'a> {
        s: &'a [u8],
        i: usize,
    }

    impl Parser<'_> {
        fn ws(&mut self) {
            while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
                self.i += 1;
            }
        }

        fn eat(&mut self, c: u8) {
            self.ws();
            assert_eq!(self.s[self.i], c, "at byte {}", self.i);
            self.i += 1;
        }

        fn string(&mut self) -> String {
            self.eat(b'"');
            let mut out = String::new();
            while self.s[self.i] != b'"' {
                if self.s[self.i] == b'\\' {
                    self.i += 1;
                    match self.s[self.i] {
                        b'u' => {
                            let hex = std::str::from_utf8(&self.s[self.i + 1..self.i + 5]).unwrap();
                            out.push(
                                char::from_u32(u32::from_str_radix(hex, 16).unwrap()).unwrap(),
                            );
                            self.i += 4;
                        }
                        c => out.push(c as char),
                    }
                } else {
                    out.push(self.s[self.i] as char);
                }
                self.i += 1;
            }
            self.i += 1;
            out
        }

        fn value(&mut self) -> Json {
            self.ws();
            match self.s[self.i] {
                b'{' => {
                    self.i += 1;
                    let mut obj = BTreeMap::new();
                    self.ws();
                    if self.s[self.i] == b'}' {
                        self.i += 1;
                        return Json::Obj(obj);
                    }
                    loop {
                        let k = self.string();
                        self.eat(b':');
                        obj.insert(k, self.value());
                        self.ws();
                        self.i += 1;
                        if self.s[self.i - 1] == b'}' {
                            return Json::Obj(obj);
                        }
                    }
                }
                b'"' => Json::Str(self.string()),
                b't' => {
                    self.i += 4;
                    Json::Bool(true)
                }
                b'f' => {
                    self.i += 5;
                    Json::Bool(false)
                }
                _ => {
                    let start = self.i;
                    while self
                        .s
                        .get(self.i)
                        .is_some_and(|c| b"+-.eE0123456789".contains(c))
                    {
                        self.i += 1;
                    }
                    Json::Num(
                        std::str::from_utf8(&self.s[start..self.i])
                            .unwrap()
                            .parse()
                            .unwrap(),
                    )
                }
            }
        }
    }

    fn parse(s: &str) -> Json {
        let mut p = Parser {
            s: s.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, s.len(), "trailing bytes");
        v
    }

    fn obj(j: &Json) -> &BTreeMap<String, Json> {
        match j {
            Json::Obj(o) => o,
            other => panic!("not an object: {other:?}"),
        }
    }

    #[test]
    fn the_result_round_trips_through_its_json_line() {
        let result = RunResult {
            correct: true,
            attempted: 1234,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "op_ms_p50",
                    value: 0.1 + 0.2,
                    unit: "ms",
                },
                Metric {
                    name: "items_per_s",
                    value: 12345.678901234567,
                    unit: "1/s",
                },
                Metric {
                    name: "q\"uoted\\",
                    value: 1e-300,
                    unit: "count",
                },
            ],
        };
        let line = result.to_json();
        assert!(!line.contains('\n'));
        let parsed = parse(&line);
        let top = obj(&parsed);
        assert_eq!(top.len(), 4);
        assert_eq!(top["correct"], Json::Bool(true));
        assert_eq!(top["attempted"], Json::Num(1234.0));
        assert_eq!(top["failed"], Json::Num(0.0));
        let metrics = obj(&top["metrics"]);
        assert_eq!(metrics.len(), result.metrics.len());
        for m in &result.metrics {
            let entry = obj(&metrics[m.name]);
            // Every digit survives: the parsed value is bit-identical.
            assert_eq!(entry["value"], Json::Num(m.value));
            assert_eq!(entry["unit"], Json::Str(m.unit.to_string()));
        }
    }

    #[test]
    fn the_result_file_round_trips() {
        let result = RunResult {
            correct: false,
            attempted: 3,
            failed: 1,
            metrics: vec![Metric {
                name: "setup_s",
                value: 0.8127,
                unit: "s",
            }],
        };
        let path =
            std::env::temp_dir().join(format!("perfbench-result-{}.json", std::process::id()));
        std::fs::write(&path, result.to_json()).unwrap();
        let back = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(back, result.to_json());
        let parsed = parse(&back);
        assert_eq!(obj(&parsed)["correct"], Json::Bool(false));
        assert_eq!(
            obj(&obj(&parsed)["metrics"])["setup_s"],
            parse(r#"{"value": 0.8127, "unit": "s"}"#)
        );
    }

    #[test]
    fn non_finite_values_are_written_as_zero_and_fail_the_run() {
        let result = RunResult {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: vec![Metric {
                name: "x",
                value: f64::NAN,
                unit: "ms",
            }],
        };
        let parsed = parse(&result.to_json());
        assert_eq!(obj(&parsed)["correct"], Json::Bool(false));
        assert_eq!(
            obj(&obj(&parsed)["metrics"])["x"],
            parse(r#"{"value": 0, "unit": "ms"}"#)
        );
    }
}
