//! Bench regression gate: compares a criterion-shim benchmark transcript
//! against the committed `BENCH_BASELINE.json` and fails (exit code 1) on
//! regressions beyond a generous tolerance.
//!
//! ```text
//! cargo bench -p sqvae-bench --bench scaling | tee bench.txt
//! cargo run -p sqvae-bench --bin bench_check -- bench.txt
//! cargo run -p sqvae-bench --bin bench_check -- --write bench.txt   # refresh baseline
//! ```
//!
//! Several transcript files may be passed at once (they are concatenated).
//!
//! The shim prints one line per benchmark:
//!
//! ```text
//! scaling_forward/dense/10q    mean    246.37 µs best    226.90 µs (10 samples)
//! ```
//!
//! The gate keys on the **best** sample — the least noisy statistic a short
//! run produces — and the tolerance is a fixed 3× (CI machines are shared
//! and noisy; the gate exists to catch order-of-magnitude pessimizations
//! like an accidental per-row allocation, not 10% jitter). Benchmarks
//! missing from the baseline are reported and skipped, so adding a bench
//! does not break the gate; refresh the baseline to start tracking it.
//! The baseline is a flat `{"id": best_nanoseconds}` JSON object, parsed
//! and written by hand (the workspace builds offline; no serde).

use std::collections::BTreeMap;
use std::process::ExitCode;

const BASELINE_FILE: &str = "BENCH_BASELINE.json";
const TOLERANCE: f64 = 3.0;

/// Parses one shim transcript line into `(id, best nanoseconds)`.
/// Returns `None` for non-benchmark lines (compilation noise, headers).
fn parse_line(line: &str) -> Option<(String, f64)> {
    let mut tail = line;
    let id = tail.split_whitespace().next()?.to_string();
    let best_at = tail.find(" best ")?;
    tail = &tail[best_at + " best ".len()..];
    let mut words = tail.split_whitespace();
    let value: f64 = words.next()?.parse().ok()?;
    let nanos = match words.next()? {
        "ns" => value,
        "µs" | "us" => value * 1e3,
        "ms" => value * 1e6,
        "s" => value * 1e9,
        _ => return None,
    };
    // Only lines that also carry a mean are real measurements.
    line.contains(" mean ").then_some((id, nanos))
}

fn parse_transcript(text: &str) -> BTreeMap<String, f64> {
    text.lines().filter_map(parse_line).collect()
}

/// Parses the flat `{"id": nanos, ...}` baseline. Accepts exactly the shape
/// [`write_baseline`] produces; anything else is a hard error so a corrupted
/// baseline cannot silently pass the gate.
fn parse_baseline(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let body = text
        .trim()
        .strip_prefix('{')
        .and_then(|t| t.strip_suffix('}'))
        .ok_or("baseline is not a JSON object")?;
    let mut out = BTreeMap::new();
    for entry in body.split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (key, value) = entry
            .split_once(':')
            .ok_or_else(|| format!("bad baseline entry: {entry}"))?;
        let key = key
            .trim()
            .strip_prefix('"')
            .and_then(|k| k.strip_suffix('"'))
            .ok_or_else(|| format!("bad baseline key: {key}"))?;
        let value: f64 = value
            .trim()
            .parse()
            .map_err(|_| format!("bad baseline value for {key}: {value}"))?;
        out.insert(key.to_string(), value);
    }
    Ok(out)
}

fn write_baseline(measured: &BTreeMap<String, f64>) -> String {
    let entries: Vec<String> = measured
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {v:.1}"))
        .collect();
    format!("{{\n{}\n}}\n", entries.join(",\n"))
}

fn human(nanos: f64) -> String {
    if nanos < 1e3 {
        format!("{nanos:.0} ns")
    } else if nanos < 1e6 {
        format!("{:.2} µs", nanos / 1e3)
    } else if nanos < 1e9 {
        format!("{:.2} ms", nanos / 1e6)
    } else {
        format!("{:.2} s", nanos / 1e9)
    }
}

/// Compares measurements against the baseline; returns the regression report
/// (empty = gate passes).
fn check(
    baseline: &BTreeMap<String, f64>,
    measured: &BTreeMap<String, f64>,
    tolerance: f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    for (id, &base) in baseline {
        match measured.get(id) {
            Some(&now) if now > base * tolerance => failures.push(format!(
                "REGRESSION {id}: {} -> {} ({:.2}x, tolerance {tolerance}x)",
                human(base),
                human(now),
                now / base
            )),
            Some(_) => {}
            None => println!("note: {id} in baseline but not measured (skipped)"),
        }
    }
    for id in measured.keys() {
        if !baseline.contains_key(id) {
            println!("note: {id} not in baseline (new benchmark; refresh with --write)");
        }
    }
    failures
}

fn main() -> ExitCode {
    let mut write = false;
    let mut inputs: Vec<String> = Vec::new();
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--write" => write = true,
            path => inputs.push(path.to_string()),
        }
    }

    let mut text = String::new();
    if inputs.is_empty() {
        use std::io::Read;
        if let Err(e) = std::io::stdin().read_to_string(&mut text) {
            eprintln!("error: cannot read stdin: {e}");
            return ExitCode::FAILURE;
        }
    } else {
        for path in &inputs {
            match std::fs::read_to_string(path) {
                Ok(t) => {
                    text.push_str(&t);
                    text.push('\n');
                }
                Err(e) => {
                    eprintln!("error: cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }

    let measured = parse_transcript(&text);
    if measured.is_empty() {
        eprintln!("error: no benchmark lines found in input");
        return ExitCode::FAILURE;
    }

    if write {
        if let Err(e) = std::fs::write(BASELINE_FILE, write_baseline(&measured)) {
            eprintln!("error: cannot write {BASELINE_FILE}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {} entries to {BASELINE_FILE}", measured.len());
        return ExitCode::SUCCESS;
    }

    let baseline = match std::fs::read_to_string(BASELINE_FILE) {
        Ok(t) => match parse_baseline(&t) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("error: {BASELINE_FILE}: {e}");
                return ExitCode::FAILURE;
            }
        },
        Err(e) => {
            eprintln!("error: cannot read {BASELINE_FILE}: {e} (run with --write first)");
            return ExitCode::FAILURE;
        }
    };

    let failures = check(&baseline, &measured, TOLERANCE);
    if failures.is_empty() {
        println!(
            "bench gate: {} benchmarks within {TOLERANCE}x of baseline",
            measured.len()
        );
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("{f}");
        }
        eprintln!("bench gate: {} regression(s)", failures.len());
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: &str =
        "scaling_forward/dense/10q                    mean    246.37 µs best    226.90 µs (10 samples)";

    #[test]
    fn parses_shim_lines_in_every_unit() {
        let (id, ns) = parse_line(LINE).unwrap();
        assert_eq!(id, "scaling_forward/dense/10q");
        assert!((ns - 226_900.0).abs() < 1.0);
        let ns_line = "x mean 900 ns best 850 ns (5 samples)";
        assert_eq!(parse_line(ns_line).unwrap().1, 850.0);
        let s_line = "y mean 2.10 s best 2.00 s (5 samples)";
        assert_eq!(parse_line(s_line).unwrap().1, 2e9);
        assert!(parse_line("   Compiling sqvae-bench v0.1.0").is_none());
        assert!(parse_line("x (no measurement: closure never called iter)").is_none());
    }

    #[test]
    fn baseline_round_trips() {
        let measured: BTreeMap<String, f64> =
            [("a/4q".to_string(), 123.4), ("b/6q".to_string(), 5.6e6)]
                .into_iter()
                .collect();
        let parsed = parse_baseline(&write_baseline(&measured)).unwrap();
        assert_eq!(parsed.len(), 2);
        assert!((parsed["a/4q"] - 123.4).abs() < 0.1);
        assert!((parsed["b/6q"] - 5.6e6).abs() < 0.1);
        assert!(parse_baseline("not json").is_err());
        assert!(parse_baseline("{\"k\": nope}").is_err());
    }

    #[test]
    fn gate_flags_only_regressions_beyond_tolerance() {
        let baseline: BTreeMap<String, f64> = [
            ("fast".to_string(), 100.0),
            ("slow".to_string(), 100.0),
            ("gone".to_string(), 100.0),
        ]
        .into_iter()
        .collect();
        let measured: BTreeMap<String, f64> = [
            ("fast".to_string(), 250.0), // 2.5x: within the 3x tolerance
            ("slow".to_string(), 400.0), // 4x: regression
            ("new".to_string(), 1.0),    // not tracked yet
        ]
        .into_iter()
        .collect();
        let failures = check(&baseline, &measured, 3.0);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("slow"));
    }
}
