//! End-to-end benchmark of the SQ-VAE reproduction.
//!
//! ```text
//! sqvae-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                 [--out-dir <dir>] [--rustc <version>] [--commit <id>]
//! ```
//!
//! Runs one workload through the public `sqvae` API with the shipped
//! defaults, checks its outputs, prints a readable report, and ends with one
//! JSON line: the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! of a traced run (`--trace 1`). `perfbench/run.py` builds and runs it.

mod calib;
mod common;
mod loadgen;
mod probes;
mod report;
mod screen;
mod serve;
mod stats;
mod trace;
mod train;

use common::{Ctx, Outcome};
use report::{Metric, RunResult};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Workload names, as listed in `BENCHMARK.json`.
const WORKLOADS: [&str; 4] = [
    "train-ligand-32x32",
    "train-qm9-8x8",
    "screen-ligand-32x32",
    "serve-mixed-open",
];

/// Per-layer metrics of the traced run, with units. Every traced run
/// reports all of them; a layer the workload does not exercise reads 0.
const LAYER_METRICS: [(&str, &str); 53] = [
    ("trainer.forward_ms", "ms"),
    ("trainer.loss_ms", "ms"),
    ("trainer.backward_ms", "ms"),
    ("trainer.optim_ms", "ms"),
    ("trainer.snapshot_ms", "ms"),
    ("trainer.other_ms", "ms"),
    ("qlayer.enc_fwd_ms", "ms"),
    ("qlayer.enc_bwd_ms", "ms"),
    ("qlayer.dec_fwd_ms", "ms"),
    ("qlayer.dec_bwd_ms", "ms"),
    ("tape.compile_us", "us"),
    ("tape.compiles_per_batch", "count"),
    ("sim.row_fwd_us", "us"),
    ("sim.row_adj_us", "us"),
    ("sim.rows", "count"),
    ("sim.bytes_computed", "bytes"),
    ("parallel.dispatch_us", "us"),
    ("parallel.calls_per_batch", "count"),
    ("linear.fwd_us", "us"),
    ("linear.bwd_us", "us"),
    ("optim.step_us", "us"),
    ("ae.sample_latent_us", "us"),
    ("ae.decode_ms", "ms"),
    ("chem.decode_us", "us"),
    ("chem.valence_us", "us"),
    ("chem.sanitize_us", "us"),
    ("chem.props_us", "us"),
    ("chem.fingerprint_us", "us"),
    ("chem.lipinski_us", "us"),
    ("chem.diversity_ms", "ms"),
    ("screen.nonempty_ratio", "ratio"),
    ("screen.sanitized_ratio", "ratio"),
    ("screen.unique_ratio", "ratio"),
    ("serve.submit_us", "us"),
    ("serve.direct_ms", "ms"),
    ("serve.overhead_ms_p50", "ms"),
    ("serve.pending_max", "count"),
    ("serve.requests_per_batch", "count"),
    ("serve.rows_per_batch", "count"),
    ("serve.shed", "count"),
    ("serve.max_rps", "1/s"),
    ("serve.ref_ms_p50", "ms"),
    ("serve.ref_ms_tail", "ms"),
    ("checkpoint.save_ms", "ms"),
    ("checkpoint.load_ms", "ms"),
    ("datasets.gen_ms", "ms"),
    ("loadgen.late_ms_tail", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage_pct", "%"),
    ("run.tail_pct", "percentile"),
    ("run.samples", "count"),
    ("run.fail_ratio", "ratio"),
    ("run.calibration_ms", "ms"),
];

/// Environment variables that would change what is measured.
const PINNED_ENV: [&str; 4] = [
    "SQVAE_THREADS",
    "SQVAE_BACKEND",
    "SQVAE_WORKERS",
    "SQVAE_FAULTS",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
    rustc: String,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        out_dir: PathBuf::from(".bench_build/perfbench"),
        rustc: "unknown".into(),
        commit: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    let mut seen_seconds = false;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {flag} value '{value}': {what}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => a.workload = value,
            "--workload" => return Err(bad(&format!("one of {}", WORKLOADS.join(", ")))),
            "--seed" => a.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                a.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err(bad("between 0 and 600"));
                }
                seen_seconds = true;
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out-dir" => a.out_dir = PathBuf::from(value),
            "--rustc" => a.rustc = value,
            "--commit" => a.commit = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.workload.is_empty() || !seen_seconds {
        return Err("--workload and --seconds are required".into());
    }
    Ok(a)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sqvae-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The shipped defaults run, and no fault fires. Nothing has read the
    // variables yet and no other thread exists.
    for var in PINNED_ENV {
        std::env::remove_var(var);
    }
    let out_dir =
        match std::fs::create_dir_all(&args.out_dir).and_then(|()| args.out_dir.canonicalize()) {
            Ok(dir) => dir,
            Err(e) => {
                eprintln!(
                    "sqvae-perfbench: cannot create {}: {e}",
                    args.out_dir.display()
                );
                return ExitCode::from(2);
            }
        };
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        out_dir: out_dir.clone(),
        origin: Instant::now(),
    };

    let policy = sqvae::nn::ExecPolicy::from_env();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "machine nproc={nproc} cpu=\"{}\" exec_policy=threads:{:?}({} per batch),backend:{} serve_pool={} rustc=\"{}\" commit={}",
        cpu_model(),
        policy.threads,
        policy.threads.resolve(usize::MAX),
        policy.backend.name(),
        sqvae::serve::workers_from_env().resolve(usize::MAX),
        args.rustc,
        args.commit,
    );

    let out: Outcome = match args.workload.as_str() {
        "train-ligand-32x32" => train::run(&train::LIGAND, &ctx),
        "train-qm9-8x8" => train::run(&train::QM9, &ctx),
        "screen-ligand-32x32" => screen::run(&ctx),
        "serve-mixed-open" => serve::run(&ctx),
        _ => unreachable!("workload names are validated"),
    };
    let fail_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    let peak_rss_mb = common::peak_rss_mb();

    println!(
        "calibration {:.4} ms (reference {} ms): times below are wall times scaled by {:.4}",
        out.cal_ms,
        calib::REF_MS,
        calib::REF_MS / out.cal_ms
    );
    println!(
        "e2e setup_s={:.4} s (wall {:.4} s)  peak_rss_mb={:.1} MB  fail_ratio={} ({} of {} operations)",
        out.setup_s, out.setup_wall_s, peak_rss_mb, fail_ratio, out.failed, out.attempted
    );
    for (name, value, unit) in &out.named {
        println!("e2e {name}={value:.4} {unit}");
    }
    println!(
        "e2e tail read at p{} over {} samples (at least {} beyond); wall p50 {:.4} ms, wall tail {:.4} ms",
        out.op_ms.tail_pct,
        out.op_ms.n,
        stats::MIN_BEYOND,
        out.op_wall_ms.p50,
        out.op_wall_ms.tail
    );

    let metrics: Vec<Metric> = if args.trace {
        let mut layers = out.layers.clone();
        layers.insert("run.tail_pct", out.op_ms.tail_pct);
        layers.insert("run.samples", out.op_ms.n as f64);
        layers.insert("run.fail_ratio", fail_ratio);
        // Layer times are wall times; scale them like the end-to-end ones
        // (the `run.*` figures describe the run itself and stay as read).
        let scale = calib::REF_MS / out.cal_ms;
        layers.insert("run.calibration_ms", out.cal_ms);
        LAYER_METRICS
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: layers.get(name).copied().unwrap_or(0.0)
                    * if matches!(unit, "ms" | "us") && !name.starts_with("run.") {
                        scale
                    } else {
                        1.0
                    },
                unit,
            })
            .collect()
    } else {
        vec![
            Metric {
                name: "setup_s",
                value: out.setup_s,
                unit: "s",
            },
            Metric {
                name: "items_per_s",
                value: out.items_per_s,
                unit: "1/s",
            },
            Metric {
                name: "op_ms_p50",
                value: out.op_ms.p50,
                unit: "ms",
            },
            Metric {
                name: "op_ms_tail",
                value: out.op_ms.tail,
                unit: "ms",
            },
            Metric {
                name: "peak_rss_mb",
                value: peak_rss_mb,
                unit: "MB",
            },
        ]
    };
    if args.trace {
        for m in &metrics {
            println!("layer {}={:.4} {}", m.name, m.value, m.unit);
        }
    }
    let result = RunResult {
        correct: out.correct && out.failed == 0,
        attempted: out.attempted,
        failed: out.failed,
        metrics,
    };
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    if let Some(tracer) = &out.tracer {
        let path = out_dir.join(format!("spans-{stem}.tsv"));
        let written =
            std::fs::File::create(&path).and_then(|f| tracer.write_tsv(std::io::BufWriter::new(f)));
        match written {
            Ok(()) => println!(
                "spans: {} written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("sqvae-perfbench: could not write {}: {e}", path.display()),
        }
    }
    let line = result.to_json();
    if let Err(e) = std::fs::write(out_dir.join(format!("result-{stem}.json")), &line) {
        eprintln!("sqvae-perfbench: could not write the result file: {e}");
    }
    println!("{line}");
    ExitCode::SUCCESS
}
