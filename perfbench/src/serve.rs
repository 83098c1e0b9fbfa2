//! `serve-mixed-open`: an open loop of single-row requests against an
//! `InferenceServer` with its default configuration, over two warm
//! checkpoints (an 8x8 H-BQ-VAE and the 32x32 screening SQ-VAE). Every
//! request carries a deadline, and every served result must be byte-equal
//! to the same call on a directly loaded model.

use crate::calib;
use crate::common::{digest, mix, repeated_setup, timed, Ctx, Outcome, Timings};
use crate::loadgen::{self, Pace, Phase};
use crate::probes;
use crate::screen::{self, Screener};
use crate::stats::{self, median};
use crate::trace::{self, Tracer};
use crate::train::checkpoint_ms;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sqvae::core::checkpoint;
use sqvae::core::models::{ModelSpec, BASELINE_LAYERS};
use sqvae::core::Autoencoder;
use sqvae::datasets::{pdbbind, qm9};
use sqvae::nn::Matrix;
use sqvae::serve::{self as srv, InferenceServer, Op, Request, ServeError, ServerConfig};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Reference rate: the serve latencies are read at this fixed rate.
pub const REF_RATE: f64 = 1000.0;
/// The other fixed rates of the sweep.
pub const SWEEP: [f64; 2] = [2000.0, 4000.0];
/// Tail-latency limit a rate must meet to count as served.
pub const LIMIT_MS: f64 = 25.0;
/// Deadline of every request, from its due time.
const DEADLINE: Duration = Duration::from_secs(1);
/// Where the served checkpoints go, relative to the output directory.
const CHECKPOINT_DIR: &str = "serve";
/// Length of one open-loop chunk, s.
const CHUNK_S: f64 = 0.5;
/// Requests per burst, and most of them outstanding at once (a quarter of
/// the server's default queue capacity).
const BURST: usize = 512;
const BURST_WINDOW: usize = 64;
/// Distinct payloads per (model, op kind).
const POOL: usize = 64;
/// Tail caps of the open-loop request latencies and of the burst times.
const REF_TAIL_CAP: f64 = 99.0;
const BURST_TAIL_CAP: f64 = 90.0;

/// The 8x8 model served next to the screening model.
const SMALL: ModelSpec = ModelSpec::HBqVae {
    input_dim: 64,
    n_layers: BASELINE_LAYERS,
};

/// Op kinds of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Kind {
    Encode,
    Decode,
    Reconstruct,
    Sample,
}

const KINDS: [Kind; 4] = [Kind::Encode, Kind::Decode, Kind::Reconstruct, Kind::Sample];

/// One served checkpoint and its payload pools.
struct Served {
    path: String,
    rows: Vec<Vec<f64>>,
    latents: Vec<Vec<f64>>,
    seeds: Vec<u64>,
}

impl Served {
    fn new(model: &mut Autoencoder, path: PathBuf, rows: Vec<Vec<f64>>, seed: u64) -> Self {
        let path = path.to_string_lossy().into_owned();
        srv::publish_model(model, seed, &path).expect("checkpoint dir is writable");
        let z = model.sample_latent(POOL, &mut StdRng::seed_from_u64(mix(seed, 5)));
        Served {
            path,
            rows,
            latents: (0..POOL).map(|r| z.row(r).to_vec()).collect(),
            seeds: (0..POOL as u64).map(|i| mix(seed, 1000 + i)).collect(),
        }
    }

    fn op(&self, kind: Kind, p: usize) -> Op {
        match kind {
            Kind::Encode => Op::Encode(Matrix::row_vector(&self.rows[p])),
            Kind::Decode => Op::Decode(Matrix::row_vector(&self.latents[p])),
            Kind::Reconstruct => Op::Reconstruct(Matrix::row_vector(&self.rows[p])),
            Kind::Sample => Op::Sample {
                n: 1,
                seed: self.seeds[p],
            },
        }
    }

    /// The same op on a directly loaded model.
    fn direct(&self, model: &mut Autoencoder, kind: Kind, p: usize) -> Matrix {
        match self.op(kind, p) {
            Op::Encode(x) => model.encode(&x),
            Op::Decode(z) => model.decode(&z),
            Op::Reconstruct(x) => model.reconstruct(&x),
            Op::Sample { n, seed } => model.sample(n, &mut StdRng::seed_from_u64(seed)),
        }
        .expect("payload fits the model")
    }
}

/// (model, op kind, payload) of one request.
type Planned = (usize, Kind, usize);

struct Setup {
    served: [Served; 2],
    server: InferenceServer,
    screener: Screener,
    gen_ms: f64,
}

fn setup(seed: u64, dir: &std::path::Path) -> Setup {
    let ((small_rows, ligand_rows), gen_ms) = timed(|| {
        let q = qm9::generate(&qm9::Qm9Config {
            n_samples: POOL,
            seed: mix(seed, 1),
        });
        let l = pdbbind::generate(&pdbbind::PdbbindConfig {
            n_samples: POOL,
            seed: mix(seed, 4),
        });
        (q.samples().to_vec(), l.samples().to_vec())
    });
    let mut small = SMALL.build(&mut StdRng::seed_from_u64(mix(seed, 3)));
    let mut screener = screen::screener();
    let served = [
        Served::new(
            &mut small,
            dir.join("qm9-8x8.ckpt"),
            small_rows,
            mix(seed, 6),
        ),
        Served::new(
            &mut screener.model,
            dir.join("ligand.ckpt"),
            ligand_rows,
            mix(seed, 7),
        ),
    ];
    let server = InferenceServer::start(ServerConfig::default());
    // Warm every worker: bursts deep enough to spill across the pool.
    for _ in 0..2 {
        let ids: Vec<u64> = (0..16)
            .flat_map(|_| served.iter().flat_map(|s| KINDS.map(|kind| (s, kind))))
            .map(|(s, kind)| {
                server
                    .submit(Request::new(s.path.clone(), s.op(kind, 0)))
                    .expect("warm-up fits the queue")
            })
            .collect();
        for id in ids {
            server.wait(id).expect("warm-up requests succeed");
        }
    }
    Setup {
        served,
        server,
        screener,
        gen_ms,
    }
}

/// The request mix: rounds of all eight (model, op) pairs in a seeded
/// order, each with a seeded payload, so every seed sends the same mix.
fn plan(seed: u64, n: usize) -> Vec<Planned> {
    let mut rng = StdRng::seed_from_u64(mix(seed, 8));
    let mut keys: Vec<(usize, Kind)> = (0..2).flat_map(|m| KINDS.map(|k| (m, k))).collect();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        keys.shuffle(&mut rng);
        out.extend(keys.iter().map(|&(m, k)| (m, k, rng.gen_range(0..POOL))));
    }
    out
}

/// The server as the load generator sees it.
struct Client<'a> {
    server: &'a InferenceServer,
    served: &'a [Served; 2],
    plan: &'a [Planned],
    pending_max: AtomicUsize,
    sample_health: bool,
}

impl loadgen::Target for Client<'_> {
    type Error = ServeError;

    fn submit(&self, k: usize, due: Instant) -> Result<u64, ServeError> {
        let (m, kind, p) = self.plan[k % self.plan.len()];
        let s = &self.served[m];
        let id = self.server.submit(Request {
            model: s.path.clone(),
            op: s.op(kind, p),
            deadline: Some(due + DEADLINE),
        })?;
        if self.sample_health && k.is_multiple_of(16) {
            self.pending_max
                .fetch_max(self.server.health().pending, Ordering::Relaxed);
        }
        Ok(id)
    }

    fn wait(&self, ticket: u64) -> Result<u64, ServeError> {
        self.server.wait(ticket).map(|m| digest(&m))
    }
}

type Outcomes = Vec<loadgen::Outcome<ServeError>>;

/// Outcomes of one phase, run in chunks of [`CHUNK_S`] with the machine
/// calibrated before each chunk (the server is idle then).
#[derive(Default)]
struct PhaseOut {
    out: Outcomes,
    /// Calibration before the chunk each outcome belongs to, ms.
    cal: Vec<f64>,
    /// Each burst, from its due time to its last result.
    bursts: Timings,
}

impl PhaseOut {
    fn wall_latencies(&self) -> Vec<f64> {
        self.out.iter().map(loadgen::Outcome::latency_ms).collect()
    }

    fn ref_latencies(&self) -> Vec<f64> {
        self.out
            .iter()
            .zip(&self.cal)
            .map(|(o, &c)| calib::to_ref(o.latency_ms(), c))
            .collect()
    }

    /// Whether a fixed-rate phase was served: nothing failed, the tail met
    /// [`LIMIT_MS`], and latency did not climb from the first quarter of
    /// the phase to the last (a growing backlog).
    fn served_ok(&self) -> bool {
        let lat = self.ref_latencies();
        let q = lat.len() / 4;
        let growing = q > 0 && median(&lat[lat.len() - q..]) > 2.0 * median(&lat[..q]) + 1.0;
        self.out.iter().all(|o| o.result.is_ok())
            && stats::summarize(&lat, REF_TAIL_CAP).tail <= LIMIT_MS
            && !growing
    }
}

/// Runs the serving workload.
pub fn run(ctx: &Ctx) -> Outcome {
    // The dispatcher shards requests by a hash of the checkpoint path, so
    // the paths must be the same strings in every run and every checkout:
    // they are relative to the output directory, which becomes the working
    // directory. These names put each model's two heavy op kinds on
    // different workers of a 2-worker pool.
    std::env::set_current_dir(&ctx.out_dir).expect("out dir exists");
    let dir = PathBuf::from(CHECKPOINT_DIR);
    std::fs::create_dir_all(&dir).expect("out dir is writable");
    let (s, setup) = repeated_setup(|| setup(ctx.seed, &dir));
    let Setup {
        served,
        server,
        mut screener,
        gen_ms,
    } = s;
    let plan = plan(ctx.seed, 1 << 16);
    let client = Client {
        server: &server,
        served: &served,
        plan: &plan,
        pending_max: AtomicUsize::new(0),
        sample_health: ctx.trace,
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut next_k = 0;
    let mut tracer = Tracer::new(ctx.trace, ctx.origin);
    let mut phase = |pace: Pace, share: f64, window: usize, traced: bool, tracer: &mut Tracer| {
        let chunks = (ctx.seconds * share / CHUNK_S).round().max(1.0) as usize;
        let duration = ctx.budget(share) / chunks as u32;
        let mut p = PhaseOut::default();
        for _ in 0..chunks {
            let chunk_end = Instant::now() + duration;
            // A rate chunk is one schedule; a burst chunk repeats bursts
            // until its time is up. Each schedule or burst is calibrated
            // right before it runs, while the server is idle.
            loop {
                let cal = calib::measure();
                let n = match pace {
                    Pace::Rate(r) => (r * duration.as_secs_f64()).ceil() as usize,
                    Pace::Burst => BURST,
                };
                let chunk = Phase {
                    pace,
                    n,
                    duration,
                    window,
                    waiters: (nproc - 1).max(1),
                    first_k: next_k,
                };
                let (out, traces) = loadgen::drive(&client, chunk, traced, ctx.origin);
                traces.into_iter().for_each(|t| tracer.absorb(t));
                next_k += out.len();
                if let (Pace::Burst, Some(first), Some(last)) =
                    (pace, out.first(), out.iter().map(|o| o.done).max())
                {
                    p.bursts.cal.push(cal);
                    p.bursts
                        .wall
                        .push(last.duration_since(first.due).as_secs_f64() * 1e3);
                }
                p.cal.extend(std::iter::repeat_n(cal, out.len()));
                p.out.extend(out);
                if pace != Pace::Burst || Instant::now() >= chunk_end {
                    break;
                }
            }
        }
        p
    };
    let open_window = ServerConfig::default().capacity / 2;
    let mut phases: Vec<PhaseOut> = Vec::new();
    let (reference, untraced_ref) = if ctx.trace {
        let untraced = phase(Pace::Rate(REF_RATE), 0.25, open_window, false, &mut tracer);
        let traced = phase(Pace::Rate(REF_RATE), 0.25, open_window, true, &mut tracer);
        let untraced_lat = untraced.wall_latencies();
        phases.push(untraced);
        (traced, untraced_lat)
    } else {
        (
            phase(Pace::Rate(REF_RATE), 0.25, open_window, false, &mut tracer),
            Vec::new(),
        )
    };
    let mut max_rps = if reference.served_ok() { REF_RATE } else { 0.0 };
    for rate in SWEEP {
        let p = phase(Pace::Rate(rate), 0.1, open_window, false, &mut tracer);
        if p.served_ok() {
            max_rps = max_rps.max(rate);
        }
        phases.push(p);
    }
    // The gated figures: bursts of requests all due at once, which the
    // pool drains at its service rate. One operation is one burst, timed
    // from its due time to its last result.
    let bursts = phase(
        Pace::Burst,
        if ctx.trace { 0.1 } else { 0.45 },
        BURST_WINDOW,
        false,
        &mut tracer,
    );
    let late: Vec<f64> = reference
        .out
        .iter()
        .map(loadgen::Outcome::late_ms)
        .collect();
    let submit_us: Vec<f64> = trace::durations_ms(tracer.spans(), "serve.submit")
        .iter()
        .map(|ms| ms * 1e3)
        .collect();
    let mut out = Outcome {
        setup_s: setup.ref_s,
        setup_wall_s: setup.wall_s,
        correct: true,
        ..Outcome::default()
    };
    bursts
        .bursts
        .summarize_into(&mut out, 0, BURST as f64, BURST_TAIL_CAP);
    let ref_lat = reference.ref_latencies();
    let ref_wall = reference.wall_latencies();
    phases.push(reference);
    phases.push(bursts);
    let pending_max = client.pending_max.load(Ordering::Relaxed);
    let health = server.health();
    let engine = server.shutdown();

    // Every result against a direct call on a loaded model.
    let mut direct: Vec<Autoencoder> = served
        .iter()
        .map(|sv| checkpoint::load_model(&sv.path).expect("published checkpoint loads"))
        .collect();
    let mut expected: HashMap<Planned, u64> = HashMap::new();
    let mut direct_ms: HashMap<(usize, Kind), Vec<f64>> = HashMap::new();
    for o in phases.iter().flat_map(|p| &p.out) {
        out.attempted += 1;
        let key = plan[o.k % plan.len()];
        let want = *expected.entry(key).or_insert_with(|| {
            let (m, kind, p) = key;
            let (result, ms) = timed(|| served[m].direct(&mut direct[m], kind, p));
            direct_ms.entry((m, kind)).or_default().push(ms);
            digest(&result)
        });
        if o.result.as_ref().ok() != Some(&want) {
            out.failed += 1;
            out.correct &= o.result.is_err();
        }
    }
    let ref_ms = stats::summarize(&ref_lat, REF_TAIL_CAP);
    out.named = vec![
        ("serve_burst_ms_p50", out.op_ms.p50, "ms"),
        ("serve_burst_ms_tail", out.op_ms.tail, "ms"),
        ("serve_burst_rps", out.items_per_s, "1/s"),
        ("serve_ms_p50", ref_ms.p50, "ms"),
        ("serve_ms_p90", stats::percentile(&ref_lat, 90.0), "ms"),
        ("serve_ms_tail", ref_ms.tail, "ms"),
        ("serve_max_rps", max_rps, "1/s"),
        (
            "loadgen_late_ms_tail",
            stats::summarize(&late, REF_TAIL_CAP).tail,
            "ms",
        ),
    ];
    if ctx.trace {
        let direct_mean =
            direct_ms.values().map(|v| median(v)).sum::<f64>() / direct_ms.len().max(1) as f64;
        let l = &mut out.layers;
        l.insert("serve.submit_us", median(&submit_us));
        l.insert("serve.direct_ms", direct_mean);
        l.insert("serve.overhead_ms_p50", median(&ref_wall) - direct_mean);
        l.insert("serve.pending_max", pending_max as f64);
        l.insert(
            "serve.requests_per_batch",
            engine.requests as f64 / engine.batches.max(1) as f64,
        );
        l.insert(
            "serve.rows_per_batch",
            engine.rows as f64 / engine.batches.max(1) as f64,
        );
        l.insert("serve.shed", health.deadline_shed as f64);
        l.insert("serve.max_rps", max_rps);
        let ref_wall_ms = stats::summarize(&ref_wall, REF_TAIL_CAP);
        l.insert("serve.ref_ms_p50", ref_wall_ms.p50);
        l.insert("serve.ref_ms_tail", ref_wall_ms.tail);
        l.insert(
            "loadgen.late_ms_tail",
            stats::summarize(&late, REF_TAIL_CAP).tail,
        );
        let untraced = median(&untraced_ref);
        l.insert(
            "trace.overhead_pct",
            100.0 * (median(&ref_wall) - untraced) / untraced,
        );
        // The screening decoder at the single-row request shape, run the
        // way the engine's loaded models run it (no row sharding).
        let arch = probes::arch(screen::MODEL);
        let z = Matrix::row_vector(&served[1].latents[0]);
        let policy = direct[1].exec_policy();
        l.insert(
            "qlayer.dec_fwd_ms",
            probes::qlayer_ms(&arch.dec, policy, &z, 20).0,
        );
        let sim = probes::sim_row(&arch.dec, &z);
        l.insert("sim.row_fwd_us", sim.fwd_us);
        l.insert("tape.compile_us", probes::compile_us(&arch.dec, 20));
        l.insert(
            "parallel.dispatch_us",
            probes::dispatch_us(arch.dec.patches, policy.threads, 20),
        );
        let (save_ms, load_ms) = checkpoint_ms(&mut screener.model, ctx);
        l.insert("checkpoint.save_ms", save_ms);
        l.insert("checkpoint.load_ms", load_ms);
        l.insert("datasets.gen_ms", gen_ms);
        out.tracer = Some(tracer);
    }
    let _ = std::fs::remove_dir_all(&dir);
    out
}
