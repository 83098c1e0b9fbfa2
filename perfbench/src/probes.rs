//! Standalone layer probes for the traced run.
//!
//! The trainer and the server do not expose their inner layers, so the
//! traced run rebuilds each layer of a workload's model from the public
//! constructors with the model's exact shapes and times it on the
//! workload's real batches: quantum layers through `Module::forward` /
//! `backward`, circuits through `Circuit::compile` and per-row tape
//! execution on the default backend, row sharding through
//! `parallel::map_rows` with an empty body.

use crate::common::{median_us_inner, median_us_of, mix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sqvae::core::models::ModelSpec;
use sqvae::core::{
    patched_latent_dim, PatchedQuantumLayer, QuantumInput, QuantumLayer, QuantumOutput,
};
use sqvae::nn::{init, parallel, ExecPolicy, Linear, Matrix, Module, Threads};
use sqvae::quantum::embed::{
    amplitude_embedding, angle_embedding_gates, qubits_for_features, RotationAxis,
};
use sqvae::quantum::grad::adjoint;
use sqvae::quantum::templates::{strongly_entangling_layers, EntangleRange};
use sqvae::quantum::{Circuit, CompiledTape, StateVector};

/// One quantum stage of a model: `patches` identical sub-circuits.
#[derive(Debug, Clone, Copy)]
pub struct QStage {
    /// Built as a `PatchedQuantumLayer` (else a single `QuantumLayer`).
    pub patched: bool,
    /// Sub-circuit count.
    pub patches: usize,
    /// Qubits per sub-circuit.
    pub n_qubits: usize,
    /// Strongly-entangling layers per sub-circuit.
    pub n_layers: usize,
    /// Total input width.
    pub in_features: usize,
    /// Amplitude-embedded input (else angle-embedded).
    pub amplitude: bool,
    /// Probability readout (else per-wire `<Z>`).
    pub probabilities: bool,
}

impl QStage {
    /// Output width.
    pub fn out_features(&self) -> usize {
        let per = if self.probabilities {
            1 << self.n_qubits
        } else {
            self.n_qubits
        };
        self.patches * per
    }

    fn in_per_patch(&self) -> usize {
        self.in_features / self.patches
    }

    /// The layer, exactly as the model factory builds it.
    pub fn build(&self, seed: u64) -> Box<dyn Module + Send> {
        let rng = &mut StdRng::seed_from_u64(seed);
        match (self.patched, self.amplitude) {
            (true, true) => Box::new(PatchedQuantumLayer::amplitude_encoder(
                self.in_features,
                self.patches,
                self.n_layers,
                rng,
            )),
            (true, false) => Box::new(PatchedQuantumLayer::angle_decoder(
                self.in_features,
                self.patches,
                self.n_layers,
                rng,
            )),
            (false, amplitude) => Box::new(QuantumLayer::new(
                self.n_qubits,
                self.n_layers,
                if amplitude {
                    QuantumInput::Amplitude {
                        in_features: self.in_features,
                    }
                } else {
                    QuantumInput::Angle
                },
                if self.probabilities {
                    QuantumOutput::Probabilities
                } else {
                    QuantumOutput::ExpectationZ
                },
                rng,
            )),
        }
    }

    /// One sub-circuit, built like `QuantumLayer::new` builds it.
    pub fn circuit(&self) -> Circuit {
        let mut c = Circuit::new(self.n_qubits).expect("valid register size");
        if !self.amplitude {
            c.extend(angle_embedding_gates(self.n_qubits, RotationAxis::Y, 0))
                .expect("embedding wires in range");
        }
        c.extend(
            strongly_entangling_layers(self.n_qubits, self.n_layers, 0, EntangleRange::Ring)
                .expect("template wires in range"),
        )
        .expect("template wires in range");
        c
    }
}

/// The layer shapes of a benchmark model.
#[derive(Debug, Clone)]
pub struct Arch {
    /// Quantum encoder.
    pub enc: QStage,
    /// Quantum decoder.
    pub dec: QStage,
    /// `(in, out)` of every `Linear`: encoder FC, the two Gaussian heads,
    /// decoder FC.
    pub linears: Vec<(usize, usize)>,
}

/// Layer shapes of the model `spec` builds (the H-BQ-VAE and SQ-VAE
/// factories the workloads use).
pub fn arch(spec: ModelSpec) -> Arch {
    match spec {
        ModelSpec::HBqVae {
            input_dim,
            n_layers,
        } => {
            let nq = qubits_for_features(input_dim);
            let stage = |amplitude, probabilities, in_features| QStage {
                patched: false,
                patches: 1,
                n_qubits: nq,
                n_layers,
                in_features,
                amplitude,
                probabilities,
            };
            Arch {
                enc: stage(true, false, input_dim),
                dec: stage(false, true, nq),
                linears: vec![(nq, nq), (nq, nq), (nq, nq), (1 << nq, input_dim)],
            }
        }
        ModelSpec::SqVae {
            input_dim,
            p,
            n_layers,
        } => {
            let lsd = patched_latent_dim(input_dim, p);
            let stage = |amplitude, in_features| QStage {
                patched: true,
                patches: p,
                n_qubits: lsd / p,
                n_layers,
                in_features,
                amplitude,
                probabilities: false,
            };
            Arch {
                enc: stage(true, input_dim),
                dec: stage(false, lsd),
                linears: vec![(lsd, lsd), (lsd, lsd), (lsd, lsd), (lsd, input_dim)],
            }
        }
        other => panic!("no benchmark workload uses {other}"),
    }
}

/// Median forward and backward time (ms) of `stage` on `input`.
pub fn qlayer_ms(stage: &QStage, policy: ExecPolicy, input: &Matrix, reps: usize) -> (f64, f64) {
    let mut layer = stage.build(mix(7, stage.n_qubits as u64));
    layer.set_exec_policy(policy);
    let upstream = Matrix::filled(input.rows(), stage.out_features(), 1.0 / input.len() as f64);
    let fwd = median_us_of(reps, || {
        std::hint::black_box(layer.forward(input).expect("probe shapes match"));
    });
    let bwd = median_us_inner(reps, || {
        layer.forward(input).expect("probe shapes match");
        let t = std::time::Instant::now();
        std::hint::black_box(layer.backward(&upstream).expect("forward ran"));
        t.elapsed()
    });
    (fwd / 1e3, bwd / 1e3)
}

/// Random trainable angles for `circuit`.
fn angles(circuit: &Circuit) -> Vec<f64> {
    init::angle_uniform(1, circuit.n_params(), &mut StdRng::seed_from_u64(3))
        .as_slice()
        .to_vec()
}

/// Median `Circuit::compile` time of one sub-circuit of `stage`, in µs.
pub fn compile_us(stage: &QStage, reps: usize) -> f64 {
    let circuit = stage.circuit();
    let params = angles(&circuit);
    median_us_of(reps, || {
        std::hint::black_box(circuit.compile(&params).expect("valid circuit"));
    })
}

/// Per-row simulator cost of one sub-circuit of `stage` on the default
/// (dense) backend, over the first patch of each row of `input`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimRow {
    /// Median forward (execute + readout) time, µs.
    pub fwd_us: f64,
    /// Median adjoint backward time, µs.
    pub adj_us: f64,
    /// Full-state passes of one forward run.
    pub fwd_passes: usize,
    /// Full-state passes of one adjoint run: the forward run, then the
    /// ket and bra un-applied through every adjoint step.
    pub adj_passes: usize,
}

/// Measures [`SimRow`] for `stage`.
pub fn sim_row(stage: &QStage, input: &Matrix) -> SimRow {
    let circuit = stage.circuit();
    let tape: CompiledTape = circuit.compile(&angles(&circuit)).expect("valid circuit");
    let per = stage.in_per_patch();
    let upstream = vec![
        0.01;
        if stage.probabilities {
            1 << stage.n_qubits
        } else {
            stage.n_qubits
        }
    ];
    let rows: Vec<(&[f64], Option<StateVector>)> = (0..input.rows())
        .map(|r| {
            let slice = &input.row(r)[..per];
            if stage.amplitude {
                let s = amplitude_embedding(slice, stage.n_qubits).unwrap_or_else(|_| {
                    StateVector::zero_state(stage.n_qubits).expect("valid register")
                });
                (&[][..], Some(s))
            } else {
                (slice, None)
            }
        })
        .collect();
    // At least 32 timed calls, cycling through the rows.
    let reps = rows.len().max(32);
    let mut i = 0;
    let fwd_us = median_us_of(reps, || {
        let (inputs, init) = &rows[i % rows.len()];
        i += 1;
        if stage.probabilities {
            std::hint::black_box(
                tape.probabilities_on(inputs, init.as_ref())
                    .expect("valid tape"),
            );
        } else {
            std::hint::black_box(
                tape.expectations_z_on(inputs, init.as_ref())
                    .expect("valid tape"),
            );
        }
    });
    let adj_us = median_us_of(reps, || {
        let (inputs, init) = &rows[i % rows.len()];
        i += 1;
        let g = if stage.probabilities {
            adjoint::backward_probabilities_tape(&tape, inputs, init.as_ref(), &upstream)
        } else {
            adjoint::backward_expectations_z_tape(&tape, inputs, init.as_ref(), &upstream)
        };
        std::hint::black_box(g.expect("valid tape"));
    });
    let fwd_passes = tape.forward_ops().len();
    SimRow {
        fwd_us,
        adj_us,
        fwd_passes,
        adj_passes: fwd_passes + 2 * tape.adjoint_steps().len(),
    }
}

/// Median cost (µs) of one `map_rows` call over `n_rows` rows with an
/// empty body: the row-sharding overhead a layer pays per pass.
pub fn dispatch_us(n_rows: usize, threads: Threads, reps: usize) -> f64 {
    median_us_of(reps, || {
        std::hint::black_box(parallel::map_rows(n_rows, threads, |r| r));
    })
}

/// Median forward and backward time (µs) of every `Linear` in `linears`
/// at `rows` rows, summed over the layers.
pub fn linear_us(linears: &[(usize, usize)], rows: usize, reps: usize) -> (f64, f64) {
    let rng = &mut StdRng::seed_from_u64(11);
    let mut fwd = 0.0;
    let mut bwd = 0.0;
    for &(i, o) in linears {
        let mut layer = Linear::new(i, o, rng);
        let x = Matrix::filled(rows, i, 0.5);
        let g = Matrix::filled(rows, o, 0.01);
        fwd += median_us_of(reps, || {
            std::hint::black_box(layer.forward(&x).expect("shapes match"));
        });
        bwd += median_us_inner(reps, || {
            layer.forward(&x).expect("shapes match");
            let t = std::time::Instant::now();
            std::hint::black_box(layer.backward(&g).expect("forward ran"));
            t.elapsed()
        });
    }
    (fwd, bwd)
}
