//! Bit-level checks of the three `Matrix` products and of `Linear` across
//! thread counts.
//!
//! Each product is compared with a naive loop that spells out the fold every
//! output element must take: `matmul` and `transpose_matmul` start at +0.0,
//! add in ascending k and skip a zero coefficient; `matmul_transpose` starts
//! at −0.0 (where `Iterator::sum` starts) and adds every product in
//! ascending k. Shapes sit on both sides of `Matrix::SHARD_GRAIN`, so the
//! sharded variants run inline and on the compute pool. The release build
//! runs the vectorized loops these checks are about (CI runs this file
//! there too).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqvae_nn::{ExecPolicy, Linear, Matrix, Module, Threads};

const THREADS: [Threads; 3] = [Threads::Off, Threads::Fixed(2), Threads::Fixed(3)];

/// Values in ±2 with exact zeros, negative zeros, ±∞ and NaN mixed in when
/// `special` is set.
fn matrix(rows: usize, cols: usize, seed: u64, special: bool) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_fn(rows, cols, |_, _| {
        let pick: f64 = rng.gen_range(0.0..1.0);
        match pick {
            p if special && p < 0.01 => f64::INFINITY,
            p if special && p < 0.02 => f64::NEG_INFINITY,
            p if special && p < 0.03 => f64::NAN,
            _ => rng.gen_range(-2.0..2.0),
        }
    })
}

/// Coefficients with runs of zeros and negative zeros, so four-coefficient
/// runs take both the folded and the per-k path.
fn with_zeros(mut m: Matrix, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    for v in m.as_mut_slice() {
        let pick: f64 = rng.gen_range(0.0..1.0);
        if pick < 0.1 {
            *v = 0.0;
        } else if pick < 0.2 {
            *v = -0.0;
        }
    }
    m
}

/// Same bits, except that any NaN matches any NaN: Rust leaves NaN payloads
/// unspecified, so only the NaN-ness of a result is part of the contract.
fn assert_same_bits(got: &Matrix, want: &Matrix, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    for (k, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert!(
            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
            "{what}: element {k} is {g:e} ({:#x}), want {w:e} ({:#x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

fn reference_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    Matrix::from_fn(a.rows(), b.cols(), |i, j| {
        let mut o = 0.0;
        for k in 0..a.cols() {
            let x = a.get(i, k);
            if x != 0.0 {
                o += x * b.get(k, j);
            }
        }
        o
    })
}

fn reference_transpose_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    Matrix::from_fn(a.cols(), b.cols(), |i, j| {
        let mut o = 0.0;
        for r in 0..a.rows() {
            let x = a.get(r, i);
            if x != 0.0 {
                o += x * b.get(r, j);
            }
        }
        o
    })
}

fn reference_matmul_transpose(a: &Matrix, b: &Matrix) -> Matrix {
    Matrix::from_fn(a.rows(), b.rows(), |i, j| {
        let mut s = -0.0;
        for k in 0..a.cols() {
            s += a.get(i, k) * b.get(j, k);
        }
        s
    })
}

/// Whether a product with `rows` output rows of `inner · cols`
/// multiply-adds each is split into more than one pool item.
fn pooled(rows: usize, inner: usize, cols: usize) -> bool {
    rows > Matrix::SHARD_GRAIN.div_ceil((inner * cols).max(1))
}

/// `(m, k, n)`: each test builds a product with m output rows of n
/// elements that each fold k terms. Odd widths below the grain, empty
/// shapes, and shapes the pool splits into several items.
const SHAPES: [(usize, usize, usize); 8] = [
    (5, 7, 9),
    (3, 13, 1),
    (0, 6, 5),
    (4, 0, 5),
    (4, 6, 0),
    (2, 61, 1030),
    (37, 61, 1030),
    (301, 13, 43),
];

#[test]
fn the_shapes_cover_both_sides_of_the_grain() {
    assert!(SHAPES.iter().any(|&(m, k, n)| pooled(m, k, n)));
    assert!(SHAPES
        .iter()
        .any(|&(m, k, n)| !pooled(m, k, n) && m * k * n > 0));
}

#[test]
fn matmul_folds_every_element_like_the_reference() {
    for (s, &(m, k, n)) in SHAPES.iter().enumerate() {
        for special in [false, true] {
            let a = with_zeros(matrix(m, k, s as u64, false), 100 + s as u64);
            let b = matrix(k, n, 200 + s as u64, special);
            let want = reference_matmul(&a, &b);
            assert_same_bits(&a.matmul(&b).unwrap(), &want, "matmul");
            for threads in THREADS {
                let got = a.matmul_sharded(&b, threads).unwrap();
                assert_same_bits(&got, &want, &format!("matmul {m}x{k}x{n} {threads:?}"));
            }
        }
    }
}

#[test]
fn transpose_matmul_folds_every_element_like_the_reference() {
    // `aᵀ · b` with `a` of shape k × m: the fold runs over a's k rows.
    for (s, &(m, k, n)) in SHAPES.iter().enumerate() {
        for special in [false, true] {
            let a = with_zeros(matrix(k, m, 300 + s as u64, false), 400 + s as u64);
            let b = matrix(k, n, 500 + s as u64, special);
            let want = reference_transpose_matmul(&a, &b);
            assert_same_bits(&a.transpose_matmul(&b).unwrap(), &want, "transpose_matmul");
            for threads in THREADS {
                let got = a.transpose_matmul_sharded(&b, threads).unwrap();
                assert_same_bits(
                    &got,
                    &want,
                    &format!("transpose_matmul {m}x{k}x{n} {threads:?}"),
                );
            }
        }
    }
}

#[test]
fn matmul_transpose_folds_every_element_like_the_reference() {
    // `a · bᵀ` with `b` of shape n × k.
    for (s, &(m, k, n)) in SHAPES.iter().enumerate() {
        for special in [false, true] {
            let a = with_zeros(matrix(m, k, 600 + s as u64, false), 700 + s as u64);
            let b = matrix(n, k, 800 + s as u64, special);
            let want = reference_matmul_transpose(&a, &b);
            assert_same_bits(&a.matmul_transpose(&b).unwrap(), &want, "matmul_transpose");
            for threads in THREADS {
                let got = a.matmul_transpose_sharded(&b, threads).unwrap();
                assert_same_bits(
                    &got,
                    &want,
                    &format!("matmul_transpose {m}x{k}x{n} {threads:?}"),
                );
            }
        }
    }
}

#[test]
fn matmul_transpose_keeps_negative_zero_sums() {
    // A zero upstream row against all-negative weight rows: every product
    // is −0.0, and a sum started at −0.0 stays there. Five weight rows put
    // outputs both in a four-accumulator group and in the remainder.
    for (rows, k) in [(2, 6), (40, 3300)] {
        let g = Matrix::zeros(rows, k);
        let w = Matrix::filled(5, k, -0.5);
        for threads in THREADS {
            let dx = g.matmul_transpose_sharded(&w, threads).unwrap();
            assert!(
                dx.as_slice()
                    .iter()
                    .all(|v| v.to_bits() == (-0.0f64).to_bits()),
                "{rows}x{k} {threads:?}"
            );
        }
    }
    assert!(pooled(40, 3300, 5));
    // No terms at all: the empty sum is −0.0 too.
    let empty = Matrix::zeros(2, 0)
        .matmul_transpose(&Matrix::zeros(3, 0))
        .unwrap();
    assert!(empty
        .as_slice()
        .iter()
        .all(|v| v.to_bits() == (-0.0f64).to_bits()));
}

#[test]
fn zero_coefficients_are_skipped_against_infinite_operands() {
    // 0 · ∞ is NaN, so a zero coefficient that were multiplied would turn
    // the output NaN; skipped, it leaves the finite sum.
    let a = Matrix::from_rows(&[&[1.0, 0.0, 2.0, 3.0, -0.0, 1.0]]).unwrap();
    let mut b = Matrix::filled(6, 3, 1.0);
    b.set(1, 0, f64::INFINITY);
    b.set(4, 2, f64::NAN);
    for threads in THREADS {
        let out = a.matmul_sharded(&b, threads).unwrap();
        assert_eq!(out.as_slice(), &[7.0, 7.0, 7.0], "{threads:?}");
        let out = a.transpose().transpose_matmul_sharded(&b, threads).unwrap();
        assert_eq!(out.as_slice(), &[7.0, 7.0, 7.0], "{threads:?}");
    }
}

#[test]
fn shape_errors_are_unchanged() {
    let (a, b) = (Matrix::zeros(2, 3), Matrix::zeros(2, 3));
    for threads in THREADS {
        assert!(a.matmul_sharded(&b, threads).is_err());
        assert!(a
            .transpose_matmul_sharded(&Matrix::zeros(3, 3), threads)
            .is_err());
        assert!(a
            .matmul_transpose_sharded(&Matrix::zeros(3, 2), threads)
            .is_err());
    }
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Forward, infer, backward and both parameter gradients of one layer.
fn linear_pass(threads: Threads, rows: usize) -> Vec<Vec<u64>> {
    let mut layer = Linear::new(56, 1024, &mut StdRng::seed_from_u64(56));
    layer.set_exec_policy(ExecPolicy {
        threads,
        ..ExecPolicy::from_env()
    });
    let x = matrix(rows, 56, 57, false);
    let g = matrix(rows, 1024, 58, false);
    let y = layer.forward(&x).unwrap();
    let inferred = layer.infer(&x).unwrap();
    let dx = layer.backward(&g).unwrap();
    let params = layer.parameters();
    vec![
        bits(&y),
        bits(&inferred),
        bits(&dx),
        bits(&params[0].grad),
        bits(&params[1].grad),
    ]
}

#[test]
fn linear_is_bit_identical_across_thread_counts() {
    for rows in [32, 256] {
        // Every product of this layer is split into pool items.
        assert!(pooled(rows, 56, 1024) && pooled(56, rows, 1024));
        let want = linear_pass(Threads::Off, rows);
        assert_eq!(want[0], want[1], "infer gives forward's bits");
        for threads in [Threads::Fixed(2), Threads::Fixed(3)] {
            assert_eq!(linear_pass(threads, rows), want, "{rows} rows, {threads:?}");
        }
    }
}

#[test]
fn linear_starts_from_the_environment_policy_and_follows_set_exec_policy() {
    let mut layer = Linear::new(3, 2, &mut StdRng::seed_from_u64(1));
    assert_eq!(layer.exec_policy(), ExecPolicy::from_env());
    let policy = ExecPolicy {
        threads: Threads::Fixed(3),
        ..ExecPolicy::from_env()
    };
    layer.set_exec_policy(policy);
    assert_eq!(layer.exec_policy(), policy);
}
