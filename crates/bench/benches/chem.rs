//! Cheminformatics-substrate benchmarks: matrix codec, ring perception,
//! fingerprints, sanitization, and the Table II property scorers.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sqvae_chem::fingerprint::fingerprint;
use sqvae_chem::properties::DrugProperties;
use sqvae_chem::rings::perceive_rings;
use sqvae_chem::{sanitize, smiles, MoleculeMatrix};
use sqvae_datasets::molgen::{grow_molecule, GrowthConfig};

fn bench_chem(c: &mut Criterion) {
    let cfg = GrowthConfig::pdbbind_like();
    let mut rng = StdRng::seed_from_u64(7);
    let mols: Vec<_> = (0..32).map(|_| grow_molecule(&cfg, &mut rng)).collect();

    c.bench_function("matrix_encode_decode_32", |b| {
        b.iter(|| {
            for m in &mols {
                let mm = MoleculeMatrix::encode(m, 32).unwrap();
                let _ = mm.decode();
            }
        })
    });

    c.bench_function("perceive_rings_32", |b| {
        b.iter(|| {
            for m in &mols {
                black_box(perceive_rings(m));
            }
        })
    });

    c.bench_function("fingerprint_32", |b| {
        b.iter(|| {
            for m in &mols {
                black_box(fingerprint(m));
            }
        })
    });

    c.bench_function("drug_properties_32", |b| {
        b.iter(|| {
            for m in &mols {
                let _ = DrugProperties::compute(m);
            }
        })
    });

    c.bench_function("sanitize_noisy_matrix", |b| {
        let noisy: Vec<MoleculeMatrix> = mols
            .iter()
            .map(|m| {
                let mut mm = MoleculeMatrix::encode(m, 32).unwrap();
                for i in 0..32 {
                    let v = mm.get(i, i);
                    mm.set(i, i, v + 0.4);
                }
                mm
            })
            .collect();
        b.iter(|| {
            for mm in &noisy {
                let decoded = mm.decode();
                if !decoded.is_empty() {
                    let _ = sanitize::sanitize(&decoded);
                }
            }
        })
    });

    c.bench_function("smiles_round_trip", |b| {
        b.iter(|| {
            for m in &mols {
                let s = smiles::write(m).unwrap();
                let _ = smiles::parse(&s).unwrap();
            }
        })
    });
}

criterion_group!(benches, bench_chem);
criterion_main!(benches);
