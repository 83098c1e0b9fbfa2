//! Bit-level digests of the chem pipeline and the molecular datasets.
//!
//! Each digest folds every output of one stage, bit for bit, into an FNV-1a
//! hash, and each test compares its digests with values recorded before the
//! molecular graph was indexed. A change that alters any ring, fingerprint
//! word, property bit, sanitize repair or dataset feature changes a hash.
//! The chem inputs stand in for the screening workload's traffic: the 128
//! PDBbind-like training ligands, 256 noisy 32×32 matrices decoded into raw
//! molecules, their sanitized forms, and one seeded sampling batch.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqvae::chem::fingerprint::{fingerprint, Fingerprint, FINGERPRINT_BITS};
use sqvae::chem::properties::lipinski::RuleOfFive;
use sqvae::chem::properties::DrugProperties;
use sqvae::chem::rings::perceive_rings;
use sqvae::chem::{sanitize, valence, Molecule, MoleculeMatrix};
use sqvae::core::models;
use sqvae::core::sampling::{generation_metrics, sample_molecules};
use sqvae::datasets::pdbbind::{self, PdbbindConfig, PDBBIND_MATRIX_SIZE};
use sqvae::datasets::qm9::{self, Qm9Config};
use sqvae::datasets::Dataset;
use sqvae::nn::{ExecPolicy, Threads};

/// Asserts a digest equals its recorded value, printing the new value.
fn check(stage: &str, got: u64, want: u64) {
    assert_eq!(got, want, "{stage} digest is now {got:#018x}");
}

/// FNV-1a over the little-endian bytes of 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn molecule(&mut self, m: &Molecule) {
        self.word(m.n_atoms() as u64);
        for e in m.atoms() {
            self.word(u64::from(e.matrix_code()));
        }
        self.word(m.n_bonds() as u64);
        for b in m.bonds() {
            self.word(b.a as u64);
            self.word(b.b as u64);
            self.word(u64::from(b.order.matrix_code()));
        }
    }

    fn fingerprint(&mut self, fp: &Fingerprint) {
        for w in 0..FINGERPRINT_BITS / 64 {
            let word = (0..64).fold(0u64, |acc, k| acc | (u64::from(fp.bit(w * 64 + k)) << k));
            self.word(word);
        }
    }
}

/// The screening model's training set (seed and size of the screening
/// workload).
fn ligands() -> Vec<Molecule> {
    pdbbind::generate_molecules(&PdbbindConfig {
        n_samples: 128,
        seed: 20_220_314,
    })
}

/// 256 decoded noisy matrices: each ligand's 32×32 matrix plus uniform
/// noise in ±0.7 on every entry, which adds and drops atoms and bonds.
fn decoded_noisy(ligands: &[Molecule]) -> Vec<Molecule> {
    let mut rng = StdRng::seed_from_u64(19);
    (0..256)
        .map(|k| {
            let clean = MoleculeMatrix::encode(&ligands[k % ligands.len()], PDBBIND_MATRIX_SIZE)
                .expect("ligands fit 32x32");
            let noisy = clean
                .into_features()
                .into_iter()
                .map(|v| v + rng.gen_range(-0.7..0.7))
                .collect();
            MoleculeMatrix::from_values(PDBBIND_MATRIX_SIZE, noisy)
                .expect("32x32 values")
                .decode()
        })
        .collect()
}

/// Per-stage digests over ligands, decoded molecules and sanitized ones.
struct ChemDigests {
    sanitize: u64,
    rings: u64,
    fingerprints: u64,
    properties: u64,
    lipinski: u64,
}

fn chem_digests() -> ChemDigests {
    let ligands = ligands();
    let decoded = decoded_noisy(&ligands);
    let mut san = Digest::new();
    let mut sanitized = Vec::new();
    for m in ligands.iter().chain(&decoded) {
        san.molecule(m);
        san.word(u64::from(valence::is_valid(m)));
        match sanitize::sanitize(m) {
            Ok(s) => {
                san.molecule(&s.molecule);
                san.word(s.bonds_removed as u64);
                san.word(s.bonds_demoted as u64);
                san.word(s.atoms_dropped as u64);
                san.word(u64::from(s.was_valid));
                sanitized.push(s.molecule);
            }
            Err(_) => san.word(u64::MAX),
        }
    }
    let (mut rings, mut fps, mut props, mut lip) =
        (Digest::new(), Digest::new(), Digest::new(), Digest::new());
    for m in ligands.iter().chain(&decoded).chain(&sanitized) {
        let info = perceive_rings(m);
        rings.word(info.rings.len() as u64);
        for ring in &info.rings {
            rings.word(ring.len() as u64);
            for &a in ring {
                rings.word(a as u64);
            }
        }
        for &x in info.atom_in_ring.iter().chain(&info.bond_in_ring) {
            rings.word(u64::from(x));
        }
        fps.fingerprint(&fingerprint(m));
        let p = DrugProperties::compute(m);
        for x in [p.qed, p.logp_raw, p.logp, p.sa_raw, p.sa] {
            props.f64(x);
        }
        let r = RuleOfFive::compute(m);
        lip.f64(r.mw);
        lip.f64(r.logp);
        lip.word(r.donors as u64);
        lip.word(r.acceptors as u64);
        lip.word(u64::from(r.passes()));
    }
    ChemDigests {
        sanitize: san.0,
        rings: rings.0,
        fingerprints: fps.0,
        properties: props.0,
        lipinski: lip.0,
    }
}

#[test]
fn chem_stages_match_recorded_digests() {
    let d = chem_digests();
    check("sanitize", d.sanitize, 0xe119_981e_fab4_3e39);
    check("rings", d.rings, 0xf6dc_a174_938b_7c43);
    check("fingerprints", d.fingerprints, 0x0b89_d910_38a8_0197);
    check("properties", d.properties, 0xbf86_4153_fad9_00c5);
    check("lipinski", d.lipinski, 0xa35d_6321_a363_1f82);
}

fn dataset_digest(ds: &Dataset) -> u64 {
    let mut d = Digest::new();
    d.word(ds.len() as u64);
    d.word(ds.width() as u64);
    for sample in ds.samples() {
        for &v in sample {
            d.f64(v);
        }
    }
    d.0
}

#[test]
fn molecular_datasets_match_recorded_digests() {
    let ligand = dataset_digest(&pdbbind::generate(&PdbbindConfig {
        n_samples: 128,
        seed: 20_220_314,
    }));
    let small = dataset_digest(&qm9::generate(&Qm9Config {
        n_samples: 512,
        seed: 1,
    }));
    check("pdbbind::generate", ligand, 0x76ac_c1b6_2731_7904);
    check("qm9::generate", small, 0xff6e_2468_052a_a4f7);
}

/// One seeded `sample_molecules` + `generation_metrics` batch, decoded at
/// 32×32. The untrained decoder's outputs are rescaled into the code range
/// so the batch holds large, mostly invalid molecules. The batch runs
/// sequentially and on two and three threads: its 64 × 56 × 1024
/// decoder product and its 64 samples' chem work are both split over the
/// compute pool, and every split gives the recorded bits.
#[test]
fn sampled_batch_matches_recorded_digest() {
    let mut model = models::sq_vae(1024, 8, 1, &mut StdRng::seed_from_u64(5));
    let training = ligands();
    for threads in [Threads::Off, Threads::Fixed(2), Threads::Fixed(3)] {
        model.set_exec_policy(ExecPolicy {
            threads,
            ..ExecPolicy::from_env()
        });
        let sampled = sample_molecules(
            &mut model,
            64,
            PDBBIND_MATRIX_SIZE,
            Some(8.0),
            &mut StdRng::seed_from_u64(6),
        )
        .expect("decoder width is 32x32");
        let metrics = generation_metrics(&sampled, &training);
        let mut d = Digest::new();
        for m in &sampled.molecules {
            d.molecule(m);
        }
        let p = sampled.properties;
        for x in [sampled.validity, p.qed, p.logp_raw, p.logp, p.sa_raw, p.sa] {
            d.f64(x);
        }
        for x in [
            metrics.validity,
            metrics.uniqueness,
            metrics.novelty,
            metrics.diversity,
            metrics.lipinski,
        ] {
            d.f64(x);
        }
        assert_eq!(sampled.molecules.len(), 63, "{threads:?}");
        check(
            &format!("sample_molecules + generation_metrics ({threads:?})"),
            d.0,
            0x81e5_f47f_ae13_3e87,
        );
    }
}
