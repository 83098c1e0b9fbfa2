//! Hashed circular fingerprints (ECFP-like) and Tanimoto similarity.
//!
//! Used by the generation-quality metrics (uniqueness / novelty /
//! diversity) that accompany Table II-style evaluations in the molecular
//! generative-model literature the paper builds on (MolGAN et al.). The
//! algorithm is Morgan-style: each atom starts from an invariant hash
//! (element, degree, valence, H count, ring membership) and iteratively
//! absorbs its neighbors' identifiers; every intermediate identifier sets a
//! bit in a fixed-width bitset.

use crate::molecule::Molecule;
use crate::rings::perceive_rings;

/// Fingerprint width in bits.
pub const FINGERPRINT_BITS: usize = 1024;
/// Number of Morgan iterations (radius). Radius 2 ≈ ECFP4.
pub const DEFAULT_RADIUS: usize = 2;

/// A fixed-width molecular bit fingerprint.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Fingerprint {
    words: [u64; FINGERPRINT_BITS / 64],
}

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint {
            words: [0; FINGERPRINT_BITS / 64],
        }
    }
}

impl Fingerprint {
    /// Number of set bits.
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Whether bit `i` is set.
    ///
    /// # Panics
    ///
    /// Panics when `i >= FINGERPRINT_BITS`.
    pub fn bit(&self, i: usize) -> bool {
        assert!(i < FINGERPRINT_BITS, "fingerprint bit out of range");
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    fn set(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Tanimoto similarity `|A∩B| / |A∪B|` in [0, 1] (1.0 for two empty
    /// fingerprints, by convention).
    pub fn tanimoto(&self, other: &Fingerprint) -> f64 {
        let mut inter = 0u32;
        let mut union = 0u32;
        for (a, b) in self.words.iter().zip(&other.words) {
            inter += (a & b).count_ones();
            union += (a | b).count_ones();
        }
        if union == 0 {
            1.0
        } else {
            inter as f64 / union as f64
        }
    }
}

/// FNV-1a style scalar hash (stable across platforms/runs).
fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x100000001b3)
}

/// Computes the Morgan fingerprint of a molecule at [`DEFAULT_RADIUS`].
pub fn fingerprint(mol: &Molecule) -> Fingerprint {
    fingerprint_with_radius(mol, DEFAULT_RADIUS)
}

/// Computes the Morgan fingerprint with an explicit radius.
pub fn fingerprint_with_radius(mol: &Molecule, radius: usize) -> Fingerprint {
    let mut fp = Fingerprint::default();
    if mol.is_empty() {
        return fp;
    }
    let rings = perceive_rings(mol);
    // Round-0 atom invariants.
    let mut ids: Vec<u64> = (0..mol.n_atoms())
        .map(|i| {
            let mut h = 0xcbf29ce484222325u64;
            h = mix(h, mol.element(i).atomic_number() as u64);
            h = mix(h, mol.degree(i) as u64);
            h = mix(h, (mol.explicit_valence(i) * 2.0) as u64);
            h = mix(h, mol.implicit_hydrogens(i) as u64);
            h = mix(h, rings.atom_in_ring[i] as u64);
            h
        })
        .collect();
    for id in &ids {
        fp.set((*id % FINGERPRINT_BITS as u64) as usize);
    }
    // Iterative neighborhood absorption.
    let mut contrib: Vec<u64> = Vec::new();
    for round in 0..radius {
        let mut next = ids.clone();
        for i in 0..mol.n_atoms() {
            // Sort neighbor contributions for order invariance.
            contrib.clear();
            contrib.extend(
                mol.neighbors(i)
                    .map(|(n, order)| mix(ids[n], order.matrix_code() as u64)),
            );
            contrib.sort_unstable();
            let mut h = mix(ids[i], round as u64 + 1);
            for &c in &contrib {
                h = mix(h, c);
            }
            next[i] = h;
            fp.set((h % FINGERPRINT_BITS as u64) as usize);
        }
        ids = next;
    }
    fp
}

/// Mean pairwise Tanimoto *distance* (1 − similarity) over a set — the
/// "diversity" metric of the molecular-GAN literature. Returns 0 for fewer
/// than two molecules.
pub fn diversity(fps: &[Fingerprint]) -> f64 {
    if fps.len() < 2 {
        return 0.0;
    }
    let mut total = 0.0;
    let mut pairs = 0usize;
    for i in 0..fps.len() {
        for j in (i + 1)..fps.len() {
            total += 1.0 - fps[i].tanimoto(&fps[j]);
            pairs += 1;
        }
    }
    total / pairs as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bond::BondOrder;
    use crate::element::Element;

    fn chain(n: usize) -> Molecule {
        let mut m = Molecule::new();
        for _ in 0..n {
            m.add_atom(Element::C);
        }
        for i in 0..n.saturating_sub(1) {
            m.add_bond(i, i + 1, BondOrder::Single).unwrap();
        }
        m
    }

    fn benzene() -> Molecule {
        let mut m = Molecule::new();
        for _ in 0..6 {
            m.add_atom(Element::C);
        }
        for i in 0..6 {
            m.add_bond(i, (i + 1) % 6, BondOrder::Aromatic).unwrap();
        }
        m
    }

    #[test]
    fn identical_molecules_have_identical_fingerprints() {
        assert_eq!(fingerprint(&benzene()), fingerprint(&benzene()));
        assert_eq!(
            fingerprint(&benzene()).tanimoto(&fingerprint(&benzene())),
            1.0
        );
    }

    #[test]
    fn atom_order_does_not_matter() {
        // Build propanol in two different atom orders.
        let mut a = Molecule::new();
        let c1 = a.add_atom(Element::C);
        let c2 = a.add_atom(Element::C);
        let c3 = a.add_atom(Element::C);
        let o = a.add_atom(Element::O);
        a.add_bond(c1, c2, BondOrder::Single).unwrap();
        a.add_bond(c2, c3, BondOrder::Single).unwrap();
        a.add_bond(c3, o, BondOrder::Single).unwrap();

        let mut b = Molecule::new();
        let o = b.add_atom(Element::O);
        let c3 = b.add_atom(Element::C);
        let c2 = b.add_atom(Element::C);
        let c1 = b.add_atom(Element::C);
        b.add_bond(o, c3, BondOrder::Single).unwrap();
        b.add_bond(c3, c2, BondOrder::Single).unwrap();
        b.add_bond(c2, c1, BondOrder::Single).unwrap();

        assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn different_molecules_differ() {
        let fp_benzene = fingerprint(&benzene());
        let fp_hexane = fingerprint(&chain(6));
        assert_ne!(fp_benzene, fp_hexane);
        assert!(fp_benzene.tanimoto(&fp_hexane) < 0.8);
    }

    #[test]
    fn similar_molecules_are_more_similar_than_dissimilar_ones() {
        let hexane = fingerprint(&chain(6));
        let heptane = fingerprint(&chain(7));
        let benz = fingerprint(&benzene());
        assert!(hexane.tanimoto(&heptane) > hexane.tanimoto(&benz));
    }

    #[test]
    fn tanimoto_properties() {
        let a = fingerprint(&chain(4));
        let b = fingerprint(&benzene());
        let t = a.tanimoto(&b);
        assert!((0.0..=1.0).contains(&t));
        assert_eq!(a.tanimoto(&b), b.tanimoto(&a));
        assert_eq!(
            Fingerprint::default().tanimoto(&Fingerprint::default()),
            1.0
        );
    }

    #[test]
    fn fingerprints_have_set_bits() {
        let fp = fingerprint(&benzene());
        assert!(fp.count_ones() > 0);
        assert!((0..FINGERPRINT_BITS).any(|i| fp.bit(i)));
    }

    #[test]
    fn radius_zero_ignores_topology_beyond_atoms() {
        // Hexane vs cyclohexane share atom types at radius 0 only partly
        // (ring membership is an invariant); higher radius separates more.
        let mut cyc = chain(6);
        cyc.add_bond(5, 0, BondOrder::Single).unwrap();
        let t0 = fingerprint_with_radius(&chain(6), 0).tanimoto(&fingerprint_with_radius(&cyc, 0));
        let t2 = fingerprint_with_radius(&chain(6), 2).tanimoto(&fingerprint_with_radius(&cyc, 2));
        assert!(t2 <= t0);
    }

    #[test]
    fn diversity_of_identical_set_is_zero() {
        let fps = vec![fingerprint(&benzene()), fingerprint(&benzene())];
        assert_eq!(diversity(&fps), 0.0);
        assert_eq!(diversity(&fps[..1]), 0.0);
    }

    #[test]
    fn diverse_set_scores_higher() {
        let same = vec![fingerprint(&chain(6)), fingerprint(&chain(6))];
        let varied = vec![
            fingerprint(&chain(3)),
            fingerprint(&benzene()),
            fingerprint(&chain(8)),
        ];
        assert!(diversity(&varied) > diversity(&same));
    }

    #[test]
    fn empty_molecule_fingerprint_is_empty() {
        assert_eq!(fingerprint(&Molecule::new()).count_ones(), 0);
    }
}
