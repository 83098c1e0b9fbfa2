//! Synthetic accessibility (SA) score.
//!
//! Ertl & Schuffenhauer (2009) combine a fragment-frequency score (from a
//! PubChem fragment database) with complexity penalties, mapping to a 1
//! (easy) … 10 (hard) scale. The fragment database is proprietary-sized
//! external data, so this reproduction substitutes a **per-atom environment
//! commonness table** (documented in DESIGN.md): common drug-like
//! environments (aromatic CH, sp3 carbon, amide-like N/O) score as frequent;
//! rare environments (hypervalent S, quaternary carbons, triple bonds) score
//! as infrequent. The complexity penalties (size, ring fusion, macrocycles,
//! heteroatom load) follow the published formulas, so the score shares the
//! original's monotone structure.

use crate::bond::BondOrder;
use crate::element::Element;
use crate::molecule::Molecule;
use crate::rings::{perceive_rings, RingInfo};

/// Commonness (log-frequency stand-in) of atom `i`'s environment: positive =
/// common/easy, negative = rare/hard.
fn environment_commonness(mol: &Molecule, i: usize) -> f64 {
    let e = mol.element(i);
    let degree = mol.degree(i);
    let aromatic = mol.neighbors(i).any(|(_, o)| o == BondOrder::Aromatic);
    let triple = mol.neighbors(i).any(|(_, o)| o == BondOrder::Triple);
    let valence = mol.explicit_valence(i);

    let mut score: f64 = match e {
        Element::C => {
            if aromatic {
                1.0
            } else if degree <= 2 {
                0.9
            } else if degree == 3 {
                0.4
            } else {
                -0.5 // quaternary carbon
            }
        }
        Element::N | Element::O => {
            if degree <= 2 {
                0.6
            } else {
                0.0
            }
        }
        Element::F => 0.3,
        Element::S => {
            if valence > 2.5 {
                -1.0 // hypervalent sulfur
            } else {
                0.2
            }
        }
    };
    if triple {
        score -= 0.8;
    }
    score
}

/// Raw SA score on the published 1 (easy) … 10 (hard) scale.
pub fn sa_score_with_rings(mol: &Molecule, rings: &RingInfo) -> f64 {
    if mol.is_empty() {
        return 10.0;
    }
    let n = mol.n_atoms() as f64;

    // Fragment-score substitute: mean environment commonness, scaled to the
    // roughly [-4, +1] band the original fragment score occupies.
    let frag: f64 = (0..mol.n_atoms())
        .map(|i| environment_commonness(mol, i))
        .sum::<f64>()
        / n;
    let fragment_score = frag * 2.0; // spread the band

    // Complexity penalties (Ertl's formulas).
    let size_penalty = n.powf(1.005) - n;
    let ring_info_penalty = ((rings.n_fused_pairs() + 1) as f64).ln() * 0.5;
    let macro_penalty = if rings.n_macrocycles() > 0 {
        (rings.n_macrocycles() as f64 + 1.0).ln()
    } else {
        0.0
    };
    let hetero_fraction = mol.atoms().iter().filter(|&&a| a != Element::C).count() as f64 / n;
    let hetero_penalty = (hetero_fraction * 2.0).max(0.0);

    let raw = fragment_score - size_penalty - ring_info_penalty - macro_penalty - hetero_penalty;

    // Map raw (≈ +2 easy … −8 hard) onto 1..10.
    let score = 11.0 - (raw + 8.0) / 10.0 * 9.0;
    score.clamp(1.0, 10.0)
}

/// Raw SA score (perceives rings internally).
///
/// # Examples
///
/// ```
/// use sqvae_chem::{properties::sa, BondOrder, Element, Molecule};
///
/// let mut ethane = Molecule::new();
/// let a = ethane.add_atom(Element::C);
/// let b = ethane.add_atom(Element::C);
/// ethane.add_bond(a, b, BondOrder::Single)?;
/// let s = sa::sa_score(&ethane);
/// assert!((1.0..=10.0).contains(&s));
/// # Ok::<(), sqvae_chem::ChemError>(())
/// ```
pub fn sa_score(mol: &Molecule) -> f64 {
    sa_score_with_rings(mol, &perceive_rings(mol))
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn score_is_bounded() {
        for mol in [chain(1), chain(30)] {
            let s = sa_score(&mol);
            assert!((1.0..=10.0).contains(&s), "{s}");
        }
        assert_eq!(sa_score(&Molecule::new()), 10.0);
    }

    #[test]
    fn small_alkane_is_easy() {
        assert!(sa_score(&chain(3)) < 5.0);
    }

    #[test]
    fn bigger_molecules_are_harder() {
        assert!(sa_score(&chain(25)) > sa_score(&chain(5)));
    }

    #[test]
    fn macrocycle_is_harder_than_open_chain() {
        let open = chain(12);
        let mut cyc = chain(12);
        cyc.add_bond(11, 0, BondOrder::Single).unwrap();
        assert!(sa_score(&cyc) > sa_score(&open));
    }

    #[test]
    fn hypervalent_sulfur_is_harder() {
        // Plain thioether.
        let mut plain = chain(2);
        let s = plain.add_atom(Element::S);
        plain.add_bond(1, s, BondOrder::Single).unwrap();
        // Sulfone-like.
        let mut sulfone = chain(2);
        let s2 = sulfone.add_atom(Element::S);
        sulfone.add_bond(1, s2, BondOrder::Single).unwrap();
        let o1 = sulfone.add_atom(Element::O);
        let o2 = sulfone.add_atom(Element::O);
        sulfone.add_bond(s2, o1, BondOrder::Double).unwrap();
        sulfone.add_bond(s2, o2, BondOrder::Double).unwrap();
        assert!(sa_score(&sulfone) > sa_score(&plain));
    }

    #[test]
    fn fused_rings_add_complexity() {
        // One ring vs two fused rings of the same total size.
        let mut one_ring = chain(10);
        one_ring.add_bond(9, 0, BondOrder::Single).unwrap();
        let mut fused = Molecule::new();
        for _ in 0..10 {
            fused.add_atom(Element::C);
        }
        for i in 0..5 {
            fused.add_bond(i, i + 1, BondOrder::Single).unwrap();
        }
        fused.add_bond(5, 0, BondOrder::Single).unwrap();
        fused.add_bond(5, 6, BondOrder::Single).unwrap();
        for i in 6..9 {
            fused.add_bond(i, i + 1, BondOrder::Single).unwrap();
        }
        fused.add_bond(9, 0, BondOrder::Single).unwrap();
        assert!(sa_score(&fused) > sa_score(&one_ring) - 1.0);
    }
}
