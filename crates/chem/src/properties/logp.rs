//! Octanol-water partition coefficient (logP), Wildman–Crippen style.
//!
//! RDKit's `MolLogP` (used by the paper) sums per-atom contributions after
//! classifying each atom into one of ~70 types. This reproduction uses a
//! **reduced type table** covering the C/N/O/F/S chemistry the decoders can
//! emit; contribution values follow the published Wildman–Crippen magnitudes
//! for the corresponding types, so lipophilicity orderings (more carbon ⇒
//! higher, more heteroatoms/donors ⇒ lower) are preserved. DESIGN.md records
//! this as an RDKit substitution.

use crate::bond::BondOrder;
use crate::element::Element;
use crate::molecule::Molecule;

/// Per-atom contribution class (exposed for inspection/testing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrippenType {
    /// sp3 carbon with only carbon/hydrogen neighbors.
    CAliphatic,
    /// Carbon bonded to at least one heteroatom.
    CHetero,
    /// Aromatic carbon.
    CAromatic,
    /// sp/sp2 carbon (double or triple bond, non-aromatic).
    CUnsaturated,
    /// Aliphatic amine nitrogen.
    NAmine,
    /// Aromatic nitrogen.
    NAromatic,
    /// Imine/nitrile nitrogen (multiple-bonded).
    NUnsaturated,
    /// Hydroxyl oxygen.
    OHydroxyl,
    /// Ether/ester oxygen.
    OEther,
    /// Carbonyl oxygen.
    OCarbonyl,
    /// Aromatic oxygen.
    OAromatic,
    /// Fluorine.
    F,
    /// Aliphatic sulfur.
    SAliphatic,
    /// Aromatic sulfur.
    SAromatic,
}

impl CrippenType {
    /// The logP contribution of this atom type.
    pub fn contribution(self) -> f64 {
        match self {
            CrippenType::CAliphatic => 0.1441,
            CrippenType::CHetero => -0.2035,
            CrippenType::CAromatic => 0.2940,
            CrippenType::CUnsaturated => 0.1551,
            CrippenType::NAmine => -1.0190,
            CrippenType::NAromatic => -0.3239,
            CrippenType::NUnsaturated => -0.3396,
            CrippenType::OHydroxyl => -0.2893,
            CrippenType::OEther => -0.0684,
            CrippenType::OCarbonyl => -0.1526,
            CrippenType::OAromatic => 0.1552,
            CrippenType::F => 0.4202,
            CrippenType::SAliphatic => 0.6482,
            CrippenType::SAromatic => 0.6237,
        }
    }
}

/// Hydrogen contributions: H on carbon vs. H on a heteroatom.
const H_ON_CARBON: f64 = 0.1230;
const H_ON_HETERO: f64 = -0.2677;

/// Classifies atom `i`.
pub fn crippen_type(mol: &Molecule, i: usize) -> CrippenType {
    let nbrs = || mol.neighbors(i);
    let aromatic = nbrs().any(|(_, o)| o == BondOrder::Aromatic);
    let unsaturated = nbrs().any(|(_, o)| matches!(o, BondOrder::Double | BondOrder::Triple));
    let hetero_neighbor = nbrs().any(|(n, _)| mol.element(n) != Element::C);
    match mol.element(i) {
        Element::C => {
            if aromatic {
                CrippenType::CAromatic
            } else if hetero_neighbor {
                CrippenType::CHetero
            } else if unsaturated {
                CrippenType::CUnsaturated
            } else {
                CrippenType::CAliphatic
            }
        }
        Element::N => {
            if aromatic {
                CrippenType::NAromatic
            } else if unsaturated {
                CrippenType::NUnsaturated
            } else {
                CrippenType::NAmine
            }
        }
        Element::O => {
            if aromatic {
                CrippenType::OAromatic
            } else if nbrs().any(|(_, o)| o == BondOrder::Double) {
                CrippenType::OCarbonyl
            } else if mol.implicit_hydrogens(i) > 0 {
                CrippenType::OHydroxyl
            } else {
                CrippenType::OEther
            }
        }
        Element::F => CrippenType::F,
        Element::S => {
            if aromatic {
                CrippenType::SAromatic
            } else {
                CrippenType::SAliphatic
            }
        }
    }
}

/// Wildman–Crippen-style logP: sum of heavy-atom and implicit-hydrogen
/// contributions.
///
/// # Examples
///
/// ```
/// use sqvae_chem::{properties::logp, BondOrder, Element, Molecule};
///
/// // Hexane is lipophilic: positive logP.
/// let mut hexane = Molecule::new();
/// for _ in 0..6 { hexane.add_atom(Element::C); }
/// for i in 0..5 { hexane.add_bond(i, i + 1, BondOrder::Single)?; }
/// assert!(logp::log_p(&hexane) > 1.0);
/// # Ok::<(), sqvae_chem::ChemError>(())
/// ```
pub fn log_p(mol: &Molecule) -> f64 {
    let mut total = 0.0;
    for i in 0..mol.n_atoms() {
        total += crippen_type(mol, i).contribution();
        let h = mol.implicit_hydrogens(i) as f64;
        total += h * if mol.element(i) == Element::C {
            H_ON_CARBON
        } else {
            H_ON_HETERO
        };
    }
    total
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
    fn logp_grows_with_chain_length() {
        let l4 = log_p(&chain(4));
        let l8 = log_p(&chain(8));
        assert!(l8 > l4, "longer alkane should be more lipophilic");
    }

    #[test]
    fn hydroxyl_lowers_logp() {
        let hexane = chain(6);
        let mut hexanol = chain(6);
        let o = hexanol.add_atom(Element::O);
        hexanol.add_bond(5, o, BondOrder::Single).unwrap();
        assert!(log_p(&hexanol) < log_p(&hexane));
    }

    #[test]
    fn amine_is_strongly_hydrophilic() {
        let mut m = chain(2);
        let n = m.add_atom(Element::N);
        m.add_bond(1, n, BondOrder::Single).unwrap();
        // Type should be amine with the big negative contribution.
        assert_eq!(crippen_type(&m, n), CrippenType::NAmine);
        assert!(log_p(&m) < log_p(&chain(3)));
    }

    #[test]
    fn aromatic_carbons_classified() {
        let mut m = Molecule::new();
        for _ in 0..6 {
            m.add_atom(Element::C);
        }
        for i in 0..6 {
            m.add_bond(i, (i + 1) % 6, BondOrder::Aromatic).unwrap();
        }
        for i in 0..6 {
            assert_eq!(crippen_type(&m, i), CrippenType::CAromatic);
        }
        // Benzene logP is positive (experimental ≈ 2.1).
        assert!(log_p(&m) > 1.0);
    }

    #[test]
    fn oxygen_subtypes() {
        // CCO hydroxyl.
        let mut m = chain(2);
        let o = m.add_atom(Element::O);
        m.add_bond(1, o, BondOrder::Single).unwrap();
        assert_eq!(crippen_type(&m, o), CrippenType::OHydroxyl);
        // COC ether.
        let mut e = Molecule::new();
        let c1 = e.add_atom(Element::C);
        let o = e.add_atom(Element::O);
        let c2 = e.add_atom(Element::C);
        e.add_bond(c1, o, BondOrder::Single).unwrap();
        e.add_bond(o, c2, BondOrder::Single).unwrap();
        assert_eq!(crippen_type(&e, o), CrippenType::OEther);
        // C=O carbonyl.
        let mut k = chain(2);
        let o = k.add_atom(Element::O);
        k.add_bond(1, o, BondOrder::Double).unwrap();
        assert_eq!(crippen_type(&k, o), CrippenType::OCarbonyl);
    }

    #[test]
    fn fluorine_and_sulfur_positive() {
        let mut m = chain(1);
        let f = m.add_atom(Element::F);
        m.add_bond(0, f, BondOrder::Single).unwrap();
        assert_eq!(crippen_type(&m, f), CrippenType::F);
        assert!(CrippenType::F.contribution() > 0.0);
        assert!(CrippenType::SAliphatic.contribution() > 0.0);
    }

    #[test]
    fn empty_molecule_logp_is_zero() {
        assert_eq!(log_p(&Molecule::new()), 0.0);
    }
}
