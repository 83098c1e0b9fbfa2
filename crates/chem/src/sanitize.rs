//! Sanitization of decoded molecules.
//!
//! Autoencoder outputs decode into graphs that may violate valence rules or
//! fall apart into fragments. Mirroring the common RDKit workflow the paper
//! inherits (and MolGAN's post-processing), sanitization (1) demotes or
//! drops bonds at overloaded atoms until valences fit, then (2) keeps the
//! largest connected fragment.
//!
//! The repairs run in place on a copy of the bond list and a per-atom
//! valence array read once from the molecule's adjacency index. Each repair
//! updates the valences of its bond's two atoms, so it costs O(atoms) to
//! find the worst atom plus one pass over the bonds to pick the bond to
//! repair; no molecule is rebuilt until the repairs are done. Bond-order
//! contributions (1, 1.5, 2, 3) are multiples of 0.5, so the running valence
//! sums are exact and equal a fresh sum over the repaired bonds.

use crate::bond::BondOrder;
use crate::error::Result;
use crate::molecule::{Bond, Molecule};
use crate::valence::is_valid;

/// Outcome of sanitizing one decoded molecule.
#[derive(Debug, Clone, PartialEq)]
pub struct Sanitized {
    /// The repaired molecule (largest valid fragment).
    pub molecule: Molecule,
    /// Bonds removed to satisfy valences.
    pub bonds_removed: usize,
    /// Bonds demoted to a lower order.
    pub bonds_demoted: usize,
    /// Atoms dropped with discarded fragments.
    pub atoms_dropped: usize,
    /// Whether the input was already valid.
    pub was_valid: bool,
}

/// Repairs valence violations and extracts the largest fragment.
///
/// Strategy: while some atom exceeds its maximum valence, pick the
/// highest-order bond at the worst offender and demote it one step
/// (triple→double→single); a single/aromatic bond that still overloads the
/// atom is removed entirely (`swap_remove`, so the last bond takes its
/// slot). The worst offender is the first atom with the largest excess, and
/// of its highest-order bonds the last in bond order goes first.
/// Afterwards, only the largest connected component is kept.
///
/// # Errors
///
/// Returns [`crate::ChemError::EmptyMolecule`] when the input has no atoms.
pub fn sanitize(mol: &Molecule) -> Result<Sanitized> {
    let was_valid = is_valid(mol);
    let mut bonds: Vec<Bond> = mol.bonds().to_vec();
    let mut valence: Vec<f64> = (0..mol.n_atoms())
        .map(|i| mol.explicit_valence(i))
        .collect();
    let mut removed = 0usize;
    let mut demoted = 0usize;

    loop {
        // Find the worst offender (the first one on ties).
        let mut worst: Option<(usize, f64)> = None;
        for (i, &v) in valence.iter().enumerate() {
            let excess = v - mol.element(i).max_valence() as f64;
            if excess > 1e-9 && worst.map_or(true, |(_, e)| excess > e) {
                worst = Some((i, excess));
            }
        }
        let Some((atom, _)) = worst else {
            break;
        };
        // Highest-order bond at that atom (the last one on ties).
        let (bidx, _) = bonds
            .iter()
            .enumerate()
            .filter(|(_, b)| b.other(atom).is_some())
            .max_by(|(_, x), (_, y)| {
                x.order
                    .valence_contribution()
                    .total_cmp(&y.order.valence_contribution())
            })
            .expect("an overloaded atom has at least one bond");
        let bond = &mut bonds[bidx];
        let lowered = match bond.order {
            BondOrder::Triple => Some(BondOrder::Double),
            BondOrder::Double => Some(BondOrder::Single),
            BondOrder::Single | BondOrder::Aromatic => None,
        };
        let drop = bond.order.valence_contribution()
            - lowered.map_or(0.0, BondOrder::valence_contribution);
        valence[bond.a] -= drop;
        valence[bond.b] -= drop;
        match lowered {
            Some(order) => {
                bond.order = order;
                demoted += 1;
            }
            None => {
                bonds.swap_remove(bidx);
                removed += 1;
            }
        }
    }

    let repaired = Molecule::from_parts(
        mol.atoms().to_vec(),
        bonds.iter().map(|b| (b.a, b.b, b.order)),
    )?;
    let fragment = repaired.largest_fragment()?;
    let atoms_dropped = repaired.n_atoms() - fragment.n_atoms();
    Ok(Sanitized {
        molecule: fragment,
        bonds_removed: removed,
        bonds_demoted: demoted,
        atoms_dropped,
        was_valid,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::Element;
    use crate::valence::is_valid;

    #[test]
    fn valid_molecule_passes_through() {
        let mut m = Molecule::new();
        let c = m.add_atom(Element::C);
        let o = m.add_atom(Element::O);
        m.add_bond(c, o, BondOrder::Single).unwrap();
        let s = sanitize(&m).unwrap();
        assert!(s.was_valid);
        assert_eq!(s.bonds_removed + s.bonds_demoted + s.atoms_dropped, 0);
        assert_eq!(s.molecule.formula(), m.formula());
    }

    #[test]
    fn overloaded_carbon_gets_demoted() {
        // C with two doubles and two singles (valence 6 > 4).
        let mut m = Molecule::new();
        let c = m.add_atom(Element::C);
        for order in [
            BondOrder::Double,
            BondOrder::Double,
            BondOrder::Single,
            BondOrder::Single,
        ] {
            let n = m.add_atom(Element::C);
            m.add_bond(c, n, order).unwrap();
        }
        let s = sanitize(&m).unwrap();
        assert!(!s.was_valid);
        assert!(is_valid(&s.molecule) || s.molecule.is_connected());
        assert!(s.bonds_demoted >= 2);
        assert!(crate::valence::valences_ok(&s.molecule));
    }

    #[test]
    fn fluorine_excess_bond_is_removed() {
        let mut m = Molecule::new();
        let f = m.add_atom(Element::F);
        let c1 = m.add_atom(Element::C);
        let c2 = m.add_atom(Element::C);
        m.add_bond(f, c1, BondOrder::Single).unwrap();
        m.add_bond(f, c2, BondOrder::Single).unwrap();
        m.add_bond(c1, c2, BondOrder::Single).unwrap();
        let s = sanitize(&m).unwrap();
        assert!(crate::valence::valences_ok(&s.molecule));
        assert!(s.bonds_removed >= 1);
        assert!(s.molecule.is_connected());
    }

    #[test]
    fn largest_fragment_is_kept() {
        let mut m = Molecule::new();
        // Fragment 1: three carbons in a chain.
        for _ in 0..3 {
            m.add_atom(Element::C);
        }
        m.add_bond(0, 1, BondOrder::Single).unwrap();
        m.add_bond(1, 2, BondOrder::Single).unwrap();
        // Fragment 2: lone oxygen.
        m.add_atom(Element::O);
        let s = sanitize(&m).unwrap();
        assert_eq!(s.molecule.n_atoms(), 3);
        assert_eq!(s.atoms_dropped, 1);
        assert!(is_valid(&s.molecule));
    }

    #[test]
    fn empty_molecule_errors() {
        assert!(sanitize(&Molecule::new()).is_err());
    }

    #[test]
    fn sanitize_always_terminates_on_dense_garbage() {
        // Fully connected K5 of carbons with double bonds: grossly invalid.
        let mut m = Molecule::new();
        for _ in 0..5 {
            m.add_atom(Element::C);
        }
        for i in 0..5 {
            for j in (i + 1)..5 {
                m.add_bond(i, j, BondOrder::Double).unwrap();
            }
        }
        let s = sanitize(&m).unwrap();
        assert!(crate::valence::valences_ok(&s.molecule));
        assert!(!s.molecule.is_empty());
    }
}
