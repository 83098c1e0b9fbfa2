//! Basic physico-chemical descriptors: molecular weight, hydrogen-bond
//! donors/acceptors, topological polar surface area, rotatable bonds.
//!
//! TPSA uses a reduced Ertl fragment-contribution table covering the N/O/S
//! environments producible by this reproduction's element set; values are
//! the published contributions for those environments.

use crate::bond::BondOrder;
use crate::element::Element;
use crate::molecule::Molecule;
use crate::rings::RingInfo;

/// Molecular weight in g/mol, counting implicit hydrogens at 1.008.
pub fn molecular_weight(mol: &Molecule) -> f64 {
    let heavy: f64 = mol.atoms().iter().map(|a| a.atomic_weight()).sum();
    heavy + 1.008 * mol.total_hydrogens() as f64
}

/// Hydrogen-bond acceptors: the Lipinski count of N and O atoms.
pub fn hb_acceptors(mol: &Molecule) -> usize {
    mol.atoms()
        .iter()
        .filter(|a| a.is_hetero_acceptor())
        .count()
}

/// Hydrogen-bond donors: N or O atoms carrying at least one hydrogen.
pub fn hb_donors(mol: &Molecule) -> usize {
    (0..mol.n_atoms())
        .filter(|&i| mol.element(i).is_hetero_acceptor() && mol.implicit_hydrogens(i) > 0)
        .count()
}

/// Whether atom `i` participates in any aromatic bond.
fn is_aromatic_atom(mol: &Molecule, i: usize) -> bool {
    mol.neighbors(i).any(|(_, o)| o == BondOrder::Aromatic)
}

/// Whether atom `i` has a double bond.
fn has_double_bond(mol: &Molecule, i: usize) -> bool {
    mol.neighbors(i).any(|(_, o)| o == BondOrder::Double)
}

/// Topological polar surface area (Ertl-style, reduced table), in Å².
pub fn tpsa(mol: &Molecule) -> f64 {
    let mut total = 0.0;
    for i in 0..mol.n_atoms() {
        let h = mol.implicit_hydrogens(i);
        let aromatic = is_aromatic_atom(mol, i);
        let double = has_double_bond(mol, i);
        total += match mol.element(i) {
            Element::N => match (aromatic, h) {
                (true, 0) => 12.89,
                (true, _) => 15.79,
                (false, 0) => {
                    if double {
                        12.36 // imine-like =N-
                    } else {
                        3.24 // tertiary amine
                    }
                }
                (false, 1) => 12.03,
                (false, _) => 26.02,
            },
            Element::O => match (aromatic, h, double) {
                (true, _, _) => 13.14, // aromatic ring oxygen
                (_, 0, true) => 17.07, // carbonyl =O
                (_, 0, false) => 9.23, // ether
                (_, _, _) => 20.23,    // hydroxyl
            },
            Element::S => match (aromatic, h) {
                (true, _) => 28.24,
                (false, 0) => 25.30,
                (false, _) => 38.80,
            },
            Element::C | Element::F => 0.0,
        };
    }
    total
}

/// Rotatable bonds: non-ring single bonds between two non-terminal heavy
/// atoms. (The amide-bond exclusion of the strict definition is omitted —
/// documented in DESIGN.md.)
pub fn rotatable_bonds(mol: &Molecule, rings: &RingInfo) -> usize {
    mol.bonds()
        .iter()
        .enumerate()
        .filter(|(idx, b)| {
            b.order == BondOrder::Single
                && !rings.bond_in_ring[*idx]
                && mol.degree(b.a) >= 2
                && mol.degree(b.b) >= 2
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rings::perceive_rings;

    fn ethanol() -> Molecule {
        let mut m = Molecule::new();
        let c1 = m.add_atom(Element::C);
        let c2 = m.add_atom(Element::C);
        let o = m.add_atom(Element::O);
        m.add_bond(c1, c2, BondOrder::Single).unwrap();
        m.add_bond(c2, o, BondOrder::Single).unwrap();
        m
    }

    #[test]
    fn ethanol_molecular_weight() {
        // C2H6O = 2·12.011 + 6·1.008 + 15.999 = 46.069.
        let mw = molecular_weight(&ethanol());
        assert!((mw - 46.069).abs() < 0.01, "{mw}");
    }

    #[test]
    fn ethanol_h_bonding() {
        let m = ethanol();
        assert_eq!(hb_acceptors(&m), 1);
        assert_eq!(hb_donors(&m), 1);
    }

    #[test]
    fn ether_is_acceptor_not_donor() {
        // Dimethyl ether: C-O-C.
        let mut m = Molecule::new();
        let c1 = m.add_atom(Element::C);
        let o = m.add_atom(Element::O);
        let c2 = m.add_atom(Element::C);
        m.add_bond(c1, o, BondOrder::Single).unwrap();
        m.add_bond(o, c2, BondOrder::Single).unwrap();
        assert_eq!(hb_acceptors(&m), 1);
        assert_eq!(hb_donors(&m), 0);
    }

    #[test]
    fn tpsa_known_environments() {
        // Ethanol: one OH = 20.23.
        assert!((tpsa(&ethanol()) - 20.23).abs() < 1e-9);
        // Acetone-like C-C(=O)-C: one carbonyl O = 17.07.
        let mut m = Molecule::new();
        let c1 = m.add_atom(Element::C);
        let c2 = m.add_atom(Element::C);
        let c3 = m.add_atom(Element::C);
        let o = m.add_atom(Element::O);
        m.add_bond(c1, c2, BondOrder::Single).unwrap();
        m.add_bond(c2, c3, BondOrder::Single).unwrap();
        m.add_bond(c2, o, BondOrder::Double).unwrap();
        assert!((tpsa(&m) - 17.07).abs() < 1e-9);
    }

    #[test]
    fn hydrocarbons_have_zero_tpsa() {
        let mut m = Molecule::new();
        for _ in 0..6 {
            m.add_atom(Element::C);
        }
        for i in 0..5 {
            m.add_bond(i, i + 1, BondOrder::Single).unwrap();
        }
        assert_eq!(tpsa(&m), 0.0);
    }

    #[test]
    fn rotatable_bonds_exclude_terminal_and_ring() {
        // Butane C-C-C-C: only the central bond is rotatable.
        let mut m = Molecule::new();
        for _ in 0..4 {
            m.add_atom(Element::C);
        }
        for i in 0..3 {
            m.add_bond(i, i + 1, BondOrder::Single).unwrap();
        }
        let rings = perceive_rings(&m);
        assert_eq!(rotatable_bonds(&m, &rings), 1);

        // Cyclohexane: all bonds in-ring, none rotatable.
        let mut r = Molecule::new();
        for _ in 0..6 {
            r.add_atom(Element::C);
        }
        for i in 0..6 {
            r.add_bond(i, (i + 1) % 6, BondOrder::Single).unwrap();
        }
        let rr = perceive_rings(&r);
        assert_eq!(rotatable_bonds(&r, &rr), 0);
    }

    #[test]
    fn empty_molecule_descriptors_are_zero() {
        let m = Molecule::new();
        assert_eq!(molecular_weight(&m), 0.0);
        assert_eq!(hb_acceptors(&m), 0);
        assert_eq!(hb_donors(&m), 0);
        assert_eq!(tpsa(&m), 0.0);
    }
}
