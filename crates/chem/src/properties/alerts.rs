//! Structural alerts — graph-pattern checks standing in for the Brenk/QED
//! SMARTS alert set (SMARTS needs RDKit; these are the subset expressible on
//! this reproduction's element/bond vocabulary).

use crate::bond::BondOrder;
use crate::element::Element;
use crate::molecule::Molecule;
use crate::rings::RingInfo;

/// Counts structural-alert hits used by QED's `ALERTS` descriptor.
///
/// Checks (each counts once per occurrence):
/// * heteroatom–heteroatom single bonds (N–N, O–O, S–S, N–O …)
/// * cumulated double bonds (allene-like C=C=C)
/// * three-membered rings containing a heteroatom (epoxide/aziridine-like)
/// * acyl halide-like carbon (C with =O and –F)
/// * macrocycles (ring size > 8)
/// * long unbranched aliphatic chains (≥ 8 consecutive sp3 CH₂)
pub fn count_alerts(mol: &Molecule, rings: &RingInfo) -> usize {
    let mut alerts = 0usize;

    // Heteroatom-heteroatom single bonds.
    for b in mol.bonds() {
        let ea = mol.element(b.a);
        let eb = mol.element(b.b);
        if ea != Element::C && eb != Element::C && b.order == BondOrder::Single {
            alerts += 1;
        }
    }

    // Cumulated double bonds: an atom with two double bonds to carbons.
    for i in 0..mol.n_atoms() {
        if mol.element(i) != Element::C {
            continue;
        }
        let doubles = mol
            .neighbors(i)
            .filter(|&(_, o)| o == BondOrder::Double)
            .count();
        if doubles >= 2 {
            alerts += 1;
        }
    }

    // Strained 3-rings with a heteroatom.
    for ring in &rings.rings {
        if ring.len() == 3 && ring.iter().any(|&a| mol.element(a) != Element::C) {
            alerts += 1;
        }
    }

    // Acyl halide-like: C(=O)F.
    for i in 0..mol.n_atoms() {
        if mol.element(i) != Element::C {
            continue;
        }
        let has_carbonyl = mol
            .neighbors(i)
            .any(|(n, o)| mol.element(n) == Element::O && o == BondOrder::Double);
        let has_f = mol.neighbors(i).any(|(n, _)| mol.element(n) == Element::F);
        if has_carbonyl && has_f {
            alerts += 1;
        }
    }

    // Macrocycles.
    alerts += rings.n_macrocycles();

    // Long unbranched aliphatic chain: walk maximal CH2 paths.
    alerts += long_chain_alerts(mol, rings);

    alerts
}

fn long_chain_alerts(mol: &Molecule, rings: &RingInfo) -> usize {
    // Count carbons that are: not in a ring, exactly 2 single-bonded carbon
    // neighbors — then find the longest run via DFS over that subgraph.
    let chainlike: Vec<bool> = (0..mol.n_atoms())
        .map(|i| {
            mol.element(i) == Element::C
                && !rings.atom_in_ring[i]
                && mol.degree(i) == 2
                && mol
                    .neighbors(i)
                    .all(|(n, o)| mol.element(n) == Element::C && o == BondOrder::Single)
        })
        .collect();
    let mut best = 0usize;
    let mut seen = vec![false; mol.n_atoms()];
    for start in 0..mol.n_atoms() {
        if !chainlike[start] || seen[start] {
            continue;
        }
        // Runs are simple paths; flood-fill the run.
        let mut len = 0;
        let mut stack = vec![start];
        seen[start] = true;
        while let Some(u) = stack.pop() {
            len += 1;
            for (v, _) in mol.neighbors(u) {
                if chainlike[v] && !seen[v] {
                    seen[v] = true;
                    stack.push(v);
                }
            }
        }
        best = best.max(len);
    }
    usize::from(best >= 8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rings::perceive_rings;

    fn alerts_of(mol: &Molecule) -> usize {
        count_alerts(mol, &perceive_rings(mol))
    }

    #[test]
    fn clean_molecules_have_no_alerts() {
        let mut m = Molecule::new();
        let c1 = m.add_atom(Element::C);
        let c2 = m.add_atom(Element::C);
        let o = m.add_atom(Element::O);
        m.add_bond(c1, c2, BondOrder::Single).unwrap();
        m.add_bond(c2, o, BondOrder::Single).unwrap();
        assert_eq!(alerts_of(&m), 0);
    }

    #[test]
    fn peroxide_flags() {
        let mut m = Molecule::new();
        let c = m.add_atom(Element::C);
        let o1 = m.add_atom(Element::O);
        let o2 = m.add_atom(Element::O);
        m.add_bond(c, o1, BondOrder::Single).unwrap();
        m.add_bond(o1, o2, BondOrder::Single).unwrap();
        assert_eq!(alerts_of(&m), 1);
    }

    #[test]
    fn allene_flags() {
        let mut m = Molecule::new();
        for _ in 0..3 {
            m.add_atom(Element::C);
        }
        m.add_bond(0, 1, BondOrder::Double).unwrap();
        m.add_bond(1, 2, BondOrder::Double).unwrap();
        assert_eq!(alerts_of(&m), 1);
    }

    #[test]
    fn epoxide_flags() {
        let mut m = Molecule::new();
        let c1 = m.add_atom(Element::C);
        let c2 = m.add_atom(Element::C);
        let o = m.add_atom(Element::O);
        m.add_bond(c1, c2, BondOrder::Single).unwrap();
        m.add_bond(c2, o, BondOrder::Single).unwrap();
        m.add_bond(o, c1, BondOrder::Single).unwrap();
        assert!(alerts_of(&m) >= 1);
    }

    #[test]
    fn acyl_fluoride_flags() {
        let mut m = Molecule::new();
        let c = m.add_atom(Element::C);
        let o = m.add_atom(Element::O);
        let f = m.add_atom(Element::F);
        m.add_bond(c, o, BondOrder::Double).unwrap();
        m.add_bond(c, f, BondOrder::Single).unwrap();
        assert_eq!(alerts_of(&m), 1);
    }

    #[test]
    fn long_chain_flags_once() {
        let mut m = Molecule::new();
        for _ in 0..12 {
            m.add_atom(Element::C);
        }
        for i in 0..11 {
            m.add_bond(i, i + 1, BondOrder::Single).unwrap();
        }
        assert_eq!(alerts_of(&m), 1);
        // Short chain: no alert.
        let mut s = Molecule::new();
        for _ in 0..5 {
            s.add_atom(Element::C);
        }
        for i in 0..4 {
            s.add_bond(i, i + 1, BondOrder::Single).unwrap();
        }
        assert_eq!(alerts_of(&s), 0);
    }
}
