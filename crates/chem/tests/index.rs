//! The adjacency index against brute-force scans of the bond list.
//!
//! `Molecule` answers per-atom queries from per-atom bond lists, ring
//! perception searches over those lists, and `sanitize` repairs bonds in
//! place. The oracles below answer the same questions by scanning every
//! bond, perceive rings with a full bond scan per search step, and rebuild
//! the molecule after every repair. Every answer must match exactly, on
//! random graphs that are mostly invalid (overloaded, disconnected, fused
//! rings).

use proptest::prelude::*;
use sqvae_chem::rings::{perceive_rings, RingInfo};
use sqvae_chem::sanitize::{sanitize, Sanitized};
use sqvae_chem::valence::valence_violations;
use sqvae_chem::{Bond, BondOrder, Element, Molecule, Result};
use std::collections::VecDeque;

/// Random graphs: up to 15 atoms and 40 attempted bonds of any order.
/// Self-bonds and duplicates are skipped, so the result is a simple graph.
fn arb_graph() -> impl Strategy<Value = Molecule> {
    (
        proptest::collection::vec(0usize..5, 1..16),
        proptest::collection::vec((0usize..16, 0usize..16, 0usize..4), 0..40),
    )
        .prop_map(|(elements, bonds)| {
            let mut mol = Molecule::new();
            for e in elements {
                mol.add_atom(Element::ALL[e]);
            }
            let n = mol.n_atoms();
            for (a, b, order) in bonds {
                let _ = mol.add_bond(a % n, b % n, BondOrder::ALL[order]);
            }
            mol
        })
}

fn scan_neighbors(m: &Molecule, i: usize) -> Vec<(usize, BondOrder)> {
    m.bonds()
        .iter()
        .filter_map(|bd| bd.other(i).map(|o| (o, bd.order)))
        .collect()
}

fn scan_bond_indices(m: &Molecule, i: usize) -> Vec<usize> {
    (0..m.n_bonds())
        .filter(|&k| m.bonds()[k].other(i).is_some())
        .collect()
}

fn scan_valence(m: &Molecule, i: usize) -> f64 {
    m.bonds()
        .iter()
        .filter(|bd| bd.other(i).is_some())
        .map(|bd| bd.order.valence_contribution())
        .sum()
}

fn scan_bond_between(m: &Molecule, a: usize, b: usize) -> Option<&Bond> {
    let key = Bond::new(a, b, BondOrder::Single);
    m.bonds().iter().find(|bd| bd.a == key.a && bd.b == key.b)
}

fn scan_components(m: &Molecule) -> Vec<Vec<usize>> {
    let mut seen = vec![false; m.n_atoms()];
    let mut components = Vec::new();
    for start in 0..m.n_atoms() {
        if seen[start] {
            continue;
        }
        let mut comp = Vec::new();
        let mut queue = VecDeque::from([start]);
        seen[start] = true;
        while let Some(u) = queue.pop_front() {
            comp.push(u);
            for (v, _) in scan_neighbors(m, u) {
                if !seen[v] {
                    seen[v] = true;
                    queue.push_back(v);
                }
            }
        }
        comp.sort_unstable();
        components.push(comp);
    }
    components
}

/// Ring perception by one full BFS per bond over a scan of every bond.
fn scan_rings(m: &Molecule) -> RingInfo {
    let n = m.n_atoms();
    let mut rings: Vec<Vec<usize>> = Vec::new();
    let mut atom_in_ring = vec![false; n];
    let mut bond_in_ring = vec![false; m.n_bonds()];
    for (bidx, bond) in m.bonds().iter().enumerate() {
        let mut prev = vec![usize::MAX; n];
        let mut seen = vec![false; n];
        let mut queue = VecDeque::from([bond.a]);
        seen[bond.a] = true;
        let mut path = None;
        while let Some(u) = queue.pop_front() {
            if u == bond.b {
                let mut p = vec![bond.b];
                let mut cur = bond.b;
                while cur != bond.a {
                    cur = prev[cur];
                    p.push(cur);
                }
                path = Some(p);
                break;
            }
            for (k, bd) in m.bonds().iter().enumerate() {
                if k == bidx {
                    continue;
                }
                if let Some(v) = bd.other(u) {
                    if !seen[v] {
                        seen[v] = true;
                        prev[v] = u;
                        queue.push_back(v);
                    }
                }
            }
        }
        if let Some(mut ring) = path {
            ring.sort_unstable();
            ring.dedup();
            bond_in_ring[bidx] = true;
            for &a in &ring {
                atom_in_ring[a] = true;
            }
            if !rings.contains(&ring) {
                rings.push(ring);
            }
        }
    }
    rings.sort_by_key(|r| (r.len(), r.clone()));
    RingInfo {
        rings,
        atom_in_ring,
        bond_in_ring,
    }
}

/// Sanitization that rebuilds the molecule after every repair.
fn rebuild_sanitize(mol: &Molecule) -> Result<Sanitized> {
    let was_valid = sqvae_chem::valence::is_valid(mol);
    let atoms = mol.atoms().to_vec();
    let mut bonds: Vec<Bond> = mol.bonds().to_vec();
    let (mut removed, mut demoted) = (0, 0);
    loop {
        let work = Molecule::from_parts(atoms.clone(), bonds.iter().map(|b| (b.a, b.b, b.order)))?;
        let mut worst: Option<(usize, f64)> = None;
        for i in 0..work.n_atoms() {
            let excess = scan_valence(&work, i) - work.element(i).max_valence() as f64;
            if excess > 1e-9 && worst.map_or(true, |(_, e)| excess > e) {
                worst = Some((i, excess));
            }
        }
        let Some((atom, _)) = worst else {
            break;
        };
        let (bidx, _) = bonds
            .iter()
            .enumerate()
            .filter(|(_, b)| b.other(atom).is_some())
            .max_by(|(_, x), (_, y)| {
                x.order
                    .valence_contribution()
                    .partial_cmp(&y.order.valence_contribution())
                    .expect("finite")
            })
            .expect("an overloaded atom has a bond");
        match bonds[bidx].order {
            BondOrder::Triple => {
                bonds[bidx].order = BondOrder::Double;
                demoted += 1;
            }
            BondOrder::Double => {
                bonds[bidx].order = BondOrder::Single;
                demoted += 1;
            }
            BondOrder::Single | BondOrder::Aromatic => {
                bonds.swap_remove(bidx);
                removed += 1;
            }
        }
    }
    let repaired = Molecule::from_parts(atoms, bonds.iter().map(|b| (b.a, b.b, b.order)))?;
    let fragment = repaired.largest_fragment()?;
    Ok(Sanitized {
        atoms_dropped: repaired.n_atoms() - fragment.n_atoms(),
        molecule: fragment,
        bonds_removed: removed,
        bonds_demoted: demoted,
        was_valid,
    })
}

/// Checks every indexed query of `m` against its scan.
fn queries_match(m: &Molecule) -> std::result::Result<(), TestCaseError> {
    for i in 0..m.n_atoms() {
        prop_assert_eq!(m.neighbors(i).collect::<Vec<_>>(), scan_neighbors(m, i));
        prop_assert_eq!(m.bond_indices(i), &scan_bond_indices(m, i)[..]);
        prop_assert_eq!(m.degree(i), scan_bond_indices(m, i).len());
        prop_assert_eq!(
            m.explicit_valence(i).to_bits(),
            scan_valence(m, i).to_bits()
        );
        for j in 0..=m.n_atoms() {
            prop_assert_eq!(m.bond_between(i, j), scan_bond_between(m, i, j));
        }
    }
    prop_assert_eq!(m.connected_components(), scan_components(m));
    prop_assert_eq!(
        m.is_connected(),
        !m.is_empty() && scan_components(m).len() == 1
    );
    let violations: Vec<usize> = valence_violations(m).iter().map(|v| v.atom).collect();
    let scanned: Vec<usize> = (0..m.n_atoms())
        .filter(|&i| scan_valence(m, i) > m.element(i).max_valence() as f64 + 1e-9)
        .collect();
    prop_assert_eq!(violations, scanned);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Per-atom queries equal bond scans, on the molecule itself and on
    /// every molecule derived from it: an induced subgraph, the largest
    /// fragment, and a rebuild from its parts with the bonds reversed.
    #[test]
    fn indexed_queries_match_bond_scans(
        mol in arb_graph(),
        keep in proptest::collection::vec(0usize..16, 0..16),
    ) {
        queries_match(&mol)?;
        let keep: Vec<usize> = keep.into_iter().map(|k| k % mol.n_atoms()).collect();
        queries_match(&mol.subgraph(&keep).unwrap())?;
        queries_match(&mol.largest_fragment().unwrap())?;
        let reversed = Molecule::from_parts(
            mol.atoms().to_vec(),
            mol.bonds().iter().rev().map(|b| (b.b, b.a, b.order)),
        )
        .unwrap();
        queries_match(&reversed)?;
    }

    /// Ring perception over the index finds the same rings, in the same
    /// order, with the same atom and bond flags as a full scan per bond.
    #[test]
    fn ring_search_matches_scan_oracle(mol in arb_graph()) {
        prop_assert_eq!(perceive_rings(&mol), scan_rings(&mol));
    }

    /// In-place sanitization makes the same repairs as rebuilding the
    /// molecule after every one: same molecule, bond order and counters.
    #[test]
    fn sanitize_matches_rebuild_oracle(mol in arb_graph()) {
        prop_assert_eq!(sanitize(&mol).unwrap(), rebuild_sanitize(&mol).unwrap());
    }
}
