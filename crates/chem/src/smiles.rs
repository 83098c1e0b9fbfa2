//! A small SMILES writer and parser.
//!
//! Covers exactly the chemistry this reproduction can produce: the five
//! heavy elements C/N/O/F/S, bond orders single/double/triple/aromatic,
//! branches, and ring closures. Aromatic bonds are written explicitly with
//! `:` (atoms stay uppercase), so strings round-trip through this crate's
//! own parser; hydrogens remain implicit.
//!
//! This is the human-readable inspection format for sampled ligands (the
//! paper's RDKit workflow would render SMILES for the same purpose).

use crate::bond::BondOrder;
use crate::element::Element;
use crate::error::{ChemError, Result};
use crate::molecule::Molecule;
use std::collections::HashMap;

/// Writes a molecule as SMILES. Disconnected components are joined with `.`.
///
/// # Errors
///
/// Returns [`ChemError::EmptyMolecule`] for an empty molecule.
///
/// # Examples
///
/// ```
/// use sqvae_chem::{smiles, BondOrder, Element, Molecule};
///
/// let mut mol = Molecule::new();
/// let c = mol.add_atom(Element::C);
/// let o = mol.add_atom(Element::O);
/// mol.add_bond(c, o, BondOrder::Double)?;
/// assert_eq!(smiles::write(&mol)?, "C=O");
/// # Ok::<(), sqvae_chem::ChemError>(())
/// ```
pub fn write(mol: &Molecule) -> Result<String> {
    if mol.is_empty() {
        return Err(ChemError::EmptyMolecule);
    }
    let mut out = String::new();
    let mut visited = vec![false; mol.n_atoms()];
    // Ring-closure bookkeeping: bond key -> digit.
    let mut closures: HashMap<(usize, usize), usize> = HashMap::new();
    let mut next_digit = 1usize;

    // First pass per component: find non-tree (ring) bonds via DFS.
    let mut first = true;
    for comp in mol.connected_components() {
        if !first {
            out.push('.');
        }
        first = false;
        let root = comp[0];
        let mut tree_parent = vec![usize::MAX; mol.n_atoms()];
        let mut order = Vec::new();
        dfs_tree(
            mol,
            root,
            &mut vec![false; mol.n_atoms()],
            &mut tree_parent,
            &mut order,
        );
        // Ring bonds: bonds within the component not used by the tree.
        for bd in mol.bonds() {
            if comp.binary_search(&bd.a).is_err() {
                continue;
            }
            let is_tree = tree_parent[bd.a] == bd.b || tree_parent[bd.b] == bd.a;
            if !is_tree {
                closures.insert((bd.a, bd.b), next_digit);
                next_digit += 1;
            }
        }
        write_atom(mol, root, usize::MAX, &mut visited, &closures, &mut out);
    }
    Ok(out)
}

fn dfs_tree(
    mol: &Molecule,
    u: usize,
    seen: &mut Vec<bool>,
    parent: &mut Vec<usize>,
    order: &mut Vec<usize>,
) {
    seen[u] = true;
    order.push(u);
    let mut nbrs = mol.neighbors(u);
    nbrs.sort_by_key(|&(v, _)| v);
    for (v, _) in nbrs {
        if !seen[v] {
            parent[v] = u;
            dfs_tree(mol, v, seen, parent, order);
        }
    }
}

fn push_bond(order: BondOrder, out: &mut String) {
    if order != BondOrder::Single {
        out.push(order.smiles_symbol());
    }
}

fn write_atom(
    mol: &Molecule,
    u: usize,
    parent: usize,
    visited: &mut Vec<bool>,
    closures: &HashMap<(usize, usize), usize>,
    out: &mut String,
) {
    visited[u] = true;
    out.push_str(mol.element(u).symbol());

    let mut nbrs = mol.neighbors(u);
    nbrs.sort_by_key(|&(v, _)| v);

    // Emit ring-closure digits at this atom.
    for &(v, order) in &nbrs {
        let key = if u < v { (u, v) } else { (v, u) };
        if let Some(&digit) = closures.get(&key) {
            // Write the bond symbol at the first endpoint encountered.
            if !visited[v] {
                push_bond(order, out);
            }
            if digit < 10 {
                out.push_str(&digit.to_string());
            } else {
                out.push('%');
                out.push_str(&format!("{digit:02}"));
            }
        }
    }

    // Recurse into unvisited tree children.
    let children: Vec<(usize, BondOrder)> = nbrs
        .into_iter()
        .filter(|&(v, _)| {
            let key = if u < v { (u, v) } else { (v, u) };
            v != parent && !visited[v] && !closures.contains_key(&key)
        })
        .collect();
    let n = children.len();
    for (i, (v, order)) in children.into_iter().enumerate() {
        if visited[v] {
            continue; // may have been reached through an earlier branch
        }
        let last = i == n - 1;
        if !last {
            out.push('(');
        }
        push_bond(order, out);
        write_atom(mol, v, u, visited, closures, out);
        if !last {
            out.push(')');
        }
    }
}

/// Parses a SMILES string produced by [`write`](fn@write) (uppercase atoms, explicit
/// `:` aromatic bonds, digit/`%nn` ring closures, `.` separators).
///
/// # Errors
///
/// Returns [`ChemError::ParseSmiles`] with the byte position for malformed
/// input, including unclosed branches and dangling ring closures.
pub fn parse(s: &str) -> Result<Molecule> {
    let bytes = s.as_bytes();
    let mut mol = Molecule::new();
    let mut stack: Vec<usize> = Vec::new();
    let mut prev: Option<usize> = None;
    let mut pending_bond: Option<BondOrder> = None;
    let mut ring_open: HashMap<usize, (usize, Option<BondOrder>)> = HashMap::new();
    let mut i = 0usize;

    let err = |position: usize, message: &str| ChemError::ParseSmiles {
        position,
        message: message.to_string(),
    };

    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            'C' | 'N' | 'O' | 'F' | 'S' => {
                let e = Element::from_symbol(&c.to_string()).expect("matched");
                let atom = mol.add_atom(e);
                if let Some(p) = prev {
                    let order = pending_bond.take().unwrap_or(BondOrder::Single);
                    mol.add_bond(p, atom, order)
                        .map_err(|_| err(i, "duplicate or invalid bond"))?;
                }
                prev = Some(atom);
                i += 1;
            }
            '-' | '=' | '#' | ':' => {
                if pending_bond.is_some() {
                    return Err(err(i, "two consecutive bond symbols"));
                }
                pending_bond = BondOrder::from_smiles_symbol(c);
                i += 1;
            }
            '(' => {
                let p = prev.ok_or_else(|| err(i, "branch before any atom"))?;
                stack.push(p);
                i += 1;
            }
            ')' => {
                prev = Some(stack.pop().ok_or_else(|| err(i, "unmatched ')'"))?);
                i += 1;
            }
            '.' => {
                prev = None;
                pending_bond = None;
                i += 1;
            }
            '0'..='9' | '%' => {
                let (digit, consumed) = if c == '%' {
                    if i + 3 > bytes.len() {
                        return Err(err(i, "truncated %nn ring closure"));
                    }
                    let two = &s[i + 1..i + 3];
                    let d: usize = two
                        .parse()
                        .map_err(|_| err(i, "malformed %nn ring closure"))?;
                    (d, 3)
                } else {
                    ((c as u8 - b'0') as usize, 1)
                };
                let atom = prev.ok_or_else(|| err(i, "ring closure before any atom"))?;
                let bond = pending_bond.take();
                match ring_open.remove(&digit) {
                    Some((other, opened_bond)) => {
                        let order = bond.or(opened_bond).unwrap_or(BondOrder::Single);
                        mol.add_bond(other, atom, order)
                            .map_err(|_| err(i, "invalid ring-closure bond"))?;
                    }
                    None => {
                        ring_open.insert(digit, (atom, bond));
                    }
                }
                i += consumed;
            }
            ' ' => {
                i += 1;
            }
            other => {
                return Err(err(i, &format!("unexpected character '{other}'")));
            }
        }
    }
    if !stack.is_empty() {
        return Err(err(s.len(), "unclosed '('"));
    }
    if !ring_open.is_empty() {
        return Err(err(s.len(), "dangling ring closure"));
    }
    if mol.is_empty() {
        return Err(ChemError::EmptyMolecule);
    }
    Ok(mol)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn invariants(m: &Molecule) -> (String, usize, Vec<(Element, usize, u64)>) {
        let mut per_atom: Vec<(Element, usize, u64)> = (0..m.n_atoms())
            .map(|i| {
                (
                    m.element(i),
                    m.degree(i),
                    (m.explicit_valence(i) * 2.0).round() as u64,
                )
            })
            .collect();
        per_atom.sort();
        (m.formula(), m.n_bonds(), per_atom)
    }

    fn round_trip(m: &Molecule) {
        let s = write(m).unwrap();
        let back = parse(&s).unwrap();
        assert_eq!(invariants(m), invariants(&back), "smiles: {s}");
    }

    #[test]
    fn linear_chain() {
        let mut m = Molecule::new();
        let c1 = m.add_atom(Element::C);
        let c2 = m.add_atom(Element::C);
        let o = m.add_atom(Element::O);
        m.add_bond(c1, c2, BondOrder::Single).unwrap();
        m.add_bond(c2, o, BondOrder::Single).unwrap();
        assert_eq!(write(&m).unwrap(), "CCO");
        round_trip(&m);
    }

    #[test]
    fn double_bond_symbol() {
        let mut m = Molecule::new();
        let c = m.add_atom(Element::C);
        let o = m.add_atom(Element::O);
        m.add_bond(c, o, BondOrder::Double).unwrap();
        assert_eq!(write(&m).unwrap(), "C=O");
        round_trip(&m);
    }

    #[test]
    fn branching() {
        // Isobutane-like: central C with three C neighbors.
        let mut m = Molecule::new();
        let c = m.add_atom(Element::C);
        for _ in 0..3 {
            let n = m.add_atom(Element::C);
            m.add_bond(c, n, BondOrder::Single).unwrap();
        }
        let s = write(&m).unwrap();
        assert!(s.contains('('), "expected branch in {s}");
        round_trip(&m);
    }

    #[test]
    fn benzene_ring_closure() {
        let mut m = Molecule::new();
        for _ in 0..6 {
            m.add_atom(Element::C);
        }
        for i in 0..6 {
            m.add_bond(i, (i + 1) % 6, BondOrder::Aromatic).unwrap();
        }
        let s = write(&m).unwrap();
        assert!(s.contains('1'), "ring digit expected in {s}");
        round_trip(&m);
    }

    #[test]
    fn disconnected_components_use_dot() {
        let mut m = Molecule::new();
        m.add_atom(Element::C);
        m.add_atom(Element::O);
        let s = write(&m).unwrap();
        assert_eq!(s, "C.O");
        round_trip(&m);
    }

    #[test]
    fn triple_bond_round_trip() {
        let mut m = Molecule::new();
        let c = m.add_atom(Element::C);
        let n = m.add_atom(Element::N);
        m.add_bond(c, n, BondOrder::Triple).unwrap();
        assert_eq!(write(&m).unwrap(), "C#N");
        round_trip(&m);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("CX").is_err());
        assert!(parse("C(C").is_err());
        assert!(parse("C1CC").is_err()); // dangling ring closure
        assert!(parse(")C").is_err());
        assert!(parse("C==O").is_err());
        assert!(parse("").is_err());
        assert!(parse("C1CC%1").is_err()); // truncated %nn ring closure
        assert!(parse("C1CC%").is_err());
        assert!(parse("C%ab").is_err()); // non-digit %nn closure
    }

    #[test]
    fn parse_standard_examples() {
        let caffeine_like = parse("CN1C=NC2C1C(=O)N(C)C(=O)N2C");
        assert!(caffeine_like.is_ok());
        let m = caffeine_like.unwrap();
        assert!(m.is_connected());
        assert_eq!(m.count_element(Element::N), 4);
    }

    #[test]
    fn fused_rings_round_trip() {
        // Naphthalene skeleton.
        let mut m = Molecule::new();
        for _ in 0..10 {
            m.add_atom(Element::C);
        }
        for i in 0..5 {
            m.add_bond(i, i + 1, BondOrder::Aromatic).unwrap();
        }
        m.add_bond(5, 0, BondOrder::Aromatic).unwrap();
        m.add_bond(5, 6, BondOrder::Aromatic).unwrap();
        for i in 6..9 {
            m.add_bond(i, i + 1, BondOrder::Aromatic).unwrap();
        }
        m.add_bond(9, 0, BondOrder::Aromatic).unwrap();
        round_trip(&m);
    }

    #[test]
    fn ring_bond_order_survives() {
        // Cyclohexene: one double bond in a 6-ring.
        let mut m = Molecule::new();
        for _ in 0..6 {
            m.add_atom(Element::C);
        }
        m.add_bond(0, 1, BondOrder::Double).unwrap();
        for i in 1..6 {
            m.add_bond(i, (i + 1) % 6, BondOrder::Single).unwrap();
        }
        round_trip(&m);
        let s = write(&m).unwrap();
        let back = parse(&s).unwrap();
        let doubles = back
            .bonds()
            .iter()
            .filter(|b| b.order == BondOrder::Double)
            .count();
        assert_eq!(doubles, 1);
    }
}
