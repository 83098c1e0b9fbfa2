//! The molecular graph.
//!
//! A [`Molecule`] holds its atoms, its bonds, and one adjacency index: for
//! every atom, the indices into [`Molecule::bonds`] of the bonds that touch
//! it, in bond order ([`Molecule::bond_indices`]). Every per-atom query
//! reads that index, so [`Molecule::neighbors`], [`Molecule::degree`],
//! [`Molecule::explicit_valence`] and [`Molecule::bond_between`] cost
//! O(degree) rather than a scan of every bond, and a breadth-first search
//! over the whole graph ([`Molecule::connected_components`],
//! [`Molecule::is_connected`]) costs O(atoms + bonds). Because each list keeps
//! bond order, an atom's neighbors come out in the order a scan of the bond
//! list would meet them, and sums over them add in that same order.
//!
//! [`Molecule::add_atom`], [`Molecule::add_bond`], [`Molecule::from_parts`]
//! and [`Molecule::subgraph`] are the only ways to build or grow a molecule,
//! and each keeps the index in step with the bond list.

use crate::bond::BondOrder;
use crate::element::Element;
use crate::error::{ChemError, Result};

/// A bond between two heavy atoms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Bond {
    /// Lower atom index.
    pub a: usize,
    /// Higher atom index.
    pub b: usize,
    /// Bond order.
    pub order: BondOrder,
}

impl Bond {
    /// Creates a normalized bond (endpoints sorted).
    pub fn new(a: usize, b: usize, order: BondOrder) -> Self {
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        Bond { a, b, order }
    }

    /// The endpoint opposite `atom`, if `atom` is an endpoint.
    pub fn other(&self, atom: usize) -> Option<usize> {
        if atom == self.a {
            Some(self.b)
        } else if atom == self.b {
            Some(self.a)
        } else {
            None
        }
    }
}

/// An undirected molecular graph over heavy atoms with implicit hydrogens.
///
/// Two molecules are equal when they have the same atoms and the same bonds
/// in the same order; the adjacency index follows from those.
///
/// # Examples
///
/// Ethanol (CCO):
///
/// ```
/// use sqvae_chem::{BondOrder, Element, Molecule};
///
/// let mut mol = Molecule::new();
/// let c1 = mol.add_atom(Element::C);
/// let c2 = mol.add_atom(Element::C);
/// let o = mol.add_atom(Element::O);
/// mol.add_bond(c1, c2, BondOrder::Single)?;
/// mol.add_bond(c2, o, BondOrder::Single)?;
/// assert_eq!(mol.implicit_hydrogens(c1), 3);
/// assert_eq!(mol.implicit_hydrogens(o), 1);
/// let around_c2: Vec<_> = mol.neighbors(c2).collect();
/// assert_eq!(around_c2, [(c1, BondOrder::Single), (o, BondOrder::Single)]);
/// assert!(mol.is_connected());
/// # Ok::<(), sqvae_chem::ChemError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Molecule {
    atoms: Vec<Element>,
    bonds: Vec<Bond>,
    /// Per atom, the indices into `bonds` of its bonds, ascending.
    incident: Vec<Vec<usize>>,
}

impl PartialEq for Molecule {
    fn eq(&self, other: &Self) -> bool {
        self.atoms == other.atoms && self.bonds == other.bonds
    }
}

impl Eq for Molecule {}

impl Molecule {
    /// An empty molecule.
    pub fn new() -> Self {
        Molecule::default()
    }

    /// Builds a molecule from parts, validating every bond. Bonds keep the
    /// given order; each duplicate check walks one atom's bond list.
    ///
    /// # Errors
    ///
    /// Returns the first bond-validation error.
    pub fn from_parts(
        atoms: Vec<Element>,
        bonds: impl IntoIterator<Item = (usize, usize, BondOrder)>,
    ) -> Result<Self> {
        let mut mol = Molecule {
            incident: vec![Vec::new(); atoms.len()],
            atoms,
            bonds: Vec::new(),
        };
        for (a, b, order) in bonds {
            mol.add_bond(a, b, order)?;
        }
        Ok(mol)
    }

    /// Appends an atom, returning its index.
    pub fn add_atom(&mut self, element: Element) -> usize {
        self.atoms.push(element);
        self.incident.push(Vec::new());
        self.atoms.len() - 1
    }

    /// Adds a bond between two distinct existing atoms, as the last bond.
    /// The duplicate check costs O(degree).
    ///
    /// # Errors
    ///
    /// Returns [`ChemError::AtomOutOfRange`], [`ChemError::SelfBond`], or
    /// [`ChemError::DuplicateBond`].
    pub fn add_bond(&mut self, a: usize, b: usize, order: BondOrder) -> Result<()> {
        let n = self.atoms.len();
        for idx in [a, b] {
            if idx >= n {
                return Err(ChemError::AtomOutOfRange {
                    index: idx,
                    n_atoms: n,
                });
            }
        }
        if a == b {
            return Err(ChemError::SelfBond { index: a });
        }
        if self.bond_between(a, b).is_some() {
            let (a, b) = if a <= b { (a, b) } else { (b, a) };
            return Err(ChemError::DuplicateBond { a, b });
        }
        self.push_bond(Bond::new(a, b, order));
        Ok(())
    }

    /// Appends a bond known to be new and in range, indexing it at both ends.
    fn push_bond(&mut self, bond: Bond) {
        let idx = self.bonds.len();
        self.incident[bond.a].push(idx);
        self.incident[bond.b].push(idx);
        self.bonds.push(bond);
    }

    /// Number of heavy atoms.
    pub fn n_atoms(&self) -> usize {
        self.atoms.len()
    }

    /// Number of bonds.
    pub fn n_bonds(&self) -> usize {
        self.bonds.len()
    }

    /// Whether the molecule has no atoms.
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Element of atom `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn element(&self, i: usize) -> Element {
        self.atoms[i]
    }

    /// All atoms.
    pub fn atoms(&self) -> &[Element] {
        &self.atoms
    }

    /// All bonds.
    pub fn bonds(&self) -> &[Bond] {
        &self.bonds
    }

    /// Indices into [`bonds`](Self::bonds) of the bonds at atom `i`, in
    /// bond order.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn bond_indices(&self, i: usize) -> &[usize] {
        &self.incident[i]
    }

    /// The bond between `a` and `b`, if any (`None` when either index is out
    /// of range). Walks `a`'s bond list.
    pub fn bond_between(&self, a: usize, b: usize) -> Option<&Bond> {
        self.incident
            .get(a)?
            .iter()
            .map(|&idx| &self.bonds[idx])
            .find(|bd| bd.other(a) == Some(b))
    }

    /// Neighbor atoms of `i` with the connecting bond order, in bond order.
    /// Allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn neighbors(&self, i: usize) -> impl Iterator<Item = (usize, BondOrder)> + '_ {
        self.incident[i].iter().map(move |&idx| {
            let bd = &self.bonds[idx];
            (if bd.a == i { bd.b } else { bd.a }, bd.order)
        })
    }

    /// Number of heavy-atom neighbors of `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn degree(&self, i: usize) -> usize {
        self.incident[i].len()
    }

    /// Sum of bond-order valence contributions at atom `i` (aromatic = 1.5),
    /// added in bond order.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn explicit_valence(&self, i: usize) -> f64 {
        self.incident[i]
            .iter()
            .map(|&idx| self.bonds[idx].order.valence_contribution())
            .sum()
    }

    /// Implicit hydrogens at atom `i`: the element's default valence minus
    /// the explicit valence (clamped at 0, aromatic halves rounded down as
    /// in RDKit's Kekulé-free accounting).
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn implicit_hydrogens(&self, i: usize) -> u8 {
        let explicit = self.explicit_valence(i);
        let slots = self.atoms[i].default_valence() as f64 - explicit;
        if slots <= 0.0 {
            0
        } else {
            slots.floor() as u8
        }
    }

    /// Total hydrogen count over the whole molecule.
    pub fn total_hydrogens(&self) -> u32 {
        (0..self.n_atoms())
            .map(|i| self.implicit_hydrogens(i) as u32)
            .sum()
    }

    /// Whether every atom is reachable from atom 0 (empty molecules count as
    /// disconnected).
    pub fn is_connected(&self) -> bool {
        let n = self.atoms.len();
        n > 0 && self.flood(0, &mut vec![false; n]).len() == n
    }

    /// Breadth-first flood from `start` over atoms not yet `seen`, marking
    /// and returning them in visiting order.
    fn flood(&self, start: usize, seen: &mut [bool]) -> Vec<usize> {
        let mut comp = vec![start];
        seen[start] = true;
        let mut head = 0;
        while let Some(&u) = comp.get(head) {
            head += 1;
            for (v, _) in self.neighbors(u) {
                if !seen[v] {
                    seen[v] = true;
                    comp.push(v);
                }
            }
        }
        comp
    }

    /// Connected components as lists of atom indices (each sorted).
    pub fn connected_components(&self) -> Vec<Vec<usize>> {
        let n = self.atoms.len();
        let mut seen = vec![false; n];
        let mut components = Vec::new();
        for start in 0..n {
            if seen[start] {
                continue;
            }
            let mut comp = self.flood(start, &mut seen);
            comp.sort_unstable();
            components.push(comp);
        }
        components
    }

    /// The induced subgraph on `keep` (indices remapped in sorted order).
    ///
    /// # Errors
    ///
    /// Returns [`ChemError::AtomOutOfRange`] for invalid indices.
    pub fn subgraph(&self, keep: &[usize]) -> Result<Molecule> {
        let n = self.atoms.len();
        let mut sorted: Vec<usize> = keep.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let mut remap = vec![usize::MAX; n];
        let mut atoms = Vec::with_capacity(sorted.len());
        for (new_idx, &old) in sorted.iter().enumerate() {
            if old >= n {
                return Err(ChemError::AtomOutOfRange {
                    index: old,
                    n_atoms: n,
                });
            }
            remap[old] = new_idx;
            atoms.push(self.atoms[old]);
        }
        let mut out = Molecule {
            incident: vec![Vec::new(); atoms.len()],
            atoms,
            bonds: Vec::new(),
        };
        for bd in &self.bonds {
            if remap[bd.a] != usize::MAX && remap[bd.b] != usize::MAX {
                out.push_bond(Bond::new(remap[bd.a], remap[bd.b], bd.order));
            }
        }
        Ok(out)
    }

    /// The largest connected component. Among components of equal size the
    /// one whose lowest atom index is highest wins (the last of them in
    /// [`connected_components`](Self::connected_components) order).
    ///
    /// # Errors
    ///
    /// Returns [`ChemError::EmptyMolecule`] for an empty molecule.
    pub fn largest_fragment(&self) -> Result<Molecule> {
        let comps = self.connected_components();
        let best = comps
            .iter()
            .max_by_key(|c| c.len())
            .ok_or(ChemError::EmptyMolecule)?;
        self.subgraph(best)
    }

    /// Molecular formula like `C2H6O` (Hill order: C, H, then alphabetical).
    pub fn formula(&self) -> String {
        use std::collections::BTreeMap;
        let mut counts: BTreeMap<&str, u32> = BTreeMap::new();
        for &a in &self.atoms {
            *counts.entry(a.symbol()).or_insert(0) += 1;
        }
        let h = self.total_hydrogens();
        let mut out = String::new();
        let mut push = |sym: &str, n: u32| {
            if n == 1 {
                out.push_str(sym);
            } else if n > 1 {
                out.push_str(sym);
                out.push_str(&n.to_string());
            }
        };
        if let Some(&c) = counts.get("C") {
            push("C", c);
            counts.remove("C");
        }
        push("H", h);
        for (sym, n) in counts {
            push(sym, n);
        }
        out
    }

    /// Count of atoms of a given element.
    pub fn count_element(&self, e: Element) -> usize {
        self.atoms.iter().filter(|&&a| a == e).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Benzene as six aromatic-bonded carbons.
    pub(crate) fn benzene() -> Molecule {
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
    fn bond_normalizes_endpoints() {
        let b = Bond::new(5, 2, BondOrder::Double);
        assert_eq!((b.a, b.b), (2, 5));
        assert_eq!(b.other(2), Some(5));
        assert_eq!(b.other(5), Some(2));
        assert_eq!(b.other(3), None);
    }

    #[test]
    fn add_bond_validations() {
        let mut m = Molecule::new();
        let a = m.add_atom(Element::C);
        let b = m.add_atom(Element::C);
        assert!(m.add_bond(a, 7, BondOrder::Single).is_err());
        assert!(m.add_bond(a, a, BondOrder::Single).is_err());
        m.add_bond(a, b, BondOrder::Single).unwrap();
        assert_eq!(
            m.add_bond(b, a, BondOrder::Double).unwrap_err(),
            ChemError::DuplicateBond { a: 0, b: 1 }
        );
    }

    #[test]
    fn implicit_hydrogens_methane_family() {
        let mut m = Molecule::new();
        let c = m.add_atom(Element::C);
        assert_eq!(m.implicit_hydrogens(c), 4); // methane
        let o = m.add_atom(Element::O);
        m.add_bond(c, o, BondOrder::Double).unwrap();
        assert_eq!(m.implicit_hydrogens(c), 2); // formaldehyde CH2=O
        assert_eq!(m.implicit_hydrogens(o), 0);
        assert_eq!(m.formula(), "CH2O");
    }

    #[test]
    fn aromatic_carbon_in_benzene_has_one_hydrogen() {
        let m = benzene();
        for i in 0..6 {
            assert_eq!(m.explicit_valence(i), 3.0);
            assert_eq!(m.implicit_hydrogens(i), 1);
        }
        assert_eq!(m.formula(), "C6H6");
    }

    #[test]
    fn connectivity_and_components() {
        let mut m = Molecule::new();
        let a = m.add_atom(Element::C);
        let b = m.add_atom(Element::C);
        let c = m.add_atom(Element::O);
        m.add_bond(a, b, BondOrder::Single).unwrap();
        assert!(!m.is_connected());
        let comps = m.connected_components();
        assert_eq!(comps, vec![vec![0, 1], vec![2]]);
        m.add_bond(b, c, BondOrder::Single).unwrap();
        assert!(m.is_connected());
        assert!(!Molecule::new().is_connected());
    }

    #[test]
    fn largest_fragment_extracts_biggest_piece() {
        let mut m = Molecule::new();
        for _ in 0..3 {
            m.add_atom(Element::C);
        }
        m.add_atom(Element::O); // isolated
        m.add_bond(0, 1, BondOrder::Single).unwrap();
        m.add_bond(1, 2, BondOrder::Single).unwrap();
        let frag = m.largest_fragment().unwrap();
        assert_eq!(frag.n_atoms(), 3);
        assert_eq!(frag.n_bonds(), 2);
        assert!(frag.atoms().iter().all(|&e| e == Element::C));
        assert!(Molecule::new().largest_fragment().is_err());
    }

    #[test]
    fn largest_fragment_ties_keep_the_last_component() {
        // C–O and N–S are both two atoms; the later component (N–S) wins.
        let mut m = Molecule::new();
        for e in [Element::C, Element::O, Element::N, Element::S] {
            m.add_atom(e);
        }
        m.add_bond(0, 1, BondOrder::Single).unwrap();
        m.add_bond(2, 3, BondOrder::Single).unwrap();
        let frag = m.largest_fragment().unwrap();
        assert_eq!(frag.atoms(), [Element::N, Element::S]);
        assert_eq!(frag.bonds(), [Bond::new(0, 1, BondOrder::Single)]);
    }

    #[test]
    fn subgraph_remaps_bonds() {
        let m = benzene();
        let sub = m.subgraph(&[1, 2, 3]).unwrap();
        assert_eq!(sub.n_atoms(), 3);
        assert_eq!(sub.n_bonds(), 2); // 1-2 and 2-3 survive
        assert!(m.subgraph(&[9]).is_err());
    }

    #[test]
    fn degree_and_neighbors() {
        let m = benzene();
        assert_eq!(m.degree(0), 2);
        let nb: Vec<_> = m.neighbors(0).collect();
        assert_eq!(nb, [(1, BondOrder::Aromatic), (5, BondOrder::Aromatic)]);
        assert_eq!(m.bond_indices(0), [0, 5]);
    }

    #[test]
    fn formula_hill_order() {
        // Thiophene-like fragment: C4S ring.
        let mut m = Molecule::new();
        for _ in 0..4 {
            m.add_atom(Element::C);
        }
        let s = m.add_atom(Element::S);
        m.add_bond(0, 1, BondOrder::Aromatic).unwrap();
        m.add_bond(1, 2, BondOrder::Aromatic).unwrap();
        m.add_bond(2, 3, BondOrder::Aromatic).unwrap();
        m.add_bond(3, s, BondOrder::Aromatic).unwrap();
        m.add_bond(s, 0, BondOrder::Aromatic).unwrap();
        assert_eq!(m.formula(), "C4H4S");
    }

    #[test]
    fn count_element_works() {
        let m = benzene();
        assert_eq!(m.count_element(Element::C), 6);
        assert_eq!(m.count_element(Element::N), 0);
    }
}
