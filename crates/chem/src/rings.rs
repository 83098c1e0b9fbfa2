//! Ring perception.
//!
//! The property calculators (QED's aromatic-ring count, SA's ring-complexity
//! penalty, rotatable-bond exclusion) need ring membership. For the ≤32-atom
//! ligands of this reproduction, an SSSR approximation via per-bond shortest
//! cycles is accurate and fast.
//!
//! [`perceive_rings`] runs one breadth-first search per bond, from one end to
//! the other with that bond left out. Each search walks the molecule's
//! per-atom bond lists ([`Molecule::bond_indices`]), so it costs
//! O(atoms + bonds) and the whole perception O(bonds · (atoms + bonds)). One
//! set of search buffers serves every bond. The lists keep bond order, so
//! each search visits atoms in the order a scan of the bond list would, and
//! finds the same shortest path.

use crate::bond::BondOrder;
use crate::molecule::Molecule;

/// Ring information for a molecule.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RingInfo {
    /// Rings as sorted atom-index lists (smallest set of smallest rings,
    /// approximately).
    pub rings: Vec<Vec<usize>>,
    /// Per-atom ring membership.
    pub atom_in_ring: Vec<bool>,
    /// Per-bond (by index into `molecule.bonds()`) ring membership.
    pub bond_in_ring: Vec<bool>,
}

impl RingInfo {
    /// Number of perceived rings.
    pub fn n_rings(&self) -> usize {
        self.rings.len()
    }

    /// Rings in which every bond is aromatic.
    pub fn aromatic_rings(&self, mol: &Molecule) -> Vec<&Vec<usize>> {
        self.rings
            .iter()
            .filter(|ring| ring_is_aromatic(mol, ring))
            .collect()
    }

    /// Number of aromatic rings (QED's `AROM` descriptor).
    pub fn n_aromatic_rings(&self, mol: &Molecule) -> usize {
        self.aromatic_rings(mol).len()
    }

    /// Number of rings larger than 8 atoms (SA's macrocycle penalty).
    pub fn n_macrocycles(&self) -> usize {
        self.rings.iter().filter(|r| r.len() > 8).count()
    }

    /// Number of ring pairs sharing at least two atoms (fused systems, used
    /// by the SA complexity penalty).
    pub fn n_fused_pairs(&self) -> usize {
        let mut count = 0;
        for i in 0..self.rings.len() {
            for j in (i + 1)..self.rings.len() {
                let shared = self.rings[i]
                    .iter()
                    .filter(|a| self.rings[j].binary_search(a).is_ok())
                    .count();
                if shared >= 2 {
                    count += 1;
                }
            }
        }
        count
    }
}

fn ring_is_aromatic(mol: &Molecule, ring: &[usize]) -> bool {
    if ring.len() < 3 {
        return false;
    }
    // Every consecutive pair in the cycle must be bonded aromatically. The
    // ring list is sorted, so instead check all in-ring bonds between ring
    // atoms: each ring atom must have exactly two aromatic in-ring bonds.
    for &a in ring {
        let aromatic_in_ring = mol
            .neighbors(a)
            .filter(|&(n, o)| ring.binary_search(&n).is_ok() && o == BondOrder::Aromatic)
            .count();
        if aromatic_in_ring < 2 {
            return false;
        }
    }
    true
}

/// The cyclomatic number `bonds − atoms + components` — the exact count of
/// independent rings.
pub fn ring_count(mol: &Molecule) -> usize {
    let comps = mol.connected_components().len();
    (mol.n_bonds() + comps).saturating_sub(mol.n_atoms())
}

/// Perceives rings: for every bond, the shortest cycle through it (BFS with
/// the bond removed), deduplicated.
pub fn perceive_rings(mol: &Molecule) -> RingInfo {
    let n = mol.n_atoms();
    let mut rings: Vec<Vec<usize>> = Vec::new();
    let mut atom_in_ring = vec![false; n];
    let mut bond_in_ring = vec![false; mol.n_bonds()];
    let mut search = PathSearch::new(n);

    for (bidx, bond) in mol.bonds().iter().enumerate() {
        // A bond at a terminal atom closes no cycle.
        if mol.degree(bond.a) < 2 || mol.degree(bond.b) < 2 {
            continue;
        }
        if !search.shortest_path_excluding(mol, bond.a, bond.b, bidx) {
            continue;
        }
        // The path and the bond form a cycle.
        let ring = &mut search.path;
        ring.sort_unstable();
        bond_in_ring[bidx] = true;
        for &a in ring.iter() {
            atom_in_ring[a] = true;
        }
        if !rings.contains(ring) {
            rings.push(ring.clone());
        }
    }
    rings.sort_by(|x, y| x.len().cmp(&y.len()).then_with(|| x.cmp(y)));
    RingInfo {
        rings,
        atom_in_ring,
        bond_in_ring,
    }
}

/// Breadth-first search buffers, reused across searches. After a search
/// only the atoms it queued are marked, and the next search clears just
/// those.
struct PathSearch {
    prev: Vec<usize>,
    seen: Vec<bool>,
    /// Atoms in the order they were queued; the search reads it from a head
    /// index.
    queue: Vec<usize>,
    /// The last path found, from its destination back to its source.
    path: Vec<usize>,
}

impl PathSearch {
    fn new(n_atoms: usize) -> Self {
        PathSearch {
            prev: vec![usize::MAX; n_atoms],
            seen: vec![false; n_atoms],
            queue: Vec::with_capacity(n_atoms),
            path: Vec::new(),
        }
    }

    /// BFS shortest path from `src` to `dst` not using bond `skip_bond`.
    /// Returns whether one exists and, if so, leaves it in `path`.
    fn shortest_path_excluding(
        &mut self,
        mol: &Molecule,
        src: usize,
        dst: usize,
        skip_bond: usize,
    ) -> bool {
        for &a in &self.queue {
            self.seen[a] = false;
        }
        self.queue.clear();
        self.queue.push(src);
        self.seen[src] = true;
        let mut head = 0;
        while let Some(&u) = self.queue.get(head) {
            head += 1;
            for &bidx in mol.bond_indices(u) {
                if bidx == skip_bond {
                    continue;
                }
                let bd = &mol.bonds()[bidx];
                let v = if bd.a == u { bd.b } else { bd.a };
                if self.seen[v] {
                    continue;
                }
                self.seen[v] = true;
                self.prev[v] = u;
                self.queue.push(v);
                if v == dst {
                    // `prev` is fixed once an atom is first reached, so
                    // stopping here gives the path a full search would.
                    self.path.clear();
                    self.path.push(dst);
                    let mut cur = dst;
                    while cur != src {
                        cur = self.prev[cur];
                        self.path.push(cur);
                    }
                    return true;
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::Element;

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

    fn cyclohexane() -> Molecule {
        let mut m = Molecule::new();
        for _ in 0..6 {
            m.add_atom(Element::C);
        }
        for i in 0..6 {
            m.add_bond(i, (i + 1) % 6, BondOrder::Single).unwrap();
        }
        m
    }

    fn naphthalene() -> Molecule {
        // Two fused aromatic 6-rings sharing atoms 0 and 5.
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
        m
    }

    #[test]
    fn chain_has_no_rings() {
        let mut m = Molecule::new();
        let a = m.add_atom(Element::C);
        let b = m.add_atom(Element::C);
        m.add_bond(a, b, BondOrder::Single).unwrap();
        assert_eq!(ring_count(&m), 0);
        let info = perceive_rings(&m);
        assert_eq!(info.n_rings(), 0);
        assert!(!info.atom_in_ring[0]);
    }

    #[test]
    fn benzene_is_one_aromatic_ring() {
        let m = benzene();
        assert_eq!(ring_count(&m), 1);
        let info = perceive_rings(&m);
        assert_eq!(info.n_rings(), 1);
        assert_eq!(info.rings[0].len(), 6);
        assert_eq!(info.n_aromatic_rings(&m), 1);
        assert!(info.atom_in_ring.iter().all(|&x| x));
        assert!(info.bond_in_ring.iter().all(|&x| x));
        assert_eq!(info.n_macrocycles(), 0);
    }

    #[test]
    fn cyclohexane_ring_is_not_aromatic() {
        let m = cyclohexane();
        let info = perceive_rings(&m);
        assert_eq!(info.n_rings(), 1);
        assert_eq!(info.n_aromatic_rings(&m), 0);
    }

    #[test]
    fn naphthalene_has_two_fused_aromatic_rings() {
        let m = naphthalene();
        assert_eq!(ring_count(&m), 2);
        let info = perceive_rings(&m);
        assert_eq!(info.n_rings(), 2);
        assert_eq!(info.n_aromatic_rings(&m), 2);
        assert_eq!(info.n_fused_pairs(), 1);
    }

    #[test]
    fn macrocycle_detection() {
        let mut m = Molecule::new();
        for _ in 0..12 {
            m.add_atom(Element::C);
        }
        for i in 0..12 {
            m.add_bond(i, (i + 1) % 12, BondOrder::Single).unwrap();
        }
        let info = perceive_rings(&m);
        assert_eq!(info.n_rings(), 1);
        assert_eq!(info.n_macrocycles(), 1);
    }

    #[test]
    fn ring_and_tail() {
        // Benzene with a two-carbon tail: tail atoms/bonds not in a ring.
        let mut m = benzene();
        let t1 = m.add_atom(Element::C);
        let t2 = m.add_atom(Element::C);
        m.add_bond(0, t1, BondOrder::Single).unwrap();
        m.add_bond(t1, t2, BondOrder::Single).unwrap();
        let info = perceive_rings(&m);
        assert_eq!(info.n_rings(), 1);
        assert!(!info.atom_in_ring[t1]);
        assert!(!info.atom_in_ring[t2]);
        let tail_bond = m.bond_between(t1, t2).is_some();
        assert!(tail_bond);
        // Last two bonds (tail) not in ring.
        assert!(!info.bond_in_ring[m.n_bonds() - 1]);
        assert!(!info.bond_in_ring[m.n_bonds() - 2]);
    }
}
