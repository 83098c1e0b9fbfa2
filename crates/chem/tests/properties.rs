//! Property-based invariants of the cheminformatics substrate.

use proptest::prelude::*;
use sqvae_chem::properties::DrugProperties;
use sqvae_chem::{sanitize, smiles, valence, BondOrder, Element, Molecule, MoleculeMatrix};

/// Strategy: a random *valid* molecule built by attachment growth — each new
/// atom bonds to a previous atom that still has valence room.
fn arb_valid_molecule() -> impl Strategy<Value = Molecule> {
    (
        proptest::collection::vec(0u8..5, 1..12),
        proptest::collection::vec(0usize..64, 12),
        proptest::collection::vec(0u8..3, 12),
    )
        .prop_map(|(elements, attach, orders)| {
            let mut mol = Molecule::new();
            for (i, &ecode) in elements.iter().enumerate() {
                let e = Element::ALL[ecode as usize % 5];
                let idx = mol.add_atom(e);
                if idx == 0 {
                    continue;
                }
                // Pick an attachment point with room for one more single bond.
                let candidates: Vec<usize> = (0..idx)
                    .filter(|&j| {
                        mol.explicit_valence(j) + 1.0 <= mol.element(j).max_valence() as f64
                    })
                    .collect();
                if candidates.is_empty() {
                    continue;
                }
                let target = candidates[attach[i] % candidates.len()];
                let order = match orders[i] {
                    0 => BondOrder::Single,
                    1 if mol.element(target).max_valence() as f64
                        - mol.explicit_valence(target)
                        >= 2.0
                        && e.max_valence() >= 2 =>
                    {
                        BondOrder::Double
                    }
                    _ => BondOrder::Single,
                };
                mol.add_bond(idx, target, order).expect("fresh bond");
            }
            mol.largest_fragment().expect("non-empty")
        })
}

/// SMILES symbols, stray letters and multi-byte characters (2, 3 and 4
/// bytes in UTF-8).
const SMILES_FUZZ_ALPHABET: &str = "CNOFS-=#:().% 012359cXH[]@\u{e9}\u{df}\u{20ac}\u{1d11e}";

fn fuzz_char(k: usize) -> char {
    let alphabet: Vec<char> = SMILES_FUZZ_ALPHABET.chars().collect();
    alphabet[k % alphabet.len()]
}

/// Strategy: arbitrary short strings over [`SMILES_FUZZ_ALPHABET`].
fn arb_smiles_like() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..64, 0..24)
        .prop_map(|idx| idx.into_iter().map(fuzz_char).collect())
}

/// Strategy: a written SMILES with one to three characters inserted,
/// deleted or replaced.
fn arb_mutated_smiles() -> impl Strategy<Value = String> {
    (
        arb_valid_molecule(),
        proptest::collection::vec((0u8..3, 0usize..64, 0usize..64), 1..4),
    )
        .prop_map(|(mol, edits)| {
            let mut chars: Vec<char> = smiles::write(&mol).unwrap().chars().collect();
            for (kind, pos, sym) in edits {
                let at = pos % (chars.len() + 1);
                let sym = fuzz_char(sym);
                match kind {
                    0 => chars.insert(at, sym),
                    1 if at < chars.len() => {
                        chars.remove(at);
                    }
                    _ if at < chars.len() => chars[at] = sym,
                    _ => chars.push(sym),
                }
            }
            chars.into_iter().collect()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// `smiles::parse` never panics: arbitrary and mutated strings get a
    /// molecule or a typed error, and every molecule it returns survives
    /// `write` → `parse`.
    #[test]
    fn smiles_parse_never_panics(
        s in prop_oneof![arb_smiles_like(), arb_mutated_smiles()],
    ) {
        let parsed = std::panic::catch_unwind(|| smiles::parse(&s));
        prop_assert!(parsed.is_ok(), "parse panicked on {:?}", s);
        if let Ok(Ok(mol)) = parsed {
            let written = smiles::write(&mol).unwrap();
            let back = smiles::parse(&written);
            prop_assert!(back.is_ok(), "{:?} parsed but its rewrite {:?} did not", s, written);
            let back = back.unwrap();
            prop_assert_eq!(back.formula(), mol.formula());
            prop_assert_eq!(back.n_bonds(), mol.n_bonds());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Generated molecules pass the validity model.
    #[test]
    fn grown_molecules_are_valid(mol in arb_valid_molecule()) {
        prop_assert!(valence::is_valid(&mol));
    }

    /// Matrix encode/decode is lossless for valid molecules.
    #[test]
    fn matrix_codec_round_trips(mol in arb_valid_molecule()) {
        let m = MoleculeMatrix::encode(&mol, 16).unwrap();
        let back = m.decode();
        prop_assert_eq!(back.n_atoms(), mol.n_atoms());
        prop_assert_eq!(back.n_bonds(), mol.n_bonds());
        prop_assert_eq!(back.formula(), mol.formula());
    }

    /// SMILES write→parse preserves graph invariants.
    #[test]
    fn smiles_round_trips(mol in arb_valid_molecule()) {
        let s = smiles::write(&mol).unwrap();
        let back = smiles::parse(&s).unwrap();
        prop_assert_eq!(back.n_atoms(), mol.n_atoms());
        prop_assert_eq!(back.n_bonds(), mol.n_bonds());
        prop_assert_eq!(back.formula(), mol.formula());
        let mut deg_a: Vec<usize> = (0..mol.n_atoms()).map(|i| mol.degree(i)).collect();
        let mut deg_b: Vec<usize> = (0..back.n_atoms()).map(|i| back.degree(i)).collect();
        deg_a.sort_unstable();
        deg_b.sort_unstable();
        prop_assert_eq!(deg_a, deg_b);
    }

    /// SMILES parse→write→parse is *stable*: after one write→parse round
    /// trip the representation reaches a fixed point — re-writing the parsed
    /// molecule reproduces the same string, and re-parsing that string
    /// preserves every graph invariant.
    #[test]
    fn smiles_parse_write_parse_is_stable(mol in arb_valid_molecule()) {
        let s1 = smiles::write(&mol).unwrap();
        let m1 = smiles::parse(&s1).unwrap();
        let s2 = smiles::write(&m1).unwrap();
        let m2 = smiles::parse(&s2).unwrap();
        // The string representation is idempotent after one round trip…
        prop_assert_eq!(&smiles::write(&m2).unwrap(), &s2, "from {}", s1);
        // …and the graph invariants survive the second trip too.
        prop_assert_eq!(m2.formula(), m1.formula());
        prop_assert_eq!(m2.n_atoms(), m1.n_atoms());
        prop_assert_eq!(m2.n_bonds(), m1.n_bonds());
        let orders = |m: &Molecule| {
            let mut o: Vec<char> =
                m.bonds().iter().map(|b| b.order.smiles_symbol()).collect();
            o.sort_unstable();
            o
        };
        prop_assert_eq!(orders(&m2), orders(&m1));
    }

    /// Property metrics stay in their documented ranges.
    #[test]
    fn metric_ranges(mol in arb_valid_molecule()) {
        let p = DrugProperties::compute(&mol);
        prop_assert!(p.qed > 0.0 && p.qed <= 1.0, "qed {}", p.qed);
        prop_assert!((0.0..=1.0).contains(&p.logp), "logp {}", p.logp);
        prop_assert!((0.0..=1.0).contains(&p.sa), "sa {}", p.sa);
        prop_assert!((1.0..=10.0).contains(&p.sa_raw));
    }

    /// Sanitizing an already-valid molecule changes nothing.
    #[test]
    fn sanitize_is_identity_on_valid(mol in arb_valid_molecule()) {
        let s = sanitize::sanitize(&mol).unwrap();
        prop_assert!(s.was_valid);
        prop_assert_eq!(s.molecule.n_atoms(), mol.n_atoms());
        prop_assert_eq!(s.molecule.n_bonds(), mol.n_bonds());
    }

    /// Sanitizing arbitrary decoded garbage always yields a valence-clean,
    /// connected molecule.
    #[test]
    fn sanitize_repairs_random_matrices(
        values in proptest::collection::vec(0.0..5.5f64, 64),
    ) {
        let m = MoleculeMatrix::from_values(8, values).unwrap();
        let decoded = m.decode();
        if decoded.is_empty() {
            return Ok(());
        }
        let s = sanitize::sanitize(&decoded).unwrap();
        prop_assert!(valence::valences_ok(&s.molecule));
        prop_assert!(s.molecule.is_connected());
    }
}
