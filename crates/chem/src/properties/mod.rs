//! Drug-property metrics (the paper's Table II scorers).
//!
//! Three metrics, each in a raw and a MolGAN-style \[0,1\]-normalized form
//! (the paper's Table II reports the normalized scale, where *higher is
//! better* for every column):
//!
//! * **QED** — quantitative estimate of druglikeness, already in \[0,1\].
//! * **logP** — Wildman–Crippen octanol-water partition coefficient,
//!   normalized with MolGAN's clipping range.
//! * **SA** — synthetic accessibility (1 easy … 10 hard), normalized and
//!   inverted so 1.0 = easiest.

pub mod alerts;
pub mod basic;
pub mod lipinski;
pub mod logp;
pub mod qed;
pub mod sa;

use crate::molecule::Molecule;
use crate::rings::perceive_rings;

/// MolGAN's logP clipping range for normalization.
const LOGP_MIN: f64 = -2.12178879609;
const LOGP_MAX: f64 = 6.0429063424;

/// logP mapped to \[0,1\] by clipping to MolGAN's range and rescaling.
pub fn normalized_logp(raw: f64) -> f64 {
    (raw.clamp(LOGP_MIN, LOGP_MAX) - LOGP_MIN) / (LOGP_MAX - LOGP_MIN)
}

/// SA (1 … 10) mapped to \[0,1\] with 1.0 = easiest to synthesize.
pub fn normalized_sa(raw: f64) -> f64 {
    ((10.0 - raw) / 9.0).clamp(0.0, 1.0)
}

/// All Table II metrics for one molecule.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DrugProperties {
    /// QED in \[0,1\].
    pub qed: f64,
    /// Raw Wildman–Crippen logP.
    pub logp_raw: f64,
    /// Normalized logP in \[0,1\].
    pub logp: f64,
    /// Raw SA score in \[1,10\].
    pub sa_raw: f64,
    /// Normalized SA in \[0,1\] (higher = easier).
    pub sa: f64,
}

impl DrugProperties {
    /// Scores a molecule (one ring perception shared by all metrics).
    pub fn compute(mol: &Molecule) -> Self {
        let rings = perceive_rings(mol);
        let q = qed::qed_from_properties(&qed::QedProperties::compute(mol, &rings));
        let lp = logp::log_p(mol);
        let s = sa::sa_score_with_rings(mol, &rings);
        DrugProperties {
            qed: q,
            logp_raw: lp,
            logp: normalized_logp(lp),
            sa_raw: s,
            sa: normalized_sa(s),
        }
    }
}

/// Mean Table II metrics over a batch of molecules (empty batch → zeros).
pub fn mean_properties<'a>(mols: impl IntoIterator<Item = &'a Molecule>) -> DrugProperties {
    let mut acc = DrugProperties::default();
    let mut n = 0usize;
    for mol in mols {
        let p = DrugProperties::compute(mol);
        acc.qed += p.qed;
        acc.logp_raw += p.logp_raw;
        acc.logp += p.logp;
        acc.sa_raw += p.sa_raw;
        acc.sa += p.sa;
        n += 1;
    }
    if n > 0 {
        let inv = 1.0 / n as f64;
        acc.qed *= inv;
        acc.logp_raw *= inv;
        acc.logp *= inv;
        acc.sa_raw *= inv;
        acc.sa *= inv;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bond::BondOrder;
    use crate::element::Element;

    fn aspirin_like() -> Molecule {
        // Benzene ring with a carboxyl-like and an ester-like substituent.
        let mut m = Molecule::new();
        for _ in 0..6 {
            m.add_atom(Element::C);
        }
        for i in 0..6 {
            m.add_bond(i, (i + 1) % 6, BondOrder::Aromatic).unwrap();
        }
        let c = m.add_atom(Element::C);
        m.add_bond(0, c, BondOrder::Single).unwrap();
        let o1 = m.add_atom(Element::O);
        m.add_bond(c, o1, BondOrder::Double).unwrap();
        let o2 = m.add_atom(Element::O);
        m.add_bond(c, o2, BondOrder::Single).unwrap();
        m
    }

    #[test]
    fn normalized_ranges() {
        assert_eq!(normalized_logp(100.0), 1.0);
        assert_eq!(normalized_logp(-100.0), 0.0);
        assert!((normalized_logp(LOGP_MIN) - 0.0).abs() < 1e-12);
        assert_eq!(normalized_sa(1.0), 1.0);
        assert_eq!(normalized_sa(10.0), 0.0);
    }

    #[test]
    fn compute_fills_all_fields() {
        let p = DrugProperties::compute(&aspirin_like());
        assert!(p.qed > 0.0 && p.qed <= 1.0);
        assert!(p.logp >= 0.0 && p.logp <= 1.0);
        assert!(p.sa >= 0.0 && p.sa <= 1.0);
        assert!((1.0..=10.0).contains(&p.sa_raw));
    }

    #[test]
    fn mean_over_batch() {
        let a = aspirin_like();
        let b = aspirin_like();
        let mean = mean_properties([&a, &b]);
        let single = DrugProperties::compute(&a);
        assert!((mean.qed - single.qed).abs() < 1e-12);
        let empty = mean_properties(std::iter::empty());
        assert_eq!(empty.qed, 0.0);
    }
}
