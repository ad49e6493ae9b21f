//! Per-node noise-budget attribution: explain where the reported power
//! comes from.
//!
//! `tau_eval` already computes the output noise power as a sum of
//! per-source terms (paper Eq. 12/14: each source's white PSD shaped by
//! its source-to-output kernel, `sigma^2 * A_i` for the spectral part
//! plus the mean riding the DC path) — the total usually reported throws
//! that decomposition away. A [`NoiseBudget`] keeps it: one row per
//! noise source (role `auto`), one per measured source's estimated
//! spectrum (role `measured`), plus one zero row per exact-exempted node
//! (role `exact`), with the defining **ledger invariant** that the row
//! contributions, folded left-to-right in row order with plain `f64`
//! addition, reproduce the evaluate-path power *bit-exactly*:
//!
//! ```text
//! fold(0.0, rows, |acc, r| acc + r.contribution) == estimate_psd(plan).power
//! ```
//!
//! Exact attribution is subtle in floating point: per-source powers
//! `mu_i^2 + sum(bins_i)` do **not** sum to the total (the mean square
//! `(sum mu_i)^2` has cross terms, and fold orders differ). The ledger
//! instead splits each row into its variance mass `sum(bins_i)` and the
//! bilinear mean term `mu_i * M` (with `M` the total mean, so the mean
//! terms sum to `M^2` in real arithmetic), then absorbs the remaining
//! floating-point residue into the **last** auto row by nudging it a few
//! ULPs until the fold lands exactly on the total (falling back to a
//! one-ULP shift of the penultimate row when round-to-even midpoint
//! alignment leaves the total without a preimage). The residue is ~1 ULP
//! of the power — far below anything a top-contributor ranking could
//! notice — and in exchange the budget is auditable: a reader summing the
//! column reproduces the reported number to the last bit.

use psdacc_sfg::{NodeId, Sfg};

use crate::noise_psd::NoisePsd;
use crate::wordlength::{NoiseSource, WordLengthPlan};

/// Why a node does (or does not) appear in the noise budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetRole {
    /// The node carries a quantizer under the plan and injects noise.
    Auto,
    /// The node is a measured source: it injects its estimated spectrum —
    /// a word-length-independent floor — rather than quantization noise.
    Measured,
    /// The node is exempted (`role: "exact"` in a `GraphSpec`): it would
    /// carry a quantizer but was declared exact, so it contributes
    /// exactly zero.
    Exact,
}

impl BudgetRole {
    /// Canonical lowercase name (`auto` / `measured` / `exact`) for
    /// reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            BudgetRole::Auto => "auto",
            BudgetRole::Measured => "measured",
            BudgetRole::Exact => "exact",
        }
    }
}

/// One node's line in the noise budget.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetRow {
    /// The attributed node.
    pub node: NodeId,
    /// Block kind of the node (`fir`, `iir`, `gain`, `input`, ...).
    pub block: &'static str,
    /// Whether the node injects noise or is exact-exempted.
    pub role: BudgetRole,
    /// Fractional bits of the node's quantizer (`None` for measured and
    /// exact rows — neither carries a quantizer).
    pub frac_bits: Option<i32>,
    /// Output-referred spectral mass of this source: `sum_k bins_i[k]`
    /// (`sigma_i^2 * A_i`; on the multirate path the kernel already folds
    /// `mu_i^2 * B_i` alias images into the bins as well).
    pub variance_term: f64,
    /// Bilinear mean attribution `mu_i * M` (`mu_i` the source's
    /// output-referred mean, `M` the total output mean) — the terms sum
    /// to `M^2`, attributing the squared mean across the sources that
    /// built it. Negative when this source's mean opposes the total.
    pub mean_term: f64,
    /// The ledger entry: `variance_term + mean_term`, with the final body
    /// row (auto or measured) additionally absorbing the floating-point
    /// fold residue so the column sums bit-exactly to
    /// [`NoiseBudget::power`].
    pub contribution: f64,
    /// `contribution / power` (`0.0` when the power is zero).
    pub share: f64,
}

/// Per-node attribution of one evaluate-path power number.
///
/// Produced by [`crate::AccuracyEvaluator::evaluate_budget`]; `power`,
/// `mean`, and `variance` are bit-identical to the same plan's
/// `estimate_psd` result, and the rows satisfy the ledger invariant
/// documented at the [module level](self).
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseBudget {
    /// Total output noise power — bit-identical to `estimate_psd`.
    pub power: f64,
    /// Total output noise mean — bit-identical to `estimate_psd`.
    pub mean: f64,
    /// Total output noise variance — bit-identical to `estimate_psd`.
    pub variance: f64,
    /// Attribution rows: one per noise source in evaluation order, then
    /// one per measured source in node order (the same fold order
    /// `estimate_psd` uses), followed by one zero row per exact-exempted
    /// node.
    pub rows: Vec<BudgetRow>,
}

impl NoiseBudget {
    /// Row indices sorted by descending contribution (ties by node id) —
    /// the top-contributor order reports render.
    pub fn ranked(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.rows.len()).collect();
        order.sort_by(|&a, &b| {
            self.rows[b]
                .contribution
                .partial_cmp(&self.rows[a].contribution)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(self.rows[a].node.0.cmp(&self.rows[b].node.0))
        });
        order
    }

    /// The left-to-right fold of the contribution column — equals
    /// [`NoiseBudget::power`] bit-exactly (the ledger invariant).
    pub fn ledger_sum(&self) -> f64 {
        self.rows.iter().fold(0.0, |acc, r| acc + r.contribution)
    }
}

/// Assembles the budget from the per-source contributions, accumulating
/// the total in the exact `add_assign` sequence `estimate_psd` uses
/// (`evaluate_with_kernels`, then the measured sources) — which is what
/// makes `power` (and `mean`, `variance`) bit-identical to the evaluate
/// path.
pub(crate) fn assemble(
    sfg: &Sfg,
    plan: &WordLengthPlan,
    sources: &[NoiseSource],
    contributions: &[NoisePsd],
    measured: &[(NodeId, NoisePsd)],
) -> NoiseBudget {
    debug_assert_eq!(sources.len(), contributions.len());
    let all = || contributions.iter().chain(measured.iter().map(|(_, c)| c));
    let mut total = match all().next() {
        Some(c) => NoisePsd::zero(c.npsd()),
        None => NoisePsd::zero(1),
    };
    for c in all() {
        total.add_assign(c);
    }
    let power = total.power();
    let mean = total.mean();
    let variance = total.variance();

    let mut rows: Vec<BudgetRow> = sources
        .iter()
        .zip(contributions)
        .map(|(src, c)| {
            let variance_term = c.variance();
            let mean_term = c.mean() * mean;
            BudgetRow {
                node: src.node,
                block: sfg.node(src.node).block.kind(),
                role: BudgetRole::Auto,
                frac_bits: Some(plan.frac_bits_of(src.node)),
                variance_term,
                mean_term,
                contribution: variance_term + mean_term,
                share: 0.0,
            }
        })
        .collect();
    // Measured-source rows join the ledger body after the quantization
    // sources — the same position their contributions occupy in the
    // evaluate-path fold above.
    for (node, c) in measured {
        let variance_term = c.variance();
        let mean_term = c.mean() * mean;
        rows.push(BudgetRow {
            node: *node,
            block: sfg.node(*node).block.kind(),
            role: BudgetRole::Measured,
            frac_bits: None,
            variance_term,
            mean_term,
            contribution: variance_term + mean_term,
            share: 0.0,
        });
    }

    // Absorb the floating-point fold residue into the last body row: the
    // ideal contributions sum to the power in real arithmetic, so the
    // correction is ~1 ULP of the total. A prefix can align every exact
    // sum `prefix + r` on a round-to-even midpoint, making an
    // odd-mantissa power unreachable from the last row alone — then the
    // penultimate row is shifted by single ULPs (still ~1 ULP of its own
    // value) until the power has a preimage again.
    if let Some(last) = rows.len().checked_sub(1) {
        for _ in 0..64 {
            let prefix = rows[..last].iter().fold(0.0, |acc, r| acc + r.contribution);
            if let Some(r) = exact_residue(prefix, power) {
                rows[last].contribution = r;
                break;
            }
            debug_assert!(last > 0, "a 1-row ledger always has a preimage");
            let tweak = &mut rows[last - 1].contribution;
            *tweak = next_toward(*tweak, prefix < power);
        }
        let fold = rows.iter().fold(0.0, |acc, r| acc + r.contribution);
        debug_assert!(
            fold.to_bits() == power.to_bits(),
            "ledger fold failed: {fold:e} vs {power:e}"
        );
    }
    for row in &mut rows {
        row.share = if power == 0.0 { 0.0 } else { row.contribution / power };
    }
    // Exact-role rows: structurally zero, appended after the ledger body
    // (adding +0.0 never perturbs the fold — the bins are nonnegative, so
    // no partial sum is ever -0.0).
    for node in plan.exempted_nodes(sfg) {
        rows.push(BudgetRow {
            node,
            block: sfg.node(node).block.kind(),
            role: BudgetRole::Exact,
            frac_bits: None,
            variance_term: 0.0,
            mean_term: 0.0,
            contribution: 0.0,
            share: 0.0,
        });
    }
    NoiseBudget { power, mean, variance, rows }
}

/// The value `r` with `prefix + r == target` exactly, or `None` when no
/// representable preimage exists: starts from the rounded difference and
/// nudges by ULPs. The walk either lands within a step or two, or
/// oscillates between the two sums straddling an unreachable target
/// (round-to-even skips it) — detected as an immediate 2-cycle.
fn exact_residue(prefix: f64, target: f64) -> Option<f64> {
    let mut r = target - prefix;
    let mut prev = f64::NAN;
    for _ in 0..128 {
        let got = prefix + r;
        if got == target {
            return Some(r);
        }
        let next = next_toward(r, got < target);
        if next.to_bits() == prev.to_bits() {
            return None;
        }
        prev = r;
        r = next;
    }
    None
}

/// The next representable `f64` after `x` toward `+inf` (`up`) or `-inf`.
fn next_toward(x: f64, up: bool) -> f64 {
    if x == 0.0 {
        return if up { f64::from_bits(1) } else { -f64::from_bits(1) };
    }
    let bits = x.to_bits();
    f64::from_bits(if (x > 0.0) == up { bits + 1 } else { bits - 1 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::AccuracyEvaluator;
    use psdacc_filters::{Fir, Iir};
    use psdacc_fixed::RoundingMode;
    use psdacc_sfg::Block;

    fn mixed_system() -> Sfg {
        let mut g = Sfg::new();
        let x = g.add_input();
        let a = g.add_block(Block::Gain(0.3), &[x]).unwrap();
        let f = g.add_block(Block::Fir(Fir::new(vec![0.4, -0.2, 0.1])), &[a]).unwrap();
        let i =
            g.add_block(Block::Iir(Iir::new(vec![1.0], vec![1.0, -0.6]).unwrap()), &[f]).unwrap();
        g.mark_output(i);
        g
    }

    fn multirate_system() -> Sfg {
        let s = std::f64::consts::FRAC_1_SQRT_2;
        let mut g = Sfg::new();
        let x = g.add_input();
        let lp = g.add_block(Block::Fir(Fir::new(vec![s, s])), &[x]).unwrap();
        let d = g.add_block(Block::Downsample(2), &[lp]).unwrap();
        let u = g.add_block(Block::Upsample(2), &[d]).unwrap();
        let r = g.add_block(Block::Fir(Fir::new(vec![s, s])), &[u]).unwrap();
        g.mark_output(r);
        g
    }

    #[test]
    fn ledger_folds_bit_exactly_to_evaluate_power() {
        for (g, npsd) in [(mixed_system(), 256), (multirate_system(), 64)] {
            let eval = AccuracyEvaluator::new(&g, npsd).unwrap();
            for (bits, rounding) in [(6, RoundingMode::Truncate), (12, RoundingMode::RoundNearest)]
            {
                let plan = WordLengthPlan::uniform(bits, rounding);
                let est = eval.estimate_psd(&plan);
                let budget = eval.evaluate_budget(&plan);
                assert_eq!(budget.power, est.power, "total power is the evaluate-path value");
                assert_eq!(budget.mean, est.mean);
                assert_eq!(budget.variance, est.variance);
                assert_eq!(budget.ledger_sum(), est.power, "ledger invariant");
            }
        }
    }

    #[test]
    fn rows_cover_sources_with_roles_and_shares() {
        let g = mixed_system();
        let eval = AccuracyEvaluator::new(&g, 128).unwrap();
        let plan = WordLengthPlan::uniform(10, RoundingMode::Truncate);
        let budget = eval.evaluate_budget(&plan);
        let sources = plan.noise_sources(&g);
        assert_eq!(budget.rows.len(), sources.len());
        for (row, src) in budget.rows.iter().zip(&sources) {
            assert_eq!(row.node, src.node, "rows follow evaluation order");
            assert_eq!(row.role, BudgetRole::Auto);
            assert_eq!(row.frac_bits, Some(10));
        }
        let share_sum: f64 = budget.rows.iter().map(|r| r.share).sum();
        assert!((share_sum - 1.0).abs() < 1e-12, "shares sum to 1, got {share_sum}");
        // The ranking is a permutation ordered by contribution.
        let ranked = budget.ranked();
        assert_eq!(ranked.len(), budget.rows.len());
        for pair in ranked.windows(2) {
            assert!(
                budget.rows[pair[0]].contribution >= budget.rows[pair[1]].contribution,
                "descending"
            );
        }
    }

    #[test]
    fn exact_nodes_contribute_exactly_zero() {
        let g = mixed_system();
        let eval = AccuracyEvaluator::new(&g, 128).unwrap();
        let fir = NodeId(2);
        let plan = WordLengthPlan::uniform(10, RoundingMode::Truncate).with_exact_nodes([fir]);
        let budget = eval.evaluate_budget(&plan);
        let exact: Vec<&BudgetRow> =
            budget.rows.iter().filter(|r| r.role == BudgetRole::Exact).collect();
        assert_eq!(exact.len(), 1);
        assert_eq!(exact[0].node, fir);
        assert_eq!(exact[0].contribution, 0.0);
        assert_eq!(exact[0].frac_bits, None);
        assert_eq!(budget.ledger_sum(), budget.power, "zero rows keep the ledger exact");
        assert_eq!(budget.power, eval.estimate_psd(&plan).power);
    }

    #[test]
    fn empty_plan_budget_is_exactly_zero() {
        let g = mixed_system();
        let eval = AccuracyEvaluator::new(&g, 64).unwrap();
        // Exempt everything: no sources remain.
        let plan = WordLengthPlan::uniform(8, RoundingMode::Truncate)
            .with_exact_nodes((0..g.len()).map(NodeId));
        let budget = eval.evaluate_budget(&plan);
        assert_eq!(budget.power, 0.0);
        assert_eq!(budget.power, eval.estimate_psd(&plan).power);
        assert!(budget.rows.iter().all(|r| r.role == BudgetRole::Exact));
        assert_eq!(budget.ledger_sum(), 0.0);
    }

    #[test]
    fn measured_rows_join_the_ledger_bit_exactly() {
        use psdacc_sfg::MeasuredSource;
        let mut g = Sfg::new();
        let x = g.add_input();
        let bins: Vec<f64> = (0..96).map(|k| 1e-7 * (k % 7 + 1) as f64).collect();
        let m = g.add_block(Block::Measured(MeasuredSource::new(bins, 2e-4)), &[]).unwrap();
        let sum = g.add_block(Block::Add, &[x, m]).unwrap();
        let f = g.add_block(Block::Fir(Fir::new(vec![0.4, -0.2, 0.1])), &[sum]).unwrap();
        g.mark_output(f);
        let eval = AccuracyEvaluator::new(&g, 128).unwrap();
        for (bits, rounding) in [(8, RoundingMode::Truncate), (14, RoundingMode::RoundNearest)] {
            let plan = WordLengthPlan::uniform(bits, rounding);
            let est = eval.estimate_psd(&plan);
            let budget = eval.evaluate_budget(&plan);
            assert_eq!(budget.power, est.power, "measured fold order matches the evaluate path");
            assert_eq!(budget.mean, est.mean);
            assert_eq!(budget.variance, est.variance);
            assert_eq!(budget.ledger_sum(), est.power, "ledger invariant with a measured row");
            let measured: Vec<&BudgetRow> =
                budget.rows.iter().filter(|r| r.role == BudgetRole::Measured).collect();
            assert_eq!(measured.len(), 1);
            assert_eq!(measured[0].node, m);
            assert_eq!(measured[0].block, "measured");
            assert_eq!(measured[0].frac_bits, None);
            assert!(measured[0].contribution > 0.0, "the floor is attributed, not dropped");
            // Measured rows sit after the auto rows, before any exact rows.
            let auto_count = budget.rows.iter().filter(|r| r.role == BudgetRole::Auto).count();
            assert_eq!(budget.rows[auto_count].role, BudgetRole::Measured);
        }
    }

    #[test]
    fn measured_only_budget_still_folds() {
        use psdacc_sfg::MeasuredSource;
        // No quantization sources at all: the measured row is the whole
        // ledger body and absorbs the (zero) residue itself.
        let mut g = Sfg::new();
        let m =
            g.add_block(Block::Measured(MeasuredSource::new(vec![0.25; 16], 0.5)), &[]).unwrap();
        g.mark_output(m);
        let eval = AccuracyEvaluator::new(&g, 16).unwrap();
        let plan = WordLengthPlan::uniform(8, RoundingMode::RoundNearest);
        let est = eval.estimate_psd(&plan);
        let budget = eval.evaluate_budget(&plan);
        assert_eq!(budget.power, est.power);
        assert_eq!(budget.ledger_sum(), budget.power);
        assert_eq!(budget.rows.len(), 1);
        assert_eq!(budget.rows[0].role, BudgetRole::Measured);
        assert!((budget.power - (0.25 * 16.0 + 0.25)).abs() < 1e-12);
    }

    #[test]
    fn residue_nudge_reaches_exact_targets() {
        // A fold residue case: 0.1 + 0.2 != 0.3 in f64, so the exact
        // residue for target 0.3 after prefix 0.1 is not literally 0.2.
        let r = exact_residue(0.1, 0.3).unwrap();
        assert_eq!(0.1 + r, 0.3);
        assert_eq!(exact_residue(0.0, 1.5), Some(1.5));
        assert_eq!(1.0 + exact_residue(1.0, 1.0 + 1e-16).unwrap(), 1.0 + 1e-16);
        // Negative direction too.
        let r = exact_residue(2.0, 1.0).unwrap();
        assert_eq!(2.0 + r, 1.0);
    }

    #[test]
    fn midpoint_aligned_targets_have_no_single_row_preimage() {
        // Found by the budget proptest: this prefix puts every exact sum
        // `prefix + r` on a round-to-even midpoint, so the odd-mantissa
        // target is unreachable from one row — `exact_residue` must
        // report that instead of oscillating, and `assemble` falls back
        // to shifting the penultimate row.
        let prefix = 1.1827265828634484e-4;
        let target = 4.43793491619678e-4;
        assert_eq!(exact_residue(prefix, target), None);
    }
}
