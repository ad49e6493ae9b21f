//! The proposed PSD-based accuracy evaluation (paper Section III).
//!
//! The engine works in two stages:
//!
//! 1. `tau_pp`, independent of word-lengths ([`psdacc_sfg::preprocess`]):
//!    on a single-rate graph it samples every block transfer function on
//!    the `N_PSD` grid, solves the graph per frequency, and reduces each
//!    node's complex source-to-output response `G_i` (times the `1/A(z)`
//!    shaping of an IIR node's own source) to a real kernel row
//!    `|G_i(F_k)|^2` plus its DC path. Multirate graphs fold and image
//!    into the same kernel form;
//! 2. `tau_eval`, per word-length configuration ([`evaluate_with_kernels`]):
//!    each quantization source is a white PSD with the PQN moments
//!    (Eq. 10), and the output accumulates
//!    `S_out[k] += sigma_i^2 / N_PSD * |G_i(F_k)|^2` plus the mean through
//!    the DC paths: one scale-and-add per source, O(Ne * N_PSD), on every
//!    graph.
//!
//! Because `G_i` is the *complex* source-to-output response of the resolved
//! graph, reconvergent paths of the same source interfere with correct
//! phase: Eq. 12's cross-spectra are accounted for exactly inside the LTI
//! region, which is precisely what the PSD-agnostic baseline cannot do.

use psdacc_sfg::{single_rate_kernels, NodeId, Preprocessed, Sfg, SfgError};

use crate::noise_psd::NoisePsd;
use crate::wordlength::NoiseSource;

/// Result of a PSD-method evaluation.
#[derive(Debug, Clone)]
pub struct PsdEstimate {
    /// Estimated PSD of the output error.
    pub psd: NoisePsd,
    /// Power contribution of each source (diagnostic / refinement aid).
    pub per_source: Vec<(NodeId, f64)>,
}

impl PsdEstimate {
    /// Total estimated error power.
    pub fn power(&self) -> f64 {
        self.psd.power()
    }
}

/// One-shot evaluation on a single-rate graph: solve it, reduce the
/// responses to kernels shaped as the given sources say (an IIR source's
/// `internal_feedback`), then accumulate the sources.
///
/// # Errors
///
/// Propagates [`SfgError`] from the per-frequency solve (unknown output,
/// delay-free cycles, rate changers).
pub fn evaluate_psd_method(
    sfg: &Sfg,
    output: NodeId,
    sources: &[NoiseSource],
    npsd: usize,
) -> Result<PsdEstimate, SfgError> {
    let mut feedback = vec![None; sfg.len()];
    for src in sources {
        feedback[src.node.0] = src.internal_feedback.as_deref();
    }
    let kernels = single_rate_kernels(sfg, output, npsd, &feedback)?;
    Ok(evaluate_with_kernels(&kernels, sources))
}

/// Evaluation stage only (`tau_eval`), reusing cached preprocessing. This is
/// what gets re-run for every word-length configuration during refinement.
pub fn evaluate_with_kernels(kernels: &Preprocessed, sources: &[NoiseSource]) -> PsdEstimate {
    let mut total = NoisePsd::zero(kernels.npsd_out());
    let mut per_source = Vec::with_capacity(sources.len());
    for src in sources {
        let contribution = contribution(kernels, src);
        per_source.push((src.node, contribution.power()));
        total.add_assign(&contribution);
    }
    PsdEstimate { psd: total, per_source }
}

/// One source's output-referred PSD — the term `evaluate_with_kernels`
/// accumulates, shared with the noise-budget attribution so the two views
/// are the same computation by construction: the white bin
/// `sigma^2 / white_bins` times the variance row, plus `mu^2` times the
/// mean-image row where one exists, with the mean riding the DC path.
pub(crate) fn contribution(kernels: &Preprocessed, src: &NoiseSource) -> NoisePsd {
    let kernel = kernels.kernel(src.node);
    let white_bin = src.moments.variance / kernels.white_bins() as f64;
    let mu = src.moments.mean;
    let variance = kernel.variance.iter();
    let bins = if kernel.mean_sq.is_empty() {
        variance.map(|&v| white_bin * v).collect()
    } else {
        variance.zip(&kernel.mean_sq).map(|(&v, &m)| white_bin * v + mu * mu * m).collect()
    };
    NoisePsd::from_parts(bins, mu * kernel.dc)
}

/// One measured source's output-referred PSD: the estimated spectrum
/// rebinned onto the evaluation grid (power-preserving; bit-exact when the
/// grids match) times the node's kernel row, with the sample mean riding
/// the DC path. Unlike quantization sources the spectrum is colored and
/// word-length independent — a noise floor every plan shares. Multirate
/// preprocessing rejects measured sources, so the rows read here are
/// always single-rate `|G|^2`.
pub(crate) fn measured_contribution(
    kernels: &Preprocessed,
    node: NodeId,
    src: &psdacc_sfg::MeasuredSource,
) -> NoisePsd {
    let kernel = kernels.kernel(node);
    let bins = src.bins_at(kernels.npsd()).into_iter().zip(&kernel.variance).map(|(s, v)| s * v);
    NoisePsd::from_parts(bins.collect(), src.mean * kernel.dc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wordlength::WordLengthPlan;
    use psdacc_filters::{Fir, Iir, LtiSystem};
    use psdacc_fixed::{NoiseMoments, RoundingMode};
    use psdacc_sfg::Block;

    /// Single FIR: output noise = input-source noise shaped by |H|^2 plus
    /// the filter's own source, white.
    #[test]
    fn single_fir_analytic() {
        let fir = Fir::new(vec![0.5, 0.5]);
        let mut g = Sfg::new();
        let x = g.add_input();
        let f = g.add_block(Block::Fir(fir.clone()), &[x]).unwrap();
        g.mark_output(f);
        let d = 8;
        let plan = WordLengthPlan::uniform(d, RoundingMode::RoundNearest);
        let sources = plan.noise_sources(&g);
        let est = evaluate_psd_method(&g, f, &sources, 256).unwrap();
        let q2_12 = NoiseMoments::continuous(RoundingMode::RoundNearest, d).variance;
        // Analytic: sigma^2 * energy(h) + sigma^2 = sigma^2 (0.5 + 1).
        let expect = q2_12 * (fir.energy() + 1.0);
        assert!((est.power() - expect).abs() < 1e-3 * expect, "{} vs {}", est.power(), expect);
    }

    /// Truncation means ride the DC gains: check against hand computation.
    #[test]
    fn truncation_mean_through_dc_gain() {
        let fir = Fir::new(vec![0.75, 0.75]); // DC gain 1.5
        let mut g = Sfg::new();
        let x = g.add_input();
        let f = g.add_block(Block::Fir(fir), &[x]).unwrap();
        g.mark_output(f);
        let d = 6;
        let plan = WordLengthPlan::uniform(d, RoundingMode::Truncate);
        let est = evaluate_psd_method(&g, f, &plan.noise_sources(&g), 128).unwrap();
        let mu = NoiseMoments::continuous(RoundingMode::Truncate, d).mean;
        // Input source mean through DC 1.5 plus the filter's own mean.
        let expect_mean = mu * 1.5 + mu;
        assert!((est.psd.mean() - expect_mean).abs() < 1e-12);
    }

    /// IIR source is shaped by 1/A: power = sigma^2 * energy(1/A).
    #[test]
    fn iir_internal_shaping() {
        let iir = Iir::new(vec![1.0], vec![1.0, -0.9]).unwrap();
        let mut g = Sfg::new();
        let x = g.add_input();
        let f = g.add_block(Block::Iir(iir), &[x]).unwrap();
        g.mark_output(f);
        let d = 10;
        let mut plan = WordLengthPlan::uniform(d, RoundingMode::RoundNearest);
        plan.quantize_inputs = false; // isolate the IIR source
        let sources = plan.noise_sources(&g);
        assert_eq!(sources.len(), 1);
        let est = evaluate_psd_method(&g, f, &sources, 4096).unwrap();
        let sigma2 = NoiseMoments::continuous(RoundingMode::RoundNearest, d).variance;
        // energy of 1/(1-0.9 z^-1) = 1/(1-0.81).
        let expect = sigma2 / (1.0 - 0.81);
        // N_PSD sampling slightly misestimates the pole peak; a few percent.
        assert!((est.power() - expect).abs() < 0.02 * expect, "{} vs {}", est.power(), expect);
    }

    /// Reconvergent same-source paths: PSD method captures the interference
    /// exactly (complex sum), unlike a power sum.
    #[test]
    fn reconvergence_interference() {
        // Source at x; paths: identity and delay(1), summed. |1 + e^-jw|^2
        // integrates to 2 over the band, *not* the power-sum 2... but with
        // correlation the DC bin doubles and Nyquist vanishes.
        let mut g = Sfg::new();
        let x = g.add_input();
        let d1 = g.add_block(Block::Delay(1), &[x]).unwrap();
        let add = g.add_block(Block::Add, &[x, d1]).unwrap();
        g.mark_output(add);
        let src =
            NoiseSource { node: x, moments: NoiseMoments::new(0.0, 1.0), internal_feedback: None };
        let est = evaluate_psd_method(&g, add, &[src], 64).unwrap();
        // Total variance: integral of |1+e^-jw|^2 = 2 (same as power sum
        // here), but the *spectrum* differs: DC bin holds 4/64, Nyquist 0.
        assert!((est.power() - 2.0).abs() < 1e-9);
        assert!((est.psd.bins()[0] - 4.0 / 64.0).abs() < 1e-12);
        assert!(est.psd.bins()[32].abs() < 1e-12);
    }

    #[test]
    fn per_source_breakdown_sums_to_total() {
        let mut g = Sfg::new();
        let x = g.add_input();
        let a = g.add_block(Block::Gain(0.3), &[x]).unwrap();
        let f = g.add_block(Block::Fir(Fir::new(vec![0.2, 0.2, 0.2])), &[a]).unwrap();
        g.mark_output(f);
        let plan = WordLengthPlan::uniform(8, RoundingMode::RoundNearest);
        let sources = plan.noise_sources(&g);
        let est = evaluate_psd_method(&g, f, &sources, 128).unwrap();
        let sum: f64 = est.per_source.iter().map(|(_, p)| p).sum();
        assert!((sum - est.power()).abs() < 1e-15 + 1e-9 * est.power());
    }
}
