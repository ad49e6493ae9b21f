//! The high-level accuracy evaluator: preprocessing cache + the three
//! methods + simulation, with the paper's `tau_pp` / `tau_eval` split.

use std::time::Instant;

use psdacc_sfg::{preprocess, NodeId, Preprocessed, Sfg, SfgError};
use psdacc_sim::{measure_quantization_error, SimulationPlan};

use crate::agnostic::evaluate_agnostic;
use crate::flat::evaluate_flat;
use crate::psd_method::{evaluate_with_multirate, evaluate_with_responses};
use crate::report::{Comparison, Estimate, Method};
use crate::wordlength::WordLengthPlan;

/// Accuracy evaluator for one system (one SFG and one designated output).
///
/// Construction performs the one-time preprocessing (`tau_pp`): solving the
/// graph per frequency bin. Every subsequent word-length configuration is
/// evaluated in O(Ne * N_PSD) (`tau_eval`), which is what makes the method
/// usable inside a word-length optimization loop.
///
/// # Examples
///
/// ```
/// use psdacc_core::{AccuracyEvaluator, WordLengthPlan};
/// use psdacc_fixed::RoundingMode;
/// use psdacc_sfg::{Sfg, Block};
/// use psdacc_filters::Fir;
///
/// let mut g = Sfg::new();
/// let x = g.add_input();
/// let f = g.add_block(Block::Fir(Fir::new(vec![0.5, 0.5])), &[x])?;
/// g.mark_output(f);
/// let eval = AccuracyEvaluator::new(&g, 256)?;
/// let plan = WordLengthPlan::uniform(12, RoundingMode::RoundNearest);
/// let est = eval.estimate_psd(&plan);
/// assert!(est.power > 0.0);
/// # Ok::<(), psdacc_sfg::SfgError>(())
/// ```
#[derive(Debug)]
pub struct AccuracyEvaluator {
    sfg: Sfg,
    output: NodeId,
    preprocessed: Preprocessed,
    preprocess_seconds: f64,
}

impl AccuracyEvaluator {
    /// Builds an evaluator for the first marked output of `sfg`, sampling
    /// PSDs on `npsd` bins (the input-rate grid; multirate graphs scale
    /// each rate region's grid accordingly).
    ///
    /// # Errors
    ///
    /// [`SfgError::NoOutput`] when the graph has no designated output, plus
    /// any realizability or rate-consistency error from preprocessing.
    pub fn new(sfg: &Sfg, npsd: usize) -> Result<Self, SfgError> {
        let output = *sfg.outputs().first().ok_or(SfgError::NoOutput)?;
        let t0 = Instant::now();
        let preprocessed = preprocess(sfg, output, npsd)?;
        let preprocess_seconds = t0.elapsed().as_secs_f64();
        Ok(AccuracyEvaluator { sfg: sfg.clone(), output, preprocessed, preprocess_seconds })
    }

    /// Rebuilds an evaluator from **already-computed** preprocessing — the
    /// warm path of a persistent store. No solve is performed;
    /// `preprocess_seconds` should carry the cost recorded when the
    /// preprocessing was first computed.
    ///
    /// # Errors
    ///
    /// [`SfgError::NoOutput`] when the graph has no designated output;
    /// [`SfgError::ResponseShape`] when `preprocessed` does not cover
    /// exactly the nodes of `sfg` or its form does not match the graph's
    /// rate structure.
    pub fn from_cached(
        sfg: &Sfg,
        preprocessed: Preprocessed,
        preprocess_seconds: f64,
    ) -> Result<Self, SfgError> {
        let output = *sfg.outputs().first().ok_or(SfgError::NoOutput)?;
        if preprocessed.len() != sfg.len() {
            return Err(SfgError::ResponseShape {
                detail: format!(
                    "preprocessing covers {} nodes, graph has {}",
                    preprocessed.len(),
                    sfg.len()
                ),
            });
        }
        let multirate_graph = psdacc_sfg::is_multirate(sfg);
        let multirate_data = preprocessed.as_multirate().is_some();
        if multirate_graph != multirate_data {
            return Err(SfgError::ResponseShape {
                detail: format!(
                    "graph is {} but the cached preprocessing is {}",
                    if multirate_graph { "multirate" } else { "single-rate" },
                    if multirate_data { "multirate" } else { "single-rate" },
                ),
            });
        }
        Ok(AccuracyEvaluator { sfg: sfg.clone(), output, preprocessed, preprocess_seconds })
    }

    /// The analyzed graph.
    pub fn sfg(&self) -> &Sfg {
        &self.sfg
    }

    /// The designated output node.
    pub fn output(&self) -> NodeId {
        self.output
    }

    /// PSD grid size (input-rate grid).
    pub fn npsd(&self) -> usize {
        self.preprocessed.npsd()
    }

    /// Wall-clock seconds spent in preprocessing (`tau_pp`).
    pub fn preprocess_seconds(&self) -> f64 {
        self.preprocess_seconds
    }

    /// Cached preprocessing (exact responses or multirate kernels).
    pub fn preprocessed(&self) -> &Preprocessed {
        &self.preprocessed
    }

    /// Proposed PSD method (`tau_eval` stage only — reuses the cache).
    ///
    /// Graphs with [`psdacc_sfg::Block::Measured`] sources additionally
    /// accumulate each estimated spectrum, rebinned onto the evaluation
    /// grid and shaped by the node's source-to-output response — a
    /// word-length-independent noise floor under every plan. Measured
    /// contributions are folded *after* the quantization sources in a
    /// fixed order, the same order [`AccuracyEvaluator::evaluate_budget`]
    /// uses, so the two stay bit-identical.
    pub fn estimate_psd(&self, plan: &WordLengthPlan) -> Estimate {
        let sources = plan.noise_sources(&self.sfg);
        let measured = self.sfg.measured_sources();
        let t0 = Instant::now();
        let est = {
            let _frame = psdacc_obs::profile::frame("tau_eval");
            match &self.preprocessed {
                Preprocessed::SingleRate(responses) => {
                    let mut est = evaluate_with_responses(responses, &sources);
                    for (node, src) in &measured {
                        let c = crate::psd_method::measured_contribution_single_rate(
                            responses, *node, src,
                        );
                        est.per_source.push((*node, c.power()));
                        est.psd.add_assign(&c);
                    }
                    est
                }
                Preprocessed::Multirate(kernels) => {
                    debug_assert!(
                        measured.is_empty(),
                        "multirate preprocessing rejects measured sources"
                    );
                    evaluate_with_multirate(kernels, &sources)
                }
            }
        };
        let elapsed = t0.elapsed();
        Estimate {
            method: Method::PsdMethod,
            power: est.power(),
            mean: est.psd.mean(),
            variance: est.psd.variance(),
            psd: Some(est.psd),
            elapsed,
        }
    }

    /// Per-node noise-budget attribution of the PSD method's power: same
    /// `tau_eval` kernels as [`AccuracyEvaluator::estimate_psd`], but the
    /// per-source contributions are kept as a ledger whose rows fold
    /// bit-exactly to the evaluate-path power (see [`crate::budget`]).
    pub fn evaluate_budget(&self, plan: &WordLengthPlan) -> crate::budget::NoiseBudget {
        let sources = plan.noise_sources(&self.sfg);
        let _frame = psdacc_obs::profile::frame("budget_eval");
        let (contributions, measured): (Vec<crate::NoisePsd>, Vec<(NodeId, crate::NoisePsd)>) =
            match &self.preprocessed {
                Preprocessed::SingleRate(responses) => (
                    sources
                        .iter()
                        .map(|s| crate::psd_method::contribution_single_rate(responses, s))
                        .collect(),
                    self.sfg
                        .measured_sources()
                        .iter()
                        .map(|(node, src)| {
                            (
                                *node,
                                crate::psd_method::measured_contribution_single_rate(
                                    responses, *node, src,
                                ),
                            )
                        })
                        .collect(),
                ),
                Preprocessed::Multirate(kernels) => (
                    sources
                        .iter()
                        .map(|s| crate::psd_method::contribution_multirate(kernels, s))
                        .collect(),
                    Vec::new(),
                ),
            };
        crate::budget::assemble(&self.sfg, plan, &sources, &contributions, &measured)
    }

    /// PSD-agnostic hierarchical baseline.
    ///
    /// # Errors
    ///
    /// [`SfgError::DelayFreeCycle`] when the block-level graph is cyclic.
    pub fn estimate_agnostic(&self, plan: &WordLengthPlan) -> Result<Estimate, SfgError> {
        let sources = plan.noise_sources(&self.sfg);
        let t0 = Instant::now();
        let est = evaluate_agnostic(&self.sfg, self.output, &sources)?;
        Ok(Estimate {
            method: Method::PsdAgnostic,
            power: est.power(),
            mean: est.mean,
            variance: est.variance,
            psd: None,
            elapsed: t0.elapsed(),
        })
    }

    /// Classical flat method (time-domain path probing).
    ///
    /// # Errors
    ///
    /// [`SfgError::Multirate`] on multirate graphs — a single impulse probe
    /// only captures one decimator phase of a periodically time-varying
    /// path, so Eq. 5's `K_i` is undefined (the guard lives in
    /// [`evaluate_flat`]). Otherwise propagates simulator-construction
    /// errors.
    pub fn estimate_flat(&self, plan: &WordLengthPlan) -> Result<Estimate, SfgError> {
        let sources = plan.noise_sources(&self.sfg);
        let t0 = Instant::now();
        let est = evaluate_flat(&self.sfg, self.output, &sources, 1 << 16, 1e-16)?;
        Ok(Estimate {
            method: Method::Flat,
            power: est.power(),
            mean: est.mean,
            variance: est.variance,
            psd: None,
            elapsed: t0.elapsed(),
        })
    }

    /// Monte-Carlo simulation reference.
    ///
    /// # Errors
    ///
    /// [`SfgError::Measured`] on graphs with measured sources — an
    /// estimated spectrum has no time-domain realization to simulate.
    /// Otherwise propagates simulator-construction errors.
    pub fn simulate(
        &self,
        plan: &WordLengthPlan,
        sim: &SimulationPlan,
    ) -> Result<Estimate, SfgError> {
        if self.sfg.has_measured() {
            return Err(SfgError::Measured {
                detail: "bit-true simulation has no time-domain realization of an estimated \
                         spectrum"
                    .to_string(),
            });
        }
        let quantizers = plan.quantizers(&self.sfg);
        let t0 = Instant::now();
        let m = measure_quantization_error(&self.sfg, &quantizers, sim)?;
        Ok(Estimate {
            method: Method::Simulation,
            power: m.power,
            mean: m.mean,
            variance: m.variance,
            psd: Some(crate::noise_psd::NoisePsd::from_parts(
                {
                    // Remove the mean mass from the measured DC bin so the
                    // representation matches NoisePsd conventions.
                    let mut bins = m.psd.clone();
                    if let Some(dc) = bins.first_mut() {
                        *dc = (*dc - m.mean * m.mean).max(0.0);
                    }
                    bins
                },
                m.mean,
            )),
            elapsed: t0.elapsed(),
        })
    }

    /// Runs simulation plus all three analytical methods and packages the
    /// comparison.
    ///
    /// # Errors
    ///
    /// Propagates errors from any stage.
    pub fn compare(
        &self,
        plan: &WordLengthPlan,
        sim: &SimulationPlan,
    ) -> Result<Comparison, SfgError> {
        let simulated = self.simulate(plan, sim)?;
        let estimates =
            vec![self.estimate_psd(plan), self.estimate_agnostic(plan)?, self.estimate_flat(plan)?];
        Ok(Comparison { simulated, estimates })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;
    use psdacc_dsp::Window;
    use psdacc_filters::{butterworth, design_fir, BandSpec, Fir};
    use psdacc_fixed::RoundingMode;
    use psdacc_sfg::Block;

    fn fir_system() -> Sfg {
        let fir = design_fir(BandSpec::Lowpass { cutoff: 0.2 }, 31, Window::Hamming).unwrap();
        let mut g = Sfg::new();
        let x = g.add_input();
        let f = g.add_block(Block::Fir(fir), &[x]).unwrap();
        g.mark_output(f);
        g
    }

    /// End-to-end: the PSD estimate lands within a few percent of the
    /// simulation on a designed FIR filter (Table I row, in miniature).
    #[test]
    fn psd_method_matches_simulation_on_fir() {
        let g = fir_system();
        let eval = AccuracyEvaluator::new(&g, 1024).unwrap();
        let plan = WordLengthPlan::uniform(12, RoundingMode::Truncate);
        let sim = SimulationPlan { samples: 200_000, nfft: 256, ..Default::default() };
        let c = eval.compare(&plan, &sim).unwrap();
        let ed = c.ed_of(Method::PsdMethod).unwrap();
        assert!(ed.abs() < 0.05, "FIR Ed should be tiny, got {ed}");
        // Flat agrees with PSD on an elementary block (Section IV-B).
        let ed_flat = c.ed_of(Method::Flat).unwrap();
        assert!((ed - ed_flat).abs() < 1e-6, "flat and psd must coincide");
    }

    /// End-to-end on an IIR: recursive shaping captured, sub-one-bit.
    #[test]
    fn psd_method_matches_simulation_on_iir() {
        let iir = butterworth(4, BandSpec::Lowpass { cutoff: 0.15 }).unwrap();
        let mut g = Sfg::new();
        let x = g.add_input();
        let f = g.add_block(Block::Iir(iir), &[x]).unwrap();
        g.mark_output(f);
        let eval = AccuracyEvaluator::new(&g, 1024).unwrap();
        let plan = WordLengthPlan::uniform(12, RoundingMode::RoundNearest);
        let sim = SimulationPlan { samples: 300_000, nfft: 256, ..Default::default() };
        let c = eval.compare(&plan, &sim).unwrap();
        let ed = c.ed_of(Method::PsdMethod).unwrap();
        assert!(metrics::is_sub_one_bit(ed), "IIR Ed out of band: {ed}");
        assert!(ed.abs() < 0.35, "IIR Ed larger than paper-scale bounds: {ed}");
    }

    #[test]
    fn preprocessing_is_reused() {
        let g = fir_system();
        let eval = AccuracyEvaluator::new(&g, 512).unwrap();
        let e1 = eval.estimate_psd(&WordLengthPlan::uniform(8, RoundingMode::Truncate));
        let e2 = eval.estimate_psd(&WordLengthPlan::uniform(16, RoundingMode::Truncate));
        // 8 bits -> 16 bits: noise power drops by ~2^16.
        let ratio = e1.power / e2.power;
        assert!(
            (ratio.log2() - 16.0).abs() < 0.1,
            "power should scale by 2^(2*8), log2 ratio {}",
            ratio.log2()
        );
    }

    #[test]
    fn from_cached_reproduces_estimates_bit_identically() {
        use psdacc_sfg::NodeResponses;
        let g = fir_system();
        let eval = AccuracyEvaluator::new(&g, 256).unwrap();
        let rows = eval.preprocessed().as_single_rate().unwrap().rows().to_vec();
        let rebuilt = AccuracyEvaluator::from_cached(
            &g,
            Preprocessed::SingleRate(NodeResponses::from_rows(rows, 256).unwrap()),
            eval.preprocess_seconds(),
        )
        .unwrap();
        let plan = WordLengthPlan::uniform(10, RoundingMode::Truncate);
        assert_eq!(eval.estimate_psd(&plan).power, rebuilt.estimate_psd(&plan).power);
        assert_eq!(rebuilt.preprocess_seconds(), eval.preprocess_seconds());
        assert_eq!(rebuilt.output(), eval.output());
    }

    #[test]
    fn from_cached_rejects_mismatched_shapes() {
        use psdacc_sfg::NodeResponses;
        let g = fir_system();
        let eval = AccuracyEvaluator::new(&g, 64).unwrap();
        let mut rows = eval.preprocessed().as_single_rate().unwrap().rows().to_vec();
        rows.pop();
        let short = NodeResponses::from_rows(rows, 64).unwrap();
        assert!(matches!(
            AccuracyEvaluator::from_cached(&g, Preprocessed::SingleRate(short), 0.0),
            Err(SfgError::ResponseShape { .. })
        ));
    }

    #[test]
    fn from_cached_rejects_wrong_preprocessing_form() {
        use psdacc_sfg::Block;
        // Multirate kernels attached to a single-rate graph (and vice
        // versa) must be refused even when the node counts line up.
        let g = fir_system();
        let mut m = Sfg::new();
        let x = m.add_input();
        let d = m.add_block(Block::Downsample(2), &[x]).unwrap();
        m.mark_output(d);
        let multi = AccuracyEvaluator::new(&m, 32).unwrap();
        let kernels = multi.preprocessed().clone();
        assert!(matches!(
            AccuracyEvaluator::from_cached(&g, kernels, 0.0),
            Err(SfgError::ResponseShape { .. })
        ));
        let single = AccuracyEvaluator::new(&g, 32).unwrap().preprocessed().clone();
        assert!(matches!(
            AccuracyEvaluator::from_cached(&m, single, 0.0),
            Err(SfgError::ResponseShape { .. })
        ));
    }

    /// End-to-end multirate check at the evaluator level: a decimated
    /// two-channel branch pair evaluated analytically vs the bit-true
    /// multirate simulator.
    #[test]
    fn multirate_psd_estimate_matches_simulation() {
        use psdacc_sfg::Block;
        // Orthonormal Haar bank: irrational taps keep the PQN source model
        // valid (integer/half taps would quantize to the grid noiselessly).
        let s = std::f64::consts::FRAC_1_SQRT_2;
        let mut g = Sfg::new();
        let x = g.add_input();
        let lp = g.add_block(Block::Fir(Fir::new(vec![s, s])), &[x]).unwrap();
        let hp = g.add_block(Block::Fir(Fir::new(vec![s, -s])), &[x]).unwrap();
        let dl = g.add_block(Block::Downsample(2), &[lp]).unwrap();
        let dh = g.add_block(Block::Downsample(2), &[hp]).unwrap();
        let ul = g.add_block(Block::Upsample(2), &[dl]).unwrap();
        let uh = g.add_block(Block::Upsample(2), &[dh]).unwrap();
        let gl = g.add_block(Block::Fir(Fir::new(vec![s, s])), &[ul]).unwrap();
        let gh = g.add_block(Block::Fir(Fir::new(vec![-s, s])), &[uh]).unwrap();
        let sum = g.add_block(Block::Add, &[gl, gh]).unwrap();
        g.mark_output(sum);
        let eval = AccuracyEvaluator::new(&g, 128).unwrap();
        let plan = WordLengthPlan::uniform(10, RoundingMode::RoundNearest);
        let est = eval.estimate_psd(&plan);
        let sim = SimulationPlan { samples: 400_000, nfft: 128, ..Default::default() };
        let measured = eval.simulate(&plan, &sim).unwrap();
        let ed = (est.power - measured.power) / measured.power;
        assert!(ed.abs() < 0.1, "multirate Ed {ed} (est {}, meas {})", est.power, measured.power);
        // The flat method must refuse rather than silently probe one phase.
        assert!(matches!(eval.estimate_flat(&plan), Err(SfgError::Multirate { .. })));
    }

    #[test]
    fn no_output_is_an_error() {
        let mut g = Sfg::new();
        let _ = g.add_input();
        assert!(matches!(AccuracyEvaluator::new(&g, 64), Err(SfgError::NoOutput)));
    }

    /// A graph mixing a measured source with quantization noise: input and
    /// measured branch summed into an FIR.
    fn measured_system(npsd_src: usize) -> (Sfg, psdacc_sfg::NodeId) {
        use psdacc_sfg::MeasuredSource;
        // Colored spectrum: a ramp of bin masses plus a nonzero mean.
        let bins: Vec<f64> = (0..npsd_src).map(|k| 1e-6 * (k + 1) as f64).collect();
        let src = MeasuredSource::new(bins, 3e-4);
        let mut g = Sfg::new();
        let x = g.add_input();
        let m = g.add_block(Block::Measured(src), &[]).unwrap();
        let sum = g.add_block(Block::Add, &[x, m]).unwrap();
        let f = g.add_block(Block::Fir(Fir::new(vec![0.4, -0.2, 0.1])), &[sum]).unwrap();
        g.mark_output(f);
        (g, m)
    }

    /// With every quantizer exempted, the estimate is exactly the measured
    /// spectrum propagated through the node's source-to-output response —
    /// bit-identical to the analytic `through_response` computation.
    #[test]
    fn measured_contribution_is_the_propagated_spectrum() {
        use psdacc_sfg::node_responses;
        let npsd = 128;
        let (g, m) = measured_system(npsd);
        let eval = AccuracyEvaluator::new(&g, npsd).unwrap();
        let plan = WordLengthPlan::uniform(10, RoundingMode::RoundNearest)
            .with_exact_nodes((0..g.len()).map(psdacc_sfg::NodeId));
        let est = eval.estimate_psd(&plan);
        let out = *g.outputs().first().unwrap();
        let responses = node_responses(&g, out, npsd).unwrap();
        let (node, src) = &g.measured_sources()[0];
        assert_eq!(*node, m);
        let expect = crate::propagate::through_response(
            &crate::NoisePsd::from_parts(src.bins_at(npsd), src.mean),
            responses.of(m),
        );
        let psd = est.psd.unwrap();
        assert_eq!(psd.bins(), expect.bins(), "bins are the analytic propagation, bit-exact");
        assert_eq!(psd.mean(), expect.mean());
        assert_eq!(est.power, expect.power());
        assert!(est.power > 0.0, "measured floor survives an all-exact plan");
    }

    /// The measured floor is word-length independent: it bounds the
    /// estimate from below for every plan.
    #[test]
    fn measured_floor_is_wordlength_independent() {
        let (g, _) = measured_system(64);
        let eval = AccuracyEvaluator::new(&g, 64).unwrap();
        let floor = eval
            .estimate_psd(
                &WordLengthPlan::uniform(8, RoundingMode::RoundNearest)
                    .with_exact_nodes((0..g.len()).map(psdacc_sfg::NodeId)),
            )
            .power;
        let mut prev = f64::INFINITY;
        for bits in [6, 10, 14, 18, 22] {
            // Round-to-nearest keeps the quantization means at zero, so
            // the quantization part strictly adds on top of the floor.
            let p =
                eval.estimate_psd(&WordLengthPlan::uniform(bits, RoundingMode::RoundNearest)).power;
            assert!(p >= floor, "quantization only adds on top of the floor");
            assert!(p < prev, "more bits still reduce the total");
            prev = p;
        }
        assert!(prev < floor * 1.001, "at 22 bits the floor dominates");
    }

    /// Flat, agnostic, and simulation refuse measured graphs instead of
    /// silently mis-modeling the colored spectrum.
    #[test]
    fn non_psd_methods_refuse_measured_graphs() {
        let (g, _) = measured_system(64);
        let eval = AccuracyEvaluator::new(&g, 64).unwrap();
        let plan = WordLengthPlan::uniform(10, RoundingMode::RoundNearest);
        assert!(matches!(eval.estimate_flat(&plan), Err(SfgError::Measured { .. })));
        assert!(matches!(eval.estimate_agnostic(&plan), Err(SfgError::Measured { .. })));
        let sim = SimulationPlan { samples: 1000, nfft: 64, ..Default::default() };
        assert!(matches!(eval.simulate(&plan, &sim), Err(SfgError::Measured { .. })));
        assert!(matches!(eval.compare(&plan, &sim), Err(SfgError::Measured { .. })));
    }
}
