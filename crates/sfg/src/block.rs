//! Block types that populate a signal-flow graph.

use std::sync::Arc;

use psdacc_fft::{Complex, FftPlanner};
use psdacc_filters::{Fir, Iir, LtiSystem};

/// An estimated PSD attached to a [`Block::Measured`] source node: the
/// two-sided bin-mass spectrum of the zero-mean part of a recorded trace
/// plus its mean (DC), in the same `{bins, mean}` split every analytic
/// source uses. Produced by `psdacc_estim::welch_psd` /
/// `psdacc_estim::cross_psd` (directly or through `GraphSpec`'s
/// `measured` node kind).
///
/// The bins live behind an [`Arc`] so cloning graphs (the evaluator and
/// the engine's preprocessing cache clone freely) never copies spectra.
#[derive(Debug, Clone)]
pub struct MeasuredSource {
    /// Two-sided bin-mass PSD of the zero-mean signal part, on the
    /// estimation grid (`nfft` bins over normalized frequency `[0, 1)`).
    pub bins: Arc<Vec<f64>>,
    /// Sample mean (DC component), carried separately.
    pub mean: f64,
}

impl MeasuredSource {
    pub fn new(bins: Vec<f64>, mean: f64) -> Self {
        MeasuredSource { bins: Arc::new(bins), mean }
    }

    /// Total power of the zero-mean part (`sum(bins)`).
    pub fn power(&self) -> f64 {
        self.bins.iter().sum()
    }

    /// The source PSD resampled onto an `npsd`-bin evaluation grid,
    /// conserving total power. Bit-exact copy when the grids already
    /// match.
    pub fn bins_at(&self, npsd: usize) -> Vec<f64> {
        psdacc_estim::rebin_mass(&self.bins, npsd)
    }
}

/// A processing block in a signal-flow graph.
///
/// Most blocks are single-rate LTI and are resolved exactly by the
/// per-frequency linear solve in [`crate::freq`]. The two rate changers
/// ([`Block::Downsample`], [`Block::Upsample`]) are linear but *periodically
/// time-varying*: graphs containing them take the analytical path in
/// [`crate::multirate`], which folds/images PSDs across per-rate-region
/// frequency grids instead of solving one global linear system.
#[derive(Debug, Clone)]
pub enum Block {
    /// An external input port (no predecessors).
    Input,
    /// Multiplication by a constant.
    Gain(f64),
    /// A pure delay of `k >= 1` samples (counted in the block's *local*
    /// sample rate). Delays are the only blocks allowed to close feedback
    /// loops.
    Delay(usize),
    /// An FIR filter.
    Fir(Fir),
    /// An IIR filter.
    Iir(Iir),
    /// An n-ary adder (sums all predecessors).
    Add,
    /// Decimator: keeps every `M`-th input sample (`M >= 1`), dividing the
    /// sample rate by `M`. Factor 1 is an exact wire.
    Downsample(usize),
    /// Expander: inserts `L - 1` zeros after every input sample
    /// (`L >= 1`), multiplying the sample rate by `L`. Factor 1 is an
    /// exact wire.
    Upsample(usize),
    /// A measured-signal source (no predecessors): injects an *estimated*
    /// PSD — Welch or cross-spectrum over a recorded trace — instead of an
    /// analytic quantization-noise model. Structurally it behaves like
    /// [`Block::Input`] (unit transfer, exact, never requantizes); the
    /// evaluator propagates its colored spectrum through the node's
    /// response to the output. Single-rate graphs only: the multirate
    /// kernel path is restricted to white per-source moments.
    Measured(MeasuredSource),
}

impl Block {
    /// Human-readable block kind for diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            Block::Input => "input",
            Block::Gain(_) => "gain",
            Block::Delay(_) => "delay",
            Block::Fir(_) => "fir",
            Block::Iir(_) => "iir",
            Block::Add => "add",
            Block::Downsample(_) => "downsample",
            Block::Upsample(_) => "upsample",
            Block::Measured(_) => "measured",
        }
    }

    /// Rate change `(numerator, denominator)` the block applies to its input
    /// sample rate: `(1, M)` for a decimator, `(L, 1)` for an expander,
    /// `(1, 1)` for everything else.
    pub fn rate_change(&self) -> (usize, usize) {
        match self {
            Block::Downsample(m) => (1, *m),
            Block::Upsample(l) => (*l, 1),
            _ => (1, 1),
        }
    }

    /// `true` for rate changers with an effective factor (`M`/`L` greater
    /// than 1). Factor-1 rate blocks are exact wires and keep the graph on
    /// the single-rate path.
    pub fn changes_rate(&self) -> bool {
        matches!(self, Block::Downsample(f) | Block::Upsample(f) if *f > 1)
    }

    /// Number of predecessors this block requires: `None` means "one or
    /// more" (the adder).
    pub fn arity(&self) -> Option<usize> {
        match self {
            Block::Input | Block::Measured(_) => Some(0),
            Block::Add => None,
            _ => Some(1),
        }
    }

    /// The block's transfer function evaluated at normalized frequency `f`
    /// (cycles/sample). Adders and inputs are unit-transparent: summation is
    /// handled by the graph structure. Rate changers report a unit transfer
    /// — exact for factor 1 (a wire); graphs with effective rate changers
    /// never reach the LTI solve (see [`crate::multirate`]).
    pub fn transfer_at(&self, f: f64) -> Complex {
        match self {
            Block::Input
            | Block::Add
            | Block::Downsample(_)
            | Block::Upsample(_)
            | Block::Measured(_) => Complex::ONE,
            Block::Gain(g) => Complex::from_re(*g),
            Block::Delay(k) => Complex::cis(-std::f64::consts::TAU * f * *k as f64),
            Block::Fir(fir) => fir
                .taps()
                .iter()
                .enumerate()
                .map(|(n, &h)| Complex::cis(-std::f64::consts::TAU * f * n as f64) * h)
                .sum(),
            Block::Iir(iir) => {
                let z = Complex::cis(-std::f64::consts::TAU * f);
                let num = psdacc_filters::poly::polyval_real(iir.b(), z);
                let den = psdacc_filters::poly::polyval_real(iir.a(), z);
                num / den
            }
        }
    }

    /// The block's transfer function sampled on the `n`-point grid
    /// `F_k = k/n`. An FIR block transforms its taps with `planner`, which
    /// a pass over many blocks shares.
    pub fn frequency_response(&self, n: usize, planner: &mut FftPlanner) -> Vec<Complex> {
        match self {
            Block::Input
            | Block::Add
            | Block::Downsample(_)
            | Block::Upsample(_)
            | Block::Measured(_) => {
                vec![Complex::ONE; n]
            }
            Block::Gain(g) => vec![Complex::from_re(*g); n],
            Block::Delay(k) => (0..n)
                .map(|i| Complex::cis(-std::f64::consts::TAU * (i * k) as f64 / n as f64))
                .collect(),
            Block::Fir(fir) => psdacc_dsp::fir_frequency_response(fir.taps(), n, planner),
            Block::Iir(iir) => iir.frequency_response(n),
        }
    }

    /// DC gain of the block (1 for structural blocks). Rate changers pass
    /// a unit impulse unchanged, so their impulse-response DC sum is 1 —
    /// the value a moments-only (PSD-agnostic) characterization uses,
    /// blind to the fact that zero-stuffing dilutes a *stationary* mean to
    /// `1/L`. The multirate PSD path handles rate changers exactly instead
    /// of through this scalar.
    pub fn dc_gain(&self) -> f64 {
        match self {
            Block::Input
            | Block::Add
            | Block::Delay(_)
            | Block::Downsample(_)
            | Block::Upsample(_)
            | Block::Measured(_) => 1.0,
            Block::Gain(g) => *g,
            Block::Fir(fir) => fir.dc_gain(),
            Block::Iir(iir) => iir.dc_gain(),
        }
    }

    /// Impulse-response energy (white-noise power gain) of the block. Rate
    /// changers pass a unit impulse unchanged (energy 1) — again the blind
    /// per-block characterization of hierarchical moment methods, which
    /// over-counts stationary noise through an expander by `L` (the
    /// paper's Table II DWT blow-up). The multirate PSD path applies the
    /// exact `1/L` power map instead.
    pub fn energy(&self) -> f64 {
        match self {
            Block::Input
            | Block::Add
            | Block::Delay(_)
            | Block::Downsample(_)
            | Block::Upsample(_)
            | Block::Measured(_) => 1.0,
            Block::Gain(g) => g * g,
            Block::Fir(fir) => fir.energy(),
            Block::Iir(iir) => iir.energy(),
        }
    }

    /// Impulse response of the block (structural blocks are deltas).
    pub fn impulse_response(&self, max_len: usize, tol: f64) -> Vec<f64> {
        match self {
            Block::Input
            | Block::Add
            | Block::Downsample(_)
            | Block::Upsample(_)
            | Block::Measured(_) => vec![1.0],
            Block::Gain(g) => vec![*g],
            Block::Delay(k) => {
                let mut h = vec![0.0; k + 1];
                h[*k] = 1.0;
                h
            }
            Block::Fir(fir) => fir.taps().to_vec(),
            Block::Iir(iir) => iir.impulse_response(max_len, tol),
        }
    }

    /// `true` for blocks whose output at time `t` does not depend on the
    /// input at time `t` (pure delays): these may close feedback loops.
    pub fn breaks_delay_free_path(&self) -> bool {
        matches!(self, Block::Delay(k) if *k >= 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_rules() {
        assert_eq!(Block::Input.arity(), Some(0));
        assert_eq!(Block::Gain(2.0).arity(), Some(1));
        assert_eq!(Block::Add.arity(), None);
    }

    #[test]
    fn gain_response_flat() {
        let h = Block::Gain(-2.5).frequency_response(8, &mut FftPlanner::new());
        for v in h {
            assert_eq!(v, Complex::from_re(-2.5));
        }
        assert_eq!(Block::Gain(-2.5).dc_gain(), -2.5);
        assert_eq!(Block::Gain(-2.5).energy(), 6.25);
    }

    #[test]
    fn delay_response_unit_magnitude() {
        let h = Block::Delay(3).frequency_response(16, &mut FftPlanner::new());
        for (k, v) in h.iter().enumerate() {
            assert!((v.norm() - 1.0).abs() < 1e-12);
            let expect = Complex::cis(-std::f64::consts::TAU * 3.0 * k as f64 / 16.0);
            assert!((*v - expect).norm() < 1e-12);
        }
        assert!(Block::Delay(1).breaks_delay_free_path());
        assert!(!Block::Delay(0).breaks_delay_free_path());
        assert!(!Block::Gain(1.0).breaks_delay_free_path());
    }

    #[test]
    fn fir_block_matches_filter_response() {
        let fir = Fir::new(vec![0.5, 0.5]);
        let direct = fir.frequency_response(8);
        let via_block = Block::Fir(fir).frequency_response(8, &mut FftPlanner::new());
        for (a, b) in direct.iter().zip(&via_block) {
            assert!((*a - *b).norm() < 1e-12);
        }
    }

    #[test]
    fn iir_block_transfer() {
        let iir = Iir::new(vec![1.0], vec![1.0, -0.5]).unwrap();
        let b = Block::Iir(iir);
        assert!((b.transfer_at(0.0) - Complex::from_re(2.0)).norm() < 1e-12);
        assert!((b.dc_gain() - 2.0).abs() < 1e-12);
        // Energy of 0.5^n: 1/(1-0.25) = 4/3.
        assert!((b.energy() - 4.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn impulse_responses() {
        assert_eq!(Block::Gain(3.0).impulse_response(10, 0.0), vec![3.0]);
        assert_eq!(Block::Delay(2).impulse_response(10, 0.0), vec![0.0, 0.0, 1.0]);
        assert_eq!(Block::Add.impulse_response(10, 0.0), vec![1.0]);
    }

    #[test]
    fn rate_changers_report_their_factors() {
        assert_eq!(Block::Downsample(4).rate_change(), (1, 4));
        assert_eq!(Block::Upsample(3).rate_change(), (3, 1));
        assert_eq!(Block::Gain(2.0).rate_change(), (1, 1));
        assert!(Block::Downsample(2).changes_rate());
        assert!(Block::Upsample(2).changes_rate());
        assert!(!Block::Downsample(1).changes_rate(), "factor 1 is a wire");
        assert!(!Block::Upsample(1).changes_rate());
        assert!(!Block::Fir(Fir::new(vec![1.0])).changes_rate());
        assert_eq!(Block::Downsample(2).kind(), "downsample");
        assert_eq!(Block::Upsample(2).kind(), "upsample");
        assert_eq!(Block::Downsample(2).arity(), Some(1));
    }

    #[test]
    fn rate_changer_moment_maps() {
        // Impulse-response characterization: both rate changers pass a
        // delta, so the blind per-block energy/DC is 1 (the PSD-agnostic
        // baseline's view; the multirate PSD path applies exact maps).
        assert_eq!(Block::Downsample(3).energy(), 1.0);
        assert_eq!(Block::Downsample(3).dc_gain(), 1.0);
        assert_eq!(Block::Upsample(4).energy(), 1.0);
        assert_eq!(Block::Upsample(4).dc_gain(), 1.0);
        // Factor-1 rate blocks are exact wires everywhere.
        for b in [Block::Downsample(1), Block::Upsample(1)] {
            assert_eq!(b.energy(), 1.0);
            assert_eq!(b.dc_gain(), 1.0);
            assert_eq!(b.impulse_response(8, 0.0), vec![1.0]);
            for v in b.frequency_response(8, &mut FftPlanner::new()) {
                assert_eq!(v, Complex::ONE);
            }
        }
    }

    #[test]
    fn measured_block_is_a_unit_transfer_source() {
        let src = MeasuredSource::new(vec![0.25; 8], 1.5);
        let b = Block::Measured(src.clone());
        assert_eq!(b.kind(), "measured");
        assert_eq!(b.arity(), Some(0));
        assert_eq!(b.dc_gain(), 1.0);
        assert_eq!(b.energy(), 1.0);
        assert_eq!(b.impulse_response(8, 0.0), vec![1.0]);
        assert!(!b.changes_rate());
        assert!(!b.breaks_delay_free_path());
        for v in b.frequency_response(8, &mut FftPlanner::new()) {
            assert_eq!(v, Complex::ONE);
        }
        assert!((src.power() - 2.0).abs() < 1e-15);
        // Rebinning onto a finer grid conserves power; same grid is exact.
        assert_eq!(src.bins_at(8), *src.bins);
        let fine = src.bins_at(32);
        assert!((fine.iter().sum::<f64>() - 2.0).abs() < 1e-12);
        // Cloning shares the spectrum (Arc), it does not copy it.
        let clone = src.clone();
        assert!(Arc::ptr_eq(&src.bins, &clone.bins));
    }

    #[test]
    fn transfer_at_matches_sampled_grid() {
        let blocks = [
            Block::Gain(1.5),
            Block::Delay(2),
            Block::Fir(Fir::new(vec![0.3, -0.2, 0.1])),
            Block::Iir(Iir::new(vec![0.2], vec![1.0, -0.8]).unwrap()),
        ];
        for b in &blocks {
            let grid = b.frequency_response(16, &mut FftPlanner::new());
            for k in 0..16 {
                let f = k as f64 / 16.0;
                assert!((b.transfer_at(f) - grid[k]).norm() < 1e-9, "{} bin {k}", b.kind());
            }
        }
    }
}
