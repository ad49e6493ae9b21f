//! The paper's Fig. 2 benchmark: frequency-domain band-pass filtering.
//!
//! `x -> Hpre (16-tap FIR) -> buffer -> FFT-16 -> x Hlp[k] -> IFFT ->
//! unbuffer -> y`, where the frequency-domain stage implements a 9-tap
//! highpass by overlap-save (hop 8, 8 samples of history per block). The
//! cascade is a band-pass filter overall.
//!
//! Both the bit-true simulator and the analytical models live here and are
//! built from the *same* structural description (filters, twiddle
//! classification), so they describe the same machine.

use psdacc_dsp::Window;
use psdacc_fft::{Complex, FftPlanner};
use psdacc_filters::{design_fir, BandSpec, Fir, LtiSystem};
use psdacc_fixed::{NoiseMoments, Quantizer, RoundingMode};

use crate::staged_fft::{noisy_value_counts, staged_fft};

/// Block length of the frequency-domain stage.
pub const NFFT: usize = 16;
/// Taps of the frequency-domain (highpass) filter.
pub const HLP_TAPS: usize = 9;
/// Output samples produced per block (overlap-save hop).
pub const HOP: usize = NFFT - (HLP_TAPS - 1);

/// The frequency-domain band-pass filtering system.
#[derive(Debug, Clone)]
pub struct FreqFilterSystem {
    prefilter: Fir,
    hlp: Fir,
    hlp_spectrum: Vec<Complex>,
}

impl Default for FreqFilterSystem {
    fn default() -> Self {
        FreqFilterSystem::new()
    }
}

impl FreqFilterSystem {
    /// Builds the system with the paper's structure: a 16-tap lowpass
    /// prefilter and a 9-tap highpass realized in the frequency domain,
    /// both with band edge 0.25 — a band-pass centered on quarter band
    /// overall. The half-band split maximizes the spectral interplay
    /// between the stages, which is what separates the PSD method from the
    /// PSD-agnostic baseline (Table II).
    pub fn new() -> Self {
        let prefilter = design_fir(BandSpec::Lowpass { cutoff: 0.25 }, 16, Window::Hamming)
            .expect("static spec is valid");
        let hlp = design_fir(BandSpec::Highpass { cutoff: 0.25 }, HLP_TAPS, Window::Hamming)
            .expect("static spec is valid");
        let mut padded: Vec<Complex> = hlp.taps().iter().map(|&v| Complex::from_re(v)).collect();
        padded.resize(NFFT, Complex::ZERO);
        let mut spectrum = padded;
        staged_fft(&mut spectrum, -1.0, None);
        FreqFilterSystem { prefilter, hlp, hlp_spectrum: spectrum }
    }

    /// The time-domain prefilter.
    pub fn prefilter(&self) -> &Fir {
        &self.prefilter
    }

    /// The filter applied in the frequency domain.
    pub fn hlp(&self) -> &Fir {
        &self.hlp
    }

    /// Runs the full pipeline. With `quant`, every arithmetic output is
    /// snapped: input samples, prefilter outputs, each FFT/IFFT stage with
    /// an inexact twiddle, the spectral products, and the final scaled
    /// outputs.
    pub fn process(&self, x: &[f64], quant: Option<&Quantizer>) -> Vec<f64> {
        let input: Vec<f64> = match quant {
            Some(q) => x.iter().map(|&v| q.quantize(v)).collect(),
            None => x.to_vec(),
        };
        let mut pre = self.prefilter.filter(&input);
        if let Some(q) = quant {
            q.quantize_slice(&mut pre);
        }
        // Overlap-save: each iteration consumes HOP new samples with
        // NFFT - HOP samples of history, and emits HOP valid outputs.
        let mut out = vec![0.0; pre.len()];
        let mut start = 0usize;
        while start + NFFT <= pre.len() {
            let mut block: Vec<Complex> =
                pre[start..start + NFFT].iter().map(|&v| Complex::from_re(v)).collect();
            staged_fft(&mut block, -1.0, quant);
            for (b, h) in block.iter_mut().zip(&self.hlp_spectrum) {
                *b *= *h;
                if let Some(q) = quant {
                    *b = Complex::new(q.quantize(b.re), q.quantize(b.im));
                }
            }
            staged_fft(&mut block, 1.0, quant);
            for i in (NFFT - HOP)..NFFT {
                let mut v = block[i].re / NFFT as f64;
                if let Some(q) = quant {
                    v = q.quantize(v);
                }
                out[start + i] = v;
            }
            start += HOP;
        }
        out
    }

    /// Reference (f64) output — the overlap-save result must equal direct
    /// convolution with the highpass filter in the valid region; tested
    /// below.
    pub fn reference(&self, x: &[f64]) -> Vec<f64> {
        self.process(x, None)
    }

    /// The proposed PSD-method estimate of the output error PSD (`npsd`
    /// bins) for uniform word-length quantizers with the given PQN moments:
    /// [`FreqFilterSystem::preprocess`] followed by
    /// [`FreqFilterModel::psd`].
    pub fn model_psd(&self, moments: NoiseMoments, npsd: usize) -> psdacc_core::NoisePsd {
        self.preprocess(npsd).psd(moments)
    }

    /// Total power of the PSD-method estimate.
    pub fn model_psd_power(&self, moments: NoiseMoments, npsd: usize) -> f64 {
        self.model_psd(moments, npsd).power()
    }

    /// The word-length independent half of the PSD method (`tau_pp`): the
    /// cascade and highpass `|H|^2` on an `npsd`-bin grid, the FFT-bin
    /// `|Hlp[k]|^2` and its staircase on the grid, and the DC gains.
    pub fn preprocess(&self, npsd: usize) -> FreqFilterModel {
        // Responses sampled on the PSD grid. An N_PSD-point PSD carries only
        // N_PSD autocorrelation lags, so impulse responses longer than the
        // grid alias (time-fold) — `fir_frequency_response` implements
        // exactly that, which is where the method's N_PSD resolution error
        // (paper Fig. 5) comes from: the 24-tap cascade folds on a 16-point
        // grid.
        let cascade = psdacc_dsp::convolve(self.prefilter.taps(), self.hlp.taps());
        let hlp_bin_mag: Vec<f64> = self.hlp_spectrum.iter().map(|h| h.norm_sqr()).collect();
        let mut planner = FftPlanner::new();
        let mut mag = |taps: &[f64]| {
            psdacc_dsp::magnitude_squared(&psdacc_dsp::fir_frequency_response(
                taps,
                npsd,
                &mut planner,
            ))
        };
        FreqFilterModel {
            cascade_mag: mag(&cascade),
            hlp_mag: mag(self.hlp.taps()),
            hlp_stair: (0..npsd).map(|j| hlp_bin_mag[j * NFFT / npsd]).collect(),
            hlp_bin_mag,
            pre_dc: self.prefilter.dc_gain(),
            hlp_dc: self.hlp.dc_gain(), // ~0: the highpass kills means
            counts: noisy_value_counts(NFFT),
        }
    }

    /// The PSD-agnostic estimate: identical source inventory, but blocks
    /// are characterized only by scalar power gains. Two pieces of spectral
    /// information are therefore unavailable to it: (a) the *shape* of the
    /// noise entering a cascade (white-input assumption: `E1 * E2` instead
    /// of `integral |H1 H2|^2`), and (b) the per-bin correlation structure
    /// inside the frequency-domain stage (conjugate-symmetric bin noise and
    /// real-part extraction), so complex noise power is bookkept as-is.
    pub fn model_agnostic(&self, moments: NoiseMoments) -> NoiseMoments {
        let sigma2 = moments.variance;
        let mu = moments.mean;
        let e_pre = self.prefilter.energy();
        let e_hlp = self.hlp.energy();
        let counts = noisy_value_counts(NFFT);
        let total_at_fft_out: f64 = counts
            .iter()
            .map(|&(vals, remaining)| vals as f64 * 2.0 * sigma2 * 2f64.powi(remaining as i32))
            .sum();
        let v_fft_per_bin = total_at_fft_out / NFFT as f64;
        let mean_hlp2 = self.hlp_spectrum.iter().map(|v| v.norm_sqr()).sum::<f64>() / NFFT as f64;
        let variance = sigma2 * e_pre * e_hlp          // S1 (white-input blunder)
            + sigma2 * e_hlp                           // S2
            + v_fft_per_bin * mean_hlp2 / NFFT as f64  // S3 (no real-part halving)
            + 2.0 * sigma2 / NFFT as f64               // S4
            + total_at_fft_out / ((NFFT * NFFT * NFFT) as f64) // S5
            + sigma2; // S6
        let mean =
            mu * self.prefilter.dc_gain() * self.hlp.dc_gain() + mu * self.hlp.dc_gain() + mu;
        NoiseMoments::new(mean, variance)
    }

    /// Measures the actual error by bit-true simulation: returns
    /// `(power, psd)` of `process(x, quant) - process(x, None)`.
    pub fn measure(&self, x: &[f64], quant: &Quantizer, nfft_psd: usize) -> (f64, Vec<f64>) {
        let reference = self.process(x, None);
        let quantized = self.process(x, Some(quant));
        // Skip the initial transient (prefilter + first block).
        let skip = 2 * NFFT;
        let err: Vec<f64> =
            quantized[skip..].iter().zip(&reference[skip..]).map(|(a, b)| a - b).collect();
        let power = err.iter().map(|v| v * v).sum::<f64>() / err.len() as f64;
        let psd = psdacc_dsp::welch(&err, nfft_psd, 0.5, Window::Hann);
        (power, psd)
    }
}

/// The preprocessed PSD-method model of a [`FreqFilterSystem`] on one
/// grid (see [`FreqFilterSystem::preprocess`]); [`FreqFilterModel::psd`]
/// is the per-word-length evaluation (`tau_eval`).
#[derive(Debug, Clone)]
pub struct FreqFilterModel {
    cascade_mag: Vec<f64>,
    hlp_mag: Vec<f64>,
    hlp_bin_mag: Vec<f64>,
    hlp_stair: Vec<f64>,
    pre_dc: f64,
    hlp_dc: f64,
    counts: Vec<(usize, usize)>,
}

impl FreqFilterModel {
    /// The output error PSD for uniform word-length quantizers with the
    /// given PQN moments.
    pub fn psd(&self, moments: NoiseMoments) -> psdacc_core::NoisePsd {
        let sigma2 = moments.variance;
        let mu = moments.mean;
        let npsd = self.cascade_mag.len();
        let mut bins = vec![0.0; npsd];
        let mut mean = 0.0;
        // S1: input quantization through both filters.
        for k in 0..npsd {
            bins[k] += sigma2 / npsd as f64 * self.cascade_mag[k];
        }
        mean += mu * self.pre_dc * self.hlp_dc;
        // S2: prefilter output quantization through the highpass.
        for k in 0..npsd {
            bins[k] += sigma2 / npsd as f64 * self.hlp_mag[k];
        }
        mean += mu * self.hlp_dc;
        // S3: FFT-internal noise. Complex per-value variance 2 sigma^2 per
        // quantized stage value, doubling through each remaining stage;
        // spread over the N bins; shaped by |Hlp[k]|^2 through the
        // multiplier; attenuated by the 1/N IFFT scale; real part keeps
        // half.
        let total_at_fft_out: f64 = self
            .counts
            .iter()
            .map(|&(vals, remaining)| vals as f64 * 2.0 * sigma2 * 2f64.powi(remaining as i32))
            .sum();
        let v_fft_per_bin = total_at_fft_out / NFFT as f64;
        // Power: sum over the 16 actual FFT bins; shape: the |Hlp[k]|^2
        // staircase resampled onto the PSD grid.
        let p3_total: f64 = self.hlp_bin_mag.iter().map(|m| v_fft_per_bin * m).sum::<f64>()
            / (2.0 * (NFFT * NFFT) as f64);
        distribute(&mut bins, &self.hlp_stair, p3_total);
        // S4: multiplier outputs (2 sigma^2 per complex bin) through the
        // IFFT: per real sample sigma^2/N, spectrally flat.
        let p4_total = sigma2 / NFFT as f64;
        for b in bins.iter_mut() {
            *b += p4_total / npsd as f64;
        }
        // S5: IFFT-internal noise, scaled by 1/N^2, real half; flat.
        let p5_total = total_at_fft_out / (2.0 * (NFFT * NFFT * NFFT) as f64);
        for b in bins.iter_mut() {
            *b += p5_total / npsd as f64;
        }
        // S6: final output quantization after the 1/N scale: white.
        for b in bins.iter_mut() {
            *b += sigma2 / npsd as f64;
        }
        mean += mu;
        psdacc_core::NoisePsd::from_parts(bins, mean)
    }

    /// Total power of [`FreqFilterModel::psd`].
    pub fn power(&self, moments: NoiseMoments) -> f64 {
        self.psd(moments).power()
    }
}

/// Adds `total` power to `bins` with the spectral shape of `shape`
/// (normalized internally).
fn distribute(bins: &mut [f64], shape: &[f64], total: f64) {
    let sum: f64 = shape.iter().sum();
    if sum <= 0.0 {
        let flat = total / bins.len() as f64;
        for b in bins.iter_mut() {
            *b += flat;
        }
        return;
    }
    for (b, &s) in bins.iter_mut().zip(shape) {
        *b += total * s / sum;
    }
}

/// Convenience: the paper's uniform word-length moments for this system.
pub fn uniform_moments(frac_bits: i32, rounding: RoundingMode) -> NoiseMoments {
    NoiseMoments::continuous(rounding, frac_bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psdacc_dsp::SignalGenerator;

    #[test]
    fn overlap_save_equals_direct_convolution() {
        let sys = FreqFilterSystem::new();
        let mut gen = SignalGenerator::new(1);
        let x = gen.uniform_white(512, 1.0);
        let y = sys.reference(&x);
        // Direct: prefilter then hlp, both causal.
        let pre = sys.prefilter().filter(&x);
        let direct = sys.hlp().filter(&pre);
        // The overlap-save path fills out[start+8..start+16] for each hop;
        // valid outputs start once the first full block is available.
        for i in NFFT..500 {
            assert!(
                (y[i] - direct[i]).abs() < 1e-9,
                "sample {i}: overlap-save {} vs direct {}",
                y[i],
                direct[i]
            );
        }
    }

    #[test]
    fn bandpass_shape() {
        // With 16- and 9-tap filters at the same 0.25 edge, the cascade is a
        // (gentle) band-pass: both band extremes rejected, energy
        // concentrated around quarter band.
        let sys = FreqFilterSystem::new();
        let n = 512;
        let pre = sys.prefilter().frequency_response(n);
        let hlp = sys.hlp().frequency_response(n);
        let mag = |k: usize| pre[k].norm() * hlp[k].norm();
        assert!(mag(0) < 0.01, "DC rejected, got {}", mag(0));
        let peak = (0..n / 2).map(&mag).fold(f64::MIN, f64::max);
        assert!((0.2..0.5).contains(&peak), "peak {peak}");
        assert!(mag(230) < 0.01, "high band rejected"); // F=0.45
    }

    /// The headline system test: PSD-method estimate vs bit-true
    /// measurement, sub-one-bit and reasonably tight.
    #[test]
    fn model_matches_simulation() {
        let sys = FreqFilterSystem::new();
        let d = 10;
        for &mode in &[RoundingMode::RoundNearest, RoundingMode::Truncate] {
            let q = Quantizer::new(d, mode);
            let moments = NoiseMoments::continuous(mode, d);
            let mut gen = SignalGenerator::new(5);
            let x = gen.uniform_white(300_000, 1.0);
            let (measured, _) = sys.measure(&x, &q, 256);
            let estimated = sys.model_psd_power(moments, 1024);
            let ed = (estimated - measured) / measured;
            // Paper Table II reports -8.4% for this system at max accuracy;
            // our independence assumptions land in the same band.
            assert!(
                ed.abs() < 0.15,
                "{mode:?}: Ed {ed} (est {estimated:.3e}, meas {measured:.3e})"
            );
        }
    }

    #[test]
    fn agnostic_is_worse_than_psd() {
        // Table II shape (rounding isolates the variance path): the blind
        // power bookkeeping overestimates while the PSD method stays close.
        let sys = FreqFilterSystem::new();
        let d = 12;
        let mode = RoundingMode::RoundNearest;
        let q = Quantizer::new(d, mode);
        let moments = NoiseMoments::continuous(mode, d);
        let mut gen = SignalGenerator::new(6);
        let x = gen.uniform_white(200_000, 1.0);
        let (measured, _) = sys.measure(&x, &q, 256);
        let ed_psd = (sys.model_psd_power(moments, 1024) - measured) / measured;
        let ed_agn = (sys.model_agnostic(moments).power() - measured) / measured;
        assert!(
            ed_agn.abs() > 1.3 * ed_psd.abs(),
            "agnostic {ed_agn} should deviate more than psd {ed_psd}"
        );
        assert!(ed_agn > 0.0, "agnostic overestimates, got {ed_agn}");
    }

    #[test]
    fn finer_bits_reduce_error() {
        let sys = FreqFilterSystem::new();
        let mut gen = SignalGenerator::new(7);
        let x = gen.uniform_white(50_000, 1.0);
        let (p8, _) = sys.measure(&x, &Quantizer::new(8, RoundingMode::RoundNearest), 64);
        let (p16, _) = sys.measure(&x, &Quantizer::new(16, RoundingMode::RoundNearest), 64);
        assert!(p8 / p16 > 1e3);
    }
}
