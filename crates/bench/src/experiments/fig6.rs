//! **Fig. 6**: execution time of simulation versus PSD estimation, and the
//! speed-up, as functions of `N_PSD` (16..4096).
//!
//! The estimation time is the per-configuration evaluation cost
//! (`tau_eval`) — the quantity that is re-paid inside a word-length
//! optimization loop; preprocessing (`tau_pp`) is reported separately.

use std::time::Instant;

use psdacc_dsp::SignalGenerator;
use psdacc_fixed::{NoiseMoments, Quantizer, RoundingMode};
use psdacc_systems::{DwtSystem, FreqFilterSystem};
use psdacc_wavelet::DwtNoiseModel;

use crate::harness::{Args, Table};

/// The paper's N_PSD sweep for the timing figure.
pub const NPSD_SWEEP: [usize; 9] = [16, 32, 64, 128, 256, 512, 1024, 2048, 4096];

/// One timing point.
#[derive(Debug, Clone, Copy)]
pub struct TimingPoint {
    /// Grid size.
    pub npsd: usize,
    /// Estimation seconds (freq filter).
    pub est_freq: f64,
    /// Estimation seconds (DWT).
    pub est_dwt: f64,
    /// Speed-up vs simulation (freq filter).
    pub speedup_freq: f64,
    /// Speed-up vs simulation (DWT).
    pub speedup_dwt: f64,
}

fn time<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let v = f();
    (t0.elapsed().as_secs_f64(), v)
}

/// Runs the sweep; returns `(sim_freq_seconds, sim_dwt_seconds, points)`.
pub fn sweep(args: &Args, d: i32) -> (f64, f64, Vec<TimingPoint>) {
    let rounding = RoundingMode::Truncate;
    let freq_sys = FreqFilterSystem::new();
    let dwt_sys = DwtSystem::paper();
    let q = Quantizer::new(d, rounding);
    let moments = NoiseMoments::continuous(rounding, d);
    let mut gen = SignalGenerator::new(args.seed);
    let x = gen.uniform_white(args.samples, 1.0);
    let (sim_freq, _) = time(|| freq_sys.measure(&x, &q, 256));
    let (sim_dwt, _) = time(|| dwt_sys.measure_power(args.images, args.size, d, rounding));
    let points = NPSD_SWEEP
        .iter()
        .map(|&npsd| {
            // Repeat the evaluation enough times to rise above timer noise.
            let reps = (200_000 / npsd).max(4);
            let freq_model = freq_sys.preprocess(npsd); // tau_pp outside
            let (t_freq, _) = time(|| {
                for _ in 0..reps {
                    std::hint::black_box(freq_model.power(moments));
                }
            });
            let side = (npsd as f64).sqrt().round() as usize;
            let model = DwtNoiseModel::new(2, side, side); // tau_pp outside
            let (t_dwt, _) = time(|| {
                for _ in 0..reps {
                    std::hint::black_box(model.evaluate_power(moments, true));
                }
            });
            let est_freq = t_freq / reps as f64;
            let est_dwt = t_dwt / reps as f64;
            TimingPoint {
                npsd,
                est_freq,
                est_dwt,
                speedup_freq: sim_freq / est_freq.max(1e-12),
                speedup_dwt: sim_dwt / est_dwt.max(1e-12),
            }
        })
        .collect();
    (sim_freq, sim_dwt, points)
}

/// Full experiment with table output.
pub fn run(args: &Args) {
    let d = 16;
    println!("== Fig. 6: execution time and speed-up vs N_PSD ==\n");
    let (sim_freq, sim_dwt, points) = sweep(args, d);
    println!(
        "simulation: freq-filter {:.3} s ({} samples), DWT {:.3} s ({} images {}x{})\n",
        sim_freq, args.samples, sim_dwt, args.images, args.size, args.size
    );
    let mut t = Table::new(&[
        "N_PSD",
        "est freq (s)",
        "est DWT (s)",
        "log10 speedup freq",
        "log10 speedup DWT",
    ]);
    for p in &points {
        t.row(&[
            p.npsd.to_string(),
            format!("{:.2e}", p.est_freq),
            format!("{:.2e}", p.est_dwt),
            format!("{:.2}", p.speedup_freq.log10()),
            format!("{:.2}", p.speedup_dwt.log10()),
        ]);
    }
    println!("{}", t.render());
    let _ = t.write_csv(&args.out_path("fig6.csv"));
    let min_speedup =
        points.iter().flat_map(|p| [p.speedup_freq, p.speedup_dwt]).fold(f64::MAX, f64::min);
    println!(
        "minimum speed-up across the sweep: {:.0}x (paper: 3-5 orders of magnitude)",
        min_speedup
    );
    // The speed-up is relative to the chosen simulation workload; the
    // paper's is 1e7 samples / 196 images of 512x512. Extrapolate linearly.
    let paper_freq = sim_freq * 1e7 / args.samples as f64;
    let paper_dwt =
        sim_dwt * (196.0 * 512.0 * 512.0) / (args.images as f64 * (args.size * args.size) as f64);
    let last = points.last().expect("non-empty");
    println!(
        "at paper-scale workloads the N_PSD={} speed-ups extrapolate to 10^{:.1} (freq) and 10^{:.1} (DWT)",
        last.npsd,
        (paper_freq / last.est_freq).log10(),
        (paper_dwt / last.est_dwt).log10()
    );
    // Linearity check of tau_eval (paper Section III-B): time ratio between
    // the largest and smallest grid should be roughly the size ratio.
    let t_small = points.first().expect("non-empty").est_freq;
    let t_large = points.last().expect("non-empty").est_freq;
    println!(
        "tau_eval scaling freq-filter: {:.1}x time for {}x grid (linear => similar)",
        t_large / t_small,
        NPSD_SWEEP[NPSD_SWEEP.len() - 1] / NPSD_SWEEP[0]
    );
}
