//! **Table I**: relative error-power estimation statistics `Ed` over the
//! 147-FIR + 147-IIR population.
//!
//! For every filter: simulate the fixed-point error power (white input,
//! `--samples` samples), estimate it with the proposed PSD method
//! (`N_PSD = 1024`), and report `min(Ed)`, `max(Ed)`, `mean(|Ed|)` per
//! family. The flat method (paper Section IV-B: "classical flat estimation
//! gives exactly the same results") is cross-checked as well.
//!
//! The analytical side runs as a `psdacc-engine` batch: the population is
//! declared through the scenario registry (`fir-bank` / `iir-bank`), the
//! engine's worker pool spreads the per-filter preprocessing across cores,
//! and the Monte-Carlo reference afterwards reuses the very same cached
//! evaluators, so preprocessing is paid once per filter for both sides.

use psdacc_core::{metrics, WordLengthPlan};
use psdacc_engine::{Engine, EstimateMethod, JobKind, JobSpec, Scenario};
use psdacc_fixed::RoundingMode;
use psdacc_sim::SimulationPlan;

use crate::harness::{pct, Args, Table};

/// Summary statistics of one filter family.
#[derive(Debug, Clone, Copy)]
pub struct FamilyStats {
    /// Smallest signed deviation.
    pub min_ed: f64,
    /// Largest signed deviation.
    pub max_ed: f64,
    /// Mean absolute deviation.
    pub mean_abs_ed: f64,
    /// Largest relative gap between the flat and PSD estimates.
    pub max_flat_gap: f64,
    /// Population size actually evaluated.
    pub count: usize,
}

fn stats(eds: &[f64], flat_gaps: &[f64]) -> FamilyStats {
    FamilyStats {
        min_ed: eds.iter().cloned().fold(f64::MAX, f64::min),
        max_ed: eds.iter().cloned().fold(f64::MIN, f64::max),
        mean_abs_ed: eds.iter().map(|e| e.abs()).sum::<f64>() / eds.len() as f64,
        max_flat_gap: flat_gaps.iter().cloned().fold(0.0, f64::max),
        count: eds.len(),
    }
}

fn family_scenario(is_fir: bool, index: usize) -> Scenario {
    if is_fir {
        Scenario::FirBank { index }
    } else {
        Scenario::IirBank { index }
    }
}

/// Runs the experiment; `stride` subsamples the population (1 = all 147).
pub fn run_with_stride(args: &Args, stride: usize) -> (FamilyStats, FamilyStats) {
    let d = 12;
    let plan = WordLengthPlan::uniform(d, RoundingMode::Truncate);
    let sim =
        SimulationPlan { samples: args.samples, nfft: 256, seed: args.seed, ..Default::default() };
    let indices: Vec<usize> = (0..147).step_by(stride.max(1)).collect();

    // Analytical estimates as one engine batch over both families: for each
    // filter, a `psd` and a `flat` job (interleaved per scenario so the
    // parity pairing below is positional).
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    let engine = Engine::new(threads);
    let mut jobs = Vec::with_capacity(indices.len() * 4);
    for &is_fir in &[true, false] {
        for &i in &indices {
            for method in [EstimateMethod::PsdMethod, EstimateMethod::Flat] {
                jobs.push(JobSpec {
                    scenario: family_scenario(is_fir, i),
                    npsd: args.npsd,
                    rounding: RoundingMode::Truncate,
                    kind: JobKind::Estimate { method, frac_bits: d },
                });
            }
        }
    }
    let report = engine.run(jobs);
    if let Some(failure) = report.failures().next() {
        panic!("engine job {} failed: {:?}", failure.job, failure.error);
    }

    // Monte-Carlo reference, reusing the engine's cached evaluators (the
    // lookup is a guaranteed hit — the batch above preprocessed every key).
    let run_family = |is_fir: bool, results: &[psdacc_engine::JobResult]| {
        let mut eds = Vec::new();
        let mut gaps = Vec::new();
        for (slot, &i) in indices.iter().enumerate() {
            let psd = &results[2 * slot];
            let flat = &results[2 * slot + 1];
            debug_assert_eq!(psd.kind, "psd");
            debug_assert_eq!(flat.kind, "flat");
            let evaluator = engine
                .cache()
                .get_or_build(&family_scenario(is_fir, i), args.npsd)
                .expect("cached by the batch");
            let simulated = evaluator.simulate(&plan, &sim).expect("simulation runs");
            let psd_power = psd.power.expect("successful job");
            let flat_power = flat.power.expect("successful job");
            eds.push(metrics::ed(simulated.power, psd_power));
            gaps.push(((psd_power - flat_power) / flat_power).abs());
        }
        stats(&eds, &gaps)
    };
    let (fir_results, iir_results) = report.results.split_at(2 * indices.len());
    let fir = run_family(true, fir_results);
    let iir = run_family(false, iir_results);
    (fir, iir)
}

/// Full experiment with table output.
pub fn run(args: &Args) {
    println!("== Table I: Ed statistics over the filter population ==");
    println!(
        "(d = 12 fractional bits, truncation, N_PSD = {}, {} sim samples; analytics via psdacc-engine)\n",
        args.npsd, args.samples
    );
    let stride = if args.full { 1 } else { 3 };
    if stride != 1 {
        println!("[default mode evaluates every {stride}rd filter; use --full for all 147]\n");
    }
    let (fir, iir) = run_with_stride(args, stride);
    let mut t = Table::new(&["", "FIR filters", "IIR filters"]);
    t.row(&["min(Ed)".into(), pct(fir.min_ed), pct(iir.min_ed)]);
    t.row(&["max(Ed)".into(), pct(fir.max_ed), pct(iir.max_ed)]);
    t.row(&["mean(|Ed|)".into(), pct(fir.mean_abs_ed), pct(iir.mean_abs_ed)]);
    t.row(&["filters".into(), fir.count.to_string(), iir.count.to_string()]);
    t.row(&[
        "max |psd-flat|/flat".into(),
        format!("{:.2e}", fir.max_flat_gap),
        format!("{:.2e}", iir.max_flat_gap),
    ]);
    println!("{}", t.render());
    let _ = t.write_csv(&args.out_path("table1.csv"));
    println!("paper reference: FIR within +-0.37% (mean 0.11%); IIR -19.4%..31.2% (mean 9.44%)");
    let all_sub_one_bit = [fir.min_ed, fir.max_ed, iir.min_ed, iir.max_ed]
        .iter()
        .all(|&e| metrics::is_sub_one_bit(e));
    println!("all deviations sub-one-bit: {all_sub_one_bit}");
}
