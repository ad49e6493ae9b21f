//! **Fig. 5**: estimation deviation `Ed` versus the number of PSD samples
//! `N_PSD` (16..1024), at `d = 32` fractional bits.
//!
//! Ported to run as **one engine batch** (matching table1/table2): per
//! system one seeded Monte-Carlo reference (`JobKind::Simulate`, at the
//! finest grid) plus one PSD estimate per `N_PSD` point — each estimate a
//! distinct `(scenario, npsd)` cache key, so the batch pays exactly one
//! preprocessing pass per grid size, spread across the pool. The systems
//! are the registry scenarios `freq-filter` and `dwt-decimated levels=2`.
//! With `--daemons` the batch dispatches through the `psdacc-sched`
//! coordinator across a daemon fleet.

use psdacc_engine::{EstimateMethod, JobKind, JobSpec, Scenario};
use psdacc_fixed::RoundingMode;

use crate::fleet::{backend_label, batch_powers};
use crate::harness::{pct, Args, Table};

/// The paper's N_PSD sweep (powers of two).
pub const NPSD_SWEEP: [usize; 7] = [16, 32, 64, 128, 256, 512, 1024];

/// Reference grid for the simulation jobs (the sweep's finest point).
const NPSD_REF: usize = 1024;

/// One sweep point.
#[derive(Debug, Clone, Copy)]
pub struct SweepPoint {
    /// PSD grid size.
    pub npsd: usize,
    /// Deviation of the frequency-filter estimate.
    pub ed_freq: f64,
    /// Deviation of the DWT estimate.
    pub ed_dwt: f64,
}

/// Jobs for one system: the simulation reference, then one PSD estimate
/// per `N_PSD` of the sweep.
fn system_jobs(args: &Args, scenario: &Scenario, d: i32, rounding: RoundingMode) -> Vec<JobSpec> {
    let job = |npsd, kind| JobSpec { scenario: scenario.clone(), npsd, rounding, kind };
    let mut jobs = vec![job(
        NPSD_REF,
        JobKind::Simulate {
            frac_bits: d,
            samples: args.samples,
            nfft: 256,
            seed: args.seed,
            trials: 1,
        },
    )];
    for &npsd in &NPSD_SWEEP {
        jobs.push(job(npsd, JobKind::Estimate { method: EstimateMethod::PsdMethod, frac_bits: d }));
    }
    jobs
}

/// Runs the sweep as one engine (or fleet) batch: one simulation per
/// system, one estimate per `(system, N_PSD)` point.
pub fn sweep(args: &Args, d: i32, rounding: RoundingMode) -> Vec<SweepPoint> {
    let freq = Scenario::FreqFilter;
    let dwt = Scenario::DwtDecimated { levels: 2 };
    let mut jobs = system_jobs(args, &freq, d, rounding);
    jobs.extend(system_jobs(args, &dwt, d, rounding));
    let powers = batch_powers(args, jobs);
    let (freq_powers, dwt_powers) = powers.split_at(1 + NPSD_SWEEP.len());
    let (meas_f, est_f) = (freq_powers[0], &freq_powers[1..]);
    let (meas_d, est_d) = (dwt_powers[0], &dwt_powers[1..]);
    NPSD_SWEEP
        .iter()
        .zip(est_f.iter().zip(est_d))
        .map(|(&npsd, (ef, ed))| SweepPoint {
            npsd,
            ed_freq: (ef - meas_f) / meas_f,
            ed_dwt: (ed - meas_d) / meas_d,
        })
        .collect()
}

/// Full experiment with table output.
pub fn run(args: &Args) {
    let d = 32;
    println!("== Fig. 5: Ed versus N_PSD (d = {d}, rounding) ==");
    println!("({})\n", backend_label(args));
    let points = sweep(args, d, RoundingMode::RoundNearest);
    let mut t = Table::new(&["N_PSD", "Ed freq-filter", "Ed DWT 9/7"]);
    for p in &points {
        t.row(&[p.npsd.to_string(), pct(p.ed_freq), pct(p.ed_dwt)]);
    }
    println!("{}", t.render());
    let _ = t.write_csv(&args.out_path("fig5.csv"));
    let first = points.first().expect("non-empty sweep");
    let last = points.last().expect("non-empty sweep");
    println!(
        "Ed at N_PSD=16: freq {} / dwt {}; at N_PSD=1024: freq {} / dwt {}",
        pct(first.ed_freq),
        pct(first.ed_dwt),
        pct(last.ed_freq),
        pct(last.ed_dwt)
    );
    println!("paper: curves tend into +-1% as N_PSD grows (freq-filter starts near -8% at 16)");
}
