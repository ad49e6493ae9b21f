//! Where experiment batches execute: the local engine, or — with
//! `--daemons` — a `psdacc-sched` fleet.
//!
//! Experiments declare their workloads as ordinary engine job lists
//! (matching the table1/table2 ports); this module routes the list either
//! through a local [`Engine`] or through [`psdacc_sched::run_fleet`]
//! across running `psdacc-serve` daemons. Because the coordinator merges
//! in submission order and every job is deterministic, the two paths
//! return identical powers — an experiment's numbers do not depend on
//! where it ran.

use psdacc_engine::json::{self, Json};
use psdacc_engine::{Engine, JobSpec};
use psdacc_sched::{run_fleet, FleetConfig};
use psdacc_serve::client;

use crate::harness::Args;

/// Runs `jobs` and returns their noise powers in job order.
///
/// # Panics
///
/// Panics with the offending job named when any job fails or reports no
/// power, or when the fleet is unreachable — experiment-binary style.
pub fn batch_powers(args: &Args, jobs: Vec<JobSpec>) -> Vec<f64> {
    if args.daemons.is_empty() {
        return local_powers(jobs);
    }
    fleet_powers(&args.daemons, jobs)
}

/// Human description of where [`batch_powers`] will run.
pub fn backend_label(args: &Args) -> String {
    if args.daemons.is_empty() {
        "local psdacc-engine batch".to_string()
    } else {
        format!("psdacc-sched fleet over {} daemon(s)", args.daemons.len())
    }
}

fn local_powers(jobs: Vec<JobSpec>) -> Vec<f64> {
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    let report = Engine::new(threads).run(jobs);
    if let Some(failure) = report.failures().next() {
        panic!("engine job {} failed: {:?}", failure.job, failure.error);
    }
    report.powers().expect("all jobs report a power")
}

fn fleet_powers(daemons: &[String], jobs: Vec<JobSpec>) -> Vec<f64> {
    client::wait_all_ready(daemons, std::time::Duration::from_secs(30))
        .unwrap_or_else(|e| panic!("fleet not ready: {e}"));
    let outcome = run_fleet(daemons, &jobs, &FleetConfig::default(), |_line| {})
        .unwrap_or_else(|e| panic!("fleet run failed: {e}"));
    assert_eq!(outcome.stats.failed, 0, "fleet jobs failed: {:?}", outcome.stats);
    eprintln!(
        "[fleet] {} units, {} re-dispatched across {} daemons",
        outcome.stats.units,
        outcome.stats.redispatched,
        outcome.stats.daemons.len()
    );
    outcome
        .lines
        .iter()
        .enumerate()
        .map(|(i, line)| {
            // `{:e}` float rendering round-trips exactly, so these powers
            // are bit-identical to the local engine's.
            json::parse(line)
                .ok()
                .and_then(|v| v.get("power").and_then(Json::as_f64))
                .unwrap_or_else(|| panic!("fleet job {i} returned no power: {line}"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use psdacc_engine::{JobKind, Scenario};
    use psdacc_fixed::RoundingMode;

    #[test]
    fn local_batch_matches_direct_engine_run() {
        let jobs: Vec<JobSpec> = (8..12)
            .map(|bits| JobSpec {
                scenario: Scenario::FreqFilter,
                npsd: 64,
                rounding: RoundingMode::Truncate,
                kind: JobKind::Estimate {
                    method: psdacc_engine::EstimateMethod::PsdMethod,
                    frac_bits: bits,
                },
            })
            .collect();
        let powers = batch_powers(&Args::default(), jobs.clone());
        let direct = Engine::new(1).run(jobs);
        assert_eq!(powers, direct.powers().unwrap());
    }

    #[test]
    fn backend_label_names_the_path() {
        let mut args = Args::default();
        assert!(backend_label(&args).contains("local"));
        args.daemons = vec!["127.0.0.1:7341".to_string()];
        assert!(backend_label(&args).contains("1 daemon"));
    }
}
