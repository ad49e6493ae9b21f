//! The system under test, reached the way a user reaches it.
//!
//! Locally, a client hands the spec text to an in-process engine (what
//! `psdacc-engine run --spec` does). Through the fleet, the client parses
//! the spec and the work-stealing coordinator streams the jobs to a
//! `psdacc-serve` daemon over loopback TCP (what `psdacc-sched submit`
//! does). Both run one worker: the client waits for every reply, so the
//! charged time of the traced run never overlaps itself.

use std::time::Duration;

use psdacc_engine::{BatchSpec, CacheStats, Engine};
use psdacc_sched::{run_fleet, FleetConfig};
use psdacc_serve::{client, Server, ServerHandle};

use crate::workload::JobOutcome;

/// Workers of the local engine and of the daemon.
const WORKERS: usize = 1;

/// A running service.
pub enum Service {
    /// An in-process engine.
    Local(Engine),
    /// One loopback daemon behind the fleet coordinator.
    Fleet {
        /// The daemon.
        daemon: ServerHandle,
        /// Its address, as the coordinator takes it.
        addrs: Vec<String>,
    },
}

impl Service {
    /// Starts a service and waits until it answers.
    pub fn start(fleet: bool) -> Result<Self, String> {
        if !fleet {
            return Ok(Service::Local(Engine::new(WORKERS)));
        }
        let daemon = Server::bind("127.0.0.1:0", Engine::new(WORKERS))
            .and_then(Server::spawn)
            .map_err(|e| format!("daemon start: {e}"))?;
        let addrs = vec![daemon.addr().to_string()];
        client::wait_all_ready(&addrs, Duration::from_secs(30))
            .map_err(|e| format!("daemon not ready: {e}"))?;
        Ok(Service::Fleet { daemon, addrs })
    }

    /// Submits one spec and returns its answers in job order.
    pub fn submit(&self, spec: &str) -> Result<Vec<JobOutcome>, String> {
        let jobs = {
            let _frame = psdacc_obs::profile::frame("engine.parse");
            BatchSpec::parse(spec).map_err(|e| e.to_string())?.jobs()
        };
        match self {
            Service::Local(engine) => {
                Ok(engine.run(jobs).results.iter().map(JobOutcome::from_result).collect())
            }
            Service::Fleet { addrs, .. } => {
                let outcome = run_fleet(addrs, &jobs, &FleetConfig::default(), |_| {})
                    .map_err(|e| e.to_string())?;
                outcome.lines.iter().map(|line| JobOutcome::from_line(line)).collect()
            }
        }
    }

    /// The serving engine's cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        match self {
            Service::Local(engine) => engine.cache().stats(),
            Service::Fleet { daemon, .. } => daemon.state().engine().cache().stats(),
        }
    }

    /// Stops the service; a daemon's accept loop is joined.
    pub fn stop(self) {
        if let Service::Fleet { daemon, .. } = self {
            daemon.shutdown();
        }
    }
}
