//! Fleet-coordinator integration: work-stealing dispatch across loopback
//! daemons must produce output **bit-identical** to a single-process
//! engine run — including under deliberate skew (one daemon slowed by
//! injected per-unit delay) and under failure (one daemon killed
//! mid-batch) — with steal / re-dispatch counters proving the dynamic
//! behavior actually happened, and a daemon restarted over the same
//! persistent store must serve the fleet with zero preprocessing builds.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use psdacc_engine::json::{self, Json};
use psdacc_engine::{BatchSpec, Engine};
use psdacc_obs::{EventKind, TraceEvent};
use psdacc_sched::{fetch_fleet_trace, run_fleet, FleetConfig};
use psdacc_serve::{client, Server, ServerConfig, ServerHandle};
use psdacc_store::PersistentCache;

/// Two scenario families x a bits sweep, plus refinement, budget
/// attribution, and simulation jobs — enough units for stealing to be
/// inevitable under skew, cheap enough to keep the suite fast. The
/// greedy budget sits far above the start-bits noise power so every
/// refine unit commits descent steps (trajectory provenance below).
/// 28 units total.
const SPEC: &str = "scenario fir-cascade stages=1 taps=9 cutoff=0.3\n\
                    scenario freq-filter\n\
                    batch npsd=64 bits=6..15 methods=psd\n\
                    refine npsd=64 budget=1e-3 start=10 min=3\n\
                    min-uniform npsd=64 budget=1e-6 min=2 max=24\n\
                    budget npsd=64 bits=8\n\
                    simulate npsd=64 bits=8 samples=1024 nfft=32 seed=11 trials=1\n";

/// Three scenario families x estimates under two methods, refinement,
/// min-uniform, budget attribution, and a small seeded simulation — every
/// protocol job kind.
const ALL_KINDS_SPEC: &str = "scenario fir-cascade stages=2 taps=15 cutoff=0.2\n\
                              scenario freq-filter\n\
                              scenario dwt-pipeline levels=1\n\
                              batch npsd=128 bits=8..11 methods=psd,flat\n\
                              refine npsd=128 budget=1e-6 start=14 min=4\n\
                              min-uniform npsd=128 budget=1e-6 min=2 max=24\n\
                              budget npsd=128 bits=9\n\
                              simulate npsd=128 bits=10 samples=4096 nfft=64 seed=11 trials=1\n";

/// Distinct `(scenario, npsd)` keys in [`ALL_KINDS_SPEC`].
const ALL_KINDS_KEYS: u64 = 3;

fn spawn_daemon(threads: usize, config: ServerConfig) -> ServerHandle {
    Server::bind_with("127.0.0.1:0", Engine::new(threads), config).unwrap().spawn().unwrap()
}

/// A daemon whose cache persists to `dir`; a second one over the same
/// directory is a restart.
fn spawn_store_daemon(dir: &Path, threads: usize) -> ServerHandle {
    let cache = Arc::new(PersistentCache::open(dir).unwrap());
    Server::bind("127.0.0.1:0", Engine::with_shared_cache(threads, cache)).unwrap().spawn().unwrap()
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("psdacc-fleet-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One numeric field of a daemon's `stats` reply.
fn daemon_stat(addr: &str, field: &str) -> u64 {
    let stats = client::request_control(addr, "stats").unwrap();
    json::parse(&stats)
        .unwrap()
        .get(field)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("no {field} in {stats}"))
}

/// A result line minus its run-dependent fields (timings, cache hit flag):
/// everything that remains must be bit-identical across processes.
fn stable_fields(line: &str) -> Vec<(String, Json)> {
    match json::parse(line).unwrap_or_else(|e| panic!("{line}: {e}")) {
        Json::Obj(fields) => fields
            .into_iter()
            .filter(|(k, _)| {
                !matches!(k.as_str(), "tau_pp_seconds" | "tau_eval_seconds" | "cache_hit")
            })
            .collect(),
        other => panic!("result line is not an object: {other:?}"),
    }
}

fn expected_lines(spec: &BatchSpec) -> Vec<String> {
    Engine::new(4).run(spec.jobs()).results.iter().map(|r| r.to_json_line()).collect()
}

fn assert_bit_identical(got: &[String], want: &[String]) {
    assert_eq!(got.len(), want.len());
    for (got, want) in got.iter().zip(want) {
        assert_eq!(stable_fields(got), stable_fields(want), "\n got: {got}\nwant: {want}");
    }
}

/// Two equal daemons: the merged fleet output of every protocol job kind
/// is bit-identical to the single-process engine, and the streaming
/// callback sees exactly the merged order.
#[test]
fn two_daemon_fleet_matches_single_process_engine_bit_for_bit() {
    let spec = BatchSpec::parse(ALL_KINDS_SPEC).unwrap();
    let expected = expected_lines(&spec);
    let a = spawn_daemon(2, ServerConfig::default());
    let b = spawn_daemon(2, ServerConfig::default());
    let daemons = vec![a.addr().to_string(), b.addr().to_string()];

    let mut streamed: Vec<String> = Vec::new();
    let outcome = run_fleet(&daemons, &spec.jobs(), &FleetConfig::default(), |line| {
        streamed.push(line.to_string());
    })
    .unwrap();

    assert_eq!(outcome.stats.failed, 0, "{:?}", outcome.stats);
    assert_bit_identical(&outcome.lines, &expected);
    assert_eq!(streamed, outcome.lines, "streaming callback saw the merged order");
    let served: usize = outcome.stats.daemons.iter().map(|d| d.served).sum();
    assert_eq!(served, expected.len(), "no deaths, so every unit served exactly once");
    a.shutdown();
    b.shutdown();
}

/// The persistence acceptance shape through the fleet: a cold daemon
/// builds and persists every key; a fresh daemon over the same store
/// serves the same batch with **zero** preprocessing builds,
/// bit-identically.
#[test]
fn warm_fleet_restart_serves_with_zero_builds() {
    let dir = tmp_dir("warm");
    let spec = BatchSpec::parse(ALL_KINDS_SPEC).unwrap();

    let cold = spawn_store_daemon(&dir, 3);
    let cold_addr = vec![cold.addr().to_string()];
    let cold_outcome =
        run_fleet(&cold_addr, &spec.jobs(), &FleetConfig::default(), |_| {}).unwrap();
    assert_eq!(cold_outcome.stats.failed, 0);
    assert_eq!(daemon_stat(&cold_addr[0], "cache_builds"), ALL_KINDS_KEYS);
    assert_eq!(daemon_stat(&cold_addr[0], "disk_writes"), ALL_KINDS_KEYS);
    assert_eq!(daemon_stat(&cold_addr[0], "disk_hits"), 0);
    cold.shutdown();

    // "Restart": a brand-new daemon state over the same directory.
    let warm = spawn_store_daemon(&dir, 3);
    let warm_addr = vec![warm.addr().to_string()];
    let warm_outcome =
        run_fleet(&warm_addr, &spec.jobs(), &FleetConfig::default(), |_| {}).unwrap();
    assert_eq!(warm_outcome.stats.failed, 0);
    assert_eq!(daemon_stat(&warm_addr[0], "cache_builds"), 0, "warm start must not preprocess");
    assert_eq!(daemon_stat(&warm_addr[0], "disk_hits"), ALL_KINDS_KEYS);
    warm.shutdown();

    assert_bit_identical(&warm_outcome.lines, &cold_outcome.lines);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The multirate acceptance shape: decimated-DWT scenario families flow
/// through the wire protocol, the persistent store, and a 2-daemon fleet
/// with zero protocol changes — fleet output bit-identical to the
/// single-process engine, and a warm restart on the same store performs
/// zero preprocessing (kernel) builds.
#[test]
fn decimated_dwt_batch_runs_and_persists_bit_identically_through_the_fleet() {
    // Analytic estimates, a refinement, and a seeded Monte-Carlo run over
    // both decimated families (npsd divisible by 2^levels throughout).
    let spec_text = "scenario dwt-decimated levels=1..2\n\
                     scenario dwt-packet depth=1\n\
                     batch npsd=64 bits=8..10 methods=psd,agnostic\n\
                     min-uniform npsd=64 budget=1e-5 min=2 max=24\n\
                     simulate npsd=64 bits=8 samples=2048 nfft=32 seed=5 trials=1\n";
    let spec = BatchSpec::parse(spec_text).unwrap();
    let keys = 3; // dwt-decimated[1], dwt-decimated[2], dwt-packet[1]
    let expected = expected_lines(&spec);

    let dir = tmp_dir("decimated");
    let a = spawn_store_daemon(&dir, 2);
    let b = spawn_store_daemon(&dir, 2);
    let daemons = vec![a.addr().to_string(), b.addr().to_string()];
    let outcome = run_fleet(&daemons, &spec.jobs(), &FleetConfig::default(), |_| {}).unwrap();
    assert_eq!(outcome.stats.failed, 0);
    assert_bit_identical(&outcome.lines, &expected);
    a.shutdown();
    b.shutdown();

    // Warm restart over the shared store: multirate kernels load from
    // disk, zero preprocessing builds, bit-identical results again.
    let warm = spawn_store_daemon(&dir, 2);
    let warm_addr = vec![warm.addr().to_string()];
    let warm_outcome =
        run_fleet(&warm_addr, &spec.jobs(), &FleetConfig::default(), |_| {}).unwrap();
    assert_eq!(warm_outcome.stats.failed, 0);
    assert_eq!(daemon_stat(&warm_addr[0], "cache_builds"), 0, "warm start must not preprocess");
    assert_eq!(daemon_stat(&warm_addr[0], "disk_hits"), keys);
    // The stats reply surfaces the per-scenario counters.
    let stats = client::request_control(&warm_addr[0], "stats").unwrap();
    let v = json::parse(&stats).unwrap();
    let per = v.get("scenario_cache").unwrap().as_array().unwrap();
    assert_eq!(per.len() as u64, keys, "{stats}");
    assert!(per
        .iter()
        .any(|e| e.get("scenario").and_then(Json::as_str) == Some("dwt-decimated[levels=2]")));
    warm.shutdown();
    assert_bit_identical(&warm_outcome.lines, &expected);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The tentpole acceptance shape: a deliberately skewed 2-daemon fleet
/// (one daemon slowed by injected per-unit delay) merges bit-identically
/// to the single-process engine, with a nonzero steal count proving the
/// fast daemon drained the straggler's queue.
#[test]
fn skewed_fleet_merges_bit_identically_with_steals() {
    let spec = BatchSpec::parse(SPEC).unwrap();
    let expected = expected_lines(&spec);

    let slow = spawn_daemon(
        1,
        ServerConfig { chaos_unit_delay: Duration::from_millis(30), ..ServerConfig::default() },
    );
    let fast = spawn_daemon(2, ServerConfig::default());
    let daemons = vec![slow.addr().to_string(), fast.addr().to_string()];

    let mut streamed: Vec<String> = Vec::new();
    let outcome = run_fleet(&daemons, &spec.jobs(), &FleetConfig::default(), |line| {
        streamed.push(line.to_string());
    })
    .unwrap();

    assert_eq!(outcome.lines.len(), expected.len());
    assert_eq!(streamed, outcome.lines, "streaming callback saw the merged order");
    for (got, want) in outcome.lines.iter().zip(&expected) {
        assert_eq!(stable_fields(got), stable_fields(want), "\n got: {got}\nwant: {want}");
    }
    let stats = &outcome.stats;
    assert_eq!(stats.units, expected.len());
    assert_eq!(stats.failed, 0);
    assert!(stats.steals > 0, "fast daemon must have stolen from the straggler: {stats:?}");
    assert_eq!(stats.redispatched, 0, "no deaths in this run: {stats:?}");
    assert!(stats.daemons.iter().all(|d| !d.dead), "{stats:?}");
    assert!(stats.daemons.iter().all(|d| d.served > 0), "both daemons served: {stats:?}");
    // The fast daemon carried more of the load than the straggler.
    assert!(
        stats.daemons[1].served > stats.daemons[0].served,
        "load did not tilt toward the fast daemon: {stats:?}"
    );
    // Capacity advertisement flowed through hello into the windows.
    assert_eq!(stats.daemons[0].workers, 1, "{stats:?}");
    assert_eq!(stats.daemons[1].workers, 2, "{stats:?}");

    // Satellite: the daemons' stats replies carry per-verb latency
    // histograms populated by the unit-mode executions.
    let daemon_stats = client::request_control(&daemons[1], "stats").unwrap();
    let v = json::parse(&daemon_stats).unwrap();
    let latency = v.get("latency").unwrap().as_array().unwrap();
    assert_eq!(latency.len(), 5, "{daemon_stats}");
    let evaluate =
        latency.iter().find(|e| e.get("verb").and_then(Json::as_str) == Some("evaluate")).unwrap();
    assert!(evaluate.get("count").unwrap().as_u64().unwrap() > 0, "{daemon_stats}");
    assert!(v.get("units_served").unwrap().as_u64().unwrap() > 0, "{daemon_stats}");

    slow.shutdown();
    fast.shutdown();
}

/// The failure acceptance shape: one daemon dies abruptly mid-batch
/// (chaos kill after 3 served units); its unanswered units retry on the
/// survivor and the merged output is still complete and bit-identical.
#[test]
fn daemon_killed_mid_batch_redispatches_and_stays_bit_identical() {
    let spec = BatchSpec::parse(SPEC).unwrap();
    let expected = expected_lines(&spec);

    let doomed = spawn_daemon(
        1,
        ServerConfig {
            // Die right after the first served unit, while the second unit
            // of the initial window is still in flight: the delay paces the
            // single worker so that second unit cannot have completed yet,
            // making a nonzero re-dispatch deterministic.
            chaos_unit_delay: Duration::from_millis(10),
            chaos_die_after_units: Some(1),
            ..ServerConfig::default()
        },
    );
    let survivor = spawn_daemon(2, ServerConfig::default());
    let daemons = vec![doomed.addr().to_string(), survivor.addr().to_string()];

    let outcome = run_fleet(&daemons, &spec.jobs(), &FleetConfig::default(), |_| {}).unwrap();

    assert_eq!(outcome.lines.len(), expected.len(), "batch completed despite the death");
    for (got, want) in outcome.lines.iter().zip(&expected) {
        assert_eq!(stable_fields(got), stable_fields(want), "\n got: {got}\nwant: {want}");
    }
    let stats = &outcome.stats;
    assert_eq!(stats.failed, 0);
    assert!(stats.daemons[0].dead, "the chaos daemon must be reported dead: {stats:?}");
    assert!(!stats.daemons[1].dead, "{stats:?}");
    assert!(
        stats.redispatched > 0,
        "in-flight units of the dead daemon must retry elsewhere: {stats:?}"
    );
    assert!(stats.daemons[0].served >= 1, "the daemon died mid-batch, not at start: {stats:?}");
    // Served counts may exceed the unit total by the (benign) duplicates a
    // re-dispatch race produces; together they must cover everything.
    assert!(
        stats.daemons[0].served + stats.daemons[1].served >= expected.len(),
        "survivor picked up everything the dead daemon did not finish: {stats:?}"
    );

    // Satellite: the death and every displaced unit surface as structured
    // events naming the daemon address and unit ids — in the stats struct
    // and in the `--stats-json` line.
    let doomed_addr = &stats.daemons[0].addr;
    let dead_events: Vec<_> = stats.events.iter().filter(|e| e.name == "daemon_dead").collect();
    assert_eq!(dead_events.len(), 1, "{:?}", stats.events);
    assert_eq!(&dead_events[0].daemon, doomed_addr);
    assert!(!dead_events[0].detail.is_empty(), "death events carry the failure reason");
    let redispatch_events: Vec<_> =
        stats.events.iter().filter(|e| e.name == "unit_redispatched").collect();
    assert_eq!(redispatch_events.len(), stats.redispatched, "one event per re-dispatched unit");
    assert!(redispatch_events.iter().all(|e| e.unit.is_some() && &e.daemon == doomed_addr));
    let line = stats.to_json_line();
    assert!(line.contains("\"daemon_dead\""), "{line}");
    assert!(line.contains("\"unit_redispatched\""), "{line}");
    let v = json::parse(&line).unwrap();
    let events = v.get("events").unwrap().as_array().unwrap();
    assert!(
        events.iter().any(|e| e.get("name").and_then(Json::as_str) == Some("daemon_dead")
            && e.get("daemon").and_then(Json::as_str) == Some(doomed_addr)),
        "{line}"
    );

    doomed.shutdown();
    survivor.shutdown();
}

/// The observability acceptance shape: a traced, skewed 2-daemon fleet
/// run produces a merged end-to-end trace in which every unit's
/// daemon-side spans parent correctly under the coordinator's root span —
/// and the results are bit-identical to the same run with tracing off.
#[test]
fn traced_fleet_run_merges_parented_spans_and_stays_bit_identical() {
    let spec = BatchSpec::parse(SPEC).unwrap();
    let expected = expected_lines(&spec);
    let slow = spawn_daemon(
        1,
        ServerConfig { chaos_unit_delay: Duration::from_millis(30), ..ServerConfig::default() },
    );
    let fast = spawn_daemon(2, ServerConfig::default());
    let daemons = vec![slow.addr().to_string(), fast.addr().to_string()];

    let traced_config =
        FleetConfig { trace: Some("fleet-it-trace".to_string()), ..FleetConfig::default() };
    let traced = run_fleet(&daemons, &spec.jobs(), &traced_config, |_| {}).unwrap();
    let untraced = run_fleet(&daemons, &spec.jobs(), &FleetConfig::default(), |_| {}).unwrap();

    // Tracing-on vs tracing-off bit-identity (and both match the local
    // engine), plus the untraced run really recorded nothing.
    assert_eq!(traced.lines.len(), expected.len());
    for ((got, off), want) in traced.lines.iter().zip(&untraced.lines).zip(&expected) {
        assert_eq!(stable_fields(got), stable_fields(off), "\ntraced: {got}\nuntraced: {off}");
        assert_eq!(stable_fields(got), stable_fields(want), "\n got: {got}\nwant: {want}");
    }
    assert!(untraced.trace.is_empty(), "tracing off must record nothing");

    // The merged trace: one coordinator root, every unit's daemon-side
    // span parented under it and stamped with its daemon's address.
    let trace = &traced.trace;
    let roots: Vec<&TraceEvent> = trace.iter().filter(|e| e.name == "fleet.batch").collect();
    assert_eq!(roots.len(), 1, "exactly one root span");
    let root = roots[0];
    assert!(matches!(root.kind, EventKind::Span { dur_ns } if dur_ns > 0));
    assert_eq!(root.batch, "fleet-it-trace");
    for unit in 0..expected.len() as u64 {
        let serve_span = trace
            .iter()
            .find(|e| e.name == "serve.unit" && e.unit == Some(unit))
            .unwrap_or_else(|| panic!("unit {unit} has no daemon-side span"));
        assert_eq!(
            serve_span.parent,
            Some(root.span),
            "unit {unit}'s daemon span must parent under the coordinator root"
        );
        let daemon = serve_span.daemon.as_ref().expect("merged spans carry their daemon");
        assert!(daemons.contains(daemon), "{daemon}");
        // The daemon recorded the unit's stage breakdown under its span.
        assert!(
            trace.iter().any(|e| e.name == "unit.tau_eval" && e.parent == Some(serve_span.span)),
            "unit {unit} missing its tau_eval stage span"
        );
        // ...and the coordinator recorded the unit's roundtrip.
        assert!(
            trace.iter().any(|e| e.name == "fleet.unit"
                && e.unit == Some(unit)
                && e.parent == Some(root.span)),
            "unit {unit} missing its coordinator roundtrip span"
        );
    }
    // Dispatch events carry the queue wait; the skew forced steals.
    let dispatches: Vec<&TraceEvent> =
        trace.iter().filter(|e| e.name == "fleet.dispatch").collect();
    assert!(dispatches.len() >= expected.len(), "one dispatch event per send");
    assert!(dispatches.iter().all(|e| e.fields.iter().any(|(k, _)| k == "queue_wait_ns")));
    assert!(
        dispatches.iter().any(|e| e.fields.iter().any(|(k, v)| k == "stolen" && v == "true")),
        "the skewed run must record stolen dispatches"
    );
    // Every line of the merged trace survives JSONL round-trip.
    for event in trace {
        assert_eq!(&TraceEvent::parse(&event.to_json_line()).unwrap(), event);
    }

    // Derived per-verb roundtrip percentiles rode along in the stats.
    assert_eq!(traced.stats.latency.len(), 5);
    let evaluate = traced.stats.latency.iter().find(|l| l.verb == "evaluate").unwrap();
    assert!(evaluate.count > 0);
    assert!(evaluate.p50_ns > 0.0 && evaluate.p50_ns <= evaluate.p95_ns);
    assert!(evaluate.p95_ns <= evaluate.p99_ns);
    let stats_line = traced.stats.to_json_line();
    assert!(stats_line.contains("\"p95_ns\""), "{stats_line}");

    // The analyzer turns the merged trace into a wall-clock attribution:
    // critical path rooted at fleet.batch and descending through the
    // last-finishing roundtrip into its daemon-side stages, stage totals
    // covering every unit, and both daemons accounted with their
    // dispatch/steal/queue-wait attribution.
    let analysis = psdacc_obs::analyze::analyze(trace).unwrap();
    assert_eq!(analysis.batch, "fleet-it-trace");
    assert_eq!(analysis.units, expected.len() as u64);
    let root_dur = match root.kind {
        EventKind::Span { dur_ns } => dur_ns,
        EventKind::Event => unreachable!(),
    };
    assert_eq!(analysis.wall_ns, root_dur);
    assert!(analysis.critical_path.len() >= 3, "{:?}", analysis.critical_path);
    assert_eq!(analysis.critical_path[0].name, "fleet.batch");
    assert_eq!(analysis.critical_path[1].name, "fleet.unit");
    assert_eq!(analysis.critical_path[2].name, "serve.unit");
    // Durations never grow along the path, and every hop below the root
    // is unit-scoped.
    for pair in analysis.critical_path.windows(2) {
        assert!(pair[1].dur_ns <= pair[0].dur_ns, "{:?}", analysis.critical_path);
    }
    assert!(analysis.critical_path[1..].iter().all(|h| h.unit.is_some()));
    // Stage totals cover the tau_eval every unit ran; totals are
    // internally consistent.
    let tau = analysis.stages.iter().find(|s| s.name == "unit.tau_eval").unwrap();
    assert_eq!(tau.count, expected.len() as u64);
    assert!(tau.max_ns <= tau.total_ns && tau.total_ns > 0);
    // Both daemons show up with busy time and dispatch attribution; the
    // skew recorded at least one steal somewhere.
    assert_eq!(analysis.daemons.len(), 2);
    for d in &analysis.daemons {
        assert!(daemons.contains(&d.addr), "{}", d.addr);
        assert!(d.units > 0 && d.busy_ns > 0 && d.dispatches > 0, "{d:?}");
        assert!(d.utilization > 0.0);
    }
    assert!(analysis.daemons.iter().map(|d| d.steals).sum::<u64>() >= 1);
    assert_eq!(
        analysis.daemons.iter().map(|d| d.units).sum::<u64>(),
        expected.len() as u64,
        "every unit's serve span lands on exactly one daemon"
    );
    // Refinement provenance: both refine units' trajectories are
    // reconstructable from the merged trace — steps dense and ordered,
    // each shaving one bit, and the final step landing bit-exactly on
    // the power the unit's merged result line reports.
    assert_eq!(analysis.refinements.len(), 2, "one trajectory per refine unit");
    for t in &analysis.refinements {
        let unit = t.unit.expect("fleet trajectories are unit-scoped") as usize;
        let line = &traced.lines[unit];
        assert!(line.contains("\"kind\":\"greedy-refine\""), "unit {unit}: {line}");
        assert!(!t.steps.is_empty(), "budget above start power admits steps");
        for (i, s) in t.steps.iter().enumerate() {
            assert_eq!(s.step, i as u64, "steps are dense and ordered");
            assert_eq!(s.bits_after, s.bits_before - 1, "greedy shaves one bit per step");
        }
        let reported = json::parse(line).unwrap().get("power").unwrap().as_f64().unwrap();
        let last = t.steps.last().unwrap();
        assert_eq!(
            last.power.to_bits(),
            reported.to_bits(),
            "trajectory must land exactly on the reported power"
        );
    }

    // Both report renderings stay consistent with the struct.
    let report = analysis.to_json_line();
    let rv = json::parse(&report).unwrap();
    assert_eq!(rv.get("kind").and_then(Json::as_str), Some("trace_analysis"));
    assert_eq!(rv.get("units").and_then(Json::as_u64), Some(expected.len() as u64));
    assert!(analysis.to_text().contains("critical path"));
    assert!(analysis.to_text().contains("refinement trajectories"));

    // The standalone scrape path sees the daemons' retained spans too.
    let scraped = fetch_fleet_trace(&daemons, "fleet-it-trace", Duration::from_secs(10)).unwrap();
    assert!(scraped.iter().any(|e| e.name == "serve.unit"));
    assert!(scraped.iter().all(|e| e.daemon.is_some()));
    assert!(
        fetch_fleet_trace(&daemons, "no-such-batch", Duration::from_secs(10)).is_err(),
        "an unknown batch is a named error"
    );

    slow.shutdown();
    fast.shutdown();
}

/// Fleet setup fails fast with every unreachable daemon named — no
/// connect hang, no partial dispatch.
#[test]
fn unreachable_daemons_fail_fast_with_addresses_named() {
    let live = spawn_daemon(1, ServerConfig::default());
    let dead_a = "127.0.0.1:1".to_string();
    let dead_b = "127.0.0.1:2".to_string();
    let daemons = vec![live.addr().to_string(), dead_a.clone(), dead_b.clone()];
    let spec = BatchSpec::parse(SPEC).unwrap();

    let t0 = std::time::Instant::now();
    let err = run_fleet(&daemons, &spec.jobs(), &FleetConfig::default(), |_| {}).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains(&dead_a) && msg.contains(&dead_b), "{msg}");
    assert!(msg.contains("2 of 3"), "{msg}");
    assert!(t0.elapsed() < Duration::from_secs(30), "setup must not hang");
    live.shutdown();
}

/// A single-daemon "fleet" degenerates to a correct, complete run (and
/// exercises the window-refill path with zero stealing opportunities).
#[test]
fn single_daemon_fleet_is_complete_and_identical() {
    let spec = BatchSpec::parse(SPEC).unwrap();
    let expected = expected_lines(&spec);
    let daemon = spawn_daemon(2, ServerConfig::default());
    let outcome = run_fleet(
        &[daemon.addr().to_string()],
        &spec.jobs(),
        &FleetConfig { window_factor: 1, ..FleetConfig::default() },
        |_| {},
    )
    .unwrap();
    assert_eq!(outcome.lines.len(), expected.len());
    for (got, want) in outcome.lines.iter().zip(&expected) {
        assert_eq!(stable_fields(got), stable_fields(want), "\n got: {got}\nwant: {want}");
    }
    assert_eq!(outcome.stats.steals, 0);
    assert_eq!(outcome.stats.daemons[0].served, expected.len());
    daemon.shutdown();
}

/// The open-scenario-API acceptance shape at the fleet layer: a
/// runtime-defined `GraphSpec` scenario, forwarded to **every** daemon via
/// the coordinator's handshake (`FleetConfig::definitions`), evaluates
/// across a skewed 2-daemon fleet bit-identically to a local
/// single-process run — stealing and all, since any daemon may end up
/// serving a unit that names the dynamic scenario.
#[test]
fn defined_graph_scenario_runs_bit_identically_across_the_fleet() {
    const GRAPH: &str = r#"{"nodes":[{"name":"x","block":"input"},
        {"name":"h","block":"fir","taps":[0.35,0.35,0.2,0.1],"inputs":["x"]},
        {"name":"d2","block":"downsample","factor":2,"inputs":["h"]},
        {"name":"u2","block":"upsample","factor":2,"inputs":["d2"]},
        {"name":"g","block":"fir","taps":[0.6,0.4],"inputs":["u2"]}],
        "outputs":["g"]}"#;
    const DYN_SPEC: &str = "scenario fleet-codec\n\
                            scenario fir-cascade stages=1 taps=9 cutoff=0.3\n\
                            batch npsd=64 bits=6..13 methods=psd\n\
                            simulate npsd=64 bits=8 samples=1024 nfft=32 seed=3 trials=1\n";

    // Local reference through the same registry mechanics.
    let registry = psdacc_engine::ScenarioRegistry::new();
    let defined = registry.define_graph_json("fleet-codec", GRAPH).unwrap();
    let spec = BatchSpec::parse_with(DYN_SPEC, &registry).unwrap();
    let expected = expected_lines(&spec);

    // Skewed fleet (stealing inevitable) with the definition forwarded at
    // handshake time.
    let slow = spawn_daemon(
        1,
        ServerConfig { chaos_unit_delay: Duration::from_millis(20), ..ServerConfig::default() },
    );
    let fast = spawn_daemon(2, ServerConfig::default());
    let daemons = vec![slow.addr().to_string(), fast.addr().to_string()];
    let config = FleetConfig {
        definitions: vec![("fleet-codec".to_string(), defined.canonical_json().to_string())],
        ..FleetConfig::default()
    };
    let outcome = run_fleet(&daemons, &spec.jobs(), &config, |_line| {}).unwrap();

    assert_eq!(outcome.stats.failed, 0, "{:?}", outcome.stats);
    assert_eq!(outcome.lines.len(), expected.len());
    for (got, want) in outcome.lines.iter().zip(&expected) {
        assert_eq!(stable_fields(got), stable_fields(want), "\n got: {got}\nwant: {want}");
    }
    assert!(outcome.stats.steals > 0, "skew forces steals: {:?}", outcome.stats);
    assert!(outcome.stats.daemons.iter().all(|d| d.served > 0), "{:?}", outcome.stats);
    // Dynamic-scenario rows really flowed through the fleet, keyed by hash.
    let dynamic_rows = outcome.lines.iter().filter(|l| l.contains(&defined.key())).count();
    assert_eq!(dynamic_rows, 9, "8 bits points + 1 simulate on the defined graph");
    // Both daemons registered the definition during the handshake, and
    // it is observable through `stats` / `scenarios` / `describe`.
    for addr in &daemons {
        assert_eq!(daemon_stat(addr, "dynamic_scenarios"), 1);
        assert_eq!(daemon_stat(addr, "protocol"), psdacc_serve::PROTOCOL_REVISION as u64);
        let scenarios = client::request_control(addr, "scenarios").unwrap();
        let v = json::parse(&scenarios).unwrap();
        assert_eq!(v.get("dynamic").unwrap().as_u64(), Some(1), "{scenarios}");
        assert!(scenarios.contains("fleet-codec"), "{scenarios}");
        let describe = client::request_control(addr, "describe").unwrap();
        let v = json::parse(&describe).unwrap();
        assert_eq!(v.get("kind").unwrap().as_str(), Some("describe"));
        // 9 builtin + 3 estim + 1 dynamic.
        assert_eq!(v.get("count").unwrap().as_u64(), Some(13), "{describe}");
    }

    // Without the forwarded definition the fleet fails fast, naming the
    // scenario, instead of silently computing something else.
    let err = run_fleet(&daemons2_without_defs(), &spec.jobs(), &FleetConfig::default(), |_| {});
    assert!(err.is_err());
    let msg = err.unwrap_err().to_string();
    assert!(msg.contains("fleet-codec"), "{msg}");

    slow.shutdown();
    fast.shutdown();
}

/// Dynamic scenarios persist like builtins: a daemon restart over the same
/// store serves a re-forwarded identical graph with zero preprocessing
/// builds (the content hash is the disk address).
#[test]
fn defined_graph_scenario_warm_restarts_through_the_fleet() {
    const GRAPH: &str = r#"{"nodes":[{"name":"x","block":"input"},
        {"name":"f","block":"iir","b":[0.2],"a":[1.0,-0.6],"inputs":["x"]}],
        "outputs":["f"]}"#;
    let dir = tmp_dir("dynwarm");
    let registry = psdacc_engine::ScenarioRegistry::new();
    let defined = registry.define_graph_json("warm-codec", GRAPH).unwrap();
    let spec = BatchSpec::parse_with(
        "scenario warm-codec\nbatch npsd=64 bits=8..12 methods=psd\n",
        &registry,
    )
    .unwrap();
    let config = FleetConfig {
        definitions: vec![("warm-codec".to_string(), defined.canonical_json().to_string())],
        ..FleetConfig::default()
    };

    let cold = spawn_store_daemon(&dir, 2);
    let cold_addr = vec![cold.addr().to_string()];
    let cold_outcome = run_fleet(&cold_addr, &spec.jobs(), &config, |_| {}).unwrap();
    assert_eq!(cold_outcome.stats.failed, 0);
    assert_eq!(daemon_stat(&cold_addr[0], "cache_builds"), 1);
    assert_eq!(daemon_stat(&cold_addr[0], "disk_writes"), 1);
    cold.shutdown();

    let warm = spawn_store_daemon(&dir, 2);
    let warm_addr = vec![warm.addr().to_string()];
    let warm_outcome = run_fleet(&warm_addr, &spec.jobs(), &config, |_| {}).unwrap();
    assert_eq!(warm_outcome.stats.failed, 0);
    assert_eq!(daemon_stat(&warm_addr[0], "cache_builds"), 0, "re-defined identical graph");
    assert_eq!(daemon_stat(&warm_addr[0], "disk_hits"), 1);
    warm.shutdown();
    assert_bit_identical(&warm_outcome.lines, &cold_outcome.lines);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A fresh 1-daemon fleet with no definitions (for the negative path of
/// the test above). Kept alive via a leaked handle — the daemon dies with
/// the test process.
fn daemons2_without_defs() -> Vec<String> {
    let daemon = spawn_daemon(1, ServerConfig::default());
    let addr = daemon.addr().to_string();
    std::mem::forget(daemon);
    vec![addr]
}

/// The measured-signal fleet shape: estim-family scenarios carry no
/// state beyond their spec line — each daemon re-records the seeded trace
/// and re-estimates its spectrum locally — and a `GraphSpec` carrying
/// inline recorded samples is forwarded to every daemon, so a skewed
/// work-stealing fleet must still merge bit-identically to the local
/// engine. This is the strongest determinism claim in the estimation
/// pipeline: one non-reproducible FFT butterfly or RNG draw anywhere
/// breaks the byte-for-byte comparison.
#[test]
fn measured_source_fleet_is_bit_identical_under_work_stealing() {
    // A short recorded trace inlined in the graph (the canonical wire
    // form — `trace` references are resolved client-side before this).
    let mut gen = psdacc_dsp::SignalGenerator::new(4242);
    let samples: Vec<String> = gen.ar1(512, 0.8, 0.02).iter().map(|s| format!("{s:e}")).collect();
    let graph = format!(
        r#"{{"nodes":[{{"name":"x","block":"input"}},
            {{"name":"m","block":"measured","samples":[{}],"nfft":64}},
            {{"name":"s","block":"add","inputs":["x","m"]}},
            {{"name":"lp","block":"fir","taps":[0.3,0.4,0.3],"inputs":["s"]}}],
            "outputs":["lp"]}}"#,
        samples.join(",")
    );
    let spec_text = "scenario recorded-rig\n\
                     scenario measured-welch samples=1024 nfft=128 seed=21\n\
                     scenario measured-welch samples=2048 nfft=64 seed=21 window=kaiser beta=8.6\n\
                     scenario cross-spectrum samples=2048 nfft=64 snr=10\n\
                     scenario sigma-delta order=1..2 osr=8 samples=4096 nfft=256\n\
                     batch npsd=64 bits=8..11 methods=psd rounding=nearest\n\
                     budget npsd=64 bits=9 rounding=nearest\n";
    let registry = psdacc_engine::ScenarioRegistry::new();
    let defined = registry.define_graph_json("recorded-rig", &graph).unwrap();
    let spec = BatchSpec::parse_with(spec_text, &registry).unwrap();
    let expected = expected_lines(&spec);
    assert_eq!(expected.len(), 30, "6 scenarios x (4 bits + 1 budget)");

    let slow = spawn_daemon(
        1,
        ServerConfig { chaos_unit_delay: Duration::from_millis(20), ..ServerConfig::default() },
    );
    let fast = spawn_daemon(2, ServerConfig::default());
    let daemons = vec![slow.addr().to_string(), fast.addr().to_string()];
    let config = FleetConfig {
        definitions: vec![("recorded-rig".to_string(), defined.canonical_json().to_string())],
        ..FleetConfig::default()
    };
    let outcome = run_fleet(&daemons, &spec.jobs(), &config, |_| {}).unwrap();

    assert_eq!(outcome.stats.failed, 0);
    assert_bit_identical(&outcome.lines, &expected);
    // Both daemons actually evaluated measured scenarios (the estimation
    // ran on both sides, not just one).
    assert!(
        outcome.stats.daemons.iter().all(|d| d.served > 0),
        "both daemons served: {:?}",
        outcome.stats
    );
    // The measured budget rows survive the wire and the merge.
    let budget_lines: Vec<&String> =
        outcome.lines.iter().filter(|l| l.contains("\"kind\":\"budget\"")).collect();
    assert_eq!(budget_lines.len(), 6);
    assert!(
        budget_lines.iter().all(|l| l.contains("\"role\":\"measured\"")),
        "every scenario in this spec has a measured source"
    );
    // Both daemons advertise the estim families to clients.
    for addr in &daemons {
        let describe = client::request_control(addr, "describe").unwrap();
        for family in ["measured-welch", "cross-spectrum", "sigma-delta"] {
            assert!(describe.contains(family), "{addr} missing {family}: {describe}");
        }
    }
    slow.shutdown();
    fast.shutdown();
}
