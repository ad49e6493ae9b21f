//! Loopback integration over raw sockets: every connection is a unit
//! stream whose results are **bit-identical** to the in-process engine,
//! control requests interleave with units, and the daemon's service
//! policy (readiness, connection limits, latency histograms, traces, one
//! worker pool shared by every connection, the write deadline) holds on
//! the wire. Jobs split by hand over two daemons' unit streams
//! merge bit-identically for defined and measured scenarios here;
//! coordinator-level properties — work-stealing merges and warm restarts
//! through `run_fleet` — live in `psdacc-sched`'s `fleet_loopback` tests.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use psdacc_engine::json::{self, Json};
use psdacc_engine::{BatchSpec, Engine};
use psdacc_serve::server::WRITE_DEADLINE;
use psdacc_serve::{client, Server, ServerHandle};

/// Three scenario families x estimates, refinement, min-uniform, and a
/// small seeded simulation — every protocol job kind.
const SPEC: &str = "scenario fir-cascade stages=2 taps=15 cutoff=0.2\n\
                    scenario freq-filter\n\
                    scenario dwt-pipeline levels=1\n\
                    batch npsd=128 bits=8..11 methods=psd,flat\n\
                    refine npsd=128 budget=1e-6 start=14 min=4\n\
                    min-uniform npsd=128 budget=1e-6 min=2 max=24\n\
                    budget npsd=128 bits=9\n\
                    simulate npsd=128 bits=10 samples=4096 nfft=64 seed=11 trials=1\n";

fn spawn_memory_daemon(threads: usize) -> ServerHandle {
    Server::bind("127.0.0.1:0", Engine::new(threads)).unwrap().spawn().unwrap()
}

/// Streams `spec`'s jobs over one connection (no opener), half-closes,
/// and returns every reply line.
fn stream_jobs(addr: SocketAddr, spec: &BatchSpec) -> Vec<String> {
    let stream = TcpStream::connect(addr).unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    for (id, job) in spec.jobs().iter().enumerate() {
        writeln!(&stream, "{}", psdacc_serve::job_request_line(id, job).unwrap()).unwrap();
    }
    stream.shutdown(Shutdown::Write).unwrap();
    reader.lines().map(|l| l.unwrap()).collect()
}

/// Registers `graph` under `name` on the daemon at `addr` and returns the
/// content-hash key it acknowledges.
fn define_scenario(addr: SocketAddr, name: &str, graph: &str) -> String {
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    writeln!(&stream, "{}", psdacc_serve::define_request_line(name, graph)).unwrap();
    let mut ack = String::new();
    reader.read_line(&mut ack).unwrap();
    psdacc_serve::parse_define_ack(ack.trim_end()).unwrap()
}

/// Shards `spec`'s jobs round-robin over one unit stream per daemon and
/// merges the result lines back into job order. Panics unless every
/// daemon's summary reports zero failures.
fn shard_jobs(daemons: &[SocketAddr], spec: &BatchSpec) -> Vec<String> {
    let jobs = spec.jobs();
    let mut merged: Vec<(u64, String)> = Vec::with_capacity(jobs.len());
    for (shard, &addr) in daemons.iter().enumerate() {
        let stream = TcpStream::connect(addr).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        for (id, job) in jobs.iter().enumerate().skip(shard).step_by(daemons.len()) {
            writeln!(&stream, "{}", psdacc_serve::job_request_line(id, job).unwrap()).unwrap();
        }
        stream.shutdown(Shutdown::Write).unwrap();
        let mut lines: Vec<String> = reader.lines().map(|l| l.unwrap()).collect();
        let summary = lines.pop().expect("summary line");
        assert_eq!(stat(&summary, "failed"), 0, "{addr}: {summary}\n{lines:?}");
        merged.extend(lines.into_iter().map(|l| (stat(&l, "job"), l)));
    }
    merged.sort_by_key(|(id, _)| *id);
    merged.into_iter().map(|(_, l)| l).collect()
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

fn stat(line: &str, field: &str) -> u64 {
    json::parse(line).unwrap().get(field).and_then(Json::as_u64).unwrap()
}

/// Control requests answer immediately, malformed lines get error
/// responses without killing the connection, and a job line sent without
/// an `evaluate_units` opener executes as a unit the moment it arrives —
/// its result comes back before half-close, a late opener is an error,
/// and half-close yields the `mode:"units"` summary.
#[test]
fn protocol_robustness_over_a_raw_socket() {
    let daemon = spawn_memory_daemon(2);
    let stream = TcpStream::connect(daemon.addr()).unwrap();
    // A daemon that held jobs until half-close would stall the read below.
    stream.set_read_timeout(Some(std::time::Duration::from_secs(60))).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut next_line = || {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        json::parse(line.trim_end()).unwrap_or_else(|e| panic!("{line}: {e}"))
    };

    // Garbage line -> error response, connection stays up.
    writeln!(&stream, "this is not json").unwrap();
    let v = next_line();
    assert_eq!(v.get("kind").unwrap().as_str(), Some("error"));
    assert_eq!(v.get("line").unwrap().as_u64(), Some(1));

    // scenarios still answered on the same connection.
    writeln!(&stream, "{{\"kind\":\"scenarios\"}}").unwrap();
    let v = next_line();
    assert_eq!(
        v.get("count").unwrap().as_u64(),
        Some(psdacc_engine::ScenarioRegistry::new().families().len() as u64)
    );

    // A job against an invalid scenario parameter fails at parse time with
    // a described error...
    writeln!(&stream, "{{\"kind\":\"evaluate\",\"scenario\":\"fir-bank index=9999\",\"bits\":12}}")
        .unwrap();
    let v = next_line();
    assert_eq!(v.get("kind").unwrap().as_str(), Some("error"));

    // ...while a valid job executes at once: its result arrives while the
    // write side is still open, tagged with its request id.
    writeln!(
        &stream,
        "{{\"kind\":\"evaluate\",\"scenario\":\"freq-filter\",\"bits\":12,\"id\":5}}"
    )
    .unwrap();
    let result = next_line();
    assert_eq!(result.get("job").unwrap().as_u64(), Some(5));
    assert!(result.get("power").unwrap().as_f64().unwrap() > 0.0);

    // The job opened the unit stream; an opener after it is an error.
    writeln!(&stream, "{{\"kind\":\"evaluate_units\"}}").unwrap();
    let v = next_line();
    assert_eq!(v.get("kind").unwrap().as_str(), Some("error"));
    assert!(v.get("error").unwrap().as_str().unwrap().contains("evaluate_units"), "{v:?}");

    stream.shutdown(Shutdown::Write).unwrap();
    let rest: Vec<String> = reader.lines().map(|l| l.unwrap()).collect();
    assert_eq!(rest.len(), 1, "{rest:?}");
    let summary = json::parse(&rest[0]).unwrap();
    assert_eq!(summary.get("kind").unwrap().as_str(), Some("summary"));
    assert_eq!(summary.get("mode").unwrap().as_str(), Some("units"));
    assert_eq!(summary.get("jobs").unwrap().as_u64(), Some(1));
    assert_eq!(summary.get("failed").unwrap().as_u64(), Some(0));
    daemon.shutdown();
}

/// `wait_ready` turns `daemon & submit` scripting into a non-race.
#[test]
fn wait_ready_sees_a_live_daemon_and_times_out_on_a_dead_one() {
    let daemon = spawn_memory_daemon(1);
    client::wait_ready(&daemon.addr().to_string(), std::time::Duration::from_secs(10)).unwrap();
    let addr = daemon.addr();
    daemon.shutdown();
    assert!(client::wait_ready(&addr.to_string(), std::time::Duration::from_millis(200)).is_err());
}

/// An unreachable worker is a prompt error naming the dead address — on
/// a direct connect and on the all-workers readiness probe (which must
/// name *every* dead address, not serially time out on the first).
#[test]
fn unreachable_workers_fail_fast_with_their_addresses_named() {
    let live = spawn_memory_daemon(1);
    let live_addr = live.addr().to_string();
    // Port 1 on loopback: connection refused immediately.
    let dead_a = "127.0.0.1:1".to_string();
    let dead_b = "127.0.0.1:2".to_string();

    let t0 = std::time::Instant::now();
    let err = client::connect(&dead_a).unwrap_err();
    assert!(err.to_string().contains(&dead_a), "{err}");
    assert!(t0.elapsed() < std::time::Duration::from_secs(30), "no connect hang");

    let workers = vec![live_addr, dead_a.clone(), dead_b.clone()];
    let err = client::wait_all_ready(&workers, std::time::Duration::from_millis(300)).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains(&dead_a) && msg.contains(&dead_b), "{msg}");
    assert!(msg.contains("2 of 3"), "{msg}");
    live.shutdown();
}

/// After a served unit stream the `stats` reply carries per-verb
/// log-bucketed latency histograms with non-zero counts for every verb the
/// stream used, and every result is bit-identical to the local engine.
#[test]
fn stats_reply_carries_latency_histograms() {
    let daemon = spawn_memory_daemon(2);
    let addr = daemon.addr().to_string();
    let spec = BatchSpec::parse(SPEC).unwrap();
    let lines = stream_jobs(daemon.addr(), &spec);
    let expected = Engine::new(4).run(spec.jobs()).results;
    let (summary, results) = lines.split_last().unwrap();
    assert_eq!(stat(summary, "jobs") as usize, expected.len(), "{summary}");
    assert_eq!(stat(summary, "failed"), 0, "{summary}");
    assert_eq!(results.len(), expected.len());
    for line in results {
        let want = expected[stat(line, "job") as usize].to_json_line();
        assert_eq!(stable_fields(line), stable_fields(&want), "\n got: {line}\nwant: {want}");
    }
    let stats = client::request_control(&addr, "stats").unwrap();
    let v = json::parse(&stats).unwrap();
    let latency = v.get("latency").unwrap().as_array().unwrap();
    assert_eq!(latency.len(), 5, "{stats}");
    for verb in ["evaluate", "greedy", "min-uniform", "budget", "simulate"] {
        let entry = latency
            .iter()
            .find(|e| e.get("verb").and_then(Json::as_str) == Some(verb))
            .unwrap_or_else(|| panic!("verb {verb} missing: {stats}"));
        assert!(entry.get("count").unwrap().as_u64().unwrap() > 0, "verb {verb} unused: {stats}");
        let buckets = entry.get("buckets").unwrap().as_array().unwrap();
        assert_eq!(buckets.len(), psdacc_obs::NUM_BUCKETS);
        assert!(entry.get("p95_ns").unwrap().as_f64().is_some(), "{stats}");
        // Exact extremes ride along with the bucketed percentiles and
        // bracket each other for a used verb.
        let min = entry.get("min_ns").unwrap().as_u64().unwrap();
        let max = entry.get("max_ns").unwrap().as_u64().unwrap();
        assert!(min > 0 && min <= max, "verb {verb} extremes: {stats}");
        let total: u64 = buckets.iter().map(|b| b.as_u64().unwrap()).sum();
        assert_eq!(total, entry.get("count").unwrap().as_u64().unwrap(), "{stats}");
    }
    daemon.shutdown();
}

/// Connections beyond `--max-connections` get one explanatory error line
/// and a closed socket, while admitted connections keep working.
#[test]
fn connection_limit_refuses_with_an_error_line() {
    use psdacc_serve::ServerConfig;
    let config = ServerConfig { max_connections: Some(1), ..ServerConfig::default() };
    let daemon = Server::bind_with("127.0.0.1:0", Engine::new(1), config).unwrap().spawn().unwrap();

    // First connection occupies the only slot (held open, no half-close).
    // The single-threaded accept loop admits connections in connect order,
    // so this one is accepted (and stays active, blocked in read) before
    // any probe below is looked at.
    let held = TcpStream::connect(daemon.addr()).unwrap();
    // Probe with a read timeout: a refused probe gets the error line; in
    // the unlikely window where the probe lands before `held` is admitted,
    // the read times out and we retry on a fresh socket.
    let mut refused_line = None;
    for _ in 0..100 {
        let over = TcpStream::connect(daemon.addr()).unwrap();
        over.set_read_timeout(Some(std::time::Duration::from_millis(200))).unwrap();
        let mut reader = BufReader::new(over);
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(n) if n > 0 => {
                refused_line = Some(line);
                break;
            }
            _ => std::thread::sleep(std::time::Duration::from_millis(10)),
        }
    }
    let line = refused_line.expect("over-limit connection never refused");
    let v = json::parse(line.trim_end()).unwrap();
    assert_eq!(v.get("kind").unwrap().as_str(), Some("error"));
    assert!(v.get("error").unwrap().as_str().unwrap().contains("connection limit (1)"), "{line}");

    // The held connection still serves.
    let mut reader = BufReader::new(held.try_clone().unwrap());
    writeln!(&held, "{{\"kind\":\"hello\"}}").unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert_eq!(json::parse(reply.trim_end()).unwrap().get("kind").unwrap().as_str(), Some("hello"));
    // Both fds (the socket and its reader clone) must drop for the daemon
    // to see EOF and release the slot.
    drop(reader);
    drop(held);

    // Slot freed: new connections are admitted again (stats answers).
    let mut ok = false;
    for _ in 0..100 {
        // A probe landing before the slot frees gets the refusal line
        // (kind `error`) back — keep polling until a real stats reply.
        if let Ok(stats) = client::request_control(&daemon.addr().to_string(), "stats") {
            let v = json::parse(&stats).unwrap();
            if v.get("kind").and_then(Json::as_str) == Some("stats") {
                assert_eq!(v.get("max_connections").unwrap().as_u64(), Some(1));
                assert!(v.get("rejected_connections").unwrap().as_u64().unwrap() >= 1);
                ok = true;
                break;
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(ok, "slot never freed after the held connection closed");
    daemon.shutdown();
}

/// Unit-streaming mode over a raw socket: jobs execute as they arrive,
/// results come back tagged (any order), control requests interleave, and
/// half-close yields a `mode:"units"` summary.
#[test]
fn evaluate_units_mode_streams_results_as_they_complete() {
    let daemon = spawn_memory_daemon(2);
    let stream = TcpStream::connect(daemon.addr()).unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    writeln!(&stream, "{{\"kind\":\"evaluate_units\"}}").unwrap();
    writeln!(
        &stream,
        "{{\"kind\":\"evaluate\",\"scenario\":\"freq-filter\",\"npsd\":64,\"bits\":12,\"id\":7}}"
    )
    .unwrap();
    writeln!(
        &stream,
        "{{\"kind\":\"evaluate\",\"scenario\":\"freq-filter\",\"npsd\":64,\"bits\":10,\"id\":3}}"
    )
    .unwrap();
    // A control request interleaves mid-stream.
    writeln!(&stream, "{{\"kind\":\"hello\"}}").unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let lines: Vec<String> = reader.lines().map(|l| l.unwrap()).collect();
    assert_eq!(lines.len(), 4, "{lines:?}");
    let parsed: Vec<Json> = lines.iter().map(|l| json::parse(l).unwrap()).collect();
    let ids: Vec<u64> = parsed
        .iter()
        .filter(|v| v.get("power").is_some())
        .map(|v| v.get("job").unwrap().as_u64().unwrap())
        .collect();
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, vec![3, 7], "{lines:?}");
    assert!(parsed.iter().any(|v| v.get("kind").and_then(Json::as_str) == Some("hello")));
    let summary = parsed.last().unwrap();
    assert_eq!(summary.get("kind").unwrap().as_str(), Some("summary"));
    assert_eq!(summary.get("mode").unwrap().as_str(), Some("units"));
    assert_eq!(summary.get("jobs").unwrap().as_u64(), Some(2));
    assert_eq!(summary.get("failed").unwrap().as_u64(), Some(0));

    // The unit results are bit-identical to the engine's own evaluation.
    let spec = BatchSpec::parse("scenario freq-filter\nbatch npsd=64 bits=10,12\n").unwrap();
    let expected = Engine::new(1).run(spec.jobs());
    let by_id = |id: u64| parsed.iter().find(|v| v.get("job").and_then(Json::as_u64) == Some(id));
    assert_eq!(
        by_id(3).unwrap().get("power").unwrap().as_f64(),
        expected.results[0].power,
        "bits=10"
    );
    assert_eq!(
        by_id(7).unwrap().get("power").unwrap().as_f64(),
        expected.results[1].power,
        "bits=12"
    );
    daemon.shutdown();
}

/// Unit-streaming with a wire trace context: the daemon records a
/// `serve.unit` span per unit parented under the coordinator's span, with
/// parse/cache/preprocess/tau_eval/serialize children, all retrievable
/// via the `trace` control verb — and results stay bit-identical to an
/// untraced run.
#[test]
fn evaluate_units_trace_context_yields_parented_daemon_spans() {
    use psdacc_serve::TraceContext;

    let daemon = spawn_memory_daemon(2);
    let run = |trace: Option<&TraceContext>| -> Vec<String> {
        let stream = TcpStream::connect(daemon.addr()).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        writeln!(&stream, "{}", psdacc_serve::evaluate_units_line(trace)).unwrap();
        for (id, bits) in [(7u64, 12u64), (3, 10)] {
            writeln!(
                &stream,
                "{{\"kind\":\"evaluate\",\"scenario\":\"freq-filter\",\"npsd\":64,\
                 \"bits\":{bits},\"id\":{id}}}"
            )
            .unwrap();
        }
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        reader.lines().map(|l| l.unwrap()).collect()
    };

    let root = psdacc_obs::SpanId::from_hex("00c0ffee00000001").unwrap();
    let ctx = TraceContext { batch: "it-batch".to_string(), span: Some(root) };
    let traced = run(Some(&ctx));
    let untraced = run(None);

    // Observability is behavior-neutral: same stable fields, traced or not.
    let results = |lines: &[String]| -> Vec<Vec<(String, Json)>> {
        let mut rows: Vec<(u64, Vec<(String, Json)>)> = lines
            .iter()
            .filter(|l| l.contains("\"power\""))
            .map(|l| (stat(l, "job"), stable_fields(l)))
            .collect();
        rows.sort_by_key(|(id, _)| *id);
        rows.into_iter().map(|(_, f)| f).collect()
    };
    assert_eq!(results(&traced), results(&untraced));

    // Fetch the daemon-side trace for the batch.
    let stream = TcpStream::connect(daemon.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    writeln!(&stream, "{}", psdacc_serve::trace_request_line("it-batch")).unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let events = psdacc_serve::parse_trace_reply(line.trim_end()).unwrap();
    assert!(!events.is_empty(), "{line}");

    // Every unit span parents directly under the coordinator's root span.
    let unit_spans: Vec<_> = events.iter().filter(|e| e.name == "serve.unit").collect();
    assert_eq!(unit_spans.len(), 2, "{line}");
    for span in &unit_spans {
        assert_eq!(span.parent, Some(root), "serve.unit must parent under the wire span");
        assert_eq!(span.batch, "it-batch");
        assert!(span.unit == Some(3) || span.unit == Some(7));
    }
    // Each unit carries the full stage breakdown as children of its span.
    for parent in &unit_spans {
        for stage in ["unit.parse", "unit.cache_lookup", "unit.tau_eval", "unit.serialize"] {
            assert!(
                events.iter().any(|e| e.name == stage && e.parent == Some(parent.span)),
                "missing {stage} under {:?}: {line}",
                parent.unit
            );
        }
    }
    // At least one unit missed the cold cache: its lookup span has a
    // reconstructed `unit.preprocess` child carrying the build cost.
    assert!(events.iter().any(|e| e.name == "unit.preprocess"), "{line}");
    // An unknown batch is a clean error, not a hang.
    let stream = TcpStream::connect(daemon.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    writeln!(&stream, "{}", psdacc_serve::trace_request_line("no-such-batch")).unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(psdacc_serve::parse_trace_reply(line.trim_end()).is_err(), "{line}");
    daemon.shutdown();
}

/// The open-scenario-API acceptance shape at the serve layer: a graph
/// defined over the wire on **both** daemons evaluates through unit
/// streams sharded across them bit-identically to a local single-process
/// engine run, and the definition is observable via `stats` /
/// `scenarios` / `describe`.
#[test]
fn defined_graph_scenario_shards_bit_identically_to_local_run() {
    const GRAPH: &str = r#"{"nodes":[{"name":"x","block":"input"},
        {"name":"lp","block":"fir","taps":[0.4,0.3,0.2,0.1],"inputs":["x"]},
        {"name":"d2","block":"downsample","factor":2,"inputs":["lp"]},
        {"name":"u2","block":"upsample","factor":2,"inputs":["d2"]},
        {"name":"post","block":"fir","taps":[0.5,0.5],"inputs":["u2"]},
        {"name":"trim","block":"gain","gain":0.5,"inputs":["post"],"role":"exact"}],
        "outputs":["trim"]}"#;
    const DYN_SPEC: &str = "scenario my-codec\n\
                            scenario freq-filter\n\
                            batch npsd=64 bits=8..10 methods=psd,agnostic\n\
                            simulate npsd=64 bits=9 samples=2048 nfft=64 seed=5 trials=1\n";

    // Local reference: same registry mechanics, single process.
    let registry = psdacc_engine::ScenarioRegistry::new();
    let defined = registry.define_graph_json("my-codec", GRAPH).unwrap();
    let spec = BatchSpec::parse_with(DYN_SPEC, &registry).unwrap();
    let expected: Vec<String> =
        Engine::new(4).run(spec.jobs()).results.iter().map(|r| r.to_json_line()).collect();

    // Define over the wire on both daemons, then shard.
    let a = spawn_memory_daemon(2);
    let b = spawn_memory_daemon(2);
    let daemons = [a.addr(), b.addr()];
    for &addr in &daemons {
        let key = define_scenario(addr, "my-codec", defined.canonical_json());
        assert_eq!(key, defined.key());
    }
    let lines = shard_jobs(&daemons, &spec);
    assert_eq!(lines.len(), expected.len());
    for (got, want) in lines.iter().zip(&expected) {
        assert_eq!(stable_fields(got), stable_fields(want), "\n got: {got}\nwant: {want}");
    }
    // The dynamic scenario's rows carry its content-hash key.
    let dynamic_rows = lines.iter().filter(|l| l.contains(&defined.key())).count();
    assert_eq!(dynamic_rows, 7, "3 bits x 2 methods + 1 simulate on the defined graph");

    // Both daemons know about the definition.
    for addr in daemons.iter().map(SocketAddr::to_string) {
        let stats = client::request_control(&addr, "stats").unwrap();
        assert_eq!(stat(&stats, "dynamic_scenarios"), 1, "{stats}");
        assert_eq!(stat(&stats, "protocol"), psdacc_serve::PROTOCOL_REVISION as u64, "{stats}");
        let scenarios = client::request_control(&addr, "scenarios").unwrap();
        assert_eq!(stat(&scenarios, "dynamic"), 1, "{scenarios}");
        assert!(scenarios.contains("my-codec"), "{scenarios}");
        let describe = client::request_control(&addr, "describe").unwrap();
        let v = json::parse(&describe).unwrap();
        assert_eq!(v.get("kind").unwrap().as_str(), Some("describe"));
        // 9 builtin + 3 estim + 1 dynamic.
        assert_eq!(v.get("count").unwrap().as_u64(), Some(13), "{describe}");
    }
    // An undefined daemon rejects the named scenario with a clear error.
    let lonely = spawn_memory_daemon(1);
    let replies = stream_jobs(lonely.addr(), &spec);
    let rejected: Vec<&String> = replies
        .iter()
        .filter(|l| l.contains("\"kind\":\"error\"") && l.contains("my-codec"))
        .collect();
    assert!(!rejected.is_empty(), "{replies:?}");
    lonely.shutdown();
    a.shutdown();
    b.shutdown();
}

/// The measured-signal acceptance shape: estimated-PSD scenarios — both
/// the estim families (rebuilt from seeds on each daemon) and a
/// `GraphSpec` carrying inline recorded samples, defined over the wire on
/// **both** daemons — shard bit-identically to a local single-process run.
/// Daemons hold no trace state; determinism of the estimation pipeline is
/// the only thing keeping the shards honest, which is what this test pins.
#[test]
fn measured_source_scenarios_shard_bit_identically_to_local_run() {
    // A short recorded trace inlined in the spec (the canonical wire
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
    const MEASURED_SPEC: &str = "scenario recorded-rig\n\
                                 scenario measured-welch samples=1024 nfft=128 seed=3\n\
                                 scenario sigma-delta order=2 osr=8 samples=4096 nfft=256\n\
                                 batch npsd=128 bits=8..11 methods=psd rounding=nearest\n\
                                 budget npsd=128 bits=9\n";

    // Local reference.
    let registry = psdacc_engine::ScenarioRegistry::new();
    let defined = registry.define_graph_json("recorded-rig", &graph).unwrap();
    let spec = BatchSpec::parse_with(MEASURED_SPEC, &registry).unwrap();
    let expected: Vec<String> =
        Engine::new(4).run(spec.jobs()).results.iter().map(|r| r.to_json_line()).collect();
    assert!(expected.len() >= 15, "4 bits x 3 scenarios + 3 budgets");

    // Define the recorded graph on both daemons, then shard.
    let a = spawn_memory_daemon(2);
    let b = spawn_memory_daemon(2);
    let daemons = [a.addr(), b.addr()];
    for &addr in &daemons {
        define_scenario(addr, "recorded-rig", defined.canonical_json());
    }
    let lines = shard_jobs(&daemons, &spec);
    assert_eq!(lines.len(), expected.len());
    for (got, want) in lines.iter().zip(&expected) {
        assert_eq!(stable_fields(got), stable_fields(want), "\n got: {got}\nwant: {want}");
    }
    // The budget rows carry the measured role over the wire.
    let budget_lines: Vec<&String> =
        lines.iter().filter(|l| l.contains("\"kind\":\"budget\"")).collect();
    assert_eq!(budget_lines.len(), 3);
    assert!(
        budget_lines.iter().all(|l| l.contains("\"role\":\"measured\"")),
        "every scenario in this spec has a measured source"
    );
    // Both daemons advertise the estim families to clients.
    for addr in daemons.iter().map(SocketAddr::to_string) {
        let describe = client::request_control(&addr, "describe").unwrap();
        for family in ["measured-welch", "cross-spectrum", "sigma-delta"] {
            assert!(describe.contains(family), "{addr} missing {family}: {describe}");
        }
    }
    a.shutdown();
    b.shutdown();
}

/// A `freq-filter` estimate as a raw unit-stream job line.
fn unit_line(id: usize) -> String {
    format!("{{\"kind\":\"evaluate\",\"scenario\":\"freq-filter\",\"npsd\":64,\"bits\":12,\"id\":{id}}}")
}

/// The daemon's workers serve every connection: on a one-worker daemon,
/// two connections' units sent together run one after the other.
#[test]
fn workers_are_shared_across_connections() {
    use psdacc_serve::ServerConfig;
    let delay = Duration::from_millis(200);
    let config = ServerConfig { chaos_unit_delay: delay, ..ServerConfig::default() };
    let daemon = Server::bind_with("127.0.0.1:0", Engine::new(1), config).unwrap().spawn().unwrap();
    let conns: Vec<TcpStream> =
        (0..2).map(|_| TcpStream::connect(daemon.addr()).unwrap()).collect();
    let sent = Instant::now();
    for (id, conn) in conns.iter().enumerate() {
        writeln!(&*conn, "{}", unit_line(id)).unwrap();
    }
    for conn in &conns {
        let mut line = String::new();
        BufReader::new(conn).read_line(&mut line).unwrap();
        assert!(line.contains("\"power\""), "{line}");
    }
    let both = sent.elapsed();
    assert!(both >= 2 * delay, "two {delay:?} units on one worker finished in {both:?}");
    daemon.shutdown();
}

/// A peer that floods units and never reads parks the daemon's only
/// worker in `write`, but for at most the write deadline: another
/// connection's unit is still answered.
#[test]
fn a_peer_that_stops_reading_cannot_starve_other_connections() {
    let daemon = spawn_memory_daemon(1);
    let addr = daemon.addr();
    // 1.7 KB result lines fill the flood's socket buffers quickly.
    let spec = BatchSpec::parse("scenario random-sfg nodes=16 seed=3\nbudget npsd=64 bits=9\n");
    let job = spec.unwrap().jobs().remove(0);
    let flood = TcpStream::connect(addr).unwrap();
    let flooder = {
        let mut w = std::io::BufWriter::new(flood.try_clone().unwrap());
        std::thread::spawn(move || {
            for id in 0..1_000_000 {
                let line = psdacc_serve::job_request_line(id, &job).unwrap();
                if writeln!(w, "{line}").is_err() {
                    return;
                }
            }
        })
    };
    // Wait until the daemon stops completing the flood's units: its worker
    // is parked in a write that nobody reads.
    let served =
        || stat(&client::request_control(&addr.to_string(), "stats").unwrap(), "units_served");
    let (mut last, waiting) = (served(), Instant::now());
    loop {
        std::thread::sleep(Duration::from_millis(300));
        let now = served();
        if now > 0 && now == last {
            break;
        }
        assert!(waiting.elapsed() < Duration::from_secs(120), "the flood never stalled: {now}");
        last = now;
    }
    let probe = TcpStream::connect(addr).unwrap();
    probe.set_read_timeout(Some(WRITE_DEADLINE + Duration::from_secs(30))).unwrap();
    let sent = Instant::now();
    writeln!(&probe, "{}", unit_line(0)).unwrap();
    let mut line = String::new();
    BufReader::new(&probe).read_line(&mut line).unwrap();
    let waited = sent.elapsed();
    assert!(line.contains("\"power\""), "{line}");
    let bound = WRITE_DEADLINE + Duration::from_secs(3);
    assert!(waited < bound, "answered after {waited:?}, bound {bound:?}");
    let _ = flood.shutdown(Shutdown::Both);
    flooder.join().unwrap();
    daemon.shutdown();
}

/// Shutting the daemon down while a unit runs lets the unit finish: its
/// result and the stream's summary still arrive, then the connection
/// closes — the daemon's last owner may be that unit's own task.
#[test]
fn shutdown_while_a_unit_runs_still_delivers_result_and_summary() {
    use psdacc_serve::ServerConfig;
    let config =
        ServerConfig { chaos_unit_delay: Duration::from_millis(300), ..ServerConfig::default() };
    let daemon = Server::bind_with("127.0.0.1:0", Engine::new(1), config).unwrap().spawn().unwrap();
    let stream = TcpStream::connect(daemon.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    writeln!(&stream, "{}", unit_line(0)).unwrap();
    writeln!(&stream, "{{\"kind\":\"hello\"}}").unwrap();
    // The hello reply proves the unit line was read and submitted first.
    let mut hello = String::new();
    reader.read_line(&mut hello).unwrap();
    assert!(hello.contains("\"hello\""), "{hello}");
    daemon.shutdown();
    stream.shutdown(Shutdown::Write).unwrap();
    let lines: Vec<String> = reader.lines().map(|l| l.unwrap()).collect();
    assert_eq!(lines.len(), 2, "{lines:?}");
    assert!(lines[0].contains("\"power\""), "{lines:?}");
    assert_eq!(stat(&lines[1], "jobs"), 1, "{lines:?}");
    assert_eq!(stat(&lines[1], "failed"), 0, "{lines:?}");
}

/// A peer that floods units and reads its results only in slow sips holds
/// at most one of a two-worker daemon's workers: one thread writes a
/// connection's lines, and a worker that finds it busy queues its line
/// and moves on. So another connection's unit is answered without waiting
/// out the slow peer's write deadline, and the daemon then gives up on the
/// slow peer. (With every worker waiting its turn to write, the probe
/// waits for the slow peer to be dropped: over 1 s.)
#[test]
fn a_slow_reader_cannot_starve_other_connections() {
    use std::io::Read;
    let daemon = spawn_memory_daemon(2);
    let addr = daemon.addr();
    let spec = BatchSpec::parse("scenario random-sfg nodes=16 seed=3\nbudget npsd=64 bits=9\n");
    let job = spec.unwrap().jobs().remove(0);
    let slow = TcpStream::connect(addr).unwrap();
    let flooder = {
        let mut w = std::io::BufWriter::new(slow.try_clone().unwrap());
        std::thread::spawn(move || {
            for id in 0..1_000_000 {
                let line = psdacc_serve::job_request_line(id, &job).unwrap();
                if writeln!(w, "{line}").is_err() {
                    return;
                }
            }
        })
    };
    let sipper = {
        let mut r = slow.try_clone().unwrap();
        r.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        std::thread::spawn(move || {
            // 16 KB every 100 ms: far below what the daemon produces.
            let mut buf = vec![0u8; 16 * 1024];
            loop {
                match r.read(&mut buf) {
                    Ok(0) | Err(_) => return,
                    Ok(_) => std::thread::sleep(Duration::from_millis(100)),
                }
            }
        })
    };
    // Let the slow peer's buffers fill, so the daemon's writes to it block.
    std::thread::sleep(Duration::from_secs(1));
    let probe = TcpStream::connect(addr).unwrap();
    probe.set_read_timeout(Some(WRITE_DEADLINE + Duration::from_secs(30))).unwrap();
    let sent = Instant::now();
    writeln!(&probe, "{}", unit_line(0)).unwrap();
    let mut line = String::new();
    BufReader::new(&probe).read_line(&mut line).unwrap();
    let waited = sent.elapsed();
    assert!(line.contains("\"power\""), "{line}");
    let bound = WRITE_DEADLINE / 2;
    assert!(waited < bound, "answered after {waited:?}, bound {bound:?}");
    // The daemon drops the slow peer: its sipper sees the stream end.
    sipper.join().unwrap();
    flooder.join().unwrap();
    daemon.shutdown();
}

/// A cache that panics on one grid size, for the panicking-unit test.
#[derive(Debug)]
struct PanicsAtNpsd(psdacc_engine::EvaluatorCache, usize);

impl psdacc_engine::PreprocessCache for PanicsAtNpsd {
    fn get_or_build_traced(
        &self,
        scenario: &psdacc_engine::Scenario,
        npsd: usize,
    ) -> Result<(std::sync::Arc<psdacc_core::AccuracyEvaluator>, bool), psdacc_engine::EngineError>
    {
        assert_ne!(npsd, self.1, "injected failure");
        self.0.get_or_build_traced(scenario, npsd)
    }

    fn stats(&self) -> psdacc_engine::CacheStats {
        self.0.stats()
    }
}

/// A unit whose job panics answers with an error result for its id and
/// counts as failed in the summary; the connection carries on.
#[test]
fn a_panicking_unit_answers_with_an_error_result() {
    let cache = PanicsAtNpsd(psdacc_engine::EvaluatorCache::new(), 64);
    let engine = Engine::with_shared_cache(1, std::sync::Arc::new(cache));
    let daemon = Server::bind("127.0.0.1:0", engine).unwrap().spawn().unwrap();
    let stream = TcpStream::connect(daemon.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    writeln!(&stream, "{}", unit_line(0)).unwrap();
    writeln!(&stream, "{}", unit_line(1).replace("\"npsd\":64", "\"npsd\":128")).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let lines: Vec<String> = reader.lines().map(|l| l.unwrap()).collect();
    assert_eq!(lines.len(), 3, "{lines:?}");
    let panicked = lines[..2].iter().find(|l| stat(l, "job") == 0).expect("a line for unit 0");
    let error = json::parse(panicked).unwrap();
    let error = error.get("error").and_then(Json::as_str).unwrap_or_default().to_string();
    assert!(error.contains("panicked") && error.contains("injected failure"), "{panicked}");
    let fine = lines[..2].iter().find(|l| stat(l, "job") == 1).expect("a line for unit 1");
    assert!(fine.contains("\"power\""), "{fine}");
    assert_eq!(stat(&lines[2], "jobs"), 2, "{lines:?}");
    assert_eq!(stat(&lines[2], "failed"), 1, "{lines:?}");
    daemon.shutdown();
}
