//! The performance baseline suite: `BENCH_psd.json`.
//!
//! Times the ROADMAP's hot paths — the paper's two cost centers
//! (`tau_pp` preprocessing and `tau_eval` analytical estimation:
//! single-rate FIR and IIR, and multirate/DWT), the budget-attribution
//! variant of the estimate, GraphSpec compile+hash, the store codec round-trip,
//! warm-vs-cold evaluator-cache lookups, one cached job through
//! `Engine::run` (the fixed cost of a call), Welch estimation of a recorded
//! trace plus a bit-true sigma-delta modulation pass (the measured-signal
//! subsystem's hot paths), a 1024-point radix-2 FFT, the Monte-Carlo
//! simulation an analytical estimate replaces (the numerator of the
//! paper's speed-up), the JSON decode every fleet result line pays, and the
//! fleet's cost model on one in-process loopback daemon (a 1-unit batch,
//! and the marginal cost of one more unit) — and writes one versioned JSON
//! line:
//!
//! ```json
//! {"kind":"bench","version":4,
//!  "meta":{"iters":20,"npsd":256,"host_threads":8,"unix_ts":1754600000,
//!          "probes":["preprocess","tau_eval",...]},
//!  "results":[{"name":"preprocess","iters":20,"p50_ns":1003520,
//!              "p95_ns":1965000,"mean_ns":1100000,
//!              "min_ns":990100,"max_ns":2011400,
//!              "throughput_units_per_s":812.5}, ...]}
//! ```
//!
//! Every statistic is exact. [`measure`] keeps each iteration's
//! nanoseconds, sorts them, and reports `p50_ns`/`p95_ns` as nearest-rank
//! order statistics (the ⌈q·n⌉-th smallest sample) and `min_ns`/`max_ns`
//! as the first and last sample, so `min ≤ p50 ≤ p95 ≤ max` holds by
//! construction. `mean_ns` is total/count and `throughput_units_per_s`
//! is units per second of wall time; the compare gate keys off
//! throughput. CI runs this at low iteration counts as a soft regression
//! gate (generous threshold); baselines worth committing come from
//! dedicated runs at higher `iters`.

use std::time::Instant;

use psdacc_core::{AccuracyEvaluator, WordLengthPlan};
use psdacc_engine::json::{self, JsonWriter};
use psdacc_engine::{
    BatchSpec, Engine, EstimateMethod, EvaluatorCache, GraphScenario, JobKind, JobResult, JobSpec,
    Scenario,
};
use psdacc_fft::{Complex, Direction, Radix2Fft};
use psdacc_fixed::RoundingMode;
use psdacc_sched::{run_fleet, FleetConfig};
use psdacc_serve::Server;
use psdacc_sim::{measure_quantization_error, SimulationPlan};
use psdacc_store::Record;
use psdacc_systems::filter_bank::{fir_entry, fir_system};

/// Schema version of the `BENCH_psd.json` line (bumped when fields or
/// probe semantics change; `--compare` refuses to diff across versions).
/// v3 added exact `min_ns`/`max_ns` per probe and `meta.unix_ts`; v4
/// made `p50_ns`/`p95_ns` nearest-rank order statistics of the raw
/// samples (they were interpolated inside log2 histogram buckets).
pub const SCHEMA_VERSION: u64 = 4;

/// One timed probe of the suite.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Probe name (`preprocess`, `fleet_unit`, ...).
    pub name: String,
    /// Timed iterations.
    pub iters: usize,
    /// Median per-iteration time, ns (nearest rank).
    pub p50_ns: u64,
    /// 95th-percentile per-iteration time, ns (nearest rank).
    pub p95_ns: u64,
    /// Exact mean per-iteration time, ns (total / count).
    pub mean_ns: u64,
    /// Fastest iteration, ns.
    pub min_ns: u64,
    /// Slowest iteration, ns.
    pub max_ns: u64,
    /// Work units completed per second of wall time (exact).
    pub throughput_units_per_s: f64,
}

impl BenchResult {
    fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.field_str("name", &self.name);
        w.field_usize("iters", self.iters);
        w.field_u64("p50_ns", self.p50_ns);
        w.field_u64("p95_ns", self.p95_ns);
        w.field_u64("mean_ns", self.mean_ns);
        w.field_u64("min_ns", self.min_ns);
        w.field_u64("max_ns", self.max_ns);
        w.field_f64("throughput_units_per_s", self.throughput_units_per_s);
        w.finish()
    }
}

/// Run metadata carried by the report, so a baseline is comparable on
/// its own terms (a 3-iter CI smoke vs a 20-iter committed baseline is
/// visible in the file, not tribal knowledge).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchMeta {
    /// Iterations every probe ran.
    pub iters: usize,
    /// PSD resolution the numeric probes ran at.
    pub npsd: usize,
    /// Available host parallelism when the run happened.
    pub host_threads: usize,
    /// Seconds since the Unix epoch when the run started (0 when the
    /// clock is unavailable) — the ordering key of the history ledger.
    pub unix_ts: u64,
}

/// The full suite report (`BENCH_psd.json` content).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Run metadata.
    pub meta: BenchMeta,
    /// One entry per timed probe.
    pub results: Vec<BenchResult>,
}

impl BenchReport {
    /// Serializes as one JSON line (the versioned `BENCH_psd.json`
    /// schema; the probe list rides in `meta` so a reader can detect a
    /// missing probe without parsing every result).
    pub fn to_json_line(&self) -> String {
        let probes: Vec<String> = self.results.iter().map(|r| format!("\"{}\"", r.name)).collect();
        let mut meta = JsonWriter::new();
        meta.field_usize("iters", self.meta.iters);
        meta.field_usize("npsd", self.meta.npsd);
        meta.field_usize("host_threads", self.meta.host_threads);
        meta.field_u64("unix_ts", self.meta.unix_ts);
        meta.field_raw("probes", &format!("[{}]", probes.join(",")));
        let entries: Vec<String> = self.results.iter().map(BenchResult::to_json).collect();
        let mut w = JsonWriter::new();
        w.field_str("kind", "bench");
        w.field_u64("version", SCHEMA_VERSION);
        w.field_raw("meta", &meta.finish());
        w.field_raw("results", &format!("[{}]", entries.join(",")));
        w.finish()
    }
}

/// Nearest-rank `q`-quantile of ascending `sorted`: the ⌈q·n⌉-th smallest
/// sample (the definition `perfbench` uses), so the answer is always a
/// recorded time. Zero for no samples.
fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len();
    if n == 0 {
        return 0;
    }
    sorted[((q * n as f64).ceil() as usize).clamp(1, n) - 1]
}

/// Times `iters` runs of `work` (which completes `units_per_iter` units
/// each run) and derives the order-statistic/throughput record from the
/// raw per-iteration samples.
pub fn measure(name: &str, iters: usize, units_per_iter: usize, work: impl FnMut()) -> BenchResult {
    let (samples, total) = sample(iters, work);
    summarize(name, units_per_iter, samples, total)
}

/// Each of `iters` runs of `work`, ns, and the wall seconds of all of them.
fn sample(iters: usize, mut work: impl FnMut()) -> (Vec<u64>, f64) {
    let mut samples = Vec::with_capacity(iters);
    let t0 = Instant::now();
    for _ in 0..iters {
        let it = Instant::now();
        work();
        samples.push(it.elapsed().as_nanos() as u64);
    }
    (samples, t0.elapsed().as_secs_f64())
}

/// The record of per-iteration `samples` that took `total` wall seconds.
fn summarize(name: &str, units_per_iter: usize, mut samples: Vec<u64>, total: f64) -> BenchResult {
    let iters = samples.len();
    samples.sort_unstable();
    BenchResult {
        name: name.to_string(),
        iters,
        p50_ns: nearest_rank(&samples, 0.50),
        p95_ns: nearest_rank(&samples, 0.95),
        mean_ns: samples.iter().sum::<u64>().checked_div(iters as u64).unwrap_or(0),
        min_ns: samples.first().copied().unwrap_or(0),
        max_ns: samples.last().copied().unwrap_or(0),
        throughput_units_per_s: if total > 0.0 {
            (iters * units_per_iter) as f64 / total
        } else {
            0.0
        },
    }
}

/// The spec whose 20 result lines (a bits sweep, a refinement, and a
/// seeded simulation over one scenario) the `json_parse` and `result_scan`
/// probes decode.
const FLEET_SPEC: &str = "scenario fir-cascade stages=1 taps=9 cutoff=0.3\n\
                          batch npsd=64 bits=4..21 methods=psd\n\
                          min-uniform npsd=64 budget=1e-6 min=2 max=24\n\
                          simulate npsd=64 bits=8 samples=1024 nfft=32 seed=7 trials=1\n";

/// The declarative graph the `graphspec_compile` probe parses, compiles,
/// canonicalizes, and content-hashes each iteration.
const GRAPH_JSON: &str = r#"{"nodes":[
  {"name":"x","block":"input"},
  {"name":"d1","block":"delay","samples":1,"inputs":["x"]},
  {"name":"g1","block":"gain","gain":0.5,"inputs":["d1"]},
  {"name":"g2","block":"gain","gain":0.25,"inputs":["x"]},
  {"name":"s","block":"add","inputs":["g1","g2"]}],
  "outputs":["s"]}"#;

/// One batch of `jobs` through the fleet coordinator.
fn fleet_batch(daemons: &[String], jobs: &[JobSpec]) {
    let outcome = run_fleet(daemons, jobs, &FleetConfig::default(), |_| {}).expect("fleet batch");
    assert_eq!(outcome.stats.failed, 0, "{:?}", outcome.stats);
}

/// Runs the whole suite at `npsd` / `iters`.
///
/// # Panics
///
/// Panics when a scenario fails to build, a codec round-trip corrupts,
/// or the loopback fleet cannot run — baseline-binary style (there is
/// nothing to degrade to).
pub fn run_baseline(npsd: usize, iters: usize) -> BenchReport {
    run_baseline_profiled(npsd, iters, None)
}

/// Drains the global profiler after one probe and writes its hotspot
/// table (`<probe>.profile.txt`), canonical JSON line
/// (`<probe>.profile.json`), and flamegraph folded stacks
/// (`<probe>.folded`) into `dir`. Writes nothing for a probe that
/// recorded no frames (`fft` and `simulate` run uninstrumented crates).
fn dump_probe_profile(dir: &std::path::Path, probe: &str) {
    let Some(profiler) = psdacc_obs::profile::profiler() else { return };
    let snapshot = profiler.take();
    if snapshot.is_empty() {
        return;
    }
    let write = |ext: &str, content: String| {
        let path = dir.join(format!("{probe}.{ext}"));
        std::fs::write(&path, content)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    };
    write("profile.txt", snapshot.to_text());
    write("profile.json", format!("{}\n", snapshot.to_json_line()));
    write("folded", snapshot.to_folded());
}

/// [`run_baseline`] with optional per-probe profiling: when `profile_dir`
/// is set, the hierarchical profiler is installed (first-install-wins —
/// an already installed profiler is reused), drained before the suite,
/// and re-drained after every probe into three files per probe that
/// recorded frames (hotspot table, profile JSON line, folded stacks).
/// The timed work is identical either way; the frames ride inside the
/// measured regions, which is the point — the dump shows where each
/// probe's time went.
///
/// # Panics
///
/// Everything [`run_baseline`] panics on, plus unwritable `profile_dir`.
pub fn run_baseline_profiled(
    npsd: usize,
    iters: usize,
    profile_dir: Option<&std::path::Path>,
) -> BenchReport {
    let iters = iters.max(1);
    if let Some(dir) = profile_dir {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
        psdacc_obs::profile::install(std::sync::Arc::new(psdacc_obs::Profiler::new()));
        let _ = psdacc_obs::profile::profiler().expect("profiler installed above").take();
    }
    let dump = |probe: &str| {
        if let Some(dir) = profile_dir {
            dump_probe_profile(dir, probe);
        }
    };
    // Un-timed setup between probes (evaluator builds, cache warming)
    // records frames too; discard them so each dump holds exactly its
    // probe's frames.
    let clear = || {
        if profile_dir.is_some() {
            if let Some(profiler) = psdacc_obs::profile::profiler() {
                let _ = profiler.take();
            }
        }
    };
    let scenario = Scenario::FirCascade { stages: 2, taps: 15, cutoff: 0.2 };
    let sfg = scenario.build().expect("baseline scenario builds");

    // tau_pp: the preprocessing pass (PSD propagation tables), paid once
    // per (scenario, npsd) and amortized by every cache layer above.
    let preprocess = measure("preprocess", iters, 1, || {
        let evaluator = AccuracyEvaluator::new(&sfg, npsd).expect("preprocess");
        std::hint::black_box(&evaluator);
    });
    dump("preprocess");

    // The same pass on a 16-node random forward graph: every node is a
    // noise source whose response the per-bin solve yields, the shape of
    // the inline graphs a fleet request brings.
    let random =
        Scenario::RandomSfg { nodes: 16, seed: 7 }.build().expect("random scenario builds");
    let preprocess_random = measure("preprocess_random", iters, 1, || {
        let evaluator = AccuracyEvaluator::new(&random, npsd).expect("random preprocess");
        std::hint::black_box(&evaluator);
    });
    dump("preprocess_random");

    // The same pass through the multirate/DWT path (per-level kernels
    // instead of flat responses) — the decimated structure the paper's
    // wavelet scenarios exercise.
    let dwt = Scenario::DwtDecimated { levels: 2 }.build().expect("dwt scenario builds");
    let preprocess_multirate = measure("preprocess_multirate", iters, 1, || {
        let evaluator = AccuracyEvaluator::new(&dwt, npsd).expect("multirate preprocess");
        std::hint::black_box(&evaluator);
    });
    dump("preprocess_multirate");

    // tau_eval: one analytical PSD estimate against a built evaluator —
    // the per-query cost the paper's economics amortize toward.
    let evaluator = AccuracyEvaluator::new(&sfg, npsd).expect("preprocess");
    let plan = WordLengthPlan::uniform(12, RoundingMode::Truncate);
    clear();
    let tau_eval = measure("tau_eval", iters, 1, || {
        std::hint::black_box(evaluator.estimate_psd(&plan).power);
    });
    dump("tau_eval");

    // The same estimate on an IIR cascade: each IIR node's source carries
    // its 1/A(z) shaping in the preprocessed kernel, so this should cost
    // about what the FIR estimate above does.
    let iir = Scenario::IirCascade { stages: 2, order: 4, cutoff: 0.2 }
        .build()
        .expect("iir scenario builds");
    let iir_evaluator = AccuracyEvaluator::new(&iir, npsd).expect("iir preprocess");
    clear();
    let tau_eval_iir = measure("tau_eval_iir", iters, 1, || {
        std::hint::black_box(iir_evaluator.estimate_psd(&plan).power);
    });
    dump("tau_eval_iir");

    // The same evaluation keeping the per-node attribution ledger — what
    // a budget job pays over a plain estimate (row assembly + the
    // bit-exact residue fold).
    let budget = measure("budget", iters, 1, || {
        std::hint::black_box(evaluator.evaluate_budget(&plan).power);
    });
    dump("budget");

    // GraphSpec parse + compile + canonicalize + content-hash: the cost
    // of admitting one declarative scenario definition.
    let graphspec_compile = measure("graphspec_compile", iters, 1, || {
        let g = GraphScenario::from_json(GRAPH_JSON, None).expect("graph compiles");
        std::hint::black_box(g.key());
    });
    dump("graphspec_compile");

    // Store codec round-trip of the preprocessing tables (what every
    // disk hit pays instead of a rebuild).
    let record = Record::from_preprocessed(&scenario.key(), evaluator.preprocessed(), 0.001);
    let store_roundtrip = measure("store_roundtrip", iters, 1, || {
        let bytes = record.encode().expect("record encodes");
        let back = Record::decode(&bytes).expect("record decodes");
        std::hint::black_box(&back);
    });
    dump("store_roundtrip");

    // Evaluator-cache lookups: cold (fresh cache, full build) vs warm
    // (the hit path every steady-state job takes).
    let cache_cold = measure("cache_cold", iters, 1, || {
        let cache = EvaluatorCache::new();
        std::hint::black_box(cache.get_or_build(&scenario, npsd).expect("cold build"));
    });
    dump("cache_cold");
    let warm_cache = EvaluatorCache::new();
    warm_cache.get_or_build(&scenario, npsd).expect("warm fill");
    clear();
    let cache_warm = measure("cache_warm", iters, 1, || {
        std::hint::black_box(warm_cache.get_or_build(&scenario, npsd).expect("warm hit"));
    });
    dump("cache_warm");

    // The fixed cost of one call into the engine: a single cached psd job
    // through `Engine::run` on a one-worker engine.
    let engine = Engine::new(1);
    let job = JobSpec {
        scenario: scenario.clone(),
        npsd,
        rounding: RoundingMode::Truncate,
        kind: JobKind::Estimate { method: EstimateMethod::PsdMethod, frac_bits: 12 },
    };
    engine.run(vec![job.clone()]);
    clear();
    let engine_job = measure("engine_job", iters, 1, || {
        std::hint::black_box(engine.run(vec![job.clone()]));
    });
    dump("engine_job");

    // Welch estimation of a recorded trace — the admission cost every
    // measured-signal source pays before it becomes a PSD-domain kernel.
    let mut gen = psdacc_dsp::SignalGenerator::new(0xBE9C);
    let trace = gen.ar1(16_384, 0.9, 0.05);
    let welch_cfg = psdacc_estim::WelchConfig {
        nfft: 1024,
        overlap: 0.5,
        window: psdacc_estim::WelchWindow::Hann,
    };
    clear();
    let welch_estimate = measure("welch_estimate", iters, 1, || {
        let est = psdacc_estim::welch_psd(&trace, &welch_cfg).expect("welch estimates");
        std::hint::black_box(est.mean);
    });
    dump("welch_estimate");

    // Bit-true second-order sigma-delta loop plus the Welch estimate of
    // its STF-aligned modulation error — the per-scenario cost of the
    // figure-of-merit pipeline.
    let tone: Vec<f64> = (0..16_384)
        .map(|n| 0.5 * (std::f64::consts::TAU * 16.0 * n as f64 / 1024.0).sin())
        .collect();
    let sigma_delta = measure("sigma_delta", iters, 1, || {
        let y = psdacc_estim::modulate(2, &tone).expect("loop is stable");
        let err: Vec<f64> = y[2..].iter().zip(&tone).map(|(y, x)| y - x).collect();
        let est = psdacc_estim::welch_psd(&err, &welch_cfg).expect("welch estimates");
        std::hint::black_box(est.mean);
    });
    dump("sigma_delta");

    // tau_eval through the multirate fold/image kernels of the DWT graph
    // the preprocess_multirate probe builds.
    let dwt_evaluator = AccuracyEvaluator::new(&dwt, npsd).expect("multirate preprocess");
    clear();
    let tau_eval_multirate = measure("tau_eval_multirate", iters, 1, || {
        std::hint::black_box(dwt_evaluator.estimate_psd(&plan).power);
    });
    dump("tau_eval_multirate");

    // The FFT substrate under every spectral estimate: one forward
    // 1024-point radix-2 transform.
    let fft_plan = Radix2Fft::new(1024, Direction::Forward);
    let fft_input: Vec<Complex> =
        (0..1024).map(|i| Complex::new((i as f64 * 0.7).sin(), (i as f64 * 0.3).cos())).collect();
    let fft = measure("fft", iters, 1, || {
        std::hint::black_box(fft_plan.transform(&fft_input));
    });
    dump("fft");

    // The Monte-Carlo reference each analytical estimate replaces: a
    // bit-true 12-bit truncated simulation of one FIR over 10 000
    // samples — the numerator of the paper's speed-up.
    let fir = fir_system(fir_entry(3).expect("valid population").1);
    let quantizers = plan.quantizers(&fir);
    let sim_plan = SimulationPlan { samples: 10_000, nfft: 128, ..Default::default() };
    clear();
    let simulate = measure("simulate", iters, 1, || {
        let m = measure_quantization_error(&fir, &quantizers, &sim_plan).expect("simulates");
        std::hint::black_box(m);
    });
    dump("simulate");

    // A full JSON decode of the fleet batch's 20 result lines, computed
    // locally and rendered as a daemon sends them (every job line pays the
    // same decode in the daemon).
    let fleet_jobs = BatchSpec::parse(FLEET_SPEC).expect("fleet spec parses").jobs();
    let result_lines: Vec<String> =
        Engine::new(1).run(fleet_jobs).results.iter().map(JobResult::to_json_line).collect();
    clear();
    let json_parse = measure("json_parse", iters, result_lines.len(), || {
        for line in &result_lines {
            std::hint::black_box(json::parse(line).expect("result line parses"));
        }
    });
    dump("json_parse");

    // What the coordinator pays per result line instead: the scan of the
    // top-level `kind`, `job` and `error`, over the same lines.
    clear();
    let result_scan = measure("result_scan", iters, result_lines.len(), || {
        for line in &result_lines {
            std::hint::black_box(json::scan_result(line).expect("result line scans"));
        }
    });
    dump("result_scan");

    // The fleet's cost model on one one-worker loopback daemon, over the
    // cached job of `engine_job`: `fleet_setup` is a 1-unit batch
    // (handshake, stream opener, one unit, end of stream); `fleet_unit` is
    // the marginal cost of one more unit, each 41-unit batch less the
    // median 1-unit batch, over 40.
    let daemon = Server::bind("127.0.0.1:0", Engine::new(1)).unwrap().spawn().unwrap();
    let daemons = [daemon.addr().to_string()];
    let (one, many) = (vec![job.clone()], vec![job; 41]);
    fleet_batch(&daemons, &one);
    clear();
    let fleet_setup = measure("fleet_setup", iters, 1, || fleet_batch(&daemons, &one));
    dump("fleet_setup");
    let (batches, _) = sample(iters, || fleet_batch(&daemons, &many));
    dump("fleet_unit");
    daemon.shutdown();
    let per_unit: Vec<u64> =
        batches.iter().map(|&t| (t.saturating_sub(fleet_setup.p50_ns) / 40).max(1)).collect();
    let marginal_s = per_unit.iter().sum::<u64>() as f64 / 1e9;
    let fleet_unit = summarize("fleet_unit", 1, per_unit, marginal_s);

    let results = vec![
        preprocess,
        preprocess_random,
        preprocess_multirate,
        tau_eval,
        tau_eval_iir,
        budget,
        graphspec_compile,
        store_roundtrip,
        cache_cold,
        cache_warm,
        engine_job,
        welch_estimate,
        sigma_delta,
        tau_eval_multirate,
        fft,
        simulate,
        json_parse,
        result_scan,
        fleet_setup,
        fleet_unit,
    ];
    BenchReport {
        meta: BenchMeta {
            iters,
            npsd,
            host_threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            unix_ts: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
        },
        results,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psdacc_engine::json::{self, Json};

    #[test]
    fn baseline_report_carries_every_probe_with_valid_schema() {
        let report = run_baseline(64, 2);
        let line = report.to_json_line();
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("kind").unwrap().as_str(), Some("bench"));
        assert_eq!(v.get("version").unwrap().as_u64(), Some(SCHEMA_VERSION));
        let meta = v.get("meta").unwrap();
        assert_eq!(meta.get("iters").unwrap().as_u64(), Some(2));
        assert_eq!(meta.get("npsd").unwrap().as_u64(), Some(64));
        assert!(meta.get("host_threads").unwrap().as_u64().unwrap() >= 1);
        assert!(meta.get("unix_ts").unwrap().as_u64().unwrap() > 1_700_000_000, "{line}");
        let results = v.get("results").unwrap().as_array().unwrap();
        let names: Vec<&str> =
            results.iter().map(|r| r.get("name").and_then(Json::as_str).unwrap()).collect();
        assert_eq!(
            names,
            vec![
                "preprocess",
                "preprocess_random",
                "preprocess_multirate",
                "tau_eval",
                "tau_eval_iir",
                "budget",
                "graphspec_compile",
                "store_roundtrip",
                "cache_cold",
                "cache_warm",
                "engine_job",
                "welch_estimate",
                "sigma_delta",
                "tau_eval_multirate",
                "fft",
                "simulate",
                "json_parse",
                "result_scan",
                "fleet_setup",
                "fleet_unit",
            ]
        );
        // meta.probes mirrors the result names exactly.
        let probes: Vec<&str> = meta
            .get("probes")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|p| p.as_str().unwrap())
            .collect();
        assert_eq!(probes, names);
        for r in results {
            assert!(r.get("iters").unwrap().as_u64().unwrap() >= 1, "{line}");
            assert_ordered(r, &line);
            assert!(r.get("mean_ns").unwrap().as_u64().unwrap() > 0, "{line}");
            assert!(r.get("throughput_units_per_s").unwrap().as_f64().unwrap() > 0.0, "{line}");
        }
    }

    /// `0 < min_ns <= p50_ns <= p95_ns <= max_ns` for one result entry.
    fn assert_ordered(r: &Json, context: &str) {
        let stat = |k: &str| r.get(k).and_then(Json::as_u64).unwrap_or_else(|| panic!("{k}"));
        let (min, p50, p95, max) = (stat("min_ns"), stat("p50_ns"), stat("p95_ns"), stat("max_ns"));
        assert!(0 < min && min <= p50 && p50 <= p95 && p95 <= max, "{context}");
    }

    #[test]
    fn nearest_rank_reads_recorded_samples() {
        let mut samples = vec![5, 1, 3, 2, 4];
        samples.sort_unstable();
        assert_eq!(samples.first(), Some(&1));
        assert_eq!(nearest_rank(&samples, 0.50), 3);
        assert_eq!(nearest_rank(&samples, 0.95), 5);
        assert_eq!(samples.last(), Some(&5));
        // One sample is every order statistic.
        for q in [0.0, 0.5, 0.95, 1.0] {
            assert_eq!(nearest_rank(&[7], q), 7);
        }
        assert_eq!(nearest_rank(&[], 0.5), 0);
    }

    #[test]
    fn committed_baseline_statistics_are_ordered() {
        let text = include_str!("../../../BENCH_psd.json");
        let v = json::parse(text.trim()).unwrap();
        assert_eq!(v.get("version").unwrap().as_u64(), Some(SCHEMA_VERSION));
        let results = v.get("results").unwrap().as_array().unwrap();
        assert!(!results.is_empty());
        for r in results {
            assert_ordered(r, &format!("{r:?}"));
        }
    }

    #[test]
    fn measure_reports_order_statistics_of_raw_samples() {
        let r = measure("spin", 8, 3, || std::thread::sleep(std::time::Duration::from_micros(50)));
        assert_eq!(r.iters, 8);
        // Every sleep took at least the requested 50 µs and well under a
        // second, and the order statistics never contradict each other.
        assert!(r.min_ns >= 50_000, "{r:?}");
        assert!(r.min_ns <= r.p50_ns && r.p50_ns <= r.p95_ns && r.p95_ns <= r.max_ns, "{r:?}");
        assert!(r.max_ns < 1_000_000_000, "{r:?}");
        assert!(r.mean_ns >= r.min_ns && r.mean_ns <= r.max_ns, "{r:?}");
        // 8 iterations x 3 units in ~8 x 50 µs.
        assert!(r.throughput_units_per_s > 100.0, "{r:?}");
    }
}
