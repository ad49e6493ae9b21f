//! The perf suite: times the workspace hot paths (preprocess and
//! tau_eval, single- and multirate; budget; GraphSpec compile; store
//! codec; cache warm/cold; one cached job through `Engine::run`; Welch
//! and sigma-delta estimation; a radix-2 FFT; the Monte-Carlo simulation
//! reference; JSON decode of fleet result lines; fleet batches at 1/2/4
//! daemons) and writes the versioned `BENCH_psd.json` line with exact
//! nearest-rank order statistics (see `psdacc_bench::perf`). With
//! `--compare` it also diffs the fresh run against a committed baseline
//! and exits nonzero past the regression threshold (see
//! `psdacc_bench::compare`).
//!
//! With `--profile DIR` the suite runs under the scoped-frame
//! self-profiler (`psdacc_obs::profile`) and writes a hotspot table,
//! `"kind":"profile"` JSON line, and flamegraph-ready folded stacks per
//! probe into DIR. With `--history LEDGER` each run appends its report
//! line to a JSONL ledger; `--compare` reads the **last** line of its
//! baseline, so pointing both flags at the same ledger diffs every run
//! against the previous one.
//!
//! ```text
//! cargo run -p psdacc-bench --release --bin exp_bench -- --iters 50
//! cargo run -p psdacc-bench --release --bin exp_bench -- \
//!     --compare BENCH_psd.json --threshold 50 --iters 3
//! cargo run -p psdacc-bench --release --bin exp_bench -- \
//!     --profile bench-profile --history BENCH_history.jsonl
//! ```

use std::io::Write;
use std::path::PathBuf;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage: exp_bench [--iters N] [--npsd N] [--out PATH] [--compare BASELINE] \
         [--threshold PCT] [--profile DIR] [--history LEDGER]"
    );
    eprintln!("  --iters N          timed iterations per probe (default 20)");
    eprintln!("  --npsd N           PSD resolution for the numeric probes (default 256)");
    eprintln!("  --out PATH         output file (default BENCH_psd.json, or");
    eprintln!("                     BENCH_fresh.json when --compare would be clobbered)");
    eprintln!("  --compare BASELINE diff the fresh run against the last line of this file;");
    eprintln!("                     exit 1 when a probe's throughput drops past threshold");
    eprintln!("  --threshold PCT    regression gate in percent (default 20)");
    eprintln!("  --profile DIR      run under the self-profiler; write per-probe hotspot");
    eprintln!("                     tables and folded flamegraph stacks into DIR");
    eprintln!("  --history LEDGER   append this run's report line to a JSONL ledger");
    exit(2);
}

fn main() {
    let mut iters = 20usize;
    let mut npsd = 256usize;
    let mut out: Option<PathBuf> = None;
    let mut compare_path: Option<PathBuf> = None;
    let mut threshold = 20.0f64;
    let mut profile_dir: Option<PathBuf> = None;
    let mut history_path: Option<PathBuf> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match args[i].as_str() {
            "--iters" => iters = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--npsd" => npsd = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--out" => out = Some(PathBuf::from(value(&mut i))),
            "--compare" => compare_path = Some(PathBuf::from(value(&mut i))),
            "--profile" => profile_dir = Some(PathBuf::from(value(&mut i))),
            "--history" => history_path = Some(PathBuf::from(value(&mut i))),
            "--threshold" => {
                threshold = value(&mut i).parse().unwrap_or_else(|_| usage());
                if threshold.is_nan() || threshold < 0.0 {
                    usage();
                }
            }
            _ => usage(),
        }
        i += 1;
    }
    if iters == 0 || npsd == 0 {
        usage();
    }
    // Default output: the baseline path — unless that very file is the
    // comparison target, in which case the fresh run must not clobber
    // the baseline it is being judged against.
    let out = out.unwrap_or_else(|| {
        let default = PathBuf::from("BENCH_psd.json");
        match &compare_path {
            Some(base) if *base == default => PathBuf::from("BENCH_fresh.json"),
            _ => default,
        }
    });

    // Parse the baseline before spending minutes on the run. The last
    // line of the file wins, so a `--history` ledger doubles as the
    // baseline: each run is judged against the previous one.
    let baseline = compare_path.as_ref().map(|path| {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("[bench] cannot read baseline {}: {e}", path.display());
            exit(2);
        });
        let (version, report, skipped) = psdacc_bench::parse_latest(&text).unwrap_or_else(|e| {
            eprintln!("[bench] baseline {}: {e}", path.display());
            exit(2);
        });
        // A run killed mid-append leaves a truncated ledger tail; name
        // the damage and judge against the last intact entry instead of
        // failing the compare.
        for warn in &skipped {
            eprintln!(
                "[bench] baseline {}: {warn} — skipping corrupt ledger entry",
                path.display()
            );
        }
        (version, report)
    });

    eprintln!("[bench] suite: {iters} iters, npsd={npsd}");
    if let Some(dir) = &profile_dir {
        eprintln!("[bench] profiling into {}", dir.display());
    }
    let report = psdacc_bench::run_baseline_profiled(npsd, iters, profile_dir.as_deref());
    for r in &report.results {
        eprintln!(
            "[bench] {:<20} p50={} ns  p95={} ns  mean={} ns  {:.1} units/s",
            r.name, r.p50_ns, r.p95_ns, r.mean_ns, r.throughput_units_per_s
        );
    }
    let line = report.to_json_line();
    if let Err(e) = std::fs::write(&out, format!("{line}\n")) {
        eprintln!("[bench] cannot write {}: {e}", out.display());
        exit(1);
    }
    println!("{line}");
    eprintln!("[bench] wrote {}", out.display());

    if let Some(path) = &history_path {
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{line}"));
        if let Err(e) = appended {
            eprintln!("[bench] cannot append history {}: {e}", path.display());
            exit(1);
        }
        eprintln!("[bench] appended to {}", path.display());
    }

    if let Some((version, baseline)) = baseline {
        let cmp =
            psdacc_bench::compare(version, &baseline, &report, threshold).unwrap_or_else(|e| {
                eprintln!("[bench] {e}");
                exit(2);
            });
        eprint!("{}", cmp.to_text());
        if cmp.regressed() {
            eprintln!("[bench] REGRESSION: throughput dropped more than {threshold}% vs baseline");
            exit(1);
        }
        eprintln!("[bench] within {threshold}% of baseline");
    }
}
