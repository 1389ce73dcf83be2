//! The repository benchmark: two seeded workloads driven through the
//! public API, measured end to end and, in a traced run, per layer.
//!
//! ```console
//! $ cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!       --workload tune-cold|serve-warm --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer metrics (a layer
//! the workload bypasses reads 0). A human-readable summary goes to
//! standard error. The exit code is non-zero when a correctness gate
//! fails; the JSON line is still printed. See `benchmark/README.md`.

mod common;
mod infer;
mod probe;
mod serve_warm;
mod stats;
mod trace;
mod tune_cold;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

/// End-to-end metrics: every workload reports each, with the meaning
/// `README.md` gives per workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("model_cost_ms", "sim_ms"),
    ("min_client_share", "ratio"),
    ("success_share", "ratio"),
];

/// Per-layer metrics of the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("daemon.submit_rtt_us.p50", "us"),
    ("daemon.submit_rtt_us.p99", "us"),
    ("daemon.wait_rtt_us.p50", "us"),
    ("daemon.wait_rtt_us.p99", "us"),
    ("daemon.first_reply_ms.c0", "ms"),
    ("daemon.first_reply_ms.c1", "ms"),
    ("daemon.client_sessions.c0", "count"),
    ("daemon.client_sessions.c1", "count"),
    ("daemon.overhead_us", "us"),
    ("daemon.self_ms", "ms"),
    ("service.session_us.p50", "us"),
    ("service.session_us.p99", "us"),
    ("service.hit_share", "ratio"),
    ("service.anchored_share", "ratio"),
    ("service.retune_share", "ratio"),
    ("service.fused_share", "ratio"),
    ("service.dedup_ratio", "ratio"),
    ("service.queue_len", "count"),
    ("service.self_ms", "ms"),
    ("wire.encode_submit_us", "us"),
    ("wire.decode_submit_us", "us"),
    ("wire.encode_results_us", "us"),
    ("wire.decode_results_us", "us"),
    ("wire.submit_bytes", "bytes"),
    ("wire.results_bytes", "bytes"),
    ("wire.self_ms", "ms"),
    ("core.gate_us", "us"),
    ("core.self_ms", "ms"),
    ("fusion.segment_us", "us"),
    ("fusion.fused_chains", "count"),
    ("fusion.chains", "count"),
    ("fusion.self_ms", "ms"),
    ("autotune.fresh_measurements", "count"),
    ("autotune.tune_ms.p50", "ms"),
    ("autotune.tune_ms.p90", "ms"),
    ("autotune.embedded_round_ms", "ms"),
    ("autotune.daemon_round_ms", "ms"),
    ("autotune.self_ms", "ms"),
    ("gpusim.simulate_us.p50", "us"),
    ("gpusim.calls", "count"),
    ("gpusim.self_ms", "ms"),
    ("records.load_ms", "ms"),
    ("records.save_ms", "ms"),
    ("records.count", "count"),
    ("records.self_ms", "ms"),
    ("kernel.im2col_ms", "ms"),
    ("kernel.winograd_ms", "ms"),
    ("kernel.im2col_gflops", "GFLOP/s"),
    ("kernel.winograd_gflops", "GFLOP/s"),
    ("kernel.winograd_time_share", "ratio"),
    ("kernel.q_lower_bytes", "bytes"),
    ("kernel.self_ms", "ms"),
    ("infer.alexnet_ms", "ms"),
    ("infer.squeezenet_ms", "ms"),
    ("infer.resnet18_ms", "ms"),
    ("trace.spans", "count"),
    ("trace.overhead_share", "ratio"),
];

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

pub struct Args {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

/// What one run measured.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness-gate violations; any makes the run incorrect.
    pub mismatches: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Summary lines for standard error.
    pub summary: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.metrics.insert(name, value);
    }

    pub fn mismatch(&mut self, what: String) {
        if self.mismatches.len() < 8 {
            eprintln!("correctness: {what}");
        }
        self.mismatches.push(what);
    }

    pub fn note(&mut self, line: String) {
        self.summary.push(line);
    }

    pub fn success_share(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64
    }

    /// Fills every `<layer>.self_ms` and the span count from a finished
    /// trace, and writes the spans to
    /// `.bench_work/traces/<workload>-seed<seed>.jsonl`.
    pub fn take_trace(&mut self, trace: &trace::Trace, workload: &str, seed: u64) {
        let by_layer = trace.self_ms_by_layer();
        for (name, _) in PER_LAYER {
            if let Some(layer) = name.strip_suffix(".self_ms") {
                self.set(name, by_layer.get(layer).copied().unwrap_or(0.0));
            }
        }
        self.set("trace.spans", trace.len() as f64);
        let path = std::path::Path::new(".bench_work")
            .join("traces")
            .join(format!("{workload}-seed{seed}.jsonl"));
        match trace.write_jsonl(&path) {
            Ok(()) => eprintln!("wrote {} span(s) to {}", trace.len(), path.display()),
            Err(e) => eprintln!("warning: cannot write spans to {}: {e}", path.display()),
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: iolb-benchmark --workload tune-cold|serve-warm --seed N --seconds S --trace 0|1"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flag =
        |name: &str| argv.iter().position(|a| a == name).and_then(|at| argv.get(at + 1)).cloned();
    let (Some(workload), Some(seed), Some(seconds)) = (
        flag("--workload"),
        flag("--seed").and_then(|s| s.parse::<u64>().ok()),
        flag("--seconds").and_then(|s| s.parse::<f64>().ok()),
    ) else {
        return usage();
    };
    let trace = match flag("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(_) => return usage(),
    };
    if !(seconds > 0.0 && seconds <= 600.0) {
        return usage();
    }
    let args = Args { seed, seconds: Duration::from_secs_f64(seconds), trace };
    let outcome = match workload.as_str() {
        "tune-cold" => tune_cold::run(&args),
        "serve-warm" => serve_warm::run(&args),
        _ => return usage(),
    };
    let mut report = match outcome {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let catalog = if trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::new();
    for (name, unit) in catalog {
        let value = match report.metrics.get(name) {
            Some(v) => *v,
            // A layer this workload bypasses did no work.
            None if trace => 0.0,
            None => {
                eprintln!("error: {workload} did not measure {name}");
                return ExitCode::FAILURE;
            }
        };
        if !value.is_finite() {
            report.mismatch(format!("{name} is not finite ({value})"));
        }
        let value = if value.is_finite() { value } else { 0.0 };
        fields.push(format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"));
    }
    for line in &report.summary {
        eprintln!("{line}");
    }
    let correct = report.mismatches.is_empty();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.attempted,
        report.failed,
        fields.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: {} correctness check(s) failed", report.mismatches.len());
        ExitCode::FAILURE
    }
}
