//! End-to-end benchmark of the ensemfdet library and HTTP service.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload batch|follow|ingest-under-scan --seed N --seconds S --trace 0|1 \
//!     [--divisor D] [--smoke]
//! ```
//!
//! Each workload generates its inputs from `--seed`, measures for about
//! `--seconds`, checks the program's outputs, and prints one JSON object
//! as its last line of standard output:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end set; with `--trace 1` the run replays the
//! workload's steps through the layers' public calls under spans and
//! reports the per-layer set, writing the spans to
//! `.bench_trace/<workload>-seed<N>.jsonl`. The data is dataset #3 of the
//! paper's Table I at `1/D` size (default 16); `--smoke` runs the same
//! steps at a tiny scale. See `e2ebench/README.md`.

mod batch;
mod data;
mod follow;
mod http;
mod ingest;
mod measure;
mod trace;

use data::Scale;
use measure::{Metrics, Tally};
use std::path::Path;
use std::process::ExitCode;
use trace::Tracer;

/// End-to-end metrics: every workload reports each of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("detect_p50_ms", "ms"),
    ("detect_cpu_ms", "ms"),
    ("success_rate", "fraction"),
];

/// Per-layer metrics of the traced runs, named `<module>.<quantity>`. A
/// layer a workload's replay does not call reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("loader.load_s", "s"),
    ("loader.arena_bytes", "bytes"),
    ("sampling.draw_s", "s"),
    ("engine.fdet_s", "s"),
    ("engine.blocks", "count"),
    ("aggregate.tally_s", "s"),
    ("ensemble.w1_s", "s"),
    ("ensemble.w2_s", "s"),
    ("ensemble.w1_cpu_s", "s"),
    ("ensemble.w2_cpu_s", "s"),
    ("ensemble.speedup", "ratio"),
    ("ensemble.contention", "ratio"),
    ("scoring.spectral_s", "s"),
    ("scoring.kcore_s", "s"),
    ("pipeline.compact_ms", "ms"),
    ("pipeline.touched_fraction", "fraction"),
    ("incremental.reuse_ratio", "fraction"),
    ("incremental.fallbacks", "count"),
    ("incremental.scan_ms", "ms"),
    ("api.parse_csv_ms", "ms"),
    ("api.ingest_handle_ms", "ms"),
    ("server.transport_ms", "ms"),
    ("server.ingest_p99_ms", "ms"),
    ("jobs.queue_wait_ms", "ms"),
    ("jobs.scan_p90_ms", "ms"),
    ("generator.late_p99_ms", "ms"),
    ("process.peak_rss_mb", "MB"),
    ("eval.f1", "fraction"),
    ("trace.coverage", "fraction"),
    ("trace.overhead_pct", "%"),
];

/// The workloads, by the name `--workload` takes.
pub const WORKLOADS: &[&str] = &["batch", "follow", "ingest-under-scan"];

/// The workloads `BENCHMARK.json` runs and gates. `ingest-under-scan`
/// runs by hand only: with three workloads the benchmark's time budget
/// allows runs of only 25 s, and on a shared 2-vCPU VM runs that short
/// spread past their bounds (see `e2ebench/README.md`).
pub const GATED_WORKLOADS: &[&str] = &["batch", "follow"];

/// What one workload run produced.
pub struct Outcome {
    pub tally: Tally,
    pub end_to_end: Metrics,
    pub per_layer: Metrics,
}

impl Outcome {
    pub fn new(tally: Tally, end_to_end: Metrics, per_layer: Metrics) -> Self {
        Outcome {
            tally,
            end_to_end,
            per_layer,
        }
    }

    /// The result line: `correct` holds when no operation or check failed.
    /// Every declared metric is present; an end-to-end metric a workload
    /// failed to set is a bug in the benchmark and panics.
    pub fn report(&self, traced: bool) -> serde_json::Value {
        let mut metrics = serde_json::Map::new();
        let (declared, values) = if traced {
            (PER_LAYER, &self.per_layer)
        } else {
            (END_TO_END, &self.end_to_end)
        };
        for &(name, unit) in declared {
            let value = match values.get(name) {
                Some(v) => v,
                None if traced => 0.0,
                None => panic!("workload did not report end-to-end metric {name}"),
            };
            metrics.insert(
                name.into(),
                serde_json::json!({ "value": value, "unit": unit }),
            );
        }
        serde_json::json!({
            "correct": self.tally.failed == 0,
            "attempted": self.tally.attempted,
            "failed": self.tally.failed,
            "metrics": serde_json::Value::Object(metrics),
        })
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    divisor: Option<u32>,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        divisor: None,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--divisor" => args.divisor = Some(value.parse().map_err(|e| bad(&e))?),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if args.divisor == Some(0) {
        return Err("--divisor must be positive".into());
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Runs one workload; the library entry point of `main` and of the tests.
pub fn run_workload(
    workload: &str,
    scale: Scale,
    seed: u64,
    seconds: f64,
    tracer: &Tracer,
) -> Outcome {
    match workload {
        "batch" => batch::run(scale, seed, seconds, tracer),
        "follow" => follow::run(scale, seed, seconds, tracer),
        "ingest-under-scan" => ingest::run(scale, seed, seconds, tracer),
        other => unreachable!("unvalidated workload {other}"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut scale = if args.smoke {
        Scale::SMOKE
    } else {
        Scale::FULL
    };
    if let Some(divisor) = args.divisor {
        scale.divisor = divisor;
    }
    let run_id = args.seed ^ u64::from(std::process::id()).rotate_left(32);
    let tracer = Tracer::new(args.trace, run_id);
    let outcome = run_workload(&args.workload, scale, args.seed, args.seconds, &tracer);
    for e in &outcome.tally.errors {
        eprintln!("e2ebench: check failed: {e}");
    }
    if args.trace {
        let path = format!(".bench_trace/{}-seed{}.jsonl", args.workload, args.seed);
        if let Err(e) = tracer.write_jsonl(Path::new(&path)) {
            eprintln!("e2ebench: cannot write {path}: {e}");
        }
    }
    println!("{}", outcome.report(args.trace));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The manifest the benchmark is run from must name exactly the
    /// workloads and metrics this program reports.
    #[test]
    fn benchmark_manifest_matches_the_reported_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let manifest: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            manifest[key]
                .as_array()
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m["name"].as_str().expect("name").to_string(),
                        m["unit"].as_str().unwrap_or("").to_string(),
                    )
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(END_TO_END));
        assert_eq!(names("per_layer"), own(PER_LAYER));
        let workloads: Vec<&str> = manifest["workloads"]
            .as_array()
            .expect("workload list")
            .iter()
            .map(|w| w["name"].as_str().expect("name"))
            .collect();
        assert_eq!(workloads, GATED_WORKLOADS);
    }

    /// Smoke mode: every workload, traced and untraced, at a tiny scale,
    /// with every output check passing and every metric reported.
    #[test]
    fn smoke_runs_every_workload_with_passing_checks() {
        for &workload in WORKLOADS {
            for traced in [false, true] {
                let tracer = Tracer::new(traced, 1);
                let outcome = run_workload(workload, Scale::SMOKE, 3, 0.5, &tracer);
                assert!(
                    outcome.tally.errors.is_empty(),
                    "{workload} traced={traced}: {:?}",
                    outcome.tally.errors
                );
                let report = outcome.report(traced);
                assert_eq!(report["correct"], true);
                assert!(report["attempted"].as_u64().unwrap() >= 1);
                let expected = if traced {
                    PER_LAYER.len()
                } else {
                    END_TO_END.len()
                };
                assert_eq!(report["metrics"].as_object().unwrap().len(), expected);
                if !traced {
                    for &(name, _) in END_TO_END {
                        let v = report["metrics"][name]["value"].as_f64().unwrap();
                        assert!(v > 0.0, "{workload}: {name} = {v}");
                    }
                }
            }
        }
    }
}
