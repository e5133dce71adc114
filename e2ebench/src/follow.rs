//! `follow`: the service in follow mode, driven closed-loop by one
//! client. The base batch of a ramping fraud campaign
//! (`ramp_timeline`) is loaded as `text/csv`; then each ramp epoch's ring
//! edges are POSTed, followed by `POST /v1/scans` (incremental by
//! default in follow mode) and a poll until the job reads `done`.

use crate::data::{self, Scale, SAMPLES, THRESHOLD};
use crate::http;
use crate::measure::{self, Metrics, Tally};
use crate::trace::{self, Tracer};
use crate::Outcome;
use ensemfdet::pipeline::{IngestBuffer, ScanRunner, SnapshotStore};
use ensemfdet::{EnsemFdetConfig, IncrementalPolicy, SamplingMethodConfig};
use ensemfdet_datagen::{ramp_timeline, IngestTimeline};
use ensemfdet_graph::{MerchantId, UserId};
use ensemfdet_service::server::ServerHandle;
use std::time::{Duration, Instant};

/// Ramp epochs per second of `--seconds`: one epoch's ingest, scan and
/// polls take about 13 ms at the default scale (jd3/16) on a 2-core
/// x86-64 VM, so the replay fills the window with a fixed amount of work.
const EPOCHS_PER_S: f64 = 70.0;

/// Users per sample at the monitoring operating point: holding the sample
/// size fixed, not the ratio, keeps the share of samples an epoch dirties
/// the same at every scale (see docs/MONITORING.md).
const SAMPLE_USERS: f64 = 150.0;

const POLL: Duration = Duration::from_millis(1);

fn follow_config(users: usize) -> EnsemFdetConfig {
    EnsemFdetConfig {
        num_samples: SAMPLES,
        sample_ratio: (SAMPLE_USERS / users.max(1) as f64).min(0.05),
        method: SamplingMethodConfig::OneSideUser,
        ..Default::default()
    }
}

/// What one set-up leaves: the ramp, its bodies, and a running service
/// that holds the base batch and has run the priming scan.
struct Setup {
    tl: IngestTimeline,
    cfg: EnsemFdetConfig,
    base_csv: Vec<u8>,
    epoch_csv: Vec<Vec<u8>>,
    service: ServerHandle,
}

fn setup(scale: Scale, seed: u64, epochs: usize, tally: &mut Tally) -> Setup {
    let tl = ramp_timeline(&scale.preset(seed), epochs);
    let cfg = follow_config(tl.dataset.graph.num_users());
    let base_csv = data::csv_lines(&tl.base);
    let epoch_csv = tl.epochs.iter().map(|e| data::csv_lines(e)).collect();
    let service = http::start_service(http::api_config(cfg, true));
    for body in data::bodies(&base_csv, scale.bulk_body) {
        tally.op(http::post_csv(service.addr(), body).map(drop));
    }
    // The first scan primes the incremental cache (a cold-cache full
    // scan); it is set-up, not a measured epoch.
    tally.op(http::scan(service.addr(), "{}", POLL).map(drop));
    Setup {
        tl,
        cfg,
        base_csv,
        epoch_csv,
        service,
    }
}

pub fn run(scale: Scale, seed: u64, seconds: f64, tracer: &Tracer) -> Outcome {
    let epochs = scale
        .min_epochs
        .max((seconds * EPOCHS_PER_S).round() as usize);
    let mut tally = Tally::default();
    let (s, setup_s) =
        measure::repeated_setup(data::SETUPS, || setup(scale, seed, epochs, &mut tally));
    let Setup {
        tl,
        cfg,
        base_csv,
        epoch_csv,
        service,
    } = s;
    let addr = service.addr();
    let blacklist = data::blacklist_keys(&tl.dataset.blacklist);
    let base_bodies = data::bodies(&base_csv, scale.bulk_body);

    measure::reset_peak_rss();
    let cpu0 = measure::process_cpu_s();
    let (mut ingest_ms, mut scan_ms, mut waits) = (vec![], vec![], vec![]);
    let mut last = None;
    for body in &epoch_csv {
        let t0 = Instant::now();
        let posted = tracer.span("server.post_transactions", None, |_| {
            http::post_csv(addr, body)
        });
        ingest_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        tally.op(posted.map(drop));
        match tracer.span("jobs.scan", None, |_| http::scan(addr, "{}", POLL)) {
            Ok(job) => {
                tally.op(Ok(()));
                scan_ms.push(job.latency_s * 1e3);
                waits.push(job.queue_wait_ms);
                last = Some(job.result);
            }
            Err(e) => tally.op(Err(e)),
        }
    }
    let scans = scan_ms.len().max(1) as f64;
    let cpu_per_scan_ms = (measure::process_cpu_s() - cpu0) * 1e3 / scans;
    let peak_rss = measure::peak_rss_mb();

    // Output check: on the last epoch, incremental scans must flag
    // exactly what full scans flag at every threshold 1..=N — the same
    // flagged set, and so the same per-user vote counts.
    if let Some(result) = &last {
        check_incremental_matches_full(addr, result, &mut tally);
    }
    let final_flagged = last.as_ref().map(http::flagged).unwrap_or_default();
    service.shutdown();

    if tracer.enabled() {
        let f1 = data::f1(final_flagged.iter().map(String::as_str), &blacklist);
        let service = ServiceTimes {
            ingest_ms: &ingest_ms,
            scan_ms: &scan_ms,
            queue_waits: &waits,
            peak_rss_mb: peak_rss,
            f1,
        };
        return traced(&tl, cfg, &base_bodies, &epoch_csv, &service, tracer, tally);
    }

    let mut m = Metrics::default();
    m.set("setup_s", setup_s);
    m.set("detect_p50_ms", measure::median(&scan_ms));
    m.set("detect_cpu_ms", cpu_per_scan_ms);
    m.set("success_rate", tally.success_rate());
    Outcome::new(tally, m, Metrics::default())
}

fn check_incremental_matches_full(
    addr: std::net::SocketAddr,
    last: &serde_json::Value,
    tally: &mut Tally,
) {
    let full_at = |t: u32| {
        http::scan(addr, &format!(r#"{{"mode":"full","threshold":{t}}}"#), POLL)
            .map(|j| http::flagged(&j.result))
    };
    tally.op(full_at(THRESHOLD).and_then(|full| {
        if http::flagged(last) == full {
            Ok(())
        } else {
            Err("follow: the last incremental scan's flagged set differs from a full scan".into())
        }
    }));
    for t in 1..=SAMPLES as u32 {
        let inc = http::scan(
            addr,
            &format!(r#"{{"mode":"incremental","threshold":{t}}}"#),
            POLL,
        )
        .map(|j| http::flagged(&j.result));
        tally.op(inc.and_then(|inc| {
            if inc == full_at(t)? {
                Ok(())
            } else {
                Err(format!(
                    "follow: incremental and full scans flag different users at threshold {t}"
                ))
            }
        }));
    }
}

/// Ramp epochs each replay of the traced run covers (the first ones), so
/// a traced run stays well inside its time limit.
const REPLAY_EPOCHS: usize = 500;

/// The replay of the ramp's first [`REPLAY_EPOCHS`] epochs through the
/// library: the epoch's ingest, `SnapshotStore::compact`, then
/// `ScanRunner::run_incremental`. Returns the wall time of the epoch loop.
fn replay_epochs(
    tl: &IngestTimeline,
    cfg: &EnsemFdetConfig,
    tracer: &Tracer,
) -> (f64, Vec<ensemfdet::ReuseStats>) {
    let buffer = IngestBuffer::new();
    let store = SnapshotStore::new(1);
    let mut runner = ScanRunner::new();
    runner.set_workers(2);
    let policy = IncrementalPolicy::default();
    let append = |pairs: &[(u32, u32)]| {
        buffer.append_batch(pairs.iter().map(|&(u, v)| (UserId(u), MerchantId(v))));
    };
    append(&tl.base);
    let primed = store.compact(&buffer);
    runner.run_incremental(&primed, &store, cfg, THRESHOLD, &policy);
    let started = Instant::now();
    let reuse = tracer.span("follow.replay", None, |root| {
        tl.epochs
            .iter()
            .take(REPLAY_EPOCHS)
            .map(|epoch| {
                tracer.span("pipeline.append", Some(root), |_| append(epoch));
                let snapshot =
                    tracer.span("pipeline.compact", Some(root), |_| store.compact(&buffer));
                tracer
                    .span("incremental.scan", Some(root), |_| {
                        runner.run_incremental(&snapshot, &store, cfg, THRESHOLD, &policy)
                    })
                    .reuse
            })
            .collect()
    });
    (started.elapsed().as_secs_f64(), reuse)
}

/// What the traced run keeps from its service phase.
struct ServiceTimes<'a> {
    /// Client round trips of the epoch ingest requests.
    ingest_ms: &'a [f64],
    /// Client-observed scan latencies.
    scan_ms: &'a [f64],
    /// The scan jobs' reported queue waits.
    queue_waits: &'a [f64],
    /// Peak RSS over the service window.
    peak_rss_mb: f64,
    /// F1 of the last scan's flagged set against the blacklist.
    f1: f64,
}

fn traced(
    tl: &IngestTimeline,
    cfg: EnsemFdetConfig,
    base_bodies: &[&[u8]],
    epoch_csv: &[Vec<u8>],
    service: &ServiceTimes<'_>,
    tracer: &Tracer,
    mut tally: Tally,
) -> Outcome {
    let epoch_bodies: Vec<&[u8]> = epoch_csv.iter().map(Vec::as_slice).collect();
    let (parse_ms, handle_ms) = http::socket_free_ingest(
        http::api_config(cfg, true),
        base_bodies,
        &epoch_bodies,
        tracer,
        &mut tally,
    );

    let (untraced_s, _) = replay_epochs(tl, &cfg, &Tracer::new(false, 0));
    let (traced_s, reuse) = replay_epochs(tl, &cfg, tracer);

    let spans = tracer.spans();
    let root = spans
        .iter()
        .find(|s| s.name == "follow.replay")
        .expect("the replay root span")
        .id;
    let covered: f64 = ["pipeline", "incremental"]
        .iter()
        .map(|l| trace::layer_self_s(&spans, root, l))
        .sum();
    let compact_ms: Vec<f64> = trace::durations_s(&spans, "pipeline.compact")
        .iter()
        .map(|s| s * 1e3)
        .collect();
    let scan_ms: Vec<f64> = trace::durations_s(&spans, "incremental.scan")
        .iter()
        .map(|s| s * 1e3)
        .collect();
    let reused: usize = reuse.iter().map(|r| r.samples_reused).sum();
    let scanned: usize = reuse
        .iter()
        .map(|r| r.samples_reused + r.samples_repeeled)
        .sum();
    let touched: f64 =
        reuse.iter().map(|r| r.delta_touched_fraction).sum::<f64>() / reuse.len().max(1) as f64;

    let mut m = Metrics::default();
    m.set("pipeline.compact_ms", measure::median(&compact_ms));
    m.set("pipeline.touched_fraction", touched);
    m.set(
        "incremental.reuse_ratio",
        reused as f64 / scanned.max(1) as f64,
    );
    m.set(
        "incremental.fallbacks",
        reuse.iter().filter(|r| r.fallback.is_some()).count() as f64,
    );
    m.set("incremental.scan_ms", measure::median(&scan_ms));
    m.set("api.parse_csv_ms", measure::median(&parse_ms));
    m.set("api.ingest_handle_ms", measure::median(&handle_ms));
    m.set(
        "server.transport_ms",
        measure::median(service.ingest_ms) - measure::median(&handle_ms),
    );
    m.set(
        "server.ingest_p99_ms",
        measure::percentile(service.ingest_ms, 0.99),
    );
    m.set("jobs.queue_wait_ms", measure::median(service.queue_waits));
    m.set(
        "jobs.scan_p90_ms",
        measure::percentile(service.scan_ms, 0.9),
    );
    m.set("process.peak_rss_mb", service.peak_rss_mb);
    m.set("eval.f1", service.f1);
    m.set("trace.coverage", covered / traced_s);
    m.set("trace.overhead_pct", (traced_s / untraced_s - 1.0) * 100.0);
    Outcome::new(tally, Metrics::default(), m)
}
