//! `ingest-under-scan`: the service in full-scan mode (RES, `S = 0.1`,
//! `N = 20`). Three quarters of a generated transaction log are
//! bulk-loaded closed-loop in bodies of up to 1 MiB; then two client
//! threads run at once: an open-loop `text/csv` ingest stream of the
//! remaining quarter at a fixed rate, each request timed from when it was
//! due, and one client issuing `{"mode":"full"}` scans back to back.

use crate::data::{self, Scale};
use crate::http;
use crate::measure::{self, Metrics, Tally};
use crate::trace::{self, Tracer};
use crate::Outcome;
use ensemfdet::pipeline::{IngestBuffer, SnapshotStore};
use ensemfdet::EnsemFdet;
use ensemfdet_datagen::{generate, transaction_log_string, TransactionLogConfig};
use ensemfdet_graph::ArenaTransactionInterner;
use ensemfdet_service::api::parse_csv_pairs;
use ensemfdet_service::server::ServerHandle;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Open-loop ingest rate: one `stream_body`-sized request every 20 ms.
const RATE_PER_S: f64 = 50.0;

const POLL: Duration = Duration::from_millis(10);

/// The client's view of one streamed ingest request.
struct Sent {
    /// From its due time until the response arrived.
    latency_ms: f64,
    /// From sending until the response arrived.
    round_trip_ms: f64,
    /// How late the generator sent it.
    late_ms: f64,
}

/// What one set-up leaves: the generated log split at three quarters,
/// and a running service that holds the bulk-loaded part and has run one
/// full scan of it as a warm-up.
struct Setup {
    log: Vec<u8>,
    cut: usize,
    blacklist: HashSet<String>,
    /// Records the service acknowledged during the bulk load.
    acked: u64,
    service: ServerHandle,
}

fn setup(scale: Scale, seed: u64, tally: &mut Tally) -> Setup {
    let ds = generate(&scale.preset(seed));
    let (log, summary) = transaction_log_string(
        &ds,
        &TransactionLogConfig {
            seed,
            ..Default::default()
        },
    );
    let blacklist = data::blacklist_keys(&ds.blacklist);
    drop(ds);
    let log = log.into_bytes();
    let cut = line_offset(&log, summary.records * 3 / 4);
    let service = http::start_service(http::api_config(data::batch_config(), false));
    let mut acked = 0;
    for body in data::bodies(&log[..cut], scale.bulk_body) {
        tally.op(http::post_csv(service.addr(), body).map(|n| acked += n));
    }
    tally.op(http::scan(service.addr(), r#"{"mode":"full"}"#, POLL).map(drop));
    Setup {
        log,
        cut,
        blacklist,
        acked,
        service,
    }
}

pub fn run(scale: Scale, seed: u64, seconds: f64, tracer: &Tracer) -> Outcome {
    let mut tally = Tally::default();
    let (s, setup_s) = measure::repeated_setup(data::SETUPS, || setup(scale, seed, &mut tally));
    let Setup {
        log,
        cut,
        blacklist,
        mut acked,
        service,
    } = s;
    let addr = service.addr();
    let bulk = data::bodies(&log[..cut], scale.bulk_body);
    let stream_bodies = data::bodies(&log[cut..], scale.stream_body);
    let requests = ((seconds * RATE_PER_S).round() as usize).max(1);
    // The stream wraps around if the run outlasts the quarter log; a
    // repeated record is still a new transaction to the service.
    let stream: Vec<&[u8]> = (0..requests)
        .map(|i| stream_bodies[i % stream_bodies.len()])
        .collect();

    measure::reset_peak_rss();
    let cpu0 = measure::process_cpu_s();
    let stop = AtomicBool::new(false);
    let mut sent: Vec<Sent> = Vec::with_capacity(requests);
    let scans = std::thread::scope(|scope| {
        let scanner = scope.spawn(|| {
            let mut jobs = Vec::new();
            while !stop.load(Ordering::SeqCst) {
                jobs.push(tracer.span("jobs.scan", None, |_| {
                    http::scan(addr, r#"{"mode":"full"}"#, POLL)
                }));
            }
            jobs
        });
        let start = Instant::now();
        for (i, body) in stream.iter().enumerate() {
            let due = start + Duration::from_secs_f64(i as f64 / RATE_PER_S);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let sent_at = Instant::now();
            let posted = tracer.span("server.post_transactions", None, |_| {
                http::post_csv(addr, body)
            });
            let done = Instant::now();
            sent.push(Sent {
                latency_ms: done.duration_since(due).as_secs_f64() * 1e3,
                round_trip_ms: done.duration_since(sent_at).as_secs_f64() * 1e3,
                late_ms: sent_at.duration_since(due).as_secs_f64() * 1e3,
            });
            tally.op(posted.map(|n| acked += n));
        }
        stop.store(true, Ordering::SeqCst);
        scanner.join().expect("scan client thread panicked")
    });
    let (mut scan_ms, mut waits, mut last) = (vec![], vec![], None);
    for job in scans {
        match job {
            Ok(job) => {
                tally.op(Ok(()));
                scan_ms.push(job.latency_s * 1e3);
                waits.push(job.queue_wait_ms);
                last = Some(job.result);
            }
            Err(e) => tally.op(Err(format!(
                "ingest-under-scan: scan did not reach done: {e}"
            ))),
        }
    }
    let cpu_per_scan_ms = (measure::process_cpu_s() - cpu0) * 1e3 / scan_ms.len().max(1) as f64;
    let peak_rss = measure::peak_rss_mb();

    // Output check: the service holds exactly the records it acknowledged.
    tally.op(
        http::get(addr, "/v1/health").and_then(|h| match h["transactions"].as_u64() {
            Some(n) if n == acked => Ok(()),
            other => Err(format!(
                "ingest-under-scan: health reports {other:?} transactions, {acked} acknowledged"
            )),
        }),
    );
    service.shutdown();

    if tracer.enabled() {
        let ingest_ms: Vec<f64> = sent.iter().map(|s| s.latency_ms).collect();
        let flagged = last.as_ref().map(http::flagged).unwrap_or_default();
        let f1 = data::f1(flagged.iter().map(String::as_str), &blacklist);
        let mut m = traced(&bulk, &stream, tracer, &mut tally);
        let round_trip: Vec<f64> = sent.iter().map(|s| s.round_trip_ms).collect();
        let handle = m.get("api.ingest_handle_ms").unwrap_or(0.0);
        m.set("server.transport_ms", measure::median(&round_trip) - handle);
        let late: Vec<f64> = sent.iter().map(|s| s.late_ms).collect();
        m.set("generator.late_p99_ms", measure::percentile(&late, 0.99));
        m.set(
            "server.ingest_p99_ms",
            measure::percentile(&ingest_ms, 0.99),
        );
        m.set("jobs.queue_wait_ms", measure::median(&waits));
        m.set("jobs.scan_p90_ms", measure::percentile(&scan_ms, 0.9));
        m.set("process.peak_rss_mb", peak_rss);
        m.set("eval.f1", f1);
        return Outcome::new(tally, Metrics::default(), m);
    }

    let mut m = Metrics::default();
    m.set("setup_s", setup_s);
    m.set("detect_p50_ms", measure::median(&scan_ms));
    m.set("detect_cpu_ms", cpu_per_scan_ms);
    m.set("success_rate", tally.success_rate());
    Outcome::new(tally, m, Metrics::default())
}

/// Byte offset of the start of line `line` (0-based) in `data`.
fn line_offset(data: &[u8], line: usize) -> usize {
    if line == 0 {
        return 0;
    }
    data.iter()
        .enumerate()
        .filter(|&(_, &b)| b == b'\n')
        .nth(line - 1)
        .map_or(data.len(), |(i, _)| i + 1)
}

/// The traced replay: the stream's bodies through `parse_csv_pairs` and
/// `Api::handle` on a socket-free replica holding the bulk load, then one
/// full scan of everything ingested — `SnapshotStore::compact` and the
/// ensemble sample by sample — against an untraced workers = 1 pass.
fn traced(bulk: &[&[u8]], stream: &[&[u8]], tracer: &Tracer, tally: &mut Tally) -> Metrics {
    let cfg = data::batch_config();
    let (parse_ms, handle_ms) =
        http::socket_free_ingest(http::api_config(cfg, false), bulk, stream, tracer, tally);

    // The service's graph: keys interned in arrival order, pairs appended
    // to an ingest buffer, compacted once.
    let buffer = IngestBuffer::new();
    let mut interner = ArenaTransactionInterner::new();
    for body in bulk.iter().chain(stream) {
        let pairs = parse_csv_pairs(body, 1).expect("generated bodies parse");
        buffer.append_batch(
            pairs
                .into_iter()
                .map(|(u, v)| (interner.user(u), interner.merchant(v))),
        );
    }
    let store = SnapshotStore::new(1);
    let snapshot = tracer.span("pipeline.compact", None, |_| store.compact(&buffer));
    let g = &snapshot.graph;

    let t0 = Instant::now();
    let untraced = EnsemFdet::with_workers(cfg, 1).detect(g).votes;
    let untraced_s = t0.elapsed().as_secs_f64();
    let (root, (votes, blocks)) = tracer.span("scan.replay", None, |root| {
        (root, data::replay_ensemble(tracer, Some(root), g, &cfg))
    });
    tally.op(if votes == untraced {
        Ok(())
    } else {
        Err("ingest-under-scan: the replayed scan's votes differ from EnsemFdet::detect".into())
    });

    let spans = tracer.spans();
    let wall = trace::durations_s(&spans, "scan.replay")[0];
    let layer = |name: &str| trace::layer_self_s(&spans, root, name);
    let mut m = Metrics::default();
    m.set("api.parse_csv_ms", measure::median(&parse_ms));
    m.set("api.ingest_handle_ms", measure::median(&handle_ms));
    m.set(
        "pipeline.compact_ms",
        trace::durations_s(&spans, "pipeline.compact")[0] * 1e3,
    );
    m.set("sampling.draw_s", layer("sampling"));
    m.set("engine.fdet_s", layer("engine"));
    m.set("engine.blocks", blocks as f64);
    m.set("aggregate.tally_s", layer("aggregate"));
    m.set(
        "trace.coverage",
        (layer("sampling") + layer("engine") + layer("aggregate")) / wall,
    );
    m.set("trace.overhead_pct", (wall / untraced_s - 1.0) * 100.0);
    m
}
