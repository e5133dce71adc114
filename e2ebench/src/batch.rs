//! `batch`: the paper's offline job on a generated, amount-weighted
//! transaction log — `load_transactions` (2 workers), the ensemble (RES,
//! `S = 0.1`, `N = 20`, 2 workers), the vote flags at `T = 2`, then
//! `hybrid_scan_scores` with hybrid scoring on. No service layer runs.

use crate::data::{self, Scale, THRESHOLD};
use crate::measure::{self, Metrics, Tally};
use crate::trace::{self, Tracer};
use crate::Outcome;
use ensemfdet::{
    hybrid_scan_scores, kcore_scores, spectral_scores, DetectContext, EnsemFdet, HybridScorer,
    ScoringConfig, VoteTally,
};
use ensemfdet_datagen::{generate, transaction_log_string, TransactionLogConfig};
use ensemfdet_graph::{load_transactions, BipartiteGraph, LoadOptions, LoadedLog};
use std::collections::HashSet;
use std::time::Instant;

const WORKERS: usize = 2;

struct Setup {
    log: Vec<u8>,
    blacklist: HashSet<String>,
    /// The workers = 1 ensemble tally every run must reproduce.
    reference: VoteTally,
}

fn load(log: &[u8], workers: usize) -> LoadedLog {
    load_transactions(
        log,
        &LoadOptions {
            workers,
            ..Default::default()
        },
    )
    .expect("the generated transaction log is well formed")
}

fn setup(scale: Scale, seed: u64) -> Setup {
    let ds = generate(&scale.preset(seed));
    let (log, _) = transaction_log_string(
        &ds,
        &TransactionLogConfig {
            seed,
            ..Default::default()
        },
    );
    let loaded = load(log.as_bytes(), 1);
    let reference = EnsemFdet::with_workers(data::batch_config(), 1)
        .detect(&loaded.graph)
        .votes;
    Setup {
        log: log.into_bytes(),
        blacklist: data::blacklist_keys(&ds.blacklist),
        reference,
    }
}

/// One ensemble pass at `workers`: its tally, wall seconds and process
/// CPU seconds.
fn timed_detect(g: &BipartiteGraph, workers: usize) -> (VoteTally, f64, f64) {
    let (t0, c0) = (Instant::now(), measure::process_cpu_s());
    let votes = EnsemFdet::with_workers(data::batch_config(), workers)
        .detect(g)
        .votes;
    (
        votes,
        t0.elapsed().as_secs_f64(),
        measure::process_cpu_s() - c0,
    )
}

pub fn run(scale: Scale, seed: u64, seconds: f64, tracer: &Tracer) -> Outcome {
    let (s, setup_s) = measure::repeated_setup(data::SETUPS, || setup(scale, seed));
    if tracer.enabled() {
        return traced(&s, tracer);
    }

    let mut tally = Tally::default();
    let (mut detect, mut cpu) = (vec![], vec![]);
    let window = Instant::now();
    while detect.is_empty() || window.elapsed().as_secs_f64() < seconds {
        let (t0, c0) = (Instant::now(), measure::process_cpu_s());
        let loaded = load(&s.log, WORKERS);
        let outcome = EnsemFdet::with_workers(data::batch_config(), WORKERS).detect(&loaded.graph);
        let flagged = outcome.votes.detected_users(THRESHOLD);
        let ctx = DetectContext::new(&loaded.graph);
        let hybrid = hybrid_scan_scores(&ctx, &outcome.votes, &ScoringConfig::enabled());
        detect.push(t0.elapsed().as_secs_f64() * 1e3);
        cpu.push((measure::process_cpu_s() - c0) * 1e3);
        std::hint::black_box((flagged, hybrid.hybrid_flagged));
        tally.op(if outcome.votes == s.reference {
            Ok(())
        } else {
            Err("batch: the workers=2 vote tally differs from the workers=1 reference".into())
        });
    }

    let mut m = Metrics::default();
    m.set("setup_s", setup_s);
    m.set("detect_p50_ms", measure::median(&detect));
    m.set("detect_cpu_ms", measure::median(&cpu));
    m.set("success_rate", tally.success_rate());
    Outcome::new(tally, m, Metrics::default())
}

/// The traced replay: one job through the layers' public calls, then the
/// ensemble at workers 1 and 2 for the measured speed-up, contention and
/// tracing overhead.
fn traced(s: &Setup, tracer: &Tracer) -> Outcome {
    measure::reset_peak_rss();
    let mut tally = Tally::default();
    let scoring = ScoringConfig::enabled();
    let cfg = data::batch_config();
    let (root, loaded, votes, blocks) = tracer.span("batch.job", None, |root| {
        let loaded = tracer.span("loader.load", Some(root), |_| load(&s.log, WORKERS));
        let (votes, blocks) = tracer.span("ensemble.replay", Some(root), |rep| {
            data::replay_ensemble(tracer, Some(rep), &loaded.graph, &cfg)
        });
        let flagged = tracer.span("aggregate.flags", Some(root), |_| {
            votes.detected_users(THRESHOLD)
        });
        let ctx = DetectContext::new(&loaded.graph);
        let spectral = tracer.span("scoring.spectral", Some(root), |_| {
            spectral_scores(&ctx, &scoring)
        });
        let kcore = tracer.span("scoring.kcore", Some(root), |_| kcore_scores(&ctx));
        tracer.span("scoring.fuse", Some(root), |_| {
            let fused = HybridScorer::new(scoring).fuse(&votes.user_scores(), &spectral, &kcore);
            std::hint::black_box(
                fused
                    .iter()
                    .filter(|&&x| x >= scoring.hybrid_threshold)
                    .count(),
            );
        });
        std::hint::black_box(flagged);
        (root, loaded, votes, blocks)
    });
    tally.op(if votes == s.reference {
        Ok(())
    } else {
        Err("batch: the replayed vote tally differs from the workers=1 reference".into())
    });

    // Workers 1 and 2 back to back, so both passes see the same machine.
    let (w1_votes, w1_s, w1_cpu) =
        tracer.span("ensemble.w1", None, |_| timed_detect(&loaded.graph, 1));
    let (w2_votes, w2_s, w2_cpu) = tracer.span("ensemble.w2", None, |_| {
        timed_detect(&loaded.graph, WORKERS)
    });
    for (workers, tally_of) in [(1, &w1_votes), (WORKERS, &w2_votes)] {
        tally.op(if *tally_of == s.reference {
            Ok(())
        } else {
            Err(format!(
                "batch: the workers={workers} vote tally differs from the set-up reference"
            ))
        });
    }

    let peak_rss = measure::peak_rss_mb();
    let spans = tracer.spans();
    let wall = trace::durations_s(&spans, "batch.job")[0];
    let layer = |name: &str| trace::layer_self_s(&spans, root, name);
    let covered: f64 = ["loader", "sampling", "engine", "aggregate", "scoring"]
        .iter()
        .map(|l| layer(l))
        .sum();
    let coverage = covered / wall;
    if (1.0 - coverage).abs() > 0.05 {
        tally.fail(format!(
            "batch: layer self-times cover {:.1}% of the traced wall time (needs 95-105%)",
            coverage * 100.0
        ));
    }
    let replay_s = trace::durations_s(&spans, "ensemble.replay")[0];
    let flagged = votes.detected_users(THRESHOLD);

    let mut m = Metrics::default();
    m.set("loader.load_s", layer("loader"));
    m.set("loader.arena_bytes", loaded.interner.arena_bytes() as f64);
    m.set("sampling.draw_s", layer("sampling"));
    m.set("engine.fdet_s", layer("engine"));
    m.set("engine.blocks", blocks as f64);
    m.set("aggregate.tally_s", layer("aggregate"));
    m.set(
        "scoring.spectral_s",
        trace::durations_s(&spans, "scoring.spectral")[0],
    );
    m.set(
        "scoring.kcore_s",
        trace::durations_s(&spans, "scoring.kcore")[0],
    );
    m.set("ensemble.w1_s", w1_s);
    m.set("ensemble.w1_cpu_s", w1_cpu);
    m.set("ensemble.w2_s", w2_s);
    m.set("ensemble.w2_cpu_s", w2_cpu);
    m.set("ensemble.speedup", w1_s / w2_s);
    m.set("ensemble.contention", w2_cpu / w1_cpu.max(1e-9));
    m.set(
        "eval.f1",
        data::f1(
            flagged.iter().map(|&u| loaded.interner.user_key(u)),
            &s.blacklist,
        ),
    );
    m.set("process.peak_rss_mb", peak_rss);
    m.set("trace.coverage", coverage);
    m.set("trace.overhead_pct", (replay_s / w1_s - 1.0) * 100.0);
    Outcome::new(tally, Metrics::default(), m)
}
