//! Workload inputs and helpers shared by the three workloads: sizing,
//! CSV rendering, body chunking, blacklist scoring, and the traced replay
//! of one ensemble pass through the library's public per-sample calls.

use crate::trace::Tracer;
use ensemfdet::{EnsemFdetConfig, FdetEngine, VoteTally};
use ensemfdet_datagen::presets::{jd_preset, JdDataset};
use ensemfdet_datagen::translog::{merchant_key, user_key};
use ensemfdet_datagen::GeneratorConfig;
use ensemfdet_graph::{BipartiteGraph, SampleMaps, SampleSpec};
use ensemfdet_sampling::{seed, Sampler, SamplerScratch, SamplingMethod};
use std::collections::HashSet;

/// How large a run is. `full` is the benchmark proper; `smoke` is a tiny
/// version with the same steps and checks, for the benchmark's own tests.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Dataset #3 of the paper's Table I at `1/divisor` size (`--divisor`
    /// overrides it).
    pub divisor: u32,
    /// Largest bulk-ingest body (the service's own cap is 1 MiB).
    pub bulk_body: usize,
    /// Body size of the open-loop ingest stream.
    pub stream_body: usize,
    /// Fewest ramp epochs the `follow` workload replays.
    pub min_epochs: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        divisor: 16,
        bulk_body: 1 << 20,
        stream_body: 16 << 10,
        min_epochs: 100,
    };
    pub const SMOKE: Scale = Scale {
        divisor: 400,
        bulk_body: 64 << 10,
        stream_body: 512,
        min_epochs: 4,
    };

    /// The generator config for `seed`: the workload seed picks the data.
    pub fn preset(&self, seed: u64) -> GeneratorConfig {
        jd_preset(JdDataset::Jd3, self.divisor, seed)
    }
}

/// Set-ups per run: every workload sets up this many times, keeps the
/// last, and reports the median as `setup_s`.
pub const SETUPS: usize = 3;

/// Vote threshold at which every workload's flagged set is taken.
pub const THRESHOLD: u32 = 2;

/// Samples per ensemble pass (`N`) in every workload.
pub const SAMPLES: usize = 20;

/// The paper's offline operating point: RES at `S = 0.1`, `N = 20`.
pub fn batch_config() -> EnsemFdetConfig {
    EnsemFdetConfig {
        num_samples: SAMPLES,
        sample_ratio: 0.1,
        ..Default::default()
    }
}

/// `user,merchant` CSV lines for dataset-id pairs, keyed like the
/// generated transaction logs.
pub fn csv_lines(pairs: &[(u32, u32)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(pairs.len() * 25);
    for &(u, v) in pairs {
        out.extend_from_slice(user_key(u).as_bytes());
        out.push(b',');
        out.extend_from_slice(merchant_key(v).as_bytes());
        out.push(b'\n');
    }
    out
}

/// Splits `data` on line ends into bodies of at most `max` bytes (a
/// single longer line gets a body of its own).
pub fn bodies(data: &[u8], max: usize) -> Vec<&[u8]> {
    let mut out = Vec::new();
    let mut start = 0;
    while start < data.len() {
        let limit = (start + max).min(data.len());
        let end = if limit == data.len() {
            limit
        } else {
            match data[start..limit].iter().rposition(|&b| b == b'\n') {
                Some(i) => start + i + 1,
                None => data[limit..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(data.len(), |i| limit + i + 1),
            }
        };
        out.push(&data[start..end]);
        start = end;
    }
    out
}

/// Number of data lines (records) in a CSV body.
pub fn records(body: &[u8]) -> u64 {
    body.split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .count() as u64
}

/// The dataset's blacklist as account keys.
pub fn blacklist_keys(blacklist: &[u32]) -> HashSet<String> {
    blacklist.iter().map(|&u| user_key(u)).collect()
}

/// F1 of a flagged set of account keys against the blacklist.
pub fn f1<'a>(flagged: impl IntoIterator<Item = &'a str>, blacklist: &HashSet<String>) -> f64 {
    let (mut n, mut hits) = (0usize, 0usize);
    for key in flagged {
        n += 1;
        hits += usize::from(blacklist.contains(key));
    }
    if hits == 0 {
        return 0.0;
    }
    2.0 * hits as f64 / (n + blacklist.len()) as f64
}

/// One ensemble pass replayed sample by sample through the public calls
/// the ensemble makes — `sample_spec` with the seed `seed::derive` gives
/// sample `i`, then `FdetEngine::run_spec`, then the vote tally — each
/// wrapped in a span under `parent`. Single-threaded; its tally equals
/// `EnsemFdet::detect`'s for the same graph and config.
///
/// Returns the tally and the number of blocks the engine peeled.
pub fn replay_ensemble(
    tracer: &Tracer,
    parent: Option<u64>,
    g: &BipartiteGraph,
    cfg: &EnsemFdetConfig,
) -> (VoteTally, u64) {
    let method: SamplingMethod = cfg.method.into();
    let mut scratch = SamplerScratch::new();
    let mut spec = SampleSpec::new();
    let mut maps = SampleMaps::default();
    let mut engine = FdetEngine::new();
    let mut votes = VoteTally::new(g.num_users(), g.num_merchants());
    let mut blocks = 0u64;
    for i in 0..cfg.num_samples {
        tracer.span("sampling.draw", parent, |_| {
            let sample_seed = seed::derive(cfg.seed, i as u64);
            method.sample_spec(g, cfg.sample_ratio, sample_seed, &mut scratch, &mut spec);
        });
        let (result, _) = tracer.span("engine.fdet", parent, |_| {
            engine.run_spec(g, &spec, &cfg.metric, cfg.truncation, cfg.engine, &mut maps)
        });
        blocks += result.blocks.len() as u64;
        tracer.span("aggregate.tally", parent, |_| {
            let users: Vec<_> = result
                .detected_users()
                .into_iter()
                .map(|u| maps.parent_user(u))
                .collect();
            let merchants: Vec<_> = result
                .detected_merchants()
                .into_iter()
                .map(|v| maps.parent_merchant(v))
                .collect();
            votes.add_sample(users, merchants);
        });
    }
    (votes, blocks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bodies_cover_every_line_once_within_the_cap() {
        let data = csv_lines(&[(1, 2), (3, 4), (5, 6), (7, 8), (9, 10)]);
        for max in [1, 24, 30, 60, 1 << 20] {
            let parts = bodies(&data, max);
            assert_eq!(parts.concat(), data);
            assert!(parts.iter().all(|p| p.ends_with(b"\n")));
            assert_eq!(parts.iter().map(|p| records(p)).sum::<u64>(), 5);
        }
    }

    #[test]
    fn f1_scores_keys_against_the_blacklist() {
        let bl = blacklist_keys(&[1, 2]);
        assert_eq!(f1(["pin-0000001", "pin-0000009"], &bl), 0.5);
        assert_eq!(f1(["pin-0000009"], &bl), 0.0);
    }
}
