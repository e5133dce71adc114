//! In-memory span recorder for the traced runs.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! library and the service — nothing inside the program is instrumented.
//! A span's name is `<layer>.<step>`, where the layer is the repository
//! module the call lands in (`loader`, `sampling`, `engine`, ...). Spans
//! stay in memory and are written out once, when the run ends.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span: times are nanoseconds since the tracer's origin.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Records spans when enabled; when disabled, [`Tracer::span`] only runs
/// its closure, so untraced runs pay nothing but a branch.
pub struct Tracer {
    enabled: bool,
    run_id: u64,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool, run_id: u64) -> Self {
        Tracer {
            enabled,
            run_id,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name` under `parent`. `f` receives
    /// the new span's id, to parent the spans it opens.
    pub fn span<R>(&self, name: &'static str, parent: Option<u64>, f: impl FnOnce(u64) -> R) -> R {
        if !self.enabled {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.origin.elapsed().as_nanos() as u64;
        let out = f(id);
        let end = self.origin.elapsed().as_nanos() as u64;
        self.spans
            .lock()
            .expect("span log lock poisoned by a panicking recorder")
            .push(Span {
                id,
                parent,
                name,
                start_ns: start,
                end_ns: end,
            });
        out
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span log lock poisoned by a panicking recorder")
            .clone()
    }

    /// Writes every span as one JSON object per line to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let line = serde_json::json!({
                "run_id": self.run_id,
                "id": s.id,
                "parent": s.parent,
                "name": s.name,
                "start_ns": s.start_ns,
                "end_ns": s.end_ns,
            });
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

/// Each span's self time: its duration minus the time its direct
/// children cover. Children of one parent never overlap in the replays
/// (each is a sequential call), so their durations add.
pub fn self_times(spans: &[Span]) -> Vec<(Span, f64)> {
    spans
        .iter()
        .map(|s| {
            let children: u64 = spans
                .iter()
                .filter(|c| c.parent == Some(s.id))
                .map(|c| c.end_ns - c.start_ns)
                .sum();
            let own = (s.end_ns - s.start_ns).saturating_sub(children);
            (s.clone(), own as f64 / 1e9)
        })
        .collect()
}

/// Sum of self times, in seconds, over spans whose layer (the name up to
/// the first `.`) is `layer`, restricted to descendants of `root`.
pub fn layer_self_s(spans: &[Span], root: u64, layer: &str) -> f64 {
    let under_root = |s: &Span| {
        let mut cur = s.parent;
        while let Some(p) = cur {
            if p == root {
                return true;
            }
            cur = spans.iter().find(|x| x.id == p).and_then(|x| x.parent);
        }
        false
    };
    self_times(spans)
        .into_iter()
        .filter(|(s, _)| s.name.split('.').next() == Some(layer) && under_root(s))
        .map(|(_, t)| t)
        .sum()
}

/// Durations in seconds of every span named `name`.
pub fn durations_s(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_s)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_layers_sum() {
        let t = Tracer::new(true, 7);
        let root = t.span("root.job", None, |root| {
            t.span("loader.load", Some(root), |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            t.span("engine.fdet", Some(root), |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            root
        });
        let spans = t.spans();
        let loader = layer_self_s(&spans, root, "loader");
        let engine = layer_self_s(&spans, root, "engine");
        let wall = durations_s(&spans, "root.job")[0];
        assert!(loader >= 0.005 && engine >= 0.005);
        assert!((loader + engine) / wall > 0.9);
        assert!(!Tracer::new(false, 1).span("x.y", None, |id| id > 0));
    }
}
