//! In-memory span recorder for the traced run.
//!
//! A span is one call from the benchmark into a layer of the simulator:
//! name (`<layer>.<operation>`), start, end, the span that caused it and
//! the round it belongs to. Spans are kept in memory and written out once,
//! when the run ends. With tracing off, [`Tracer::span`] is a plain call.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span; children name their parent by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// One recorded layer call. Times are nanoseconds since the tracer began.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub round: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`. `f` receives the new span's id
    /// to hand to its children. Disabled tracers record nothing.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        round: u32,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        if !self.enabled {
            return f(None);
        }
        let id = {
            let mut spans = self.spans.lock().expect("span list lock poisoned");
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent: parent.map(|p| p.0),
                round,
            });
            spans.len() - 1
        };
        let out = f(Some(SpanId(id)));
        let end = self.now_ns();
        self.spans.lock().expect("span list lock poisoned")[id].end_ns = end;
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock poisoned").clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans().iter().enumerate() {
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"parent\": {}, \"round\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.round,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children. Children may run in parallel on other threads,
/// so their intervals are clipped to the parent and merged before being
/// subtracted; overlapping children never count twice.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (start, end) in kids {
                let (start, end) = (start.max(cursor), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            s.dur_ns() - covered.min(s.dur_ns())
        })
        .collect()
}

/// Total self time per layer, in seconds.
pub fn layer_self_s(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(s.layer()).or_insert(0.0) += self_ns as f64 * 1e-9;
    }
    out
}

/// Durations (seconds) of every span called `name`.
pub fn durations_s(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 * 1e-9)
        .collect()
}

/// Per-round sums (seconds) of the spans called `name`, one entry per
/// round that has any.
pub fn round_sums_s(spans: &[Span], name: &str) -> Vec<f64> {
    let mut by_round: BTreeMap<u32, f64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *by_round.entry(s.round).or_insert(0.0) += s.dur_ns() as f64 * 1e-9;
    }
    by_round.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            round: 0,
        }
    }

    #[test]
    fn self_time_subtracts_merged_child_cover() {
        // bench.round [0, 100)
        //   batch.replay [10, 40)          -> self 30 - 15 = 15
        //     shard.step [12, 20), [15, 27) (parallel, overlap) -> cover 15
        //   optimal.min [40, 70)           -> self 30
        //   mono.replay [90, 130) spills past the parent's end -> clipped
        let spans = vec![
            span("bench.round", 0, 100, None),
            span("batch.replay", 10, 40, Some(0)),
            span("shard.step", 12, 20, Some(1)),
            span("shard.step", 15, 27, Some(1)),
            span("optimal.min", 40, 70, Some(0)),
            span("mono.replay", 90, 130, Some(0)),
        ];
        let selfs = self_times_ns(&spans);
        // Round: 100 minus children cover [10,40) + [40,70) + [90,100) = 70.
        assert_eq!(selfs[0], 30);
        assert_eq!(selfs[1], 15);
        assert_eq!(selfs[2], 8);
        assert_eq!(selfs[3], 12);
        assert_eq!(selfs[4], 30);
        assert_eq!(selfs[5], 40);
        let layers = layer_self_s(&spans);
        assert!((layers["shard"] - 20e-9).abs() < 1e-15);
        assert!((layers["bench"] - 30e-9).abs() < 1e-15);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let v = t.span("batch.replay", None, 0, |id| {
            assert!(id.is_none());
            7
        });
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn enabled_tracer_links_children_to_parents() {
        let t = Tracer::new(true);
        t.span("bench.round", None, 3, |root| {
            t.span("optimal.min", root, 3, |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].round, 3);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(round_sums_s(&spans, "optimal.min").len(), 1);
    }
}
