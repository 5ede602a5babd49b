//! In-memory spans around the calls this benchmark makes into each
//! layer's public functions. Spans are kept in memory, aggregated per
//! pass, and written out as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<operation>`, e.g. `sim.reference`.
    pub name: &'static str,
    /// Offsets from the tracer's creation.
    pub start: Duration,
    pub end: Duration,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation (request) this span belongs to.
    pub req: u64,
}

/// Span recorder; a disabled tracer records nothing and costs one
/// branch per call.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

/// Per span name: total milliseconds and number of calls.
pub type Totals = BTreeMap<&'static str, (f64, u64)>;

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("tracer lock poisoned by a panicking recorder")
    }

    /// Record a span measured by the caller; returns its index.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let mut spans = self.lock();
        spans.push(Span {
            name,
            start: start.saturating_duration_since(self.t0),
            end: end.saturating_duration_since(self.t0),
            parent,
            req,
        });
        Some(spans.len() - 1)
    }

    /// Open a span whose children are recorded before [`Tracer::close`].
    pub fn open(&self, name: &'static str, parent: Option<usize>, req: u64) -> Option<usize> {
        let now = Instant::now();
        self.record(name, parent, req, now, now)
    }

    pub fn close(&self, id: Option<usize>) {
        if let Some(id) = id {
            let end = self.t0.elapsed();
            self.lock()[id].end = end;
        }
    }

    /// Time `f` as span `name` under `parent`.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(name, parent, req, start, Instant::now());
        out
    }

    /// Number of spans recorded so far (a pass's spans are those
    /// between two marks).
    pub fn mark(&self) -> usize {
        self.lock().len()
    }

    /// Total time and calls per span name among spans `from..`.
    pub fn totals(&self, from: usize) -> Totals {
        let mut out = Totals::new();
        for s in &self.lock()[from..] {
            let e = out.entry(s.name).or_insert((0.0, 0));
            e.0 += ms(s.end.saturating_sub(s.start));
            e.1 += 1;
        }
        out
    }

    /// Self time (duration minus the time its child spans cover) and
    /// calls per layer, the part of the span name before the first `.`,
    /// among spans `from..`. Children of one span run one after another
    /// on its thread, so their durations add without overlap.
    pub fn self_by_layer(&self, from: usize) -> BTreeMap<String, (f64, u64)> {
        let spans = self.lock();
        let mut child_ms = vec![0.0f64; spans.len()];
        for s in &spans[from..] {
            if let Some(p) = s.parent {
                child_ms[p] += ms(s.end.saturating_sub(s.start));
            }
        }
        let mut out: BTreeMap<String, (f64, u64)> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate().skip(from) {
            let layer = s.name.split('.').next().unwrap_or(s.name).to_string();
            let own = (ms(s.end.saturating_sub(s.start)) - child_ms[i]).max(0.0);
            let e = out.entry(layer).or_insert((0.0, 0));
            e.0 += own;
            e.1 += 1;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.lock().iter().enumerate() {
            writeln!(
                f,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_us\": {}, \"end_us\": {}, \"parent\": {}, \"req\": {}}}",
                s.name,
                s.start.as_micros(),
                s.end.as_micros(),
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.req,
            )?;
        }
        f.flush()
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        let root = t.open("bench.op", None, 7);
        t.span("sim.reference", root, 7, || {
            std::thread::sleep(Duration::from_millis(5))
        });
        t.close(root);
        let layers = t.self_by_layer(0);
        let (sim_ms, sim_calls) = layers["sim"];
        let (bench_ms, _) = layers["bench"];
        assert_eq!(sim_calls, 1);
        assert!(sim_ms >= 5.0);
        assert!(bench_ms < sim_ms, "bench {bench_ms} vs sim {sim_ms}");
        assert_eq!(t.totals(0)["sim.reference"].1, 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::off();
        assert_eq!(t.span("sim.reference", None, 0, || 3), 3);
        assert_eq!(t.mark(), 0);
    }
}
