//! The result line, the metric catalogue, and the pass loop shared by
//! every workload.

use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// End-to-end metrics, printed with `--trace 0` for every workload.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("speedup_geomean", "x"),
    ("peak_heap_mb", "MB"),
];

/// Layers named after the crates whose public functions the traced
/// passes call; each gets `<layer>.self_ms` and `<layer>.calls`.
pub const LAYERS: [&str; 10] = [
    "f77",
    "ir",
    "analysis",
    "core",
    "sim",
    "verify",
    "fuzz",
    "serve",
    "store",
    "experiments",
];

/// Per-layer metrics, printed with `--trace 1` for every workload. A
/// layer the workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("sim.reference_ms", "ms"),
    ("sim.reference_ns_per_op", "ns"),
    ("sim.reference_ops", "count"),
    ("sim.race_ms", "ms"),
    ("sim.seed_ms", "ms"),
    ("sim.candidate_ms", "ms"),
    ("sim.cycles_serial", "cycles"),
    ("sim.cycles_parallel", "cycles"),
    ("f77.parse_ms", "ms"),
    ("ir.lower_ms", "ms"),
    ("analysis.depend_ms", "ms"),
    ("analysis.deps", "count"),
    ("core.restructure_ms", "ms"),
    ("core.parallel_loops", "count"),
    ("core.emit_cedar_ms", "ms"),
    ("core.emit_openmp_ms", "ms"),
    ("core.emit_serial_ms", "ms"),
    ("core.emit_kb", "KB"),
    ("core.reparse_ms", "ms"),
    ("verify.validate_ms", "ms"),
    ("verify.attempts", "count"),
    ("verify.fallbacks", "count"),
    ("verify.degraded", "count"),
    ("verify.compare_backends_ms", "ms"),
    ("fuzz.gen_ms", "ms"),
    ("fuzz.oracle_ms", "ms"),
    ("serve.client_ms", "ms"),
    ("serve.engine_ms", "ms"),
    ("serve.http_queue_ms", "ms"),
    ("serve.validate_direct_ms", "ms"),
    ("serve.first_ms", "ms"),
    ("serve.repeat_ms", "ms"),
    ("serve.coalesced", "count"),
    ("serve.shed", "count"),
    ("serve.store_hits", "count"),
    ("serve.store_misses", "count"),
    ("store.get_ms", "ms"),
    ("store.put_ms", "ms"),
    ("store.bytes", "bytes"),
    ("experiments.table1_ms", "ms"),
    ("experiments.table2_ms", "ms"),
    ("experiments.qcd_footnote_ms", "ms"),
    ("experiments.fig6_ms", "ms"),
    ("experiments.fig7_ms", "ms"),
    ("experiments.fig8_ms", "ms"),
    ("experiments.fig9_ms", "ms"),
    ("experiments.ablation_ms", "ms"),
    ("par.cpu_s", "s"),
];

/// Trace bookkeeping metrics, printed with the per-layer ones.
pub const TRACE_META: [(&str, &str); 4] = [
    ("trace.validate_coverage", "%"),
    ("trace.oracle_coverage", "%"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
];

/// What one run measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Operations whose output passed the full checks once and later
    /// came back different: the outputs of operations that did not fail
    /// are then not known to be correct.
    pub inconsistent: u64,
    /// End-to-end values except `peak_heap_mb`, which the allocator
    /// supplies.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer values (traced runs only).
    pub layers: BTreeMap<String, f64>,
}

fn is_per_layer(name: &str) -> bool {
    PER_LAYER.iter().chain(&TRACE_META).any(|(n, _)| *n == name)
        || LAYERS
            .iter()
            .any(|l| name == format!("{l}.self_ms") || name == format!("{l}.calls"))
}

fn num(name: &str, v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        eprintln!("cedarbench: metric `{name}` is not finite ({v}); printed as -1");
        "-1".into()
    }
}

impl Outcome {
    /// The result line.
    pub fn into_json(mut self, trace: bool, peak_heap_bytes: usize) -> String {
        let mut fields: Vec<String> = Vec::new();
        if trace {
            for name in self.layers.keys().filter(|n| !is_per_layer(n)) {
                eprintln!("cedarbench: per-layer metric `{name}` is not in the catalogue");
            }
            let layer_metrics = LAYERS.iter().flat_map(|l| {
                [
                    (format!("{l}.self_ms"), "ms"),
                    (format!("{l}.calls"), "count"),
                ]
            });
            let all = PER_LAYER
                .iter()
                .chain(&TRACE_META)
                .map(|(n, u)| (n.to_string(), *u))
                .chain(layer_metrics);
            for (name, unit) in all {
                let v = self.layers.get(&name).copied().unwrap_or(0.0);
                fields.push(format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(&name, v)
                ));
            }
        } else {
            self.e2e
                .insert("peak_heap_mb", peak_heap_bytes as f64 / (1024.0 * 1024.0));
            for (name, unit) in END_TO_END {
                let v = match self.e2e.get(name) {
                    Some(v) => *v,
                    None => {
                        eprintln!("cedarbench: end-to-end metric `{name}` was not measured");
                        self.inconsistent += 1;
                        -1.0
                    }
                };
                fields.push(format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(name, v)
                ));
            }
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.inconsistent == 0,
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        )
    }
}

/// Per-pass values of per-layer metrics; the run reports each metric's
/// median over the traced passes.
#[derive(Default)]
pub struct PassMetrics {
    passes: Vec<BTreeMap<String, f64>>,
}

impl PassMetrics {
    /// Start a new traced pass.
    pub fn begin(&mut self) {
        self.passes.push(BTreeMap::new());
    }

    /// Add `v` to metric `name` of the current pass.
    pub fn add(&mut self, name: &str, v: f64) {
        let pass = self
            .passes
            .last_mut()
            .expect("PassMetrics::begin not called");
        *pass.entry(name.to_string()).or_insert(0.0) += v;
    }

    /// Fold the pass's spans (those recorded since `from`) in: the
    /// total of each span named in `names` as `<name>_ms`, and every
    /// layer's self time and calls.
    pub fn add_spans(&mut self, tr: &Tracer, from: usize, names: &[&str]) {
        let totals = tr.totals(from);
        for name in names {
            let ms = totals.get(name).map_or(0.0, |t| t.0);
            self.add(&format!("{name}_ms"), ms);
        }
        for (layer, (self_ms, calls)) in tr.self_by_layer(from) {
            if LAYERS.contains(&layer.as_str()) {
                self.add(&format!("{layer}.self_ms"), self_ms);
                self.add(&format!("{layer}.calls"), calls as f64);
            }
        }
    }

    /// Median over passes of every metric seen.
    pub fn medians(&self) -> BTreeMap<String, f64> {
        let mut names: Vec<&String> = self.passes.iter().flat_map(|p| p.keys()).collect();
        names.sort();
        names.dedup();
        names
            .into_iter()
            .map(|n| {
                let xs: Vec<f64> = self
                    .passes
                    .iter()
                    .map(|p| p.get(n).copied().unwrap_or(0.0))
                    .collect();
                (n.clone(), crate::stat::median(&xs))
            })
            .collect()
    }
}

/// Wall seconds of untraced and traced passes.
pub struct PassTimes {
    pub untraced: Vec<f64>,
    pub traced: Vec<f64>,
}

impl PassTimes {
    /// Traced minus untraced median pass time. In a traced run both
    /// kinds of pass make the same calls, the untraced ones with the
    /// tracer off, so the difference is the cost of recording spans.
    pub fn overhead_s(&self) -> f64 {
        crate::stat::median(&self.traced) - crate::stat::median(&self.untraced)
    }
}

/// Untraced runs measure whole passes until `budget` has elapsed (at
/// least three, so the median has company). Traced runs alternate an
/// untraced pass with a traced one until `budget` has elapsed (at least
/// one each), so both kinds see the same changes in the host's speed.
/// `pass(traced)` returns the pass's wall seconds.
pub fn run_passes(budget: Duration, trace: bool, mut pass: impl FnMut(bool) -> f64) -> PassTimes {
    let t0 = Instant::now();
    let mut times = PassTimes {
        untraced: Vec::new(),
        traced: Vec::new(),
    };
    if trace {
        while times.traced.is_empty() || t0.elapsed() < budget {
            times.untraced.push(pass(false));
            times.traced.push(pass(true));
        }
    } else {
        while times.untraced.len() < 3 || t0.elapsed() < budget {
            times.untraced.push(pass(false));
        }
    }
    eprintln!(
        "cedarbench: pass seconds untraced {:?} traced {:?}",
        times.untraced, times.traced
    );
    times
}

/// Time `f`, returning its value and elapsed seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Set-up repetitions before the warm-up pass and before every timed
/// pass.
pub const SETUP_REPS: usize = 3;

/// The set-up times of a run. Every pass sets its inputs up afresh, so
/// the samples spread over the whole run as the passes do, and
/// `setup_s` is their median.
#[derive(Default)]
pub struct Setups(Vec<f64>);

impl Setups {
    /// Run `set_up` [`SETUP_REPS`] times, timing each; returns the last
    /// result, which the pass then uses.
    pub fn run<T>(&mut self, mut set_up: impl FnMut() -> T) -> T {
        let mut last = None;
        for _ in 0..SETUP_REPS {
            let (built, s) = timed(&mut set_up);
            self.0.push(s);
            last = Some(built);
        }
        last.expect("SETUP_REPS is positive")
    }

    pub fn median(&self) -> f64 {
        eprintln!("cedarbench: set-up seconds {:?}", self.0);
        crate::stat::median(&self.0)
    }
}

/// Where runs leave their traces and scratch stores: `out/` beside this
/// package's manifest.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// SplitMix64: the benchmark's own seeded generator for input order and
/// request mixes.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5bd1_e995_1234_5678)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}
