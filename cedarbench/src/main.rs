//! `cedarbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cedarbench --workload <perfect22|fuzz_seeds|artifacts>
//!            --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run builds its inputs from `--seed`, runs one untimed warm-up
//! pass whose outputs are checked against computations made apart from
//! the program under test, and then repeats whole passes of the same
//! operations until `--seconds` have been measured. Every pass sets its
//! inputs up afresh, several times; the median set-up is `setup_s`. The last line of standard
//! output is one JSON object:
//!
//! ```text
//! {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//! ```
//!
//! With `--trace 0` the metrics are the end-to-end ones; with
//! `--trace 1` the run alternates untraced passes with traced passes
//! that time calls into each layer's public functions from this
//! package, and the metrics are the per-layer ones. README.md describes
//! every workload, metric and seed.

mod alloc;
mod artifacts;
mod checks;
mod fuzz_seeds;
mod metrics;
mod perfect22;
mod serve_leg;
mod stat;
mod trace;

use metrics::Outcome;
use std::time::Duration;

#[global_allocator]
static HEAP: alloc::Counting = alloc::Counting;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

const WORKLOADS: [&str; 3] = ["perfect22", "fuzz_seeds", "artifacts"];

fn usage(msg: &str) -> ! {
    eprintln!("cedarbench: {msg}");
    eprintln!(
        "usage: cedarbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv
            .next()
            .unwrap_or_else(|| usage(&format!("`{flag}` needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(value.parse::<u64>().unwrap_or_else(|_| usage("bad --seed")));
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .unwrap_or_else(|_| usage("bad --seconds"));
                if !(s > 0.0 && s <= 600.0) {
                    usage("--seconds must lie in (0, 600]");
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace must be 0 or 1"),
                });
            }
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload `{workload}`"));
    }
    Args {
        workload,
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
    }
}

fn main() {
    let args = parse_args();
    let out: Outcome = match args.workload.as_str() {
        "perfect22" => perfect22::run(&args),
        "fuzz_seeds" => fuzz_seeds::run(&args),
        "artifacts" => artifacts::run(&args),
        _ => unreachable!("workload names are checked in parse_args"),
    };
    let line = out.into_json(args.trace, HEAP.peak_bytes());
    println!("{line}");
}
