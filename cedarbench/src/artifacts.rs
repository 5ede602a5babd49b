//! `artifacts`: the `all` suite's generators called directly (no
//! supervision layer), each pass from cold caches with two jobs. A
//! pass's set-up clears every cache and compiles the suite's 22 input
//! programs into the compile cache the generators read.

use crate::metrics::{self, Outcome, PassMetrics, Setups};
use crate::stat;
use crate::trace::Tracer;
use crate::Args;
use cedar_experiments::{ablation, cache, fig6, fig7, fig8, fig9, table1, table2};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Worker threads for the generators' `cedar-par` pool.
const JOBS: usize = 2;

/// Speedups a generator contributes to `speedup_geomean` (Table 1 and
/// Table 2 rows), or the reason one of the paper's qualitative claims
/// does not hold.
type Verdict = Result<Vec<f64>, String>;

fn claim(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

fn positive(xs: &[f64]) -> bool {
    xs.iter().all(|x| x.is_finite() && *x > 0.0)
}

/// Table 1: recurrence-bound routines stay low, and the routines whose
/// serial versions page (CG, mprove) beat the 32-CE count.
fn check_table1(rows: &[table1::Row]) -> Verdict {
    let s = |name: &str| {
        rows.iter()
            .find(|r| r.name == name)
            .map_or(0.0, |r| r.measured_speedup)
    };
    let speedups: Vec<f64> = rows.iter().map(|r| r.measured_speedup).collect();
    claim(rows.len() == 10 && positive(&speedups), || {
        format!("table1: rows {speedups:?}")
    })?;
    claim(s("mprove") > 32.0 && s("CG") > 32.0, || {
        format!(
            "table1: mprove {:.1} / CG {:.1} do not beat 32 CEs",
            s("mprove"),
            s("CG")
        )
    })?;
    claim(s("tridag") < 4.0 && s("toeplz") < 6.0, || {
        format!(
            "table1: tridag {:.1} / toeplz {:.1} are not recurrence-bound",
            s("tridag"),
            s("toeplz")
        )
    })?;
    Ok(speedups)
}

/// Table 2: the manual technique set does not lose to the automatic one
/// on Cedar, except QCD (its random-number cycle serializes both) and
/// TRFD, the paper's two exceptions; 5 % absorbs schedule effects.
fn check_table2(rows: &[table2::Row]) -> Verdict {
    let mut speedups = Vec::new();
    for r in rows {
        let cells = [r.auto_fx80, r.auto_cedar, r.manual_fx80, r.manual_cedar];
        claim(positive(&cells), || {
            format!("table2: {} cells {cells:?}", r.name)
        })?;
        if r.name != "QCD" && r.name != "TRFD" {
            claim(r.manual_cedar >= 0.95 * r.auto_cedar, || {
                format!(
                    "table2: {} manual {:.2} < automatic {:.2}",
                    r.name, r.manual_cedar, r.auto_cedar
                )
            })?;
        }
        speedups.extend(cells);
    }
    claim(rows.len() == 12, || format!("table2: {} rows", rows.len()))?;
    Ok(speedups)
}

/// The QCD footnote ladder: a critical section recovers part of the
/// loss, a parallel generator much more.
fn check_qcd((serial, critical, parallel): (f64, f64, f64)) -> Verdict {
    claim(critical > 2.0 * serial && parallel > 2.0 * critical, || {
        format!("qcd footnote: {serial:.2} / {critical:.2} / {parallel:.2} not increasing")
    })?;
    Ok(Vec::new())
}

/// Fig. 6: prefetch helps CG (long vectors) more than TRFD.
fn check_fig6(bars: &[fig6::Bar]) -> Verdict {
    claim(
        bars.len() == 2 && bars[0].gain > 1.0 && bars[1].gain >= 1.0 && bars[1].gain < bars[0].gain,
        || {
            let gains: Vec<f64> = bars.iter().map(|b| b.gain).collect();
            format!("fig6: prefetch gains {gains:?} out of order")
        },
    )?;
    Ok(Vec::new())
}

/// Fig. 7: the expanded variant is slower than the privatized one.
fn check_fig7(f: &fig7::Fig7) -> Verdict {
    claim(
        f.expanded_relative > 0.0 && f.expanded_relative < 1.0,
        || {
            format!(
                "fig7: expanded runs at {:.2} of privatized",
                f.expanded_relative
            )
        },
    )?;
    Ok(Vec::new())
}

/// Fig. 8: global placement wins on one cluster, distribution wins at
/// four — the curves cross.
fn check_fig8(series: &[fig8::Series]) -> Verdict {
    claim(
        series.len() == 2 && series.iter().all(|s| s.speeds.len() == 4),
        || "fig8: shape".into(),
    )?;
    let (g, d) = (&series[0].speeds, &series[1].speeds);
    claim(g[0] > d[0] && d[3] > g[3], || {
        format!("fig8: no crossover: global {g:?} vs distributed {d:?}")
    })?;
    Ok(Vec::new())
}

/// Fig. 9: on Cedar fused > outer-parallel > inner-parallel, and fusion
/// gains more on Cedar than on the FX/80.
fn check_fig9(ms: &[fig9::Machine]) -> Verdict {
    claim(ms.len() == 2, || "fig9: shape".into())?;
    let (fx, cedar) = (&ms[0], &ms[1]);
    claim(
        cedar.c > cedar.b && cedar.b > cedar.a && cedar.c / cedar.b > fx.c / fx.b,
        || {
            format!(
                "fig9: Cedar {:.2}/{:.2}/{:.2}, FX/80 {:.2}/{:.2}/{:.2}",
                cedar.a, cedar.b, cedar.c, fx.a, fx.b, fx.c
            )
        },
    )?;
    Ok(Vec::new())
}

fn check_ablation(sweeps: &[ablation::Sweep]) -> Verdict {
    for s in sweeps {
        let vals: Vec<f64> = s.points.iter().map(|p| p.1).collect();
        claim(!vals.is_empty() && positive(&vals), || {
            format!("ablation `{}`: {vals:?}", s.title)
        })?;
    }
    Ok(Vec::new())
}

/// The eight generators, in the `all` binary's order.
const GENERATORS: [&str; 8] = [
    "table1",
    "table2",
    "qcd_footnote",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "ablation",
];

fn generate(k: usize) -> Verdict {
    match k {
        0 => check_table1(&table1::run()),
        1 => check_table2(&table2::run()),
        2 => check_qcd(table2::qcd_footnote()),
        3 => check_fig6(&fig6::run()),
        4 => check_fig7(&fig7::run()),
        5 => check_fig8(&fig8::run().0),
        6 => check_fig9(&fig9::run()),
        _ => check_ablation(&ablation::run_all()),
    }
}

/// Span (and `<span>_ms` metric) names of the generators.
const SPANS: [&str; 8] = [
    "experiments.table1",
    "experiments.table2",
    "experiments.qcd_footnote",
    "experiments.fig6",
    "experiments.fig7",
    "experiments.fig8",
    "experiments.fig9",
    "experiments.ablation",
];

/// Process CPU seconds (user + system) from `/proc/self/stat`, whose
/// clock ticks are 1/100 s on Linux.
fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / 100.0
}

/// A pass's set-up: empty every cache, then compile the suite's 22
/// input programs into the compile cache (`cache::compiled`), where the
/// generators find them.
fn set_up() {
    cache::clear();
    for w in cedar_workloads::table1_workloads()
        .iter()
        .chain(&cedar_workloads::table2_workloads())
    {
        cache::compiled(w);
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut setups = Setups::default();
    // The seed picks the order the generators run in.
    let mut order: Vec<usize> = (0..GENERATORS.len()).collect();
    metrics::Rng::new(args.seed).shuffle(&mut order);

    cedar_par::with_jobs(JOBS, || {
        let mut out = Outcome::default();
        let tr = Tracer::new(args.trace);
        let mut pm = PassMetrics::default();
        let mut per_gen: Vec<Vec<f64>> = vec![Vec::new(); GENERATORS.len()];
        let mut first: Vec<Option<Vec<f64>>> = vec![None; GENERATORS.len()];
        let mut pass = |warm: bool, traced: bool, out: &mut Outcome| -> f64 {
            // Dropping what the previous pass cached costs in proportion
            // to that pass, not to the set-up, so it stays untimed.
            cache::clear();
            setups.run(set_up);
            let pass_start = Instant::now();
            let cpu0 = cpu_seconds();
            let mark = tr.mark();
            if traced {
                pm.begin();
            }
            for &k in &order {
                out.attempted += 1;
                let req = k as u64;
                let t = Instant::now();
                let verdict = tr.span(SPANS[k], None, req, || {
                    catch_unwind(AssertUnwindSafe(|| generate(k)))
                });
                let ms = t.elapsed().as_secs_f64() * 1e3;
                let verdict = verdict.unwrap_or_else(|p| {
                    Err(format!("panic: {}", cedar_par::panic_message(p.as_ref())))
                });
                if !warm && !traced {
                    per_gen[k].push(ms);
                }
                match verdict {
                    Ok(speedups) => match &first[k] {
                        None if warm => first[k] = Some(speedups),
                        Some(s) if *s == speedups => {}
                        _ => {
                            eprintln!(
                                "artifacts: {}: results differ from the checked pass",
                                GENERATORS[k]
                            );
                            out.inconsistent += 1;
                            out.failed += 1;
                        }
                    },
                    Err(e) => {
                        if warm || first[k].is_some() {
                            eprintln!("artifacts: {}: {e}", GENERATORS[k]);
                        }
                        if first[k].is_some() {
                            out.inconsistent += 1;
                        }
                        out.failed += 1;
                    }
                }
            }
            if traced {
                pm.add_spans(&tr, mark, &SPANS);
                pm.add("par.cpu_s", cpu_seconds() - cpu0);
            }
            pass_start.elapsed().as_secs_f64()
        };

        pass(true, false, &mut out); // warm-up: checks every claim, records the rows
        let times = metrics::run_passes(args.seconds, args.trace, |traced| {
            pass(false, traced, &mut out)
        });

        out.e2e.insert("setup_s", setups.median());
        out.e2e.insert("wall_s", stat::median(&times.untraced));
        // Each generator's median time; the 95th percentile of eight
        // such medians lies between the two slowest generators.
        let gen_medians: Vec<f64> = per_gen
            .iter()
            .filter(|xs| !xs.is_empty())
            .map(|xs| stat::median(xs))
            .collect();
        if !gen_medians.is_empty() {
            out.e2e
                .insert("latency_p50_ms", stat::quantile(&gen_medians, 0.5));
            out.e2e
                .insert("latency_p95_ms", stat::quantile(&gen_medians, 0.95));
        }
        let speedups: Vec<f64> = first.iter().flatten().flatten().copied().collect();
        if !speedups.is_empty() {
            out.e2e.insert("speedup_geomean", stat::geomean(&speedups));
        }
        if args.trace {
            let mut layers = pm.medians();
            layers.insert("trace.overhead_s".into(), times.overhead_s());
            layers.insert("trace.spans".into(), tr.mark() as f64);
            out.layers = layers;
            let path = metrics::out_dir().join(format!("trace-artifacts-seed{}.jsonl", args.seed));
            if let Err(e) = tr.write(&path) {
                eprintln!("artifacts: writing {}: {e}", path.display());
            }
        }
        out
    })
}
