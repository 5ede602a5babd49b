//! `fuzz_seeds`: `cedar_fuzz::run_oracles` over the generated programs
//! of seeds 0..300, one closed-loop client on one thread. Passes of
//! traced runs also serve every tenth program through `cedar-serve`
//! (see [`crate::serve_leg`]).

use crate::checks;
use crate::metrics::{self, Outcome, PassMetrics, Rng, Setups};
use crate::serve_leg;
use crate::stat;
use crate::trace::Tracer;
use crate::Args;
use cedar_fuzz::{GenProgram, OracleConfig, Rendered};
use cedar_restructure::{BackendKind, EmitInput};
use std::time::Instant;

/// Generator seeds `0..SEEDS`: the fixed range the fuzz campaign runs
/// clean. The workload seed only shuffles their order, so every seed
/// times the same programs.
const SEEDS: u64 = 300;

fn build(seed: u64) -> Vec<(u64, Rendered)> {
    let mut order: Vec<u64> = (0..SEEDS).collect();
    Rng::new(seed).shuffle(&mut order);
    order
        .into_iter()
        .map(|s| (s, GenProgram::generate(s).render()))
        .collect()
}

/// The oracle stack's layer calls, re-made one at a time from here,
/// with the checks they support: the restructured program reproduces
/// the serial reference under the generator's exact/approximate split, the
/// race detector finds nothing, and every backend's emission agrees.
fn replica(
    tr: &Tracer,
    root: Option<usize>,
    req: u64,
    gen_seed: u64,
    cfg: &OracleConfig,
    pm: Option<&mut PassMetrics>,
) -> Result<(), String> {
    let r = tr.span("fuzz.gen", root, req, || {
        GenProgram::generate(gen_seed).render()
    });
    let ast = tr.span("f77.parse", root, req, || cedar_f77::parse_free(&r.source));
    let ast = ast.map_err(|e| format!("parse: {e}"))?;
    let program = tr.span("ir.lower", root, req, || cedar_ir::lower(&ast));
    let program = program.map_err(|e| format!("lower: {e}"))?;
    let deps = tr.span("analysis.depend", root, req, || {
        crate::perfect22::analyze(&program)
    });
    let rr = tr.span("core.restructure", root, req, || {
        cedar_restructure::restructure(&program, &cfg.pass)
    });

    let watch: Vec<&str> = r.watch.iter().map(|w| w.name.as_str()).collect();
    let exact: Vec<&str> = r
        .watch
        .iter()
        .filter(|w| w.exact)
        .map(|w| w.name.as_str())
        .collect();
    let reference = tr.span("sim.reference", root, req, || {
        cedar_sim::run(&program, cfg.mc.clone())
    });
    let reference = reference.map_err(|e| format!("reference run: {e}"))?;
    let ref_values = checks::snapshot(&reference, &watch)?;
    let candidate = tr.span("sim.candidate", root, req, || {
        cedar_sim::run(&rr.program, cfg.mc.clone())
    });
    let candidate = candidate.map_err(|e| format!("candidate run: {e}"))?;
    checks::same_values(
        &ref_values,
        &checks::snapshot(&candidate, &watch)?,
        &exact,
        cfg.rel_tol,
    )?;
    let raced = tr.span("sim.race", root, req, || {
        cedar_sim::run_collecting_races(&rr.program, cfg.mc.clone())
    });
    let raced = raced.map_err(|e| format!("race-collecting run: {e}"))?;
    if let Some(race) = raced.race_report().first() {
        return Err(format!("restructured program races: {race}"));
    }

    let input = EmitInput {
        original: &program,
        restructured: &rr.program,
        report: &rr.report,
    };
    let mut emitted_bytes = 0usize;
    for kind in BackendKind::all() {
        let name = match kind {
            BackendKind::Cedar => "core.emit_cedar",
            BackendKind::OpenMp => "core.emit_openmp",
            BackendKind::Serial => "core.emit_serial",
        };
        let text = tr.span(name, root, req, || kind.backend().emit(&input));
        emitted_bytes += text.len();
        let reparsed = tr.span("core.reparse", root, req, || {
            cedar_ir::compile_source(&text)
        });
        reparsed.map_err(|e| format!("{kind} emission does not re-parse: {e}"))?;
    }
    let cmp = tr.span("verify.compare_backends", root, req, || {
        cedar_verify::compare_backends(&program, &cfg.pass, &cfg.mc, &watch, cfg.rel_tol)
    })?;
    if let Some(bad) = cmp.first_failure() {
        return Err(format!("backend {} {}", bad.backend, bad.outcome));
    }

    if let Some(pm) = pm {
        pm.add("analysis.deps", deps as f64);
        pm.add("core.parallel_loops", rr.report.parallelized() as f64);
        pm.add("core.emit_kb", emitted_bytes as f64 / 1024.0);
        pm.add("sim.reference_ops", reference.stats.scalar_ops as f64);
        pm.add("sim.cycles_serial", reference.cycles());
        pm.add("sim.cycles_parallel", candidate.cycles());
    }
    Ok(())
}

/// Span names whose totals the oracle stack's own calls account for.
const ORACLE_PARTS: [&str; 7] = [
    "f77.parse",
    "ir.lower",
    "core.restructure",
    "sim.reference",
    "sim.candidate",
    "sim.race",
    "verify.compare_backends",
];

pub fn run(args: &Args) -> Outcome {
    let mut setups = Setups::default();
    let warm_programs = setups.run(|| build(args.seed));
    let cfg = OracleConfig::default();
    let leg: Vec<serve_leg::Request> = if args.trace {
        warm_programs
            .iter()
            .step_by(serve_leg::EVERY)
            .enumerate()
            .map(|(n, (_, r))| serve_leg::request(n, r))
            .collect()
    } else {
        Vec::new()
    };

    cedar_par::with_jobs(1, || {
        let mut out = Outcome::default();
        let off = Tracer::off();

        // Warm-up pass: every program's oracle verdict plus the
        // replica's own checks; the digest pins the accepted output.
        let mut digests: Vec<Option<u64>> = Vec::new();
        let mut speedups = Vec::new();
        for (k, (s, r)) in warm_programs.iter().enumerate() {
            out.attempted += 1;
            let verdict = cedar_fuzz::run_oracles(r, &cfg)
                .map_err(|f| format!("oracle: {f}"))
                .and_then(|st| replica(&off, None, k as u64, *s, &cfg, None).map(|()| st));
            match verdict {
                Ok(st) => {
                    speedups.push(st.serial_cycles / st.parallel_cycles);
                    digests.push(Some(st.digest));
                }
                Err(e) => {
                    eprintln!("fuzz_seeds: seed {s}: {e}");
                    out.failed += 1;
                    digests.push(None);
                }
            }
        }
        drop(warm_programs);

        let tr = Tracer::new(args.trace);
        let mut pm = PassMetrics::default();
        let mut latencies = Vec::new();
        let mut covered = Vec::new();
        let mut passes = 0;
        // Traced runs re-check every program with the replica and serve
        // the leg in every pass; only the traced passes record spans and
        // layer metrics.
        let times = metrics::run_passes(args.seconds, args.trace, |traced| {
            let programs = setups.run(|| build(args.seed));
            let pass_start = Instant::now();
            let t = if traced { &tr } else { &off };
            let mark = t.mark();
            if traced {
                pm.begin();
            }
            let (mut oracle_ms, mut parts_ms) = (0.0, 0.0);
            for (k, (s, r)) in programs.iter().enumerate() {
                out.attempted += 1;
                let req = k as u64;
                let root = t.open("bench.op", None, req);
                let start = Instant::now();
                let verdict = t.span("fuzz.oracle", root, req, || {
                    cedar_fuzz::run_oracles(r, &cfg)
                });
                let ms = start.elapsed().as_secs_f64() * 1e3;
                latencies.push(ms);
                oracle_ms += ms;
                let mut ok = match (&verdict, digests[k]) {
                    (Ok(st), Some(d)) => {
                        if st.digest != d {
                            eprintln!("fuzz_seeds: seed {s}: digest differs from the checked run");
                            out.inconsistent += 1;
                        }
                        st.digest == d
                    }
                    _ => false,
                };
                if args.trace {
                    let mark_op = t.mark();
                    let pm = if traced { Some(&mut pm) } else { None };
                    if let Err(e) = replica(t, root, req, *s, &cfg, pm) {
                        if digests[k].is_some() {
                            eprintln!("fuzz_seeds: seed {s}: {e}");
                            out.inconsistent += 1;
                        }
                        ok = false;
                    }
                    let tot = t.totals(mark_op);
                    parts_ms += ORACLE_PARTS
                        .iter()
                        .map(|n| tot.get(n).map_or(0.0, |x| x.0))
                        .sum::<f64>();
                    t.close(root);
                }
                if !ok {
                    out.failed += 1;
                }
            }
            if args.trace {
                let dir =
                    metrics::out_dir().join(format!("serve-{}-pass{passes}", std::process::id()));
                out.attempted += 2 * leg.len() as u64;
                if traced {
                    out.failed += serve_leg::run_pass(&dir, &leg, &tr, &mut pm);
                } else {
                    let mut unused = PassMetrics::default();
                    unused.begin();
                    out.failed += serve_leg::run_pass(&dir, &leg, &off, &mut unused);
                }
            }
            if traced {
                covered.push(100.0 * parts_ms / oracle_ms);
                pm.add_spans(
                    &tr,
                    mark,
                    &[
                        "fuzz.gen",
                        "fuzz.oracle",
                        "f77.parse",
                        "ir.lower",
                        "analysis.depend",
                        "core.restructure",
                        "sim.reference",
                        "sim.candidate",
                        "sim.race",
                        "core.emit_cedar",
                        "core.emit_openmp",
                        "core.emit_serial",
                        "core.reparse",
                        "verify.compare_backends",
                    ],
                );
            }
            passes += 1;
            pass_start.elapsed().as_secs_f64()
        });

        out.e2e.insert("setup_s", setups.median());
        out.e2e.insert("wall_s", stat::median(&times.untraced));
        out.e2e
            .insert("latency_p50_ms", stat::quantile(&latencies, 0.5));
        out.e2e
            .insert("latency_p95_ms", stat::quantile(&latencies, 0.95));
        if !speedups.is_empty() {
            out.e2e.insert("speedup_geomean", stat::geomean(&speedups));
        }

        if args.trace {
            let mut layers = pm.medians();
            let ops = layers.get("sim.reference_ops").copied().unwrap_or(0.0);
            let ref_ms = layers.get("sim.reference_ms").copied().unwrap_or(0.0);
            if ops > 0.0 {
                layers.insert("sim.reference_ns_per_op".into(), ref_ms * 1e6 / ops);
            }
            layers.insert("trace.oracle_coverage".into(), stat::median(&covered));
            layers.insert("trace.overhead_s".into(), times.overhead_s());
            layers.insert("trace.spans".into(), tr.mark() as f64);
            out.layers = layers;
            let path = metrics::out_dir().join(format!("trace-fuzz_seeds-seed{}.jsonl", args.seed));
            if let Err(e) = tr.write(&path) {
                eprintln!("fuzz_seeds: writing {}: {e}", path.display());
            }
        }
        out
    })
}
