//! `perfect22`: `cedar_verify::restructure_validated` over the 22
//! Table 1/2 workloads with one perturbation seed, one closed-loop
//! client on one thread. Table 1 uses the automatic 1991 pass set and
//! Table 2 the manually improved one.

use crate::checks;
use crate::metrics::{self, Outcome, PassMetrics, Rng, Setups};
use crate::stat;
use crate::trace::Tracer;
use crate::Args;
use cedar_ir::Program;
use cedar_restructure::PassConfig;
use cedar_sim::{FaultConfig, MachineConfig};
use cedar_verify::{Validated, ValidationConfig};
use cedar_workloads::Workload;
use std::time::Instant;

struct Item {
    w: Workload,
    cfg: PassConfig,
    program: Program,
}

/// The machine and validation settings every operation of a run shares.
struct Settings {
    mc: MachineConfig,
    vcfg: ValidationConfig,
}

/// What the independent checks established about one accepted program.
struct Checked {
    printed: String,
    speedup: f64,
}

/// The 22 workloads in a seed-shuffled order, compiled.
fn build(seed: u64) -> Vec<Item> {
    let mut items: Vec<Item> = cedar_workloads::table1_workloads()
        .into_iter()
        .map(|w| (w, PassConfig::automatic_1991()))
        .chain(
            cedar_workloads::table2_workloads()
                .into_iter()
                .map(|w| (w, PassConfig::manual_improved())),
        )
        .map(|(w, cfg)| {
            let program = w.compile();
            Item { w, cfg, program }
        })
        .collect();
    Rng::new(seed).shuffle(&mut items);
    items
}

/// Walk every loop of `body`, counting carried dependences.
fn count_deps(
    unit: &cedar_ir::Unit,
    body: &[cedar_ir::Stmt],
    summaries: &cedar_analysis::interproc::ProgramSummaries,
) -> usize {
    let mut n = 0;
    for s in body {
        match s {
            cedar_ir::Stmt::Loop(l) => {
                n += cedar_analysis::depend::analyze_loop(unit, l, Some(summaries))
                    .deps
                    .len();
                n += count_deps(unit, &l.body, summaries);
            }
            cedar_ir::Stmt::If {
                then_body,
                elifs,
                else_body,
                ..
            } => {
                n += count_deps(unit, then_body, summaries);
                for (_, b) in elifs {
                    n += count_deps(unit, b, summaries);
                }
                n += count_deps(unit, else_body, summaries);
            }
            cedar_ir::Stmt::DoWhile { body, .. } => n += count_deps(unit, body, summaries),
            _ => {}
        }
    }
    n
}

/// Dependence analysis over every loop of every unit.
pub fn analyze(program: &Program) -> usize {
    let summaries = cedar_analysis::interproc::summarize(program);
    program
        .units
        .iter()
        .map(|u| count_deps(u, &u.body, &summaries))
        .sum()
}

/// Re-run, layer by layer, the calls validation makes, and check the
/// accepted program against them: the unrestructured reference's
/// watched values, zero races, and (for the solvers) the residual.
/// With an enabled tracer every call is a span under `root`.
fn replica(
    tr: &Tracer,
    root: Option<usize>,
    req: u64,
    item: &Item,
    v: &Validated,
    settings: &Settings,
    pm: Option<&mut PassMetrics>,
) -> Result<Checked, String> {
    let (mc, vcfg) = (&settings.mc, &settings.vcfg);
    let ast = tr.span("f77.parse", root, req, || {
        cedar_f77::parse_source(&item.w.source)
    });
    let ast = ast.map_err(|e| format!("parse: {e}"))?;
    let lowered = tr.span("ir.lower", root, req, || cedar_ir::lower(&ast));
    let lowered = lowered.map_err(|e| format!("lower: {e}"))?;
    let deps = tr.span("analysis.depend", root, req, || analyze(&lowered));
    let rr = tr.span("core.restructure", root, req, || {
        cedar_restructure::restructure(&lowered, &item.cfg)
    });

    let watch: &[&str] = &item.w.watch;
    let reference = tr.span("sim.reference", root, req, || {
        cedar_sim::run(&item.program, mc.clone())
    });
    let reference = reference.map_err(|e| format!("reference run: {e}"))?;
    let ref_values = checks::snapshot(&reference, watch)?;

    let raced = tr.span("sim.race", root, req, || {
        cedar_sim::run_collecting_races(&v.program, mc.clone())
    });
    let raced = raced.map_err(|e| format!("race-collecting run: {e}"))?;
    if let Some(race) = raced.race_report().first() {
        return Err(format!("accepted program races: {race}"));
    }
    let got = checks::snapshot(&raced, watch)?;
    checks::same_values(&ref_values, &got, &[], vcfg.rel_tol)?;
    // A residual failure still lets the remaining layer calls run, so
    // traced passes time the same calls for every workload.
    let residual = checks::solver_residual(item.w.name, &raced).unwrap_or(Ok(0.0));

    let seeded = tr.span("sim.seed", root, req, || {
        cedar_sim::run_with_faults(&v.program, mc.clone(), FaultConfig::legal(vcfg.seeds[0]))
    });
    let seeded = seeded.map_err(|e| format!("perturbed run: {e}"))?;
    checks::same_values(
        &ref_values,
        &checks::snapshot(&seeded, watch)?,
        &[],
        vcfg.rel_tol,
    )?;

    let candidate = tr.span("sim.candidate", root, req, || {
        cedar_sim::run(&v.program, mc.clone())
    });
    let candidate = candidate.map_err(|e| format!("candidate run: {e}"))?;
    let serial = checks::timed_cycles(&reference);
    let parallel = checks::timed_cycles(&candidate);

    if let Some(pm) = pm {
        pm.add("analysis.deps", deps as f64);
        pm.add("core.parallel_loops", rr.report.parallelized() as f64);
        pm.add("sim.reference_ops", reference.stats.scalar_ops as f64);
        pm.add("sim.cycles_serial", serial);
        pm.add("sim.cycles_parallel", parallel);
        pm.add("verify.attempts", v.validation.attempts as f64);
        pm.add("verify.fallbacks", v.validation.fallbacks.len() as f64);
        pm.add(
            "verify.degraded",
            f64::from(u8::from(v.validation.degraded_to_serial)),
        );
    }
    residual?;
    Ok(Checked {
        printed: cedar_ir::print::print_program(&v.program),
        speedup: serial / parallel,
    })
}

pub fn run(args: &Args) -> Outcome {
    let mut setups = Setups::default();
    let warm_items = setups.run(|| build(args.seed));
    let settings = Settings {
        mc: MachineConfig::cedar_config1_scaled(),
        vcfg: ValidationConfig {
            seeds: vec![1 + args.seed % 8],
            ..ValidationConfig::default()
        },
    };
    let validate = |item: &Item| {
        cedar_verify::restructure_validated(
            &item.program,
            &item.cfg,
            &settings.mc,
            &item.w.watch,
            &settings.vcfg,
        )
    };

    cedar_par::with_jobs(1, || {
        let mut out = Outcome::default();
        let off = Tracer::off();

        // Warm-up pass: every accepted program is checked in full.
        let mut checked: Vec<Option<Checked>> = Vec::new();
        for (k, item) in warm_items.iter().enumerate() {
            out.attempted += 1;
            let result = validate(item)
                .map_err(|e| format!("validation: {e}"))
                .and_then(|v| replica(&off, None, k as u64, item, &v, &settings, None));
            match result {
                Ok(c) => checked.push(Some(c)),
                Err(e) => {
                    eprintln!("perfect22: {}: {e}", item.w.name);
                    out.failed += 1;
                    checked.push(None);
                }
            }
        }
        drop(warm_items);

        let tr = Tracer::new(args.trace);
        let mut pm = PassMetrics::default();
        let mut per_op: Vec<Vec<f64>> = vec![Vec::new(); checked.len()];
        let mut covered = Vec::new();
        // Traced runs re-check every operation with the replica in every
        // pass; only the traced passes record spans and layer metrics.
        let times = metrics::run_passes(args.seconds, args.trace, |traced| {
            let items = setups.run(|| build(args.seed));
            let pass_start = Instant::now();
            let t = if traced { &tr } else { &off };
            let mark = t.mark();
            if traced {
                pm.begin();
            }
            let mut validate_ms = 0.0;
            let mut replica_ms = 0.0;
            for (k, item) in items.iter().enumerate() {
                out.attempted += 1;
                let req = k as u64;
                let root = t.open("bench.op", None, req);
                let start = Instant::now();
                let v = t.span("verify.validate", root, req, || validate(item));
                let ms = start.elapsed().as_secs_f64() * 1e3;
                per_op[k].push(ms);
                validate_ms += ms;
                // An operation passes when validation returns the program
                // the warm-up pass checked in full (and, in traced runs,
                // the replica's checks hold again).
                let mut ok = match (&v, &checked[k]) {
                    (Ok(v), Some(c)) => {
                        let same = cedar_ir::print::print_program(&v.program) == c.printed;
                        if !same {
                            eprintln!(
                                "perfect22: {}: accepted program differs from the checked one",
                                item.w.name
                            );
                            out.inconsistent += 1;
                        }
                        same
                    }
                    _ => false,
                };
                if args.trace {
                    if let Ok(v) = &v {
                        let mark_op = t.mark();
                        let pm = if traced { Some(&mut pm) } else { None };
                        if let Err(e) = replica(t, root, req, item, v, &settings, pm) {
                            if checked[k].is_some() {
                                eprintln!("perfect22: {}: {e}", item.w.name);
                                out.inconsistent += 1;
                            }
                            ok = false;
                        }
                        let tot = t.totals(mark_op);
                        replica_ms += ["sim.reference", "sim.race", "sim.seed", "core.restructure"]
                            .iter()
                            .map(|n| tot.get(n).map_or(0.0, |x| x.0))
                            .sum::<f64>();
                    }
                    t.close(root);
                }
                if !ok {
                    out.failed += 1;
                }
            }
            if traced {
                covered.push(100.0 * replica_ms / validate_ms);
                pm.add_spans(
                    &tr,
                    mark,
                    &[
                        "f77.parse",
                        "ir.lower",
                        "analysis.depend",
                        "core.restructure",
                        "sim.reference",
                        "sim.race",
                        "sim.seed",
                        "sim.candidate",
                        "verify.validate",
                    ],
                );
            }
            pass_start.elapsed().as_secs_f64()
        });

        out.e2e.insert("setup_s", setups.median());
        out.e2e.insert("wall_s", stat::median(&times.untraced));
        // Each program's median time; the 95th percentile of 22 such
        // medians lies between the two slowest programs.
        let op_medians: Vec<f64> = per_op.iter().map(|xs| stat::median(xs)).collect();
        out.e2e
            .insert("latency_p50_ms", stat::quantile(&op_medians, 0.5));
        out.e2e
            .insert("latency_p95_ms", stat::quantile(&op_medians, 0.95));
        let speedups: Vec<f64> = checked.iter().flatten().map(|c| c.speedup).collect();
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
            layers.insert("trace.validate_coverage".into(), stat::median(&covered));
            layers.insert("trace.overhead_s".into(), times.overhead_s());
            layers.insert("trace.spans".into(), tr.mark() as f64);
            out.layers = layers;
            let path = metrics::out_dir().join(format!("trace-perfect22-seed{}.jsonl", args.seed));
            if let Err(e) = tr.write(&path) {
                eprintln!("perfect22: writing {}: {e}", path.display());
            }
        }
        out
    })
}
