//! The service leg of `fuzz_seeds` passes in traced runs: every tenth
//! program of the pass goes to an in-process `cedar-serve` over loopback
//! (two workers, a fresh result store and cold engine caches per pass),
//! once as a first sight and once as a repeat, so the `serve` and
//! `store` layers are timed on the same generated programs.

use crate::checks;
use crate::metrics::PassMetrics;
use crate::stat;
use crate::trace::Tracer;
use cedar_fuzz::Rendered;
use cedar_restructure::{BackendKind, PassConfig};
use cedar_serve::{EngineConfig, Json, ServeRequest, Server, ServerConfig};
use cedar_sim::MachineConfig;
use cedar_verify::ValidationConfig;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// One program in `EVERY` of a pass is served.
pub const EVERY: usize = 10;
const WORKERS: usize = 2;
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// One program's request: every third one validated, backends rotating.
pub struct Request {
    body: String,
    source: String,
    watch: Vec<String>,
    exact: Vec<String>,
    validate: bool,
}

pub fn request(n: usize, r: &Rendered) -> Request {
    let mut req = ServeRequest::new(r.source.clone());
    req.watch = r.watch.iter().map(|w| w.name.clone()).collect();
    req.validate = n.is_multiple_of(3);
    req.backend = BackendKind::all()[(n / 3) % 3];
    Request {
        body: req.to_json(),
        source: r.source.clone(),
        watch: req.watch.clone(),
        exact: r
            .watch
            .iter()
            .filter(|w| w.exact)
            .map(|w| w.name.clone())
            .collect(),
        validate: req.validate,
    }
}

fn field<'a>(v: &'a Json, path: &[&str]) -> Option<&'a Json> {
    path.iter().try_fold(v, |v, k| v.get(k))
}

/// A first sight's `restructured` source re-parses and simulates to the
/// watched values of the unrestructured program.
fn check_first(req: &Request, body: &str) -> Result<(), String> {
    let v = Json::parse(body).map_err(|e| format!("response is not JSON: {e}"))?;
    let text = field(&v, &["restructured"])
        .and_then(Json::as_str)
        .ok_or("no `restructured`")?;
    let mc = MachineConfig::cedar_config1_scaled();
    let watch: Vec<&str> = req.watch.iter().map(String::as_str).collect();
    let exact: Vec<&str> = req.exact.iter().map(String::as_str).collect();
    let original = cedar_ir::compile_free(&req.source).map_err(|e| format!("source: {e}"))?;
    let reference = cedar_sim::run(&original, mc.clone()).map_err(|e| format!("reference: {e}"))?;
    let emitted =
        cedar_ir::compile_source(text).map_err(|e| format!("response does not re-parse: {e}"))?;
    let got =
        cedar_sim::run(&emitted, mc).map_err(|e| format!("response does not simulate: {e}"))?;
    checks::same_values(
        &checks::snapshot(&reference, &watch)?,
        &checks::snapshot(&got, &watch)?,
        &exact,
        1e-3,
    )
}

/// Removes a scratch directory when dropped.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Replay the first-sight bodies through a fresh store: put each, then
/// get each. Returns per-operation medians (ms) and the stored bytes.
fn replay_store(
    dir: &Path,
    bodies: &[(u64, &str)],
    tr: &Tracer,
) -> Result<(f64, f64, f64), String> {
    let store = cedar_store::Store::open(dir).map_err(|e| format!("replay store: {e}"))?;
    let (mut puts, mut gets) = (Vec::new(), Vec::new());
    for (key, body) in bodies {
        let t = Instant::now();
        tr.span("store.put", None, *key, || store.put(*key, body.as_bytes()))
            .map_err(|e| format!("replay put: {e}"))?;
        puts.push(t.elapsed().as_secs_f64() * 1e3);
    }
    for (key, body) in bodies {
        let t = Instant::now();
        let got = tr.span("store.get", None, *key, || store.get(*key));
        gets.push(t.elapsed().as_secs_f64() * 1e3);
        if got.as_deref() != Some(body.as_bytes()) {
            return Err("replay get returned a different body".into());
        }
    }
    Ok((
        stat::median(&gets),
        stat::median(&puts),
        store.total_bytes() as f64,
    ))
}

fn med(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        stat::median(xs)
    }
}

/// Serve `reqs` (first sight, then repeat, one closed-loop client) from
/// a server on a fresh store under `dir` and cold engine caches, check every response, and add
/// the pass's serve and store metrics. Returns the failed requests.
pub fn run_pass(dir: &Path, reqs: &[Request], tr: &Tracer, pm: &mut PassMetrics) -> u64 {
    // The engine also memoizes simulations and restructurings process
    // wide; clearing them makes every first sight a real one.
    cedar_experiments::cache::clear();
    let scratch = Scratch(dir.to_path_buf());
    let _ = std::fs::remove_dir_all(&scratch.0);
    let cfg = ServerConfig {
        workers: WORKERS,
        store_dir: Some(scratch.0.join("store")),
        ..ServerConfig::default()
    };
    let server = match Server::start(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve leg: server start: {e}");
            return 2 * reqs.len() as u64;
        }
    };
    let addr = server.addr();
    let post = |i: usize, body: &str| {
        let t = Instant::now();
        let out = cedar_serve::http::post(&addr, "/restructure", body, IO_TIMEOUT)
            .unwrap_or_else(|e| (0, e));
        tr.record("serve.client", None, i as u64, t, Instant::now());
        (out, t.elapsed().as_secs_f64() * 1e3)
    };
    let mut failed = 0;
    let (mut first_ms, mut repeat_ms) = (Vec::new(), Vec::new());
    let (mut client, mut engine, mut queue) = (Vec::new(), Vec::new(), Vec::new());
    let mut bodies = Vec::new();
    let mut validated = Vec::new();
    for (i, req) in reqs.iter().enumerate() {
        let ((s1, b1), ms1) = post(i, &req.body);
        let ((s2, b2), ms2) = post(i, &req.body);
        first_ms.push(ms1);
        repeat_ms.push(ms2);
        let verdict = if s1 != 200 || s2 != 200 {
            Err(format!(
                "status {s1}/{s2}: {}",
                b1.chars().take(200).collect::<String>()
            ))
        } else if b2 != b1 {
            Err("repeated request returned a different body".to_string())
        } else {
            check_first(req, &b1)
        };
        if let Err(e) = verdict {
            eprintln!("serve leg: {e}");
            failed += 1;
            continue;
        }
        if req.validate {
            let duration = Json::parse(&b1)
                .ok()
                .and_then(|v| field(&v, &["service", "duration_ms"]).and_then(Json::as_f64));
            if let Some(d) = duration {
                client.push(ms1);
                engine.push(d);
                queue.push(ms1 - d);
                validated.push(i);
            }
        }
        bodies.push((i as u64, b1));
    }
    if let Ok((200, body)) = cedar_serve::http::get(&addr, "/metrics", IO_TIMEOUT) {
        if let Ok(v) = Json::parse(&body) {
            let num = |path: &[&str]| field(&v, path).and_then(Json::as_f64).unwrap_or(0.0);
            pm.add("serve.coalesced", num(&["coalesced"]));
            pm.add("serve.shed", num(&["shed"]));
            pm.add("serve.store_hits", num(&["store", "hits"]));
            pm.add("serve.store_misses", num(&["store", "misses"]));
        }
    }
    server.shutdown();

    // The engine against a direct validation of the same programs.
    let vcfg = ValidationConfig {
        seeds: EngineConfig::default().validate_seeds,
        ..ValidationConfig::default()
    };
    let mc = MachineConfig::cedar_config1_scaled();
    let mut direct = Vec::new();
    for &i in &validated {
        let Ok(program) = cedar_ir::compile_free(&reqs[i].source) else {
            continue;
        };
        let watch: Vec<&str> = reqs[i].watch.iter().map(String::as_str).collect();
        let t = Instant::now();
        let v = tr.span("verify.validate", None, i as u64, || {
            cedar_verify::restructure_validated(
                &program,
                &PassConfig::automatic_1991(),
                &mc,
                &watch,
                &vcfg,
            )
        });
        if v.is_ok() {
            direct.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    pm.add("serve.first_ms", med(&first_ms));
    pm.add("serve.repeat_ms", med(&repeat_ms));
    pm.add("serve.client_ms", med(&client));
    pm.add("serve.engine_ms", med(&engine));
    pm.add("serve.http_queue_ms", med(&queue));
    pm.add("serve.validate_direct_ms", med(&direct));

    let refs: Vec<(u64, &str)> = bodies.iter().map(|(k, b)| (*k, b.as_str())).collect();
    match replay_store(&scratch.0.join("replay"), &refs, tr) {
        Ok((get, put, bytes)) => {
            pm.add("store.get_ms", get);
            pm.add("store.put_ms", put);
            pm.add("store.bytes", bytes);
        }
        Err(e) => {
            eprintln!("serve leg: {e}");
            failed += 1;
        }
    }
    failed
}
