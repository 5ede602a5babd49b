//! Output checks made apart from the program under test: residuals of
//! the Table 1 solvers recomputed in plain `f64` from the arrays the
//! accepted program leaves in its main program, and watched-value
//! comparisons against an unrestructured run.

use cedar_sim::Simulator;
use cedar_verify::Snapshot;

/// Largest relative residual a solver may leave. The workloads' systems
/// are well conditioned; a wrong transform leaves residuals of order 1.
const SOLVER_TOL: f64 = 1e-4;

fn read(sim: &Simulator, name: &str) -> Result<Vec<f64>, String> {
    sim.read_f64(name)
        .ok_or_else(|| format!("array `{name}` is not readable after the run"))
}

fn square(a: &[f64]) -> Result<usize, String> {
    let n = (a.len() as f64).sqrt().round() as usize;
    if n * n == a.len() && n > 0 {
        Ok(n)
    } else {
        Err(format!("matrix of {} elements is not square", a.len()))
    }
}

/// The diagonally dominant matrix the ludcmp, lubksb, gaussj and
/// mprove main programs build: `1 / (1 + 2|i-j|)`, plus `n` on the diagonal.
fn dominant(n: usize, i: usize, j: usize) -> f64 {
    let v = 1.0 / (1.0 + 2.0 * (i as f64 - j as f64).abs());
    if i == j {
        v + n as f64
    } else {
        v
    }
}

/// `max |r| / max |b|`.
fn relative(r: &[f64], b: &[f64]) -> f64 {
    let rmax = r.iter().fold(0.0f64, |m, x| m.max(x.abs()));
    let bmax = b.iter().fold(0.0f64, |m, x| m.max(x.abs()));
    rmax / bmax.max(f64::MIN_POSITIVE)
}

/// `A x - b` for a column-major `n × n` matrix given by `a(i, j)`.
fn residual(n: usize, a: impl Fn(usize, usize) -> f64, x: &[f64], b: &[f64]) -> Vec<f64> {
    (0..n)
        .map(|i| (0..n).map(|j| a(i, j) * x[j]).sum::<f64>() - b[i])
        .collect()
}

/// Relative residual of the solver workload `name` from the accepted
/// program's final memory, or `None` for workloads that are not one of
/// the checked solvers.
pub fn solver_residual(name: &str, sim: &Simulator) -> Option<Result<f64, String>> {
    let r = match name {
        "ludcmp" => ludcmp(sim),
        "lubksb" => lubksb(sim),
        "gaussj" => gaussj(sim),
        "mprove" => mprove(sim),
        "toeplz" => toeplz(sim),
        "tridag" => tridag(sim),
        _ => return None,
    };
    Some(r.and_then(|res| {
        if res.is_finite() && res <= SOLVER_TOL {
            Ok(res)
        } else {
            Err(format!(
                "{name}: relative residual {res:e} exceeds {SOLVER_TOL:e}"
            ))
        }
    }))
}

/// In-place LU without pivoting: `L U` must reproduce the matrix.
fn ludcmp(sim: &Simulator) -> Result<f64, String> {
    let a = read(sim, "a")?;
    let n = square(&a)?;
    let at = |i: usize, j: usize| a[i + j * n];
    let mut worst = 0.0f64;
    let mut scale = 0.0f64;
    for i in 0..n {
        for j in 0..n {
            // (L U)(i, j) with L unit lower triangular.
            let lu: f64 = (0..=i.min(j))
                .map(|k| {
                    if k == i {
                        at(k, j)
                    } else {
                        at(i, k) * at(k, j)
                    }
                })
                .sum();
            worst = worst.max((lu - dominant(n, i, j)).abs());
            scale = scale.max(dominant(n, i, j).abs());
        }
    }
    Ok(worst / scale)
}

/// Back-substitution through the factors stored in `a`: `L (U x) = b`.
fn lubksb(sim: &Simulator) -> Result<f64, String> {
    let a = read(sim, "a")?;
    let x = read(sim, "b")?;
    let n = square(&a)?;
    let at = |i: usize, j: usize| a[i + j * n];
    let b0: Vec<f64> = (1..=n).map(|i| 0.5 + 0.01 * i as f64).collect();
    let ux: Vec<f64> = (0..n)
        .map(|i| (i..n).map(|j| at(i, j) * x[j]).sum())
        .collect();
    let lux: Vec<f64> = (0..n)
        .map(|i| ux[i] + (0..i).map(|j| at(i, j) * ux[j]).sum::<f64>())
        .collect();
    let r: Vec<f64> = lux.iter().zip(&b0).map(|(l, b)| l - b).collect();
    Ok(relative(&r, &b0))
}

/// Gauss–Jordan: the returned right-hand side solves the original system.
fn gaussj(sim: &Simulator) -> Result<f64, String> {
    let x = read(sim, "b")?;
    let n = x.len();
    let b0: Vec<f64> = (1..=n).map(|i| 1.0 + 0.01 * i as f64).collect();
    Ok(relative(
        &residual(n, |i, j| dominant(n, i, j), &x, &b0),
        &b0,
    ))
}

/// Iterative improvement: the refined solution solves the system.
fn mprove(sim: &Simulator) -> Result<f64, String> {
    let x = read(sim, "x")?;
    let n = x.len();
    let b0: Vec<f64> = (1..=n).map(|i| 1.0 + 0.01 * i as f64).collect();
    Ok(relative(
        &residual(n, |i, j| dominant(n, i, j), &x, &b0),
        &b0,
    ))
}

/// Levinson recursion: `sum_j R(n + i - j) x_j = y_i` with the Toeplitz
/// coefficients the main program builds.
fn toeplz(sim: &Simulator) -> Result<f64, String> {
    let x = read(sim, "x")?;
    let n = x.len();
    let tr = |k: usize| {
        // k is the 1-based coefficient index into R(1..2n-1).
        let v = 1.0 / (1.0 + 0.3 * (k as f64 - n as f64).abs());
        if k == n {
            v + 4.0
        } else {
            v
        }
    };
    let y: Vec<f64> = (1..=n).map(|i| 1.0 + 0.01 * i as f64).collect();
    Ok(relative(&residual(n, |i, j| tr(n + i - j), &x, &y), &y))
}

/// Tridiagonal solve: the last call's right-hand side is recovered from
/// the main program's final update `r = (r + u) / 2`.
fn tridag(sim: &Simulator) -> Result<f64, String> {
    let (a, b, c) = (read(sim, "a")?, read(sim, "b")?, read(sim, "c")?);
    let (r, u) = (read(sim, "r")?, read(sim, "u")?);
    let n = u.len();
    let rhs: Vec<f64> = (0..n).map(|j| 2.0 * r[j] - u[j]).collect();
    let res: Vec<f64> = (0..n)
        .map(|j| {
            let mut s = b[j] * u[j] - rhs[j];
            if j > 0 {
                s += a[j] * u[j - 1];
            }
            if j + 1 < n {
                s += c[j] * u[j + 1];
            }
            s
        })
        .collect();
    Ok(relative(&res, &rhs))
}

/// Read the watched variables of a finished run.
pub fn snapshot(sim: &Simulator, watch: &[&str]) -> Result<Snapshot, String> {
    watch
        .iter()
        .map(|w| {
            sim.read_f64(w)
                .map(|v| (w.to_string(), v))
                .ok_or_else(|| format!("watched variable `{w}` is not readable"))
        })
        .collect()
}

/// Compare watched values: variables in `exact` must match bit for bit,
/// the rest within `rel_tol`.
pub fn same_values(
    reference: &Snapshot,
    got: &Snapshot,
    exact: &[&str],
    rel_tol: f64,
) -> Result<(), String> {
    let pick = |s: &Snapshot, want_exact: bool| -> Snapshot {
        s.iter()
            .filter(|(n, _)| exact.contains(&n.as_str()) == want_exact)
            .cloned()
            .collect()
    };
    if let Some(d) = cedar_verify::first_bit_diff(&pick(reference, true), &pick(got, true)) {
        return Err(format!("exact watched value differs: {d}"));
    }
    if let Some(d) = cedar_verify::first_diff(&pick(reference, false), &pick(got, false), rel_tol) {
        return Err(format!("watched value beyond rel tol {rel_tol:e}: {d}"));
    }
    Ok(())
}

/// Timed cycles of a run: the `TSTART`/`TSTOP` region when the program
/// has one (as Table 1 reports routine time), else the whole run.
pub fn timed_cycles(sim: &Simulator) -> f64 {
    if sim.stats.region_cycles > 0.0 {
        sim.stats.region_cycles
    } else {
        sim.cycles()
    }
}
