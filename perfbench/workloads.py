"""The benchmark's three workloads: seeded inputs, job mixes and checks.

A workload is a fixed list of jobs run in order; one pass over the list is a
cycle.  Inputs come from the seed alone and are built during set-up, so
every cycle repeats the same jobs on the same inputs.  Each job returns its
output, and its check raises ``JobFailure`` when that output is wrong;
checks work from the returned fields and files, never from a solver's
report alone.

- ``solve``: in-process library solves at n = 256, 512 and 1024, where the
  fixed-point kernel and its FFTs do nearly all the work.
- ``probe``: in-process analysis on fields built during set-up, where the
  fixed-point kernel does none of the timed work.
- ``cli``: fresh ``beltrami`` processes in a solve -> read pipeline, where
  import, BFLD1 text I/O and CSV writing dominate.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import beltrami as bt
from beltrami.cli import parse_map

import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
TOL = 1e-10
# Recomputed residuals may exceed the solver's own by roundoff only.
RESIDUAL_SLACK = 1.5
CLI_TIMEOUT_S = 150.0


class JobFailure(Exception):
    """A job's output broke its correctness check."""


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    # Whole cycles every timed run makes at least.
    min_cycles: int
    runner: "CliRunner | None" = None

    @property
    def tail_pct(self) -> int:
        """Highest percentile with at least ten jobs beyond it in min_cycles."""
        return math.floor(100 * (1 - 10 / (self.min_cycles * len(self.jobs))))


def fail(cond: bool, msg: str) -> None:
    if not cond:
        raise JobFailure(msg)


def rel_l2(x: np.ndarray, y: np.ndarray) -> float:
    den = float(np.sqrt(np.mean(np.abs(y) ** 2)))
    return float(np.sqrt(np.mean(np.abs(x - y) ** 2))) / max(den, 1e-300)


def check_field(f: bt.GridField) -> None:
    fail(bool(np.all(np.isfinite(f.values.view(float)))), "non-finite field samples")
    fail(all(math.isfinite(v) for v in (f.c.real, f.c.imag, f.d.real, f.d.imag)),
         "non-finite affine part")


def check_solve(f, rep, residual: float, limit: float, k: float | None) -> None:
    check_field(f)
    fail(rep.converged, f"not converged after {rep.iterations} iterations")
    fail(residual <= limit * RESIDUAL_SLACK,
         f"recomputed residual {residual:.3e} above contract {limit:.3e}")
    if k is not None:
        fail(rep.contraction_ratio <= k + 0.02,
             f"contraction ratio {rep.contraction_ratio:.4f} above k+0.02 = {k + 0.02:.4f}")


def full_residual(H: bt.FullMap, f: bt.GridField) -> float:
    """||f_zbar - H(z, f, f_z)||_2 on the spectral derivative pair."""
    fz, fzb = bt.derivative_pair(f)
    r = fzb.values - H.eval(bt.z_grid(f.spec), f.total_values(), fz.values)
    return float(np.sqrt(np.mean(np.abs(r) ** 2)))


def phase(rng) -> complex:
    return complex(np.exp(2j * np.pi * rng.uniform()))


def full_map(rng, L: float) -> tuple[bt.FullMap, str]:
    """kabs:0.3 plus a position term and an unknown term, as in the CLI grammar."""
    amp = float(rng.uniform(0.3, 0.5))
    k1, k2 = (int(v) for v in rng.integers(1, 3, size=2))
    cw = 0.05 * phase(rng)
    spec = f"kabs:0.3+zterm:{amp!r},0,{k1},{k2}+wterm:{cw.real!r},{cw.imag!r}"
    return parse_map(spec, L), spec


# ---------------------------------------------------------------- solve


def solve_workload(seed: int, smoke: bool) -> Workload:
    size = {256: 32, 512: 32, 1024: 64} if smoke else {256: 256, 512: 512, 1024: 1024}
    rng = np.random.default_rng(seed)
    jobs: list[Job] = []

    def forcing(spec, rms=1.0, band=10):
        # Every mode of the band with a fixed 1/(1+|k|^2) spectrum and random
        # phases: some mode always sits near each operator's worst direction,
        # so iteration counts (and job times) hardly depend on the seed.
        waves = [(k1, k2, phase(rng) / (1 + k1 * k1 + k2 * k2))
                 for k1 in range(-band, band + 1) for k2 in range(-band, band + 1)
                 if (k1, k2) != (0, 0)]
        f = bt.trig_field(spec, waves)
        return f * (rms / bt.lp_norm(f, 2))

    for s, n in ((0.5, 256), (0.8, 256), (0.95, 256), (0.5, 512)):
        spec = bt.GridSpec(size[n])
        p = bt.CCParams(0.6 * s * phase(rng), 0.4 * s * phase(rng))
        u = forcing(spec)
        jobs.append(Job(f"neumann-{s}-n{n}", _neumann_run(p, u), _neumann_check(p, u)))

    for label, n in (("kabs0.3", 256), ("kabs0.9", 256), ("smoothsat", 256),
                     ("kabs0.3", 512), ("kabs0.3", 1024)):
        spec = bt.GridSpec(size[n])
        if label == "smoothsat":
            A = bt.smooth_saturating_map(0.3, 0.1, 0.2)
        else:
            A = bt.abs_map(float(label[4:]))
        h = forcing(spec, rms=0.5)
        jobs.append(Job(f"{label}-n{n}", _autonomous_run(A, h), _autonomous_check(A, h)))

    for n in (256, 512):
        spec = bt.GridSpec(size[n])
        H, _ = full_map(rng, spec.L)
        jobs.append(Job(f"full-n{n}", _full_run(H, spec), _full_check(H)))
    return Workload("solve", jobs, min_cycles=3)


def _neumann_run(p, u):
    def run():
        fa, ra = bt.solve_cc_neumann(p, u, 1.0, tol=TOL, max_iter=2000)
        fb, rb = bt.solve_cc_changevar(p, u, 1.0)
        return fa, ra, fb, rb
    return run


def _neumann_check(p, u):
    scale = max(1.0, bt.lp_norm(u, 2))

    def check(out):
        fa, ra, fb, rb = out
        k = abs(p.a) + abs(p.b)
        check_solve(fa, ra, bt.cc_residual(p, fa, u), TOL * scale, k)
        check_field(fb)
        res_b = bt.cc_residual(p, fb, u)
        fail(res_b <= 1e-8 * scale, f"changevar residual {res_b:.3e}")
        diff = rel_l2(fa.values, fb.values)
        fail(diff <= 1e-7, f"neumann and changevar differ by {diff:.2e} (rel l2)")
        fail(abs(fa.d - fb.d) <= 1e-7 * max(1.0, abs(fb.d)), "affine d differs")
    return check


def _autonomous_run(A, h):
    return lambda: bt.solve_autonomous(A, h, 1.0, tol=TOL, max_iter=2000)


def _autonomous_check(A, h):
    scale = max(1.0, bt.lp_norm(h, 2))

    def check(out):
        f, rep = out
        check_solve(f, rep, bt.residual(A, f, h), TOL * scale, A.k)
    return check


def _full_run(H, spec):
    return lambda: bt.solve_full(H, 1.0, tol=TOL, max_iter=200, spec=spec)


def _full_check(H):
    def check(out):
        f, rep = out
        check_solve(f, rep, full_residual(H, f), TOL, None)
    return check


# ---------------------------------------------------------------- probe

# p_critical read by the probe on the extremal ladders at p_step 0.2 when
# the benchmark was written: +0.4 above 2K/(K-1) for K=1.5, +0.2 for K=2, 3.
P_CRITICAL_OFFSET = {1.5: 0.4, 2.0: 0.2, 3.0: 0.2}
P_GRID = np.arange(2.0, 8.0 + 1e-9, 0.2)


def extremal_check(K: float, p_critical: float, tail_exponent: float) -> None:
    closed = 2.0 * K / (K - 1.0)
    fail(abs(p_critical - closed) <= P_CRITICAL_OFFSET[K] + 1e-9,
         f"p_critical {p_critical} vs closed form {closed} (K={K})")
    fail(abs(tail_exponent / closed - 1.0) <= 0.01,
         f"tail exponent {tail_exponent:.4f} vs closed form {closed} (K={K})")


def probe_workload(seed: int, smoke: bool) -> Workload:
    rng = np.random.default_rng(seed)
    k = 0.3
    A = bt.abs_map(k)
    n0 = 64 if smoke else 128
    waves = [(1, 0, 2e-3 * phase(rng)), (0, 1, 2e-3 * phase(rng)), (1, 1, 1e-3 * phase(rng))]
    ladder = []
    for lev in range(3):
        spec = bt.GridSpec(n0 * 2 ** lev)
        f, rep = bt.solve_autonomous(A, bt.trig_field(spec, waves), 1.0, tol=1e-12)
        if not rep.converged:
            raise RuntimeError(f"set-up ladder solve at n={spec.n} did not converge")
        ladder.append(f)
    top = ladder[-1]
    jobs: list[Job] = []

    for base in ((128,) if smoke else (128, 256)):
        for K in (1.5, 2.0, 3.0):
            jobs.append(Job(f"extremal-K{K}-{base}x3", _extremal_run(K, base),
                            lambda r, K=K: extremal_check(K, r.p_critical, r.tail_exponent)))

    q_grid = np.arange(1.2, 1 + 1 / k - 0.1 + 1e-9, 0.1)

    def second_order_check(r):
        # The stable/unstable verdicts are not gated: on this smooth ladder the
        # level-to-level increments sit at solve-tolerance noise (~1e-10 to
        # 1e-7 relative), above the probe's 1e-12 roundoff guard, so the
        # verdict varies with the forcing phases.  Gate what must hold.
        fail(r.grid_levels == tuple(g.spec.n for g in ladder), "ladder levels")
        norms = np.array(r.norms)
        fail(bool(np.all(np.isfinite(norms)) and np.all(norms > 0)), "non-finite norms")
        first_bad = r.stable.index(False) if False in r.stable else None
        expected = math.inf if first_bad is None else q_grid[max(first_bad - 1, 0)]
        fail(r.p_critical == expected, f"p_critical {r.p_critical} disagrees with the verdicts")
        drift = float(np.max(np.abs(np.diff(norms, axis=0)) / norms[1:]))
        fail(drift <= 1e-5, f"second-order norms drift {drift:.2e} across refinement")
    jobs.append(Job("second-order", lambda: bt.second_order_probe(ladder, k, q_grid),
                    second_order_check))

    def distortion_check(st):
        q50, q90, q99 = st.quantiles
        fail(all(math.isfinite(v) for v in (st.max, q50, q90, q99)), "non-finite distortion")
        fail(1.0 <= q50 <= q90 <= q99 <= st.max, f"distortion quantiles out of order: {st}")
        fail(0.0 <= st.degenerate_fraction < 1.0, "degenerate fraction out of range")
    jobs.append(Job("distortion-stats", lambda: bt.distortion_stats(top), distortion_check))

    def family_check(worst):
        fail(not math.isnan(worst) and (worst == 0.0 or worst >= 1.0),
             f"family distortion {worst}")
    jobs.append(Job("directional-family",
                    lambda: bt.directional_family_max_distortion(top), family_check))

    def coefficients_run():
        fx, fy = bt.directional_derivative_fields(top)
        co = bt.recover_coefficients(fx, fy, k)
        return co, bt.gradient_equation_check(top, co)

    def coefficients_check(out):
        co, gc = out
        fail(0.0 <= co.flagged_fraction <= 1.0, "flagged fraction out of range")
        for g in (co.mu, co.nu):
            check_field(g)
        fail(gc.residual <= 0.05, f"gradient equation residual {gc.residual:.3e}")
    jobs.append(Job("coefficients", coefficients_run, coefficients_check))

    points = 16 if smoke else 256
    hseed = int(rng.integers(1 << 30))

    def hodograph_check(r):
        fail(r.accepted + r.skipped == points and r.accepted > 0,
             f"hodograph accepted {r.accepted}, skipped {r.skipped}")
        fail(r.max_identity_residual <= 0.05,
             f"hodograph identity residual {r.max_identity_residual:.3e}")
        fail(r.max_derivative_ratio <= k + 0.02,
             f"hodograph derivative ratio {r.max_derivative_ratio:.4f}")
    jobs.append(Job("hodograph", lambda: bt.hodograph_check(ladder[0], A, points, seed=hseed),
                    hodograph_check))

    def resample_run():
        return bt.resample(bt.resample(top, 2 * top.spec.n), top.spec.n)

    def resample_check(g):
        err = float(np.max(np.abs(g.values - top.values)))
        fail(err <= 1e-12 * max(1.0, float(np.max(np.abs(top.values)))),
             f"resample up-then-down error {err:.3e}")
    jobs.append(Job("resample", resample_run, resample_check))

    zs = bt.zero_field(bt.GridSpec(64))
    sat = 0.05 * float(rng.uniform(0.5, 1.0))
    H_sat = bt.FullMap(
        eval=lambda z, w, zeta: 0.3 * zeta + sat * np.sin(np.real(z)) * zeta / (1.0 + np.abs(zeta)),
        k=0.3 + sat, structure=bt.FullStructure(0.3, 0, 0.0, sat, 0.0, zs))
    samples = 512 if smoke else 20000
    cseed = int(rng.integers(1 << 30))
    jobs.append(Job("check-conditions",
                    lambda: bt.check_conditions(H_sat, samples=samples, seed=cseed),
                    lambda r: fail(r.passes(k=H_sat.k), f"structural conditions fail: {r}")))

    wq = 0.1 * float(rng.uniform(0.5, 1.5))
    H_quad = bt.FullMap(eval=lambda z, w, zeta: 0.3 * zeta + wq * w ** 2, k=0.3)
    fseed = int(rng.integers(1 << 30))
    fit_samples = 256 if smoke else 4096

    def fit_run():
        zb, wb = bt.fit_bound_constants(H_quad, alpha=0.99, samples=fit_samples,
                                        a=0.3, b=0.0, seed=fseed)
        fitted = bt.FullMap(eval=H_quad.eval, k=0.3,
                            structure=bt.FullStructure(0.3, 0, 0.99, zb, wb, zs))
        return zb, wb, bt.check_conditions(fitted, samples=fit_samples, seed=fseed)

    def fit_check(out):
        zb, wb, rep = out
        fail(math.isfinite(zb) and math.isfinite(wb) and zb >= 0 and wb >= 0,
             f"bound constants {zb}, {wb}")
        fail(rep.bound_excess is not None and rep.bound_excess <= 1e-9,
             f"fitted envelope exceeded by {rep.bound_excess}")
    jobs.append(Job("fit-bound-constants", fit_run, fit_check))
    return Workload("probe", jobs, min_cycles=4)


def _extremal_run(K, base):
    def run():
        fields, pairs = [], []
        for lev in range(3):
            g, gz, gzb = bt.radial_extremal_pair(bt.GridSpec(base * 2 ** lev), K)
            fields.append(g)
            pairs.append((gz, gzb))
        return bt.sobolev_probe(fields, P_GRID, pairs=pairs)
    return run


# ---------------------------------------------------------------- cli

ARTIFACTS = {"solve": ("solution.bfld", "report.csv", "summary.csv", "fz_heatmap.pgm"),
             "probe": ("regularity.csv",)}


@dataclass
class ProcResult:
    code: int
    wall: float
    cpu: float
    rss_mb: float
    out: Path
    stderr: str


class CliRunner:
    """Starts one fresh ``beltrami`` process per job and waits for it.

    With a tracer set, the process is the traced child interpreter, and its
    spans are added to the tracer under the tracer's current job.
    """

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.tracer: tracing.Tracer | None = None
        self.hashes: dict[str, dict[str, str]] = {}

    def run(self, config: str, argv: list[str]) -> ProcResult:
        out = self.workdir / config
        out.mkdir(parents=True, exist_ok=True)
        argv = argv + ["--out", str(out)]
        spans_path = out / "spans.json"
        if self.tracer is not None:
            cmd = [sys.executable, str(Path(__file__).with_name("cli_child.py")),
                   str(spans_path), *argv]
        else:
            cmd = [sys.executable, "-m", "beltrami.cli", *argv]
        with open(out / "stdout.txt", "w") as so, open(out / "stderr.txt", "w+") as se:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=so, stderr=se, cwd=ROOT)
            timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
            # reaped by wait4 (for its rusage), so Popen must not wait again
            proc.returncode = code = os.waitstatus_to_exitcode(status)
            se.seek(0)
            stderr = se.read()
        if self.tracer is not None and spans_path.exists():
            self._merge_spans(json.loads(spans_path.read_text()))
            spans_path.unlink()
        return ProcResult(code, wall, usage.ru_utime + usage.ru_stime,
                          usage.ru_maxrss / 1024.0, out, stderr)

    def _merge_spans(self, spans) -> None:
        base = len(self.tracer.spans)
        for s in spans:
            if s[tracing.PARENT] is not None:
                s[tracing.PARENT] += base
            s[tracing.JOB] = self.tracer.job
        self.tracer.spans.extend(spans)

    def record_hashes(self, config: str, kind: str, out: Path) -> None:
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ARTIFACTS[kind]}
        first = self.hashes.setdefault(config, digests)
        fail(first == digests, f"{config}: artifacts differ from an earlier repeat")


def read_csv(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines()]


def cli_workload(seed: int, smoke: bool, workdir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    runner = CliRunner(workdir)
    n_small, n_large = (64, 64) if smoke else (256, 512)
    L = 2.0 * math.pi
    jobs: list[Job] = []
    verified: set[str] = set()

    def trig(amplitude):
        waves = [(1, 0), (0, 1), (1, 1), (2, -1)]
        coeffs = [amplitude * phase(rng) for _ in waves]
        arg = "trig:" + "+".join(f"{c.real!r},{c.imag!r},{k1},{k2}"
                                 for c, (k1, k2) in zip(coeffs, waves))
        return arg, [(k1, k2, c) for c, (k1, k2) in zip(coeffs, waves)]

    def proc_check(expected_code: int, res: ProcResult) -> None:
        fail(res.code == expected_code,
             f"exit code {res.code}, expected {expected_code}: {res.stderr.strip()[-300:]}")

    def solve_job(config, argv, residual_of):
        """A solve job: exit code 0, artifacts repeatable, field meets its contract."""
        def check(res):
            proc_check(0, res)
            runner.record_hashes(config, "solve", res.out)
            digest = runner.hashes[config]["solution.bfld"]
            if digest in verified:  # same bytes as a file already checked
                return
            f = bt.read_field(res.out / "solution.bfld")  # rejects non-finite samples
            summary = read_csv(res.out / "summary.csv")
            fail(summary[1][3] == "true", f"summary reports no convergence: {summary[1]}")
            residual, limit = residual_of(f)
            fail(residual <= limit * RESIDUAL_SLACK,
                 f"recomputed residual {residual:.3e} above contract {limit:.3e}")
            verified.add(digest)
        return Job(config, lambda: runner.run(config, ["solve", *argv]), check)

    # autonomous modulus map at n_small; its file feeds coefficients and hodograph
    h_arg, h_waves = trig(0.004)  # small, as the hodograph identity is for h = 0
    A = bt.abs_map(0.3)
    kabs_file = workdir / "solve-kabs" / "solution.bfld"

    def kabs_residual(f):
        h = bt.trig_field(f.spec, h_waves)
        return bt.residual(A, f, h), TOL * max(1.0, bt.lp_norm(h, 2))
    jobs.append(solve_job("solve-kabs", ["--map", "kabs:0.3", "--grid", str(n_small),
                                         "--h", h_arg, "--seed", str(seed)], kabs_residual))

    def coefficients_check(res):
        proc_check(0, res)
        summary = read_csv(res.out / "coefficients_summary.csv")[1]
        flagged, _, grad_res, _ = (float(v) for v in summary)
        fail(0.0 <= flagged <= 1.0, f"flagged fraction {flagged}")
        fail(grad_res <= 0.05, f"gradient equation residual {grad_res:.3e}")
        rows = (res.out / "coefficients.csv").read_text().count("\n")
        fail(rows == n_small * n_small + 1, f"coefficients.csv has {rows} lines")
    jobs.append(Job("coefficients", lambda: runner.run(
        "coefficients", ["coefficients", "--field", str(kabs_file), "--k", "0.3",
                         "--seed", str(seed)]), coefficients_check))

    points = 16 if smoke else 256

    def hodograph_check(res):
        proc_check(0, res)
        worst, ratio, accepted, skipped = read_csv(res.out / "hodograph.csv")[1]
        fail(int(accepted) + int(skipped) == points and int(accepted) > 0,
             f"hodograph accepted {accepted}, skipped {skipped}")
        fail(float(worst) <= 0.05, f"hodograph identity residual {worst}")
        fail(float(ratio) <= 0.3 + 0.02, f"hodograph derivative ratio {ratio}")
    jobs.append(Job("hodograph", lambda: runner.run(
        "hodograph", ["hodograph", "--field", str(kabs_file), "--map", "kabs:0.3",
                      "--points", str(points), "--seed", str(seed)]), hodograph_check))

    # linear map through the change of variables at n_large; its file feeds report
    a, b = 0.5 * phase(rng), 0.3 * phase(rng)
    p = bt.CCParams(a, b)
    u_arg, u_waves = trig(0.5)
    linear = f"linear:{a.real!r},{a.imag!r},{b.real!r},{b.imag!r}"

    def linear_residual(f):
        u = bt.trig_field(f.spec, u_waves)
        return bt.cc_residual(p, f, u), 1e-8 * max(1.0, bt.lp_norm(u, 2))
    jobs.append(solve_job("solve-changevar", ["--map", linear, "--solver", "changevar",
                                              "--grid", str(n_large), "--h", u_arg,
                                              "--seed", str(seed)], linear_residual))

    def report_check(res):
        proc_check(0, res)
        mx, q50, q90, q99, degenerate = (float(v) for v in
                                         read_csv(res.out / "distortion.csv")[1])
        fail(1.0 <= q50 <= q90 <= q99 <= mx < math.inf, "distortion quantiles out of order")
        fail(0.0 <= degenerate < 1.0, f"degenerate fraction {degenerate}")
        norms = [[float(v) for v in row] for row in read_csv(res.out / "norms.csv")[1:]]
        fail(len(norms) == 4 and all(math.isfinite(v) and v >= 0 for r in norms for v in r),
             "norms.csv malformed")
    changevar_file = workdir / "solve-changevar" / "solution.bfld"
    jobs.append(Job("report", lambda: runner.run(
        "report", ["report", "--field", str(changevar_file), "--seed", str(seed)]),
        report_check))

    H, full_spec = full_map(rng, L)
    jobs.append(solve_job("solve-full", ["--map", full_spec, "--grid", str(n_small),
                                         "--seed", str(seed)],
                          lambda f: (full_residual(H, f), TOL)))

    # verify-transform exits 2 by design whenever the a*b form does not hold
    ta, tb = 0.4 * phase(rng), 0.3 * phase(rng)
    tp = bt.CCParams(ta, tb)
    expected = 0 if bt.verify_transform(tp, bt.compute_mu_nu(tp), trials=8, seed=seed) <= 1e-8 else 2

    def transform_check(res):
        proc_check(expected, res)
        row = read_csv(res.out / "transform.csv")[1]
        fail(float(row[6]) <= 1e-9, f"exact reduction residual {row[6]}")
    jobs.append(Job("verify-transform", lambda: runner.run(
        "verify-transform", ["verify-transform", f"--a={ta.real!r},{ta.imag!r}",
                             f"--b={tb.real!r},{tb.imag!r}", "--seed", str(seed)]),
        transform_check))

    def probe_check(res):
        proc_check(0, res)
        runner.record_hashes("probe", "probe", res.out)
        summary = read_csv(res.out / "regularity.csv")[-1]
        fail(summary[0] == "summary", "regularity.csv lacks its summary row")
        extremal_check(2.0, float(summary[1]), float(summary[3]))
    jobs.append(Job("probe", lambda: runner.run(
        "probe", ["probe", "--extremal", "2", "--grid", "128", "--levels", "3",
                  "--seed", str(seed)]), probe_check))

    return Workload("cli", jobs, min_cycles=3, runner=runner)


def build(name: str, seed: int, smoke: bool, workdir: Path) -> Workload:
    if name == "solve":
        return solve_workload(seed, smoke)
    if name == "probe":
        return probe_workload(seed, smoke)
    if name == "cli":
        return cli_workload(seed, smoke, workdir)
    raise ValueError(f"unknown workload {name!r}")
