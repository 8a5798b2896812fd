"""Benchmark of the beltrami package: end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload solve|probe|cli|all --seed N \\
        --seconds S --trace 0|1 [--smoke]

The package is imported from ``src/`` of the checkout; without it the
benchmark exits with code 2 and prints no result.  Each run builds the
workload's inputs from the seed, runs its job mix in a closed loop with one
client (whole cycles, for about ``--seconds`` and at least the workload's
minimum number of cycles), checks every job's output and prints, as its last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the run first repeats the mix untraced, then traced, and the
metrics are the per-layer ones.  ``--smoke`` shrinks the grids and runs a
single cycle, so that ``smoke.py`` can run the whole script quickly.
``--workload all`` runs every workload untraced and traced, each in its own
process.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("solve", "probe", "cli")
CLI_COMMANDS = ("solve", "report", "coefficients", "hodograph", "verify-transform", "probe")
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny grids, for smoke.py")
    ap.add_argument("--setup-only", action="store_true",
                    help="build the workload, print 'ready' and exit (times set-up)")
    return ap.parse_args(argv)


# ------------------------------------------------------------ environment


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
            shared = (index / "shared_cpu_list").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            sizes[f"L{level}"] = {"size": size, "shared_cpu_list": shared}
    return sizes


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "nproc_available": len(os.sched_getaffinity(0)),
        "cpu_caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threadpoolctl": importlib.util.find_spec("threadpoolctl") is not None,
        "threads_env": {v: os.environ.get(v) for v in (
            "BELTRAMI_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS")},
        "git_commit": _git_commit(),
        "seed": seed,
    }


# ------------------------------------------------------------ set-up time


def time_setups(args) -> list[float]:
    """Seconds from process start to 'ready' for fresh set-up-only processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, cwd=ROOT)
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        _, stderr = proc.communicate(timeout=120)
        if first.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {stderr.strip()[-500:]}")
        samples.append(ready)
    return samples


# ------------------------------------------------------------ job loop


@dataclass
class Record:
    name: str
    wall: float
    cpu: float
    rss_mb: float | None
    error: str | None
    start: float


@dataclass
class Phase:
    records: list[Record]
    cycles: int
    wall: float


def run_job(wl, job, tracer, job_id: int) -> Record:
    if tracer is not None:
        tracer.job = job_id
    t0, c0 = time.perf_counter(), time.process_time()
    error = None
    try:
        out = job.run()
    except Exception as exc:  # a raising job is a failed job; the run goes on
        out, error = None, f"{type(exc).__name__}: {exc}"
    wall, cpu, rss = time.perf_counter() - t0, time.process_time() - c0, None
    if tracer is not None:
        tracer.job = None
    if wl.runner is not None and out is not None:  # a CLI process: its own figures
        wall, cpu, rss = out.wall, out.cpu, out.rss_mb
    if error is None:
        try:
            job.check(out)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
    return Record(job.name, wall, cpu, rss, error, t0)


def run_phase(wl, seconds: float, min_cycles: int, tracer=None) -> Phase:
    """Whole cycles until about `seconds` have passed and `min_cycles` have run."""
    records: list[Record] = []
    t_start = time.perf_counter()
    cycles = 0
    while True:
        for job in wl.jobs:
            records.append(run_job(wl, job, tracer, len(records)))
        cycles += 1
        elapsed = time.perf_counter() - t_start
        if cycles >= min_cycles and elapsed + 0.5 * elapsed / cycles >= seconds:
            return Phase(records, cycles, elapsed)


def nearest_rank(values, pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct / 100 * len(ordered))) - 1]


def end_to_end(wl, ph: Phase, setup: list[float]) -> tuple[dict, dict]:
    walls = [r.wall for r in ph.records]
    n = len(walls)
    completed = sum(r.error is None for r in ph.records)
    if wl.runner is None:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        rss = max((r.rss_mb for r in ph.records if r.rss_mb is not None), default=0.0)
    rank = max(1, math.ceil(wl.tail_pct / 100 * n))
    metrics = {
        "job_s.p50": statistics.median(walls),
        "job_s.tail": nearest_rank(walls, wl.tail_pct),
        "jobs_per_s": completed / ph.wall,
        "cpu_s_per_job": sum(r.cpu for r in ph.records) / n,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss,
    }
    by_name: dict[str, list[float]] = {}
    for r in ph.records:
        by_name.setdefault(r.name, []).append(r.wall)
    notes = {
        "job_s.tail": {"percentile": wl.tail_pct, "jobs": n, "jobs_beyond": n - rank},
        "job_s_median_by_name": {k: statistics.median(v) for k, v in by_name.items()},
        "fail_frac": (n - completed) / n,
        "cycles": ph.cycles,
        "run_wall_s": ph.wall,
        "setup_samples_s": setup,
    }
    return metrics, notes


# ------------------------------------------------------------ per-layer


def fft2_seconds(n: int, reps: int) -> float:
    import numpy as np

    a = np.random.default_rng(n).standard_normal((n, n)) + 0j
    np.fft.fft2(a)
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        np.fft.fft2(a)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def import_seconds() -> float:
    samples = []
    for _ in range(IMPORT_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import beltrami.cli"], check=True, cwd=ROOT)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def cli_command(job_name: str) -> str:
    return next(c for c in CLI_COMMANDS if job_name == c or job_name.startswith(c + "-"))


def per_layer(wl, plain: Phase, traced: Phase, tr) -> tuple[dict, dict]:
    import tracer as tracing

    m = tracing.layer_metrics(tr.spans, len(traced.records), traced.cycles)
    for n, reps in ((256, 51), (512, 21), (1024, 11)):
        fft = fft2_seconds(n, reps)
        m[f"operators.fft2_s.n{n}"] = fft
        m[f"fixedpoint.iter_per_fft2.n{n}"] = m[f"fixedpoint.iter_s.n{n}"] / fft

    # Import time is a yardstick like fft2, taken in every workload; the
    # per-command process times and the import share exist only for cli.
    m["cli.import_s"] = import_seconds()
    for c in CLI_COMMANDS:
        m[f"cli.{c}.s"] = 0.0
    m["cli.import_share"] = 0.0
    if wl.runner is not None:
        by_cmd: dict[str, list[float]] = {}
        for r in plain.records:
            by_cmd.setdefault(cli_command(r.name), []).append(r.wall)
        for c, walls in by_cmd.items():
            m[f"cli.{c}.s"] = statistics.median(walls)
        m["cli.import_share"] = m["cli.import_s"] / statistics.fmean(
            r.wall for r in plain.records)

    plain_mean = statistics.fmean(r.wall for r in plain.records)
    traced_mean = statistics.fmean(r.wall for r in traced.records)
    m["trace.overhead_frac"] = traced_mean / plain_mean - 1.0
    covered = sum(tracing.covered_seconds(tr.spans, i, r.start, r.start + r.wall)
                  for i, r in enumerate(traced.records))
    total = sum(r.wall for r in traced.records)
    m["trace.uncovered_frac"] = 1.0 - covered / total

    notes = {
        "untraced": {"jobs": len(plain.records), "cycles": plain.cycles,
                     "mean_job_s": plain_mean},
        "traced": {"jobs": len(traced.records), "cycles": traced.cycles,
                   "mean_job_s": traced_mean, "spans": len(tr.spans)},
    }
    return m, notes


# ------------------------------------------------------------ main


def run_all(args) -> int:
    code = 0
    for w in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            code = max(code, subprocess.run(cmd, cwd=ROOT).returncode)
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "beltrami" / "__init__.py").is_file():
        print(f"error: no beltrami sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Every child process (set-up timing, CLI jobs, import timing) imports
    # the same sources.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    if args.workload == "all":
        return run_all(args)
    # BENCHMARK.json names the metrics each kind of run prints, with units.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    setup = [] if args.setup_only or args.trace else time_setups(args)
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        import workloads

        wl = workloads.build(args.workload, args.seed, args.smoke, workdir)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        if args.trace:
            import tracer as tracing

            plain = run_phase(wl, args.seconds / 2, 1)
            tr = tracing.Tracer()
            if wl.runner is not None:
                wl.runner.tracer = tr
            else:
                tr.install()
            try:
                traced = run_phase(wl, args.seconds / 2, 1, tracer=tr)
            finally:
                tr.uninstall()
            values, notes = per_layer(wl, plain, traced, tr)
            records = plain.records + traced.records
        else:
            ph = run_phase(wl, args.seconds, 1 if args.smoke else wl.min_cycles)
            values, notes = end_to_end(wl, ph, setup)
            records = ph.records
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    failures = [f"{r.name}: {r.error}" for r in records if r.error]
    report = {
        "workload": args.workload, "trace": args.trace, "smoke": args.smoke,
        "environment": environment(args.seed), "notes": notes,
        "failures": failures[:20],
    }
    if wl.runner is not None:
        report["artifact_sha256"] = wl.runner.hashes
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"jobs={len(records)} failed={len(failures)}")
    for name, m in metrics.items():
        print(f"#   {name:48s} {m['value']:14.6g} {m['unit']}")
    if not args.trace:
        tail = notes["job_s.tail"]
        print(f"#   {'fail_frac':48s} {notes['fail_frac']:14.6g} ratio")
        print(f"#   job_s.tail is p{tail['percentile']} of {tail['jobs']} jobs "
              f"({tail['jobs_beyond']} beyond it)")
    for line in failures[:20]:
        print(f"# FAILED {line}")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
