"""Cross-check of the benchmark's own figures against the ROADMAP baseline.

Usage, from the root of a checkout:  python3 perfbench/baseline.py

Measures the rows of the ROADMAP's item-1 baseline table the way that table
was taken (best of a few runs, 2-CPU machine) and prints both side by side
with their ratio.  Neither side is adjusted; a ratio outside [0.8, 1.25] is
marked as a difference.  Takes about a minute, most of it the n=1024
Neumann solve.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# (row, n, seconds) as printed in ROADMAP.md, open item 1.
ROADMAP = [
    ("fft2", 256, 1.7e-3), ("fft2", 512, 6.7e-3), ("fft2", 1024, 31e-3),
    ("kabs:0.3 per iteration", 256, 6.8e-3), ("kabs:0.3 per iteration", 512, 33.6e-3),
    ("kabs:0.3 per iteration", 1024, 189e-3),
    ("neumann |a|+|b|=0.8", 256, 0.589), ("neumann |a|+|b|=0.8", 512, 3.1),
    ("neumann |a|+|b|=0.8", 1024, 16.4),
    ("changevar", 256, 25e-3), ("changevar", 512, 94e-3), ("changevar", 1024, 406e-3),
    ("import beltrami.cli", 0, 0.98),
    ("BFLD1 write", 512, 0.61), ("BFLD1 read", 512, 0.41),
    ("hodograph_check 256 points", 128, 126e-3),
]


def best(fn, reps: int) -> tuple[float, object]:
    times, out = [], None
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return min(times), out


def measure() -> dict[tuple[str, int], tuple[float, str]]:
    import numpy as np

    import beltrami as bt

    got: dict[tuple[str, int], tuple[float, str]] = {}
    A = bt.abs_map(0.3)
    p = bt.CCParams(0.5, 0.3j)
    for n in (256, 512, 1024):
        spec = bt.GridSpec(n)
        a = np.random.default_rng(n).standard_normal((n, n)) + 0j
        got[("fft2", n)] = (best(lambda: np.fft.fft2(a), 7)[0], "")
        h = bt.random_trig_field(spec, seed=4, amplitude=0.5)
        t, (_, rep) = best(lambda: bt.solve_autonomous(A, h, 1.0, tol=1e-10), 3 if n < 1024 else 2)
        per_iter = t / rep.iterations
        got[("kabs:0.3 per iteration", n)] = (
            per_iter, f"{rep.iterations} it, {per_iter / got[('fft2', n)][0]:.1f}x fft2")
        u = bt.random_trig_field(spec, seed=3)
        t, (_, rep) = best(lambda: bt.solve_cc_neumann(p, u, 1.0, tol=1e-10, max_iter=2000),
                           2 if n == 256 else 1)
        got[("neumann |a|+|b|=0.8", n)] = (t, f"{rep.iterations} it")
        got[("changevar", n)] = (best(lambda: bt.solve_cc_changevar(p, u, 1.0), 3)[0], "")

    imports = []
    for _ in range(3):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import beltrami.cli"], check=True,
                       env=dict(os.environ, PYTHONPATH=str(SRC)))
        imports.append(time.perf_counter() - t0)
    got[("import beltrami.cli", 0)] = (min(imports), "fresh process")

    spec = bt.GridSpec(512)
    f, _ = bt.solve_autonomous(A, bt.random_trig_field(spec, seed=4, amplitude=0.5), 1.0)
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        path = Path(tmp) / "field.bfld"
        got[("BFLD1 write", 512)] = (best(lambda: bt.write_field(f, path), 3)[0],
                                     f"{path.stat().st_size / 1e6:.1f} MB")
        got[("BFLD1 read", 512)] = (best(lambda: bt.read_field(path), 3)[0], "")

    spec = bt.GridSpec(128)
    h = bt.trig_field(spec, [(1, 0, 0.005), (0, 1, 0.005j), (1, 1, 0.003)])
    f, _ = bt.solve_autonomous(A, h, 1.0, tol=1e-12)
    got[("hodograph_check 256 points", 128)] = (
        best(lambda: bt.hodograph_check(f, A, 256, seed=12), 3)[0], "")
    return got


def main() -> int:
    if not (SRC / "beltrami" / "__init__.py").is_file():
        print(f"error: no beltrami sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    got = measure()
    print(f"{'row':28s} {'n':>5s} {'ROADMAP s':>11s} {'measured s':>11s} {'ratio':>6s}  note")
    ratios = []
    for row, n, ref in ROADMAP:
        value, note = got[(row, n)]
        ratio = value / ref
        ratios.append(ratio)
        flag = "" if 0.8 <= ratio <= 1.25 else "  DIFFERS"
        print(f"{row:28s} {n or '':>5} {ref:11.4g} {value:11.4g} {ratio:6.2f}  {note}{flag}")
    print(f"median ratio {statistics.median(ratios):.2f} over {len(ratios)} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
