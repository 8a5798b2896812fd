"""Smoke check of the benchmark itself, at tiny grid sizes.

Usage, from the root of a checkout:  python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json untraced and traced with ``--smoke``
and checks that each run exits 0, passes its correctness checks and prints
exactly the metrics BENCHMARK.json lists, each with its unit.  Then copies
the benchmark alone (BENCHMARK.json and its paths, no sources) into a
temporary directory and checks that it refuses to run there: non-zero exit,
no result line.  Exits 1 on the first problem.  Takes about two minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def fail(msg: str) -> None:
    print(f"smoke: FAIL {msg}")
    sys.exit(1)


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    spec = json.loads((cwd / "BENCHMARK.json").read_text())
    cmd = [*spec["command"], "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, w["name"], trace)
            if proc.returncode != 0:
                fail(f"{w['name']} trace={trace} exit {proc.returncode}: {proc.stderr[-800:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                fail(f"{w['name']} trace={trace}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                fail(f"{w['name']} trace={trace}: {proc.stdout[-1500:]}")
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                fail(f"{w['name']} trace={trace}: metrics differ from BENCHMARK.json: "
                     f"missing {sorted(set(want) - set(got))}, "
                     f"extra {sorted(set(got) - set(want))}, "
                     f"units {[k for k in want if k in got and got[k] != want[k]]}")
            print(f"smoke: ok {w['name']} trace={trace} jobs={result['attempted']}")

    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=work))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in spec["paths"]:
            shutil.copytree(ROOT / p, bare / p,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
            fail(f"benchmark ran without sources: exit {proc.returncode}")
        print("smoke: ok refuses to run without sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            work.rmdir()  # only when no benchmark run is using it
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
