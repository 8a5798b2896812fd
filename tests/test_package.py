"""The package's public surface: every exported name resolves, the
README's library quick start runs as written, perfbench's calls bind, and a
fresh import starts no thread and loads no test or reference module."""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import beltrami
from beltrami.cli import parse_map
from beltrami.operators import _beurling_half, _Half
from _helpers import traced_peak

README = Path(__file__).resolve().parents[1] / "README.md"
LIBRARY_MODULES = ["grid", "operators", "fixedpoint", "constant_coefficient",
                   "autonomous", "fullnonlinear", "analysis", "synth"]


@pytest.mark.parametrize("name", LIBRARY_MODULES)
def test_all_entries_resolve(name):
    # perfbench's tracer resolves each entry with getattr when it installs
    module = importlib.import_module(f"beltrami.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"beltrami.{name}.__all__ names missing attributes: {missing}"


def test_package_imports_are_exported():
    tree = ast.parse(Path(beltrami.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert {node.module for node in imports} == set(LIBRARY_MODULES)
    for node in imports:
        exported = importlib.import_module(f"beltrami.{node.module}").__all__
        stray = [a.name for a in node.names if a.name not in exported]
        assert not stray, f"beltrami imports {stray} from {node.module} outside its __all__"


# A fresh interpreter's threads before and after `import beltrami.cli`,
# whether os.environ came through it unchanged, OPENBLAS_NUM_THREADS after
# it, and which of the modules beltrami must not load are loaded.
STARTUP_PROBE = """
import json, os, sys
threads = lambda: len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
if sys.argv[1] == "numpy-first":
    import numpy
before, first = dict(os.environ), threads()
import beltrami.cli
print(json.dumps({"threads": [first, threads()], "environ_kept": dict(os.environ) == before,
                  "variable": os.environ.get("OPENBLAS_NUM_THREADS"),
                  "loaded": [m for m in ("scipy", "hypothesis", "pytest") if m in sys.modules]}))
"""

needs_task_dir = pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                                    reason="threads are counted in /proc/self/task")


def fresh_import(openblas_threads=None, numpy_first=False):
    """STARTUP_PROBE's reading in a fresh interpreter whose environment has
    OPENBLAS_NUM_THREADS set to openblas_threads, or removed for None, and
    none of the variables OpenBLAS falls back on."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    src = str(Path(beltrami.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", STARTUP_PROBE,
                           "numpy-first" if numpy_first else "beltrami-first"],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout)


@needs_task_dir
def test_import_starts_no_blas_pool_and_keeps_the_environment():
    # numpy loads under OPENBLAS_NUM_THREADS=1, which is gone afterwards
    got = fresh_import()
    assert got["threads"] == [1, 1]
    assert got["environ_kept"] and got["variable"] is None


@needs_task_dir
def test_callers_openblas_threads_win():
    got = fresh_import("2")
    assert got["environ_kept"] and got["variable"] == "2"
    if len(os.sched_getaffinity(0)) >= 2:
        assert got["threads"][1] == 2


@needs_task_dir
def test_numpy_imported_first_is_left_alone():
    got = fresh_import(numpy_first=True)
    assert got["environ_kept"] and got["variable"] is None
    assert got["threads"][0] == got["threads"][1]
    if len(os.sched_getaffinity(0)) >= 2:
        # numpy's own pool, one thread per CPU
        assert got["threads"][0] > 1


def test_cli_import_loads_no_scipy_or_test_modules():
    # numpy is the only runtime dependency, and each module more is paid
    # for by every beltrami process
    assert fresh_import()["loaded"] == []


def test_one_linear_part_type():
    # the constant-coefficient solvers and AutonomousMap.linf share one type
    assert beltrami.CCParams is beltrami.autonomous.CCParams
    assert beltrami.constant_coefficient.CCParams is beltrami.autonomous.CCParams


def test_readme_quick_start_runs(capsys):
    section = README.read_text().split("## Library quick start\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, str(README), "exec"), {})
    iterations, ratio = capsys.readouterr().out.split()
    assert int(iterations) >= 1 and float(ratio) <= 0.3


def test_only_the_kernel_symbols_are_cached():
    # a per-grid cache of n x n arrays outlives every call; only the
    # multiplier the fixed-point kernel reads in every step, the beurling
    # symbol, is kept so
    cached = []
    for path in sorted(Path(beltrami.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = getattr(target, "attr", getattr(target, "id", None))
                if name in ("lru_cache", "cache"):
                    cached.append(f"{path.stem}.{node.name}")
    assert cached == ["operators._beurling_half"]


CENSUS_CALLS = {
    "full": lambda h: beltrami.solve_full(parse_map("kabs:0.3+wterm:0.05,0", h.spec.L), 1.0,
                                          spec=h.spec, h=h)[0],
    "kabs": lambda h: beltrami.solve_autonomous(beltrami.abs_map(0.3), h, 1.0)[0],
    "antiderivative_zbar": beltrami.antiderivative_zbar,
}


@pytest.mark.parametrize("call", CENSUS_CALLS)
def test_a_fresh_grid_caches_only_the_beurling_half(call):
    # On a grid of its own, a solve caches one per-grid symbol, the beurling
    # half, and keeps nothing else besides its answer; 1/dzbar is built
    # block by block as it is applied.  antiderivative_zbar reads
    # no beurling symbol and caches nothing.  A first call on another grid
    # takes numpy's own first-use allocations.
    index = list(CENSUS_CALLS).index(call)
    CENSUS_CALLS[call](beltrami.random_trig_field(beltrami.GridSpec(32, L=40.5 + index), seed=3))
    spec = beltrami.GridSpec(32, L=40.0 + index)
    h = beltrami.random_trig_field(spec, seed=3)
    misses = _beurling_half.cache_info().misses
    out, _, kept = traced_peak(CENSUS_CALLS[call], h)
    cached = _beurling_half.cache_info().misses - misses
    assert cached == (call != "antiderivative_zbar")
    beur = _beurling_half(spec.n, spec.L)
    assert _beurling_half.cache_info().misses - misses == 1
    half = cached * (beur.top.nbytes + beur.col.nbytes)
    assert 0 <= kept - out.values.nbytes - half < out.values.nbytes / 8


def _call_sites(name, where=lambda call: True):
    """module.function of every call to name, as a function or a method, in
    src/, whose ast.Call node where() accepts."""
    sites = []
    for path in sorted(Path(beltrami.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        funcs = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and name in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)) \
                    and where(node):
                owner = [f.name for f in funcs if f.lineno <= node.lineno <= f.end_lineno]
                sites.append(".".join([path.stem] + owner))
    return sorted(sites)


def test_only_grid_locks_fresh_arrays():
    # a fresh array reaches a GridField through grid._adopt, the one place
    # that locks it; the kernel's cached symbols lock their own
    lockers = {"grid" if s.split(".")[0] == "grid" else s for s in _call_sites("setflags")}
    assert lockers == {"grid", "operators._beurling_half"}


def test_grid_fields_built_in_one_place():
    # every fresh array, read_field's included, reaches a GridField through
    # grid._adopt
    assert _call_sites("GridField") == ["grid._adopt"]


def test_only_the_step_multipliers_are_kept_on_half_the_spectrum():
    # a _Half holds an even multiplier that the kernel's step reads: the
    # beurling symbol and T^-1's two multipliers; every other symbol is
    # built block by block as it is applied
    assert _Half._fields == ("top", "col")
    assert set(_call_sites("_Half")) == {"fixedpoint._linear_inverse",
                                         "operators._beurling_half"}


def test_transforms_write_into_out():
    # numpy's fftn allocates a new array for each axis pass unless fft2 is
    # given out=, and numpy 2.4's ifft2 ignores out=: every fft2 writes
    # into an array of its caller's, in place in the kernel and fresh
    # elsewhere, and every 2-D inverse is an ifftn
    assert _call_sites("fft2", lambda call: all(k.arg != "out" for k in call.keywords)) == []
    assert _call_sites("fft2")
    assert _call_sites("ifft2") == []


def test_perfbench_calls_bind():
    # perfbench calls the package by position and keyword; every call must
    # still bind to the signature it reaches (the files are read, not run)
    perfbench = README.parent / "perfbench"
    reached = {"parse_map": inspect.signature(parse_map)}
    bound = []
    for name in ("workloads.py", "baseline.py"):
        for node in ast.walk(ast.parse((perfbench / name).read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) \
                    and func.value.id == "bt":
                target = func.attr
                if target not in reached:
                    reached[target] = inspect.signature(getattr(beltrami, target))
            elif isinstance(func, ast.Name) and func.id == "parse_map":
                target = "parse_map"
            else:
                continue
            assert not any(isinstance(a, ast.Starred) for a in node.args)
            assert all(k.arg is not None for k in node.keywords)
            where = f"{name}:{node.lineno} {target}"
            try:
                reached[target].bind(*node.args, **{k.arg: k.value for k in node.keywords})
            except TypeError as exc:
                raise AssertionError(f"{where}: {exc}") from None
            bound.append(target)
    assert {"solve_full", "solve_autonomous", "solve_cc_neumann", "residual", "FullStructure",
            "fit_bound_constants", "check_conditions", "recover_coefficients",
            "second_order_probe", "parse_map"} <= set(bound)


def test_tracer_reads_parameters_by_their_names():
    # perfbench's tracer reads call arguments by name (a["tol"],
    # _bound(...)["path"]), so a renamed parameter would surface only in a
    # traced run: each name it reads is a parameter of the function it
    # annotates, its helpers' reads included (the file is read, not run)
    tree = ast.parse((README.parent / "perfbench" / "tracer.py").read_text())
    helpers = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    annotators = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                      and [ast.unparse(t) for t in node.targets] == ["ANNOTATORS"])
    read = set()
    for key, value in zip(annotators.keys, annotators.values):
        layer, name = key.value.split(".")
        params = inspect.signature(getattr(importlib.import_module(f"beltrami.{layer}"),
                                           name)).parameters
        called = [helpers[node.func.id] for node in ast.walk(value)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in helpers]
        for part in (value, *called):
            for node in ast.walk(part):
                if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant) \
                        and isinstance(node.slice.value, str):
                    assert node.slice.value in params, f"tracer reads {key.value}'s " \
                        f"{node.slice.value!r}, not among {list(params)}"
                    read.add(node.slice.value)
    assert read == {"spec", "p", "A", "H", "tol", "path", "sample_points"}
