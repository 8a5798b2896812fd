"""Command-line surface: reproducible seeded runs with file outputs.

Commands: solve, probe, verify-transform, coefficients, hodograph, report.
Every run that writes files also writes a manifest.json: the command, every
parsed option except --out (defaults included), the list of outputs, a result
summary and the package version.  Identical configurations reproduce
byte-identical field, CSV and PGM outputs.

Map grammar (flat tokens joined by '+'):
    linear:a_re,a_im,b_re,b_im      a*zeta + b*conj(zeta)
    kabs:k                          k*|zeta|
    smoothsat:a_re,a_im,b_re,b_im,s a*zeta + b*conj(zeta) + s*zeta/(1+|zeta|)
    zterm:amp_re,amp_im,k1,k2       + amp*sin(2*pi*(k1*x + k2*y)/L)
    wterm:c_re,c_im                 + c*w/(1+|w|)
A bare autonomous token selects the gradient-only solvers; any zterm/wterm
upgrades the map to the full solver, the only one that reads --damping.
Every fixed-point solve reads --h and stops at
||f_zbar - H - h||_2 <= tol * max(1, ||h||_2).  An option that the chosen
run does not read exits 1 unless it keeps its default.

Forcing grammar for --h:
    zero                            the zero field (default)
    trig:re,im,k1,k2[+re,im,k1,k2]  sum of complex waves
    <path>                          a BFLD1 field file
"""

from __future__ import annotations

import argparse
import cmath
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    CoefficientFields,
    _pair_stats,
    gradient_equation_check,
    hodograph_check,
    recover_coefficients,
    second_order_probe,
    sobolev_probe,
    directional_derivative_fields,
)
from .autonomous import AutonomousMap, abs_map, linear_map, smooth_saturating_map, solve_autonomous
from .constant_coefficient import (
    CCParams,
    compute_mu_nu,
    reduction_residual,
    solve_cc_changevar,
    verify_transform,
)
from .fullnonlinear import FullMap, solve_full
from .grid import (_FMT, GridField, GridSpec, _lp_of_moduli, _write_row_blocks, read_field,
                   write_field)
from .operators import derivative_pair, resample
from .synth import radial_extremal_pair, trig_field


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 on usage errors (2 means non-convergence)."""

    def error(self, message):
        raise _UsageError(message)


def _complex_arg(s: str) -> complex:
    try:
        re_s, im_s = s.split(",")
        value = complex(float(re_s), float(im_s))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 're,im', got {s!r}") from None
    if not cmath.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {s}")
    return value


def _number(cast, ok, what: str):
    """argparse type: parse with cast, then require ok(value)."""
    def parse(s: str):
        try:
            value = cast(s)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {cast.__name__}, got {s!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {s}")
        return value
    return parse


_positive = _number(float, lambda v: 0 < v < math.inf, "finite and > 0")
_finite = _number(float, math.isfinite, "finite")
_at_least_one = _number(float, lambda v: 1 <= v < math.inf, "finite and >= 1")
_unit_open = _number(float, lambda v: 0 < v < 1, "in (0, 1)")


def _floats(token: str, body: str, count: int) -> list[float]:
    parts = body.split(",")
    if len(parts) != count:
        raise _UsageError(f"bad map token {token!r}: expected {count} numbers")
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise _UsageError(f"bad map token {token!r}: non-numeric field") from None


def _wavenumbers(token: str, k1: float, k2: float) -> tuple[int, int]:
    if not (k1.is_integer() and k2.is_integer()):  # also refuses nan and inf
        raise _UsageError(f"bad token {token!r}: wavenumbers must be integers")
    return int(k1), int(k2)


def parse_map(spec_str: str, L: float):
    """Parse the map mini-language into an AutonomousMap or FullMap.

    zterm and wterm are added inside H, so such a map breaks FullMap's
    H(z, w, 0) = 0 (check_conditions reports it as zero_slot_max): a zterm
    is a position-only forcing inside H; --h is the one that keeps it.
    """
    base: AutonomousMap | None = None
    zterms: list[tuple[complex, int, int]] = []
    wterms: list[complex] = []
    for token in spec_str.split("+"):
        head, _, body = token.partition(":")
        if head == "linear":
            ar, ai, br, bi = _floats(token, body, 4)
            m = linear_map(complex(ar, ai), complex(br, bi))
        elif head == "kabs":
            (k,) = _floats(token, body, 1)
            m = abs_map(k)
        elif head == "smoothsat":
            ar, ai, br, bi, s = _floats(token, body, 5)
            m = smooth_saturating_map(complex(ar, ai), complex(br, bi), s)
        elif head == "zterm":
            ar, ai, k1, k2 = _floats(token, body, 4)
            zterms.append((complex(ar, ai), *_wavenumbers(token, k1, k2)))
            continue
        elif head == "wterm":
            cr, ci = _floats(token, body, 2)
            wterms.append(complex(cr, ci))
            continue
        else:
            raise _UsageError(f"unknown map token {token!r}")
        if base is not None:
            raise _UsageError(f"duplicate base map token {token!r}")
        base = m
    if base is None:
        raise _UsageError(f"map {spec_str!r} lacks a base token (linear/kabs/smoothsat)")
    if not zterms and not wterms:
        return base

    aeval = base.eval
    freq = 2.0 * math.pi / L

    def full_eval(z, w, zeta):
        out = aeval(zeta)
        for amp, k1, k2 in zterms:
            out = out + amp * np.sin(freq * (k1 * np.real(z) + k2 * np.imag(z)))
        for cw in wterms:
            out = out + cw * w / (1.0 + np.abs(w))
        return out

    return FullMap(eval=full_eval, k=base.k, name=spec_str)


def _parse_h(h_arg: str, spec: GridSpec) -> GridField:
    if h_arg == "zero":
        return trig_field(spec, [])
    if h_arg.startswith("trig:"):
        waves = []
        for part in h_arg[len("trig:"):].split("+"):
            re_s, im_s, k1, k2 = _floats(h_arg, part, 4)
            waves.append((*_wavenumbers(part, k1, k2), complex(re_s, im_s)))
        return trig_field(spec, waves)
    f = read_field(h_arg)
    if f.spec.n != spec.n:
        f = resample(f, spec.n)
    if f.spec != spec:
        raise _UsageError(f"--h file grid {f.spec} does not match requested {spec}")
    return f


def _write_csv(path: Path, header: list[str], rows) -> None:
    def fmt(v):
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        if isinstance(v, float):
            return _FMT % v
        return str(v)

    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")


def _write_coefficients(path: Path, coeffs: CoefficientFields) -> None:
    """coefficients.csv: one row per sample in row-major order, with the same
    spelling as _write_csv, written over blocks of grid rows as BFLD1 fields
    are (grid._write_row_blocks)."""
    n = coeffs.mu.spec.n
    mu, nu = coeffs.mu.values, coeffs.nu.values

    def cells(rows):
        row, col = np.divmod(np.arange(rows.start * n, rows.stop * n), n)
        m, v = mu[rows].ravel(), nu[rows].ravel()
        flagged = np.where(coeffs.flagged[rows].ravel(), "true", "false")
        columns = (row, col, m.real, m.imag, v.real, v.imag, flagged)
        return itertools.chain.from_iterable(zip(*(c.tolist() for c in columns)))

    with open(path, "w") as fh:
        fh.write("row,col,mu_re,mu_im,nu_re,nu_im,flagged\n")
        _write_row_blocks(fh, f"%d,%d,{_FMT},{_FMT},{_FMT},{_FMT},%s\n", n, cells)


def _write_pgm(path: Path, data: np.ndarray, lo: float, hi: float) -> None:
    if hi > lo:
        img = np.round(255.0 * (data - lo) / (hi - lo)).astype(np.uint8)
    else:
        img = np.zeros(data.shape, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{data.shape[1]} {data.shape[0]}\n255\n".encode())
        fh.write(img.tobytes())


def _config(args) -> dict:
    """The run's configuration: every parsed option except --out."""
    config = {}
    for key, value in vars(args).items():
        if key in ("out", "command", "func", "parser"):
            continue
        if isinstance(value, complex):
            value = [value.real, value.imag]
        config[key] = value
    if "fields" in config:
        config["fields"] = config["fields"] or None
    return config


def _strict_json(value):
    """value with each non-finite float spelled as in the CSVs ("inf",
    "-inf", "nan"): JSON has no token for them."""
    if isinstance(value, float) and not math.isfinite(value):
        return _FMT % value
    if isinstance(value, dict):
        return {k: _strict_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(v) for v in value]
    return value


def _finish(args, files: dict, result: dict, **extra) -> None:
    """Write a command's output files, then its manifest.json, into --out.

    ``files`` maps each output name, in manifest order, to a CSV table
    ``(header, rows)`` or to a callable that writes the file at a path.
    The manifest is strict JSON: non-finite numbers are written as strings.
    """
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, content in files.items():
        if callable(content):
            content(out / name)
        else:
            _write_csv(out / name, *content)
    manifest = {"command": args.command, "config": _config(args),
                "outputs": list(files), "result": result,
                "version": __version__, **extra}
    with open(out / "manifest.json", "w") as fh:
        json.dump(_strict_json(manifest), fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


def _refuse_unread(args, reader: str, names: str) -> None:
    """Exit 1 when an option this run does not read differs from its parser
    default; names lists those options in the order they are checked."""
    for name in names.split():
        if getattr(args, name) != args.parser.get_default(name):
            raise _UsageError(f"--{name.replace('_', '-')} is read only by {reader}")


def _refuse_unread_by_map(args, mapping) -> None:
    """A fixed-point solve of an autonomous map does not read --damping."""
    if isinstance(mapping, AutonomousMap):
        _refuse_unread(args, "a solve of a full map (zterm/wterm tokens)", "damping")


def _solve_fixed_point(args, mapping, h: GridField, spec: GridSpec):
    if isinstance(mapping, AutonomousMap):
        return solve_autonomous(mapping, h, args.mean, tol=args.tol,
                                max_iter=args.max_iter)
    return solve_full(mapping, args.mean, tol=args.tol, max_iter=args.max_iter,
                      damping=args.damping, spec=spec, h=h)


def cmd_solve(args) -> int:
    spec = GridSpec(args.grid, args.period)
    mapping = parse_map(args.map, spec.L)
    if args.solver == "changevar":
        _refuse_unread(args, "the fixed-point solver", "damping tol max_iter")
    else:
        _refuse_unread_by_map(args, mapping)
    h = _parse_h(args.h, spec)

    if args.solver == "changevar":
        # only an exactly linear map, k == |a|+|b|, is the equation changevar solves
        linf = mapping.linf if isinstance(mapping, AutonomousMap) else None
        if linf is None or mapping.k != abs(linf.a) + abs(linf.b):
            raise _UsageError("--solver changevar requires a linear:* map")
        f, report = solve_cc_changevar(linf, h, args.mean)
    else:
        f, report = _solve_fixed_point(args, mapping, h, spec)

    fz = np.abs(derivative_pair(f).dz.values)
    lo, hi = float(fz.min()), float(fz.max())
    _finish(args, {
        "solution.bfld": lambda path: write_field(f, path),
        "report.csv": (["iteration", "residual"],
                       [(i + 1, r) for i, r in enumerate(report.residual_history)]),
        "summary.csv": (["iterations", "final_residual", "contraction_ratio", "converged"],
                        [(report.iterations, report.final_residual,
                          report.contraction_ratio, report.converged)]),
        "fz_heatmap.pgm": lambda path: _write_pgm(path, fz, lo, hi),
    }, {"converged": report.converged, "iterations": report.iterations,
        "final_residual": report.final_residual},
        heatmap_scale={"min": lo, "max": hi})
    print(f"converged={report.converged} iterations={report.iterations} "
          f"final_residual={report.final_residual:.3e} "
          f"contraction_ratio={report.contraction_ratio:.4f}")
    return 0 if report.converged else 2


def _solve_ladder(args, mapping, specs: list[GridSpec]):
    fields = []
    for spec in specs:
        f, rep = _solve_fixed_point(args, mapping, _parse_h(args.h, spec), spec)
        if not rep.converged:
            raise _UsageError(f"ladder solve at n={spec.n} did not converge "
                              f"within --max-iter {args.max_iter}")
        fields.append(f)
    return fields


def cmd_probe(args) -> int:
    if args.p_min > args.p_max:
        raise _UsageError(f"--p-min {args.p_min} is above --p-max {args.p_max}")
    if not args.second_order:
        _refuse_unread(args, "a probe with --second-order", "k")
    elif args.k is None:
        raise _UsageError("--second-order requires --k")

    def ladder():
        return [GridSpec(args.grid * (2 ** lev), args.period) for lev in range(args.levels)]

    pairs = None
    if args.fields:
        _refuse_unread(args, "a probe that solves or builds its ladder, not with --fields",
                       "damping map h mean tol max_iter extremal grid levels period")
        fields = [read_field(p) for p in args.fields]
    elif args.extremal is not None:
        _refuse_unread(args, "a probe that solves a map ladder, not with --extremal",
                       "damping map h mean tol max_iter")
        fields, pairs = [], []
        for spec in ladder():
            g, gz, gzb = radial_extremal_pair(spec, args.extremal)
            fields.append(g)
            pairs.append((gz, gzb))
    elif args.map:
        mapping = parse_map(args.map, args.period)
        _refuse_unread_by_map(args, mapping)
        fields = _solve_ladder(args, mapping, ladder())
    else:
        raise _UsageError("probe needs --fields, --map or --extremal")

    p_grid = np.arange(args.p_min, args.p_max + 1e-9, args.p_step)
    if args.second_order:
        report = second_order_probe(fields, args.k, p_grid)
    else:
        report = sobolev_probe(fields, p_grid, pairs=pairs)

    rows = list(report.norm_rows())
    rows.append(("summary", report.p_critical, report.fit_r2,
                 report.tail_exponent, report.distortion_max))
    _finish(args, {"regularity.csv": (["p", "level", "norm", "power_mean", "stable"], rows)},
            {"p_critical": report.p_critical, "fit_r2": report.fit_r2})
    print(f"p_critical={_FMT % report.p_critical} fit_r2={_FMT % report.fit_r2}")
    return 0


def cmd_verify_transform(args) -> int:
    p = CCParams(args.a, args.b)  # raises on ellipticity violation -> exit 1
    cv = compute_mu_nu(p)
    res_ab = verify_transform(p, cv, trials=args.trials, seed=args.seed)
    res_exact = reduction_residual(p, cv, trials=args.trials, seed=args.seed)
    bound_mu_printed = abs(cv.mu) * (1 - abs(p.b) ** 2) - abs(p.a)
    bound_nu_printed = abs(cv.nu) * (1 - abs(p.a) ** 2) - abs(p.b)
    bound_mu = abs(cv.mu) * (1 - abs(p.b)) - abs(p.a)
    bound_nu = abs(cv.nu) * (1 - abs(p.a)) - abs(p.b)
    print(f"mu={cv.mu.real:.12g}{cv.mu.imag:+.12g}j "
          f"nu={cv.nu.real:.12g}{cv.nu.imag:+.12g}j path={cv.path}")
    print(f"residual_ab_form={res_ab:.3e} residual_reduction={res_exact:.3e}")
    print(f"bound_excess_squared_denominators: mu={bound_mu_printed:.3e} "
          f"nu={bound_nu_printed:.3e}")
    print(f"bound_excess_provable: mu={bound_mu:.3e} nu={bound_nu:.3e}")
    if args.out:
        _finish(args, {"transform.csv": (
            ["mu_re", "mu_im", "nu_re", "nu_im", "path",
             "residual_ab_form", "residual_reduction"],
            [(cv.mu.real, cv.mu.imag, cv.nu.real, cv.nu.imag, cv.path, res_ab, res_exact)],
        )}, {"residual_ab_form": res_ab, "path": cv.path})
    return 0 if res_ab <= 1e-8 else 2


def cmd_coefficients(args) -> int:
    f = read_field(args.field)
    fx, fy = directional_derivative_fields(f)
    coeffs = recover_coefficients(fx, fy, args.k)
    check = gradient_equation_check(f, coeffs)
    mu, nu, good = coeffs.mu.values, coeffs.nu.values, ~coeffs.flagged
    max_sum = float(np.max(np.abs(mu[good]) + np.abs(nu[good]))) if good.any() else 0.0
    _finish(args, {
        "coefficients.csv": lambda path: _write_coefficients(path, coeffs),
        "coefficients_summary.csv": (
            ["flagged_fraction", "max_mu_plus_nu", "gradient_residual", "k_prime"],
            [(coeffs.flagged_fraction, max_sum, check.residual, check.k_prime)]),
    }, {"flagged_fraction": coeffs.flagged_fraction,
        "gradient_residual": check.residual, "k_prime": check.k_prime})
    print(f"flagged_fraction={coeffs.flagged_fraction:.4f} "
          f"max_mu_plus_nu={max_sum:.6f} gradient_residual={check.residual:.3e} "
          f"k_prime={check.k_prime:.6g}")
    return 0


def cmd_hodograph(args) -> int:
    f = read_field(args.field)
    mapping = parse_map(args.map, f.spec.L)
    if not isinstance(mapping, AutonomousMap):
        raise _UsageError(f"hodograph --map must be autonomous (no zterm/wterm), got {args.map!r}")
    result = hodograph_check(f, mapping, args.points, seed=args.seed,
                             min_jacobian=args.min_jacobian)
    _finish(args, {"hodograph.csv": (
        ["max_identity_residual", "max_derivative_ratio", "accepted", "skipped"],
        [(result.max_identity_residual, result.max_derivative_ratio,
          result.accepted, result.skipped)],
    )}, {"max_identity_residual": result.max_identity_residual,
         "accepted": result.accepted, "skipped": result.skipped})
    print(f"max_identity_residual={result.max_identity_residual:.3e} "
          f"max_derivative_ratio={result.max_derivative_ratio:.6f} "
          f"accepted={result.accepted} skipped={result.skipped}")
    return 0


def cmd_report(args) -> int:
    f = read_field(args.field)
    fz, fzb = derivative_pair(f)
    st = _pair_stats(fz.values, fzb.values)
    exponents = (1.0, 2.0, 4.0, 8.0)
    # lp_norm's formula: each member's moduli are taken once for every
    # exponent, and one member's at a time
    fz_norms, fzb_norms = ([_lp_of_moduli(m, p) for p in exponents]
                           for m in map(np.abs, (fz.values, fzb.values)))
    _finish(args, {
        "norms.csv": (["p", "fz_norm", "fzbar_norm"],
                      list(zip(exponents, fz_norms, fzb_norms))),
        "distortion.csv": (["max", "q50", "q90", "q99", "degenerate_fraction"],
                           [(st.max, *st.quantiles, st.degenerate_fraction)]),
    }, {"distortion_max": st.max, "degenerate_fraction": st.degenerate_fraction})
    print(f"distortion_max={st.max:.6f} degenerate_fraction={st.degenerate_fraction:.5f}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="beltrami",
                     description="Spectral Beltrami-equation solvers on a torus")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, out_required=True):
        sp.add_argument("--seed", type=int, default=0, help="seed for all sampling")
        sp.add_argument("--out", required=out_required, help="output directory")

    def solver_options(sp):
        sp.add_argument("--period", type=float, default=2.0 * math.pi)
        sp.add_argument("--mean", type=_complex_arg, default=complex(1.0, 0.0))
        sp.add_argument("--h", default="zero")
        sp.add_argument("--tol", type=_positive, default=1e-10)
        sp.add_argument("--max-iter", type=_number(int, lambda v: v >= 1, ">= 1"),
                        default=2000)
        sp.add_argument("--damping", type=_number(float, lambda v: 0 < v <= 1, "in (0, 1]"),
                        default=1.0)

    sp = sub.add_parser("solve", help="solve one equation and write the field")
    sp.add_argument("--map", required=True)
    sp.add_argument("--grid", type=int, required=True)
    solver_options(sp)
    sp.add_argument("--solver", choices=["fixed-point", "changevar"],
                    default="fixed-point")
    common(sp)
    sp.set_defaults(func=cmd_solve, parser=sp)

    sp = sub.add_parser("probe", help="integrability probe over a refinement ladder")
    sp.add_argument("--fields", nargs="*", default=None)
    sp.add_argument("--map", default=None)
    sp.add_argument("--extremal", type=_number(float, lambda v: 1 < v < math.inf,
                                               "finite and > 1"), default=None,
                    help="built-in radial test field with this distortion")
    sp.add_argument("--grid", type=int, default=64)
    sp.add_argument("--levels", type=_number(int, lambda v: v >= 3, ">= 3"), default=3)
    solver_options(sp)
    sp.add_argument("--p-min", type=_at_least_one, default=2.0)
    sp.add_argument("--p-max", type=_finite, default=8.0)
    sp.add_argument("--p-step", type=_positive, default=0.2)
    sp.add_argument("--second-order", action="store_true")
    sp.add_argument("--k", type=_unit_open, default=None,
                    help="Lipschitz constant, required with --second-order and refused "
                         "without it; only checked to lie in (0, 1), changes no output")
    common(sp)
    sp.set_defaults(func=cmd_probe, parser=sp)

    sp = sub.add_parser("verify-transform",
                        help="audit the change-of-variables reduction")
    sp.add_argument("--a", type=_complex_arg, required=True)
    sp.add_argument("--b", type=_complex_arg, required=True)
    sp.add_argument("--trials", type=int, default=8)
    common(sp, out_required=False)
    sp.set_defaults(func=cmd_verify_transform)

    sp = sub.add_parser("coefficients",
                        help="recover pointwise coefficients from a solution")
    sp.add_argument("--field", required=True)
    sp.add_argument("--k", type=float, required=True,
                    help="recorded in the manifest; changes no output")
    common(sp)
    sp.set_defaults(func=cmd_coefficients)

    sp = sub.add_parser("hodograph", help="probe the local-inverse identity")
    sp.add_argument("--field", required=True)
    sp.add_argument("--map", required=True)
    sp.add_argument("--points", type=int, default=64)
    sp.add_argument("--min-jacobian", type=_finite, default=0.1)
    common(sp)
    sp.set_defaults(func=cmd_hodograph)

    sp = sub.add_parser("report", help="distortion and norm summary of a field")
    sp.add_argument("--field", required=True)
    common(sp)
    sp.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (_UsageError, ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
