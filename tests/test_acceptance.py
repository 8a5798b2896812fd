"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 2 checks the change-of-variables reduction in the form
the substitution admits: the reduced equation g_zbar = v + (mu*nu)*conj(v)
and the modulus bounds |mu|(1-|b|) <= |a|, |nu|(1-|a|) <= |b|.  The often
quoted closed form (conj(v) coefficient a*b, squared-denominator bounds)
cannot hold once a*b != 0; criterion 2 keeps it as a quantitative check by
asserting that its residual is exactly the gap |mu*nu - a*b|, and prints the
measured gaps.  The companion test criterion_02_corrected asserts the
defining annihilation conditions and the original claim on the a*b = 0
axes; see the constant_coefficient docstrings for the algebra.
"""

import math
import time

import numpy as np
import pytest

from beltrami import (
    CCParams,
    GridField,
    GridSpec,
    abs_map,
    beurling,
    check_conditions,
    compute_mu_nu,
    derivative_pair,
    directional_family_max_distortion,
    distortion_stats,
    from_autonomous,
    fit_bound_constants,
    gradient_equation_check,
    hodograph_check,
    linear_map,
    lp_norm,
    mu_nu_printed_formula,
    radial_extremal_pair,
    random_trig_field,
    recover_coefficients,
    reduction_residual,
    second_order_probe,
    smooth_saturating_map,
    sobolev_probe,
    solve_autonomous,
    solve_cc_changevar,
    solve_cc_neumann,
    solve_full,
    trig_field,
    verify_transform,
    zero_field,
    directional_derivative_fields,
    FullMap,
    FullStructure,
)
from beltrami.cli import main as cli_main
from _helpers import pair_rel_l2, rel_l2, spectrum


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def sweep_ellipticity_ball(count: int, radius: float, seed: int):
    """Seeded sweep of coefficient pairs with |a|+|b| <= radius."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        s = radius * math.sqrt(rng.uniform(0.01, 1.0))
        frac = rng.uniform(0.05, 0.95)
        a = s * frac * np.exp(2j * np.pi * rng.uniform())
        b = s * (1 - frac) * np.exp(2j * np.pi * rng.uniform())
        pairs.append(CCParams(a, b))
    return pairs


def test_criterion_01_spectral_identities():
    t0 = time.monotonic()
    spec = GridSpec(256)
    worst_iso = 0.0
    worst_intertwine = 0.0
    for seed in range(100):
        phi = random_trig_field(spec, seed=seed, band=12, modes=16)
        worst_iso = max(worst_iso,
                        abs(lp_norm(beurling(phi), 2) / lp_norm(phi, 2) - 1.0))
        f = random_trig_field(spec, seed=1000 + seed, band=12, modes=16)
        dz, dzb = derivative_pair(f)
        lhs = spectrum(beurling(dzb).values)
        rhs = spectrum(dz.values)
        scale = np.abs(rhs).max()
        worst_intertwine = max(worst_intertwine,
                               float(np.abs(lhs - rhs).max() / scale))
    elapsed = time.monotonic() - t0
    ok = worst_iso <= 1e-10 and worst_intertwine <= 1e-13 and elapsed < 5.0
    assert report(1, ok,
                  f"isometry dev {worst_iso:.2e} (<=1e-10), intertwining dev "
                  f"{worst_intertwine:.2e} (mode-wise, roundoff), {elapsed:.2f}s (<5s)")


def test_criterion_02_mu_nu_bounds_and_residual_as_stated():
    # compute_mu_nu's pair must satisfy the reduced equation with conj(v)
    # coefficient mu*nu and the provable bounds |mu|(1-|b|) <= |a|,
    # |nu|(1-|a|) <= |b|.  The a*b form leaves the residual
    # (mu*nu - a*b)*conj(v), so verify_transform must equal |mu*nu - a*b| at
    # every point; the squared-denominator bounds, the a*b-form residuals and
    # the oracle's verdict on mu_nu_printed_formula are printed
    bad_bounds = bad_residual = bad_gap = 0
    worst_bound = worst_red = worst_gap_dev = -math.inf
    min_gap = math.inf
    sq_violations = ab_above = 0
    worst_sq = worst_ab = 0.0
    printed_rejections = 0
    for p in sweep_ellipticity_ball(100, 0.95, seed=42):
        cv = compute_mu_nu(p)
        if verify_transform(p, mu_nu_printed_formula(p), trials=3) > 1e-8:
            printed_rejections += 1
        ex_mu = abs(cv.mu) * (1 - abs(p.b)) - abs(p.a)
        ex_nu = abs(cv.nu) * (1 - abs(p.a)) - abs(p.b)
        worst_bound = max(worst_bound, ex_mu, ex_nu)
        if ex_mu > 1e-12 or ex_nu > 1e-12:
            bad_bounds += 1
        red = reduction_residual(p, cv, trials=2)
        worst_red = max(worst_red, red)
        if red > 1e-8:
            bad_residual += 1
        ab_res = verify_transform(p, cv, trials=2)
        gap = abs(cv.mu * cv.nu - p.a * p.b)
        min_gap = min(min_gap, gap)
        worst_gap_dev = max(worst_gap_dev, abs(ab_res - gap) / gap)
        if ab_res != pytest.approx(gap, rel=1e-6):
            bad_gap += 1
        worst_ab = max(worst_ab, ab_res)
        if ab_res > 1e-8:
            ab_above += 1
        sq_mu = abs(cv.mu) * (1 - abs(p.b) ** 2) - abs(p.a)
        sq_nu = abs(cv.nu) * (1 - abs(p.a) ** 2) - abs(p.b)
        worst_sq = max(worst_sq, sq_mu, sq_nu)
        if sq_mu > 1e-12 or sq_nu > 1e-12:
            sq_violations += 1
    ok = bad_bounds == 0 and bad_residual == 0 and bad_gap == 0
    assert report(
        2, ok,
        f"bounds |mu|(1-|b|)<=|a|, |nu|(1-|a|)<=|b| violated at "
        f"{bad_bounds}/100 points (worst excess {worst_bound:.3g}, <=1e-12); "
        f"residual vs v + (mu*nu)*conj(v) above 1e-8 at {bad_residual}/100 "
        f"points (worst {worst_red:.3g}); a*b-form residual != |mu*nu - a*b| "
        f"(rel 1e-6) at {bad_gap}/100 points (worst rel dev "
        f"{worst_gap_dev:.3g}, smallest gap {min_gap:.3g}); historical "
        f"squared-denominator bounds violated at {sq_violations}/100 points "
        f"(worst excess {worst_sq:.3g}); a*b-form residual above 1e-8 at "
        f"{ab_above}/100 points (worst {worst_ab:.3g}); printed formulas "
        f"rejected by the oracle at {printed_rejections}/100 points")


def test_criterion_02_corrected_companion():
    # the statements that are actually true, asserted at tight tolerances:
    # the numeric-root pair satisfies the defining annihilation conditions,
    # the exact reduced equation (conj(v) coefficient mu*nu), the provable
    # modulus bounds, and the full original claim on the axes a*b = 0
    worst_cond = worst_red = worst_bound = 0.0
    for p in sweep_ellipticity_ball(100, 0.95, seed=42):
        cv = compute_mu_nu(p)
        c1 = cv.mu + p.a + cv.nu * cv.mu * np.conj(p.b)
        c2 = p.b + cv.nu + cv.nu * cv.mu * np.conj(p.a)
        worst_cond = max(worst_cond, abs(c1), abs(c2))
        worst_red = max(worst_red, reduction_residual(p, cv, trials=2))
        worst_bound = max(worst_bound,
                          abs(cv.mu) * (1 - abs(p.b)) - abs(p.a),
                          abs(cv.nu) * (1 - abs(p.a)) - abs(p.b))
    axis_worst = 0.0
    rng = np.random.default_rng(7)
    for _ in range(20):
        mag = rng.uniform(0.0, 0.95)
        phase = np.exp(2j * np.pi * rng.uniform())
        for p in (CCParams(mag * phase, 0.0), CCParams(0.0, mag * phase)):
            cv = compute_mu_nu(p)
            axis_worst = max(axis_worst, verify_transform(p, cv, trials=2),
                             abs(cv.mu) * (1 - abs(p.b) ** 2) - abs(p.a),
                             abs(cv.nu) * (1 - abs(p.a) ** 2) - abs(p.b))
    ok = (worst_cond <= 1e-12 and worst_red <= 1e-9
          and worst_bound <= 1e-12 and axis_worst <= 1e-8)
    assert report(
        2, ok,
        f"[corrected companion] defining conditions {worst_cond:.2e} (<=1e-12), "
        f"exact reduction residual {worst_red:.2e} (<=1e-9), provable bounds "
        f"excess {worst_bound:.2e} (<=1e-12), full original claim on the "
        f"a*b=0 axes {axis_worst:.2e} (<=1e-8)")


def test_criterion_03_two_solver_equivalence():
    t0 = time.monotonic()
    spec = GridSpec(128)
    rng = np.random.default_rng(5)
    worst = 0.0
    for i in range(20):
        s = 0.9 * math.sqrt(rng.uniform(0.05, 1.0))
        frac = rng.uniform(0.1, 0.9)
        p = CCParams(s * frac * np.exp(2j * np.pi * rng.uniform()),
                     s * (1 - frac) * np.exp(2j * np.pi * rng.uniform()))
        u = random_trig_field(spec, seed=300 + i, band=4, modes=8)
        c = complex(rng.normal(), rng.normal())
        fa, ra = solve_cc_neumann(p, u, c, tol=1e-11, max_iter=2000)
        fb, rb = solve_cc_changevar(p, u, c)
        assert ra.converged and rb.converged
        assert fa.c == fb.c and abs(fa.d - fb.d) < 1e-10
        worst = max(worst, rel_l2(fb.values, fa.values))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-7 and elapsed < 30.0
    assert report(3, ok, f"worst relative disagreement {worst:.2e} (<=1e-7) "
                         f"over 20 seeded instances, {elapsed:.1f}s (<30s)")


def test_criterion_04_contraction_rates():
    spec = GridSpec(64)
    worst_by_map = {}
    for k in (0.3, 0.6, 0.9):
        maps = {
            "linear": linear_map(0.6 * k, 0.4 * k * np.exp(0.7j)),
            "kabs": abs_map(k),
            "smoothsat": smooth_saturating_map(0.5 * k, 0.25 * k, 0.25 * k),
        }
        for name, A in maps.items():
            worst = 0.0
            for seed in range(20):
                h = random_trig_field(spec, seed=7000 + seed, band=4, modes=6)
                f, rep = solve_autonomous(A, h, 1.0, tol=1e-9, max_iter=3000)
                assert rep.converged
                worst = max(worst, rep.contraction_ratio - k)
            worst_by_map[(name, k)] = worst
    worst_excess = max(worst_by_map.values())
    ok = worst_excess <= 0.02
    detail = ", ".join(f"{name}@k={k}: {v:+.4f}"
                       for (name, k), v in sorted(worst_by_map.items()))
    assert report(4, ok, f"contraction ratio minus k (<=0.02): {detail}")


def test_criterion_05_manufactured_recovery():
    spec = GridSpec(128)
    maps = (linear_map(0.3, 0.2), abs_map(0.3),
            smooth_saturating_map(0.3, 0.2, 0.1))
    worst = 0.0
    for seed in range(10):
        fstar = random_trig_field(spec, seed=500 + seed, band=4, modes=8,
                                  amplitude=0.1, c=1.0)
        fz, fzb = derivative_pair(fstar)
        for A in maps:
            h = GridField(spec, 0, 0, fzb.values - A.eval(fz.values))
            f, rep = solve_autonomous(A, h, 1.0, tol=1e-11, max_iter=2000)
            assert rep.converged
            worst = max(worst, pair_rel_l2(f, fstar))
    ok = worst <= 1e-7
    assert report(5, ok, f"worst derivative-pair recovery error {worst:.2e} "
                         f"(<=1e-7) over 10 seeds x 3 built-in maps at n=128")


def test_criterion_06_quasiregularity():
    spec = GridSpec(128)
    rows = []
    ok = True
    for k in (0.3, 0.6, 0.9):
        gallery = (abs_map(k), linear_map(0.5 * k, 0.5 * k * 1j),
                   smooth_saturating_map(0.5 * k, 0.25 * k, 0.25 * k))
        bound = (1 + k) / (1 - k) + 0.01
        for A in gallery:
            for c in (1.0, 0.8 + 0.4j, 2.0 - 1.0j):
                f, rep = solve_autonomous(A, zero_field(spec), c, tol=1e-12)
                st = distortion_stats(f)
                good = (rep.converged and st.degenerate_fraction <= 0.001
                        and st.max <= bound)
                ok = ok and good
                rows.append(st.max / bound)
    # small forcing at k = 0.3: the bound survives amplitudes within the
    # +0.01 slack (first-order perturbation of the gradient ratio)
    A = abs_map(0.3)
    h = trig_field(spec, [(1, 0, 1e-3), (0, 1, 1e-3j)])
    f, rep = solve_autonomous(A, h, 1.0, tol=1e-12)
    st = distortion_stats(f)
    okh = rep.converged and st.max <= (1.3 / 0.7) + 0.01 \
        and st.degenerate_fraction <= 0.001
    ok = ok and okh
    assert report(6, ok,
                  f"27 homogeneous solves: max K/bound = {max(rows):.4f} (<=1), "
                  f"degenerate measure 0; small-forcing run K={st.max:.4f} "
                  f"(bound {1.3 / 0.7 + 0.01:.4f})")


def test_criterion_07_probe_calibration():
    t0 = time.monotonic()
    fields, pairs = [], []
    for n in (128, 256, 512):
        g, gz, gzb = radial_extremal_pair(GridSpec(n), 2.0)
        fields.append(g)
        pairs.append((gz, gzb))
    rep = sobolev_probe(fields, np.arange(2.0, 8.01, 0.2), pairs=pairs)
    elapsed = time.monotonic() - t0
    ok = 3.6 <= rep.p_critical <= 4.4 and elapsed < 120.0
    assert report(7, ok,
                  f"p_critical={rep.p_critical:.2f} in [3.6, 4.4] (oracle "
                  f"2K/(K-1)=4), tail exponent {rep.tail_exponent:.3f} "
                  f"(r2={rep.fit_r2:.3f}), {elapsed:.1f}s (<120s)")


def _chain_items(f, fields_ladder, A, k):
    """Measure the four coefficient-chain quantities for one solve."""
    fx, fy = directional_derivative_fields(f)
    co = recover_coefficients(fx, fy, k)
    good = ~co.flagged
    if good.any():
        max_sum = float(np.max(np.abs(co.mu.values[good])
                               + np.abs(co.nu.values[good])))
    else:
        max_sum = 0.0
    gc = gradient_equation_check(f, co)
    fam = directional_family_max_distortion(f)
    q_grid = np.arange(1.2, 1 + 1 / k - 0.1 + 1e-9, 0.1)
    probe = second_order_probe(fields_ladder, k, q_grid)
    return co, max_sum, gc, fam, probe


def test_criterion_08_coefficient_chain():
    maps = ((abs_map(0.3), 0.3), (smooth_saturating_map(0.3, 0.2, 0.1), 0.6))
    ok = True
    details = []
    for A, k in maps:
        # gated: homogeneous solves, the setting of the pointwise claims
        ladder = []
        for n in (64, 128, 256):
            f, rep = solve_autonomous(A, zero_field(GridSpec(n)), 1.0, tol=1e-12)
            assert rep.converged
            ladder.append(f)
        f256 = ladder[-1]
        co, max_sum, gc, fam, probe = _chain_items(f256, ladder, A, k)
        bound_k = (1 + k) / (1 - k) + 0.02
        item3 = max_sum <= k + 0.02
        item4 = gc.residual <= 0.05 and gc.k_prime <= k + 0.02
        item2 = fam == 0.0 or fam <= bound_k
        item1 = math.isinf(probe.p_critical)
        ok = ok and item1 and item2 and item3 and item4
        details.append(
            f"{A.name} h=0: flagged={co.flagged_fraction:.2f} "
            f"|mu|+|nu|<= {max_sum:.3f}, k'={gc.k_prime:.3f}, "
            f"family K={fam:.3f}, 2nd-order stable to q={1 + 1 / k - 0.1:.2f}")
        # non-gated diagnostics: small forcing; the pointwise-coefficient
        # claims do not transfer to forced solves (recovery sees the
        # forcing's derivatives at O(1) relative size), so items 2-4 are
        # reported but only item 1 is asserted
        ladder_h = []
        for n in (64, 128, 256):
            spec = GridSpec(n)
            h = trig_field(spec, [(1, 0, 2e-3), (0, 1, 2e-3j)])
            fh, reph = solve_autonomous(A, h, 1.0, tol=1e-12)
            assert reph.converged
            ladder_h.append(fh)
        co_h, max_sum_h, gc_h, fam_h, probe_h = _chain_items(
            ladder_h[-1], ladder_h, A, k)
        item1_h = math.isinf(probe_h.p_critical)
        ok = ok and item1_h
        details.append(
            f"{A.name} forced(2e-3) diagnostics: flagged={co_h.flagged_fraction:.2f}, "
            f"max |mu|+|nu|={max_sum_h:.3g}, k'={gc_h.k_prime:.3g}, "
            f"family K={fam_h:.3g}, grad residual={gc_h.residual:.2e}, "
            f"2nd-order stable={item1_h}")
    assert report(8, ok, "; ".join(details))


def test_criterion_09_hodograph():
    spec = GridSpec(128)
    # closed-form shear: exact inverse, residual at roundoff
    f_shear = GridField(spec, 1.0, 0.3, np.zeros(spec.n ** 2))
    res1 = hodograph_check(f_shear, linear_map(0.3, 0), 64, seed=11)
    ok1 = (res1.accepted == 64 and res1.max_identity_residual <= 1e-8
           and res1.max_derivative_ratio <= 0.3 + 1e-9)
    # forced modulus-map solve, restricted to forward Jacobian > 0.1
    A = abs_map(0.3)
    h = trig_field(spec, [(1, 0, 0.005), (0, 1, 0.005j), (1, 1, 0.003)])
    f, rep = solve_autonomous(A, h, 1.0, tol=1e-12)
    res2 = hodograph_check(f, A, 64, seed=12, min_jacobian=0.1)
    ok2 = (rep.converged and res2.accepted > 0
           and res2.max_identity_residual <= 0.05
           and res2.max_derivative_ratio <= 0.3 + 0.02)
    ok = ok1 and ok2
    assert report(9, ok,
                  f"closed-form residual {res1.max_identity_residual:.2e} "
                  f"(<=1e-8); solve residual {res2.max_identity_residual:.2e} "
                  f"(<=0.05), derivative ratio {res2.max_derivative_ratio:.4f} "
                  f"(<= {0.32}), accepted {res2.accepted}, skipped {res2.skipped}")


def test_criterion_10_degeneration_and_conditions():
    spec = GridSpec(64)
    A = linear_map(0.3, 0.1)
    H = from_autonomous(A)
    h0 = zero_field(spec)
    bit_identical = True
    for it in (1, 2, 3, 10, 50):
        fa, ra = solve_autonomous(A, h0, 1.0 + 0.5j, tol=1e-13, max_iter=it)
        ff, rf = solve_full(H, 1.0 + 0.5j, tol=1e-13, max_iter=it,
                            damping=1.0, spec=spec)
        bit_identical = bit_identical and np.array_equal(fa.values, ff.values) \
            and fa.d == ff.d and ra.residual_history == rf.residual_history

    # the three worked structural checks
    zs = zero_field(spec)
    H1 = FullMap(eval=lambda z, w, zeta: 0.3 * zeta, k=0.3,
                 structure=FullStructure(0.3, 0, 0.0, 0.0, 0.0, zs))
    c1 = check_conditions(H1, samples=1500).passes(k=0.3)
    H2 = FullMap(
        eval=lambda z, w, zeta: 0.3 * zeta
        + 0.05 * np.sin(np.real(z)) * zeta / (1.0 + np.abs(zeta)),
        k=0.35,
        structure=FullStructure(0.3, 0, 0.0, 0.05, 0.0, zs))
    c2 = check_conditions(H2, samples=3000).passes(k=0.35)
    H3 = FullMap(eval=lambda z, w, zeta: 0.3 * zeta + 0.1 * w ** 2, k=0.3)
    zb, wb = fit_bound_constants(H3, alpha=0.99, samples=1024, a=0.3, b=0.0)
    H3s = FullMap(eval=H3.eval, k=0.3,
                  structure=FullStructure(0.3, 0, 0.99, zb, wb, zs))
    c3 = check_conditions(H3s, samples=1024).bound_excess <= 1e-9
    ok = bit_identical and c1 and c2 and c3
    assert report(10, ok,
                  f"degeneration bit-identical over max_iter sweep: {bit_identical}; "
                  f"structural checks: linear {c1}, saturating-z {c2}, "
                  f"quadratic-w fitted (zeta_bound={zb:.3g}, w_bound={wb:.3g}) {c3}")


def test_criterion_11_determinism(tmp_path):
    solve_args = ["solve", "--map", "kabs:0.3", "--grid", "64",
                  "--h", "trig:0.1,0,1,0", "--mean", "1,0", "--seed", "9"]
    probe_args = ["probe", "--extremal", "2", "--grid", "64", "--levels", "3",
                  "--seed", "9"]
    identical = True
    for args, files in ((solve_args, ["solution.bfld", "report.csv",
                                      "summary.csv", "fz_heatmap.pgm"]),
                        (probe_args, ["regularity.csv"])):
        a, b = tmp_path / f"a{args[0]}", tmp_path / f"b{args[0]}"
        assert cli_main(args + ["--out", str(a)]) == 0
        assert cli_main(args + ["--out", str(b)]) == 0
        for name in files:
            identical = identical and (
                (a / name).read_bytes() == (b / name).read_bytes())
    assert report(11, identical,
                  "seeded solve and probe re-runs produce byte-identical "
                  "CSV, field and heatmap artifacts")
