import numpy as np
import pytest

from beltrami import (
    AutonomousMap,
    GridField,
    GridSpec,
    abs_map,
    check_linear_at_infinity,
    derivative_pair,
    estimate_lipschitz,
    fit_linear_part,
    linear_map,
    random_trig_field,
    residual,
    smooth_saturating_map,
    solve_autonomous,
    solve_cc_neumann,
    CCParams,
    trig_field,
    zero_field,
)
from beltrami.analysis import distortion_stats
from _helpers import pair_rel_l2

SPEC = GridSpec(64)
RADII = np.logspace(0, 6, 13)


class TestBuiltinMaps:
    def test_linear_ellipticity_message(self):
        with pytest.raises(ValueError, match=r"ellipticity violated: \|a\|\+\|b\| = 2"):
            linear_map(2.0, 0.0)

    def test_abs_map_range(self):
        with pytest.raises(ValueError, match="Lipschitz"):
            abs_map(1.0)

    def test_declared_linf_envelopes_hold(self):
        # excess is pure roundoff: ~eps * |z| at moduli up to 1e6
        for m in (linear_map(0.3, 0.2), smooth_saturating_map(0.3, 0, 0.2)):
            assert check_linear_at_infinity(m, samples=512) <= 1e-8

    def test_abs_map_declares_no_linf(self):
        assert abs_map(0.3).linf is None


class TestEstimateLipschitz:
    def test_pure_linear_exact(self):
        est = estimate_lipschitz(linear_map(0.5, 0), samples=500, radius=10.0)
        assert est == pytest.approx(0.5, abs=1e-9)

    def test_abs_map_tight(self):
        est = estimate_lipschitz(abs_map(0.3), samples=4000, radius=10.0)
        assert est <= 0.3 + 1e-9
        assert est >= 0.3 - 1e-3

    def test_mixed_linear_sup_over_directions(self):
        est = estimate_lipschitz(linear_map(0.3, 0.2), samples=4000, radius=10.0)
        assert est == pytest.approx(0.5, abs=1e-3)
        assert est <= 0.5 + 1e-12

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            estimate_lipschitz(abs_map(0.3), samples=1, radius=1.0)


class TestFitLinearPart:
    def test_exactly_linear(self):
        fit = fit_linear_part(linear_map(0.3, 0.2), RADII)
        assert fit.ok
        assert fit.a == pytest.approx(0.3, abs=1e-12)
        assert fit.b == pytest.approx(0.2, abs=1e-12)
        assert fit.alpha == 0.0 and fit.C == 0.0

    def test_saturating_perturbation(self):
        fit = fit_linear_part(smooth_saturating_map(0.3, 0.2, 0.1), RADII)
        assert fit.ok
        assert fit.a == pytest.approx(0.3, abs=1e-3)
        assert fit.b == pytest.approx(0.2, abs=1e-3)
        assert abs(fit.alpha) < 0.1

    def test_abs_map_rejected(self):
        fit = fit_linear_part(abs_map(0.3), RADII)
        assert not fit.ok
        assert fit.alpha == pytest.approx(1.0, abs=1e-6)
        # best linear fit leaves the full k*|z| residual, growing linearly
        assert fit.residual_per_radius[-1] == pytest.approx(0.3 * RADII[-1], rel=1e-6)

    def test_detection_separates_regimes(self):
        assert fit_linear_part(linear_map(0.4, 0.1), RADII).ok
        assert fit_linear_part(smooth_saturating_map(0.2, 0.1, 0.3), RADII).ok
        assert not fit_linear_part(abs_map(0.6), RADII).ok

    def test_radii_validation(self):
        with pytest.raises(ValueError, match="three increasing"):
            fit_linear_part(abs_map(0.3), [1.0, 2.0])
        with pytest.raises(ValueError, match="decades"):
            fit_linear_part(abs_map(0.3), [1.0, 2.0, 4.0])


class TestSolveAutonomous:
    def test_trivial(self):
        f, rep = solve_autonomous(linear_map(0, 0), zero_field(SPEC), 1.0)
        assert rep.iterations == 1 and rep.converged
        assert f.c == 1.0 and not f.values.any()

    def test_matches_neumann_bitwise(self):
        # the two solvers run the identical iteration for linear maps
        h = random_trig_field(SPEC, seed=11)
        fa, ra = solve_autonomous(linear_map(0.3, 0.2), h, 1.0, tol=1e-11)
        fb, rb = solve_cc_neumann(CCParams(0.3, 0.2), h, 1.0, tol=1e-11)
        assert np.array_equal(fa.values, fb.values)
        assert ra.residual_history == rb.residual_history

    def test_abs_map_contraction_and_distortion(self):
        A = abs_map(0.3)
        h = trig_field(SPEC, [(1, 0, 0.1)])
        f, rep = solve_autonomous(A, h, 1.0, tol=1e-10)
        assert rep.converged
        assert rep.contraction_ratio <= 0.32
        st = distortion_stats(f)
        # the forcing adds ~|h|/|f_z| to the gradient ratio, so the
        # homogeneous bound (1+k)/(1-k) = 1.857 does not apply; the
        # measured maximum at this forcing amplitude is 2.2657
        assert 2.0 < st.max < 2.30
        assert st.degenerate_fraction == 0.0

    def test_ellipticity_propagation_homogeneous(self):
        # with h = 0 the gradient bound |A| <= k|zeta| transfers exactly
        for A, k in ((abs_map(0.3), 0.3), (linear_map(0.2, 0.4), 0.6)):
            f, rep = solve_autonomous(A, zero_field(SPEC), 1.0 + 0.3j)
            assert rep.converged
            fz, fzb = derivative_pair(f)
            assert np.all(np.abs(fzb.values) <= (k + 0.01) * np.abs(fz.values))

    @pytest.mark.parametrize("make", [
        lambda: linear_map(0.3, 0.2),
        lambda: abs_map(0.3),
        lambda: smooth_saturating_map(0.3, 0, 0.2, ),
    ])
    def test_manufactured_recovery(self, make):
        A = make()
        fstar = random_trig_field(SPEC, seed=17, band=3, modes=6,
                                  amplitude=0.1, c=1.0)
        fz, fzb = derivative_pair(fstar)
        h = GridField(SPEC, 0, 0, fzb.values - A.eval(fz.values))
        f, rep = solve_autonomous(A, h, 1.0, tol=1e-11)
        assert rep.converged
        assert pair_rel_l2(f, fstar) < 1e-7

    def test_declared_k_audited(self):
        lying = AutonomousMap(eval=lambda z: 0.5 * z, k=0.3)
        with pytest.raises(ValueError, match="Lipschitz"):
            solve_autonomous(lying, zero_field(SPEC), 1.0)


class TestResidualOp:
    def test_trivial_zero(self):
        f = GridField(SPEC, 1.0, 0.0, np.zeros(SPEC.n ** 2))
        assert residual(linear_map(0, 0), f, zero_field(SPEC)) == 0.0

    def test_manufactured_pair(self):
        A = abs_map(0.3)
        fstar = random_trig_field(SPEC, seed=23, amplitude=0.2, c=1.0)
        fz, fzb = derivative_pair(fstar)
        h = GridField(SPEC, 0, 0, fzb.values - A.eval(fz.values))
        assert residual(A, fstar, h) < 1e-10

    def test_perturbation_lower_bound(self):
        A = abs_map(0.3)
        h = trig_field(SPEC, [(1, 0, 0.1)])
        f, _ = solve_autonomous(A, h, 1.0, tol=1e-11)
        pert = trig_field(SPEC, [(0, 1, 0.1)])
        pz, pzb = derivative_pair(pert)
        # |res(f + pert)| >= ||pert_zbar - A'(...)|| >= (1-k) * pair scale
        pert_scale = np.sqrt(np.mean(np.abs(pz.values) ** 2
                                     + np.abs(pzb.values) ** 2))
        r = residual(A, f + pert, h)
        assert r >= (1 - A.k) * pert_scale * 0.99

    def test_spec_mismatch(self):
        f = zero_field(GridSpec(32))
        with pytest.raises(ValueError, match="grids"):
            residual(abs_map(0.3), f, zero_field(SPEC))
