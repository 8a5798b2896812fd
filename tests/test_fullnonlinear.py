import numpy as np
import pytest

from beltrami import (
    FullMap,
    FullStructure,
    GridField,
    GridSpec,
    abs_map,
    check_conditions,
    distortion_stats,
    fit_bound_constants,
    from_autonomous,
    linear_map,
    lp_norm,
    random_trig_field,
    solve_autonomous,
    solve_full,
    z_grid,
    zero_field,
)
from beltrami.cli import parse_map
from beltrami.fullnonlinear import _min_sum_cover, _sample_points

SPEC = GridSpec(64)


def structure(a=0.0, b=0.0, alpha=0.0, zeta_bound=0.0, w_bound=0.0, spec=SPEC):
    return FullStructure(a, b, alpha, zeta_bound, w_bound, zero_field(spec))


class TestCheckConditions:
    def test_pure_linear_passes(self):
        H = FullMap(eval=lambda z, w, zeta: 0.3 * zeta, k=0.3,
                    structure=structure(a=0.3))
        rep = check_conditions(H, samples=1000)
        assert rep.passes(k=0.3)
        assert rep.lipschitz_max <= 0.3 + 1e-9
        assert rep.zero_slot_max == 0.0
        assert rep.bound_excess <= 1e-9

    def test_saturating_z_modulation_passes(self):
        # |U| = 0.05 |sin x| |zeta| / (1 + |zeta|) <= 0.05 = bound at alpha=0
        H = FullMap(
            eval=lambda z, w, zeta: 0.3 * zeta
            + 0.05 * np.sin(np.real(z)) * zeta / (1.0 + np.abs(zeta)),
            k=0.35,
            structure=structure(a=0.3, zeta_bound=0.05),
        )
        rep = check_conditions(H, samples=3000)
        assert rep.passes(k=0.35)

    def test_quadratic_w_term_fitted_constants(self):
        # H = 0.3 zeta + 0.1 w^2: fit the envelope at alpha = 0.99 and
        # confirm the fitted constants cover the samples
        H = FullMap(eval=lambda z, w, zeta: 0.3 * zeta + 0.1 * w ** 2, k=0.3)
        zb, wb = fit_bound_constants(H, alpha=0.99, samples=1024, a=0.3, b=0.0)
        assert zb == pytest.approx(0.0, abs=1e-9)
        # covering 0.1|w|^2 by wb*|w|^1.98 over sampled |w| <= 100 needs
        # wb >= 0.1 * 100^0.02
        assert wb == pytest.approx(0.1 * 100 ** 0.02, rel=0.05)
        H2 = FullMap(eval=H.eval, k=0.3,
                     structure=structure(a=0.3, alpha=0.99, zeta_bound=zb,
                                         w_bound=wb))
        rep = check_conditions(H2, samples=1024)
        assert rep.bound_excess <= 1e-9

    def test_zero_slot_violation_reported(self):
        H = FullMap(eval=lambda z, w, zeta: 0.3 * zeta + 0.01, k=0.3)
        rep = check_conditions(H, samples=200)
        assert rep.zero_slot_max == pytest.approx(0.01)
        assert not rep.passes(k=0.3)

    @pytest.mark.parametrize("spec_str, zero_slot", [
        ("kabs:0.3+zterm:0.02,0,1,0", 0.02), ("kabs:0.3+wterm:0.05,0", 0.0498)])
    def test_cli_full_maps_break_the_zero_slot(self, spec_str, zero_slot):
        # parse_map adds zterm and wterm inside H, so H(z, w, 0) != 0 there:
        # a zterm is a forcing inside H, as parse_map and FullMap document
        rep = check_conditions(parse_map(spec_str, 2 * np.pi), samples=200)
        assert rep.zero_slot_max == pytest.approx(zero_slot, rel=1e-4)
        assert not rep.passes(0.3)

    def test_reproduces_declared_constants_of_builtins(self):
        for A, k in ((linear_map(0.25, 0.15), 0.4), (abs_map(0.5), 0.5)):
            rep = check_conditions(from_autonomous(A), samples=4000)
            assert rep.lipschitz_max <= k + 1e-9
            assert rep.lipschitz_max >= k - 1e-3


class TestSolveFull:
    def test_degeneration_bitwise(self):
        A = linear_map(0.3, 0.1)
        H = from_autonomous(A)
        h0 = zero_field(SPEC)
        for it in (1, 2, 5, 40):
            fa, ra = solve_autonomous(A, h0, 1.0 + 0.5j, tol=1e-13, max_iter=it)
            ff, rf = solve_full(H, 1.0 + 0.5j, tol=1e-13, max_iter=it,
                                damping=1.0, spec=SPEC)
            assert np.array_equal(fa.values, ff.values)
            assert fa.c == ff.c and fa.d == ff.d
            assert ra.residual_history == rf.residual_history

    def test_z_dependent_term_converges(self):
        H = FullMap(eval=lambda z, w, zeta: 0.3 * zeta
                    + 0.02 * np.sin(2 * np.pi * np.real(z) / SPEC.L),
                    k=0.3)
        f, rep = solve_full(H, 1.0, tol=1e-11, max_iter=300, spec=SPEC)
        assert rep.converged
        assert rep.final_residual <= 1e-11
        st = distortion_stats(f)
        # the z-term acts as forcing of amplitude 0.02, which stretches the
        # homogeneous distortion bound 1.857 to a measured 1.9388
        assert st.max < 1.95

    def test_w_dependent_term_with_damping(self):
        H = FullMap(eval=lambda z, w, zeta: 0.3 * zeta + 0.05 * w / (1 + np.abs(w)),
                    k=0.3)
        f, rep = solve_full(H, 1.0, tol=1e-11, max_iter=500, damping=0.5, spec=SPEC)
        assert rep.converged
        assert rep.final_residual <= 1e-11
        # damping 0.5 slows the linear rate to about (1+k)/2
        assert rep.contraction_ratio <= 0.5 * (1 + 0.3) + 0.02

    def test_threshold_scales_with_the_forcing(self):
        # as for solve_autonomous: the solve stops at tol * max(1, ||h||_2)
        tol = 1e-8
        h = random_trig_field(SPEC, seed=3)
        h = h * (10.0 / lp_norm(h, 2))
        H = FullMap(eval=lambda z, w, zeta: 0.5 * np.abs(zeta) + 0.05 * w / (1 + np.abs(w)),
                    k=0.5)
        _, rep = solve_full(H, 1.0, tol=tol, spec=SPEC, h=h)
        history = rep.residual_history
        assert rep.converged and history[-1] <= 10 * tol < history[-2]
        assert history[-1] > tol

    @pytest.mark.parametrize("h", [
        GridField(SPEC, 1.0, 0, np.zeros((64, 64), complex)),
        GridField(SPEC, 0, 0.5j, np.zeros((64, 64), complex)),
        zero_field(GridSpec(32)),
        zero_field(GridSpec(64, 1.0)),
    ], ids=["affine-c", "affine-d", "other-n", "other-period"])
    def test_forcing_must_be_periodic_on_the_grid(self, h):
        H = FullMap(eval=lambda z, w, zeta: 0.2 * zeta, k=0.2)
        with pytest.raises(ValueError, match="forcing must be periodic on the solve grid"):
            solve_full(H, 1.0, spec=SPEC, h=h)

    def test_k_range_enforced(self):
        with pytest.raises(ValueError, match="Lipschitz"):
            FullMap(eval=lambda z, w, zeta: zeta, k=1.0)

    def test_damping_range(self):
        H = FullMap(eval=lambda z, w, zeta: 0.2 * zeta, k=0.2)
        with pytest.raises(ValueError, match="damping"):
            solve_full(H, 1.0, damping=0.0, spec=SPEC)

    def test_nonconvergence_reported_not_raised(self):
        H = FullMap(eval=lambda z, w, zeta: 0.3 * zeta
                    + 0.02 * np.sin(2 * np.pi * np.real(z) / SPEC.L), k=0.3)
        f, rep = solve_full(H, 1.0, tol=1e-13, max_iter=2, spec=SPEC)
        assert not rep.converged
        assert rep.iterations == 2
        assert f is not None


class TestFitBoundConstants:
    """The exact envelope walk, with scipy's HiGHS linprog as reference."""

    @staticmethod
    def linprog_objective(X, Y, r):
        linprog = pytest.importorskip("scipy.optimize").linprog
        res = linprog(c=[1.0, 1.0], A_ub=np.column_stack([-X, -Y]),
                      b_ub=-np.maximum(r, 0.0), bounds=[(0, None), (0, None)],
                      method="highs")
        assert res.success
        return float(res.x[0] + res.x[1])

    def check_cover(self, X, Y, r):
        x, y = _min_sum_cover(X, Y, r)
        assert x >= 0 and y >= 0
        assert x + y == pytest.approx(self.linprog_objective(X, Y, r), rel=1e-9)
        # every sampled constraint holds up to a few roundings of the rescale
        assert np.all(x * X + y * Y >= r - 1e-14 * np.abs(r))

    def test_matches_linprog_on_quadratic_w_maps(self):
        for seed in range(4):
            wq = 0.05 + 0.05 * seed
            H = FullMap(eval=lambda z, w, zeta: 0.3 * zeta + wq * w ** 2, k=0.3)
            for samples in (256, 1024, 4096):
                zb, wb = fit_bound_constants(H, alpha=0.99, samples=samples,
                                             a=0.3, b=0.0, seed=seed)
                _, z, w, zeta = _sample_points(GridSpec(16), samples, seed)
                X, Y = np.abs(zeta) ** 0.99, np.abs(w) ** 1.98
                r = np.abs(H.eval(z, w, zeta) - 0.3 * zeta)
                assert (zb, wb) == _min_sum_cover(X, Y, r)
                self.check_cover(X, Y, r)
                # the check the fit is meant for: the envelope on the same samples
                Hs = FullMap(eval=H.eval, k=0.3,
                             structure=structure(a=0.3, alpha=0.99, zeta_bound=zb,
                                                 w_bound=wb))
                assert check_conditions(Hs, samples=samples, seed=seed).bound_excess <= 1e-9

    def test_matches_linprog_on_mixed_scale_inputs(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            m = int(rng.integers(1, 2000))
            X = 10.0 ** rng.uniform(-3, 4, m) * (rng.uniform(size=m) > 0.1)
            Y = 10.0 ** rng.uniform(-3, 4, m) * (rng.uniform(size=m) > 0.1)
            Y[(X == 0) & (Y == 0)] = 1.0
            r = 10.0 ** rng.uniform(-3, 4, m) * np.sign(rng.normal(size=m) + 0.5)
            self.check_cover(X, Y, r)

    @pytest.mark.parametrize("X, Y, r, expected", [
        # x + 3y >= 3 and 3x + y >= 3 meet at x = y = 3/4
        ([1.0, 3.0], [3.0, 1.0], [3.0, 3.0], (0.75, 0.75)),
        # the envelope still rises at t = 1 (its lines cross at t = 3): y = 0
        ([1.0, 2.0], [0.0, 1.5], [1.0, 1.0], (1.0, 0.0)),
        # and the mirror image, peaking at t = 0: x = 0
        ([0.0, 1.5], [1.0, 2.0], [1.0, 1.0], (0.0, 1.0)),
    ])
    def test_exact_vertices(self, X, Y, r, expected):
        X, Y, r = np.array(X), np.array(Y), np.array(r)
        x, y = _min_sum_cover(X, Y, r)
        assert (x, y) == pytest.approx(expected, rel=1e-15, abs=0.0)
        assert np.all(x * X + y * Y >= r - 1e-14 * r)

    def test_non_finite_samples_raise(self):
        H = FullMap(eval=lambda z, w, zeta: np.nan * zeta, k=0.3)
        with pytest.raises(ValueError, match="inf or nan"):
            fit_bound_constants(H, alpha=0.5, samples=64)

    def test_structured_map_subtracts_declared_u(self):
        # |H - 0.3 zeta| = |0.1 w + u(z)| <= 0.1 |w| + u(z) with u declared
        spec = GridSpec(16)
        u = GridField(spec, 0.0, 0.0, 0.05 * (1.0 + np.cos(z_grid(spec).real)))

        def H_eval(z, w, zeta):
            return 0.3 * zeta + 0.1 * w + 0.05 * (1.0 + np.cos(np.real(z)))

        H = FullMap(eval=H_eval, k=0.3,
                    structure=FullStructure(0.3, 0.0, 0.5, 0.0, 0.0, u))
        zb, wb = fit_bound_constants(H, alpha=0.5, samples=1024, seed=3)
        _, z, w, zeta = _sample_points(spec, 1024, 3)
        r = np.abs(H_eval(z, w, zeta) - 0.3 * zeta) - 0.05 * (1.0 + np.cos(z.real))
        assert (zb, wb) == _min_sum_cover(np.abs(zeta) ** 0.5, np.abs(w), r)
        assert zb + wb <= 0.1 * (1 + 1e-12)
        # without the declared u the same samples need larger constants
        zb0, wb0 = fit_bound_constants(FullMap(eval=H_eval, k=0.3), alpha=0.5,
                                       samples=1024, seed=3, a=0.3)
        assert zb0 + wb0 > 0.2

    def test_nothing_to_cover(self):
        H = FullMap(eval=lambda z, w, zeta: 0.3 * zeta, k=0.3)
        assert fit_bound_constants(H, alpha=0.99, samples=256, a=0.3) == (0.0, 0.0)
        X = Y = np.ones(3)
        assert _min_sum_cover(X, Y, np.array([-1.0, 0.0, -2.0])) == (0.0, 0.0)

    def test_infeasible_row_raises(self):
        X, Y, r = np.array([0.0, 1.0]), np.array([0.0, 2.0]), np.array([1.0, 1.0])
        with pytest.raises(ArithmeticError, match="bound fit failed"):
            _min_sum_cover(X, Y, r)
        # a zero-weight row with nothing to cover does not bind
        assert _min_sum_cover(X, Y, np.array([0.0, 1.0])) == (0.0, 0.5)


class TestFullStructure:
    def test_alpha_range(self):
        with pytest.raises(ValueError, match="exponent"):
            FullStructure(0.1, 0.0, 1.0, 0.0, 0.0, zero_field(SPEC))
