"""The shared fixed-point kernel: transform count, best iterate, non-finite stops."""

import numpy as np
import pytest

from beltrami import (
    CCParams,
    FullMap,
    GridSpec,
    SolveReport,
    abs_map,
    derivative_pair,
    random_trig_field,
    solve_autonomous,
    solve_cc_neumann,
    solve_full,
    z_grid,
)
from beltrami.cli import parse_map

SPEC = GridSpec(16)
# built outside the counted solves: trig_field itself calls ifft2
FORCING = random_trig_field(SPEC, seed=1, amplitude=0.5)


def full_residual(H, f):
    """||f_zbar - H(z, f, f_z)||_2 recomputed from the spectral derivative pair."""
    fz, fzb = derivative_pair(f)
    r = fzb.values - H.eval(z_grid(f.spec), f.total_values(), fz.values)
    return float(np.sqrt(np.mean(np.abs(r) ** 2)))


@pytest.fixture
def fft_counts(monkeypatch):
    counts = {"fft2": 0, "ifft2": 0}
    for name in counts:
        inner = getattr(np.fft, name)

        def counted(*args, _inner=inner, _name=name, **kwargs):
            counts[_name] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return counts


class TestTransformCount:
    # Each step runs fft2(r) and ifft2(R * beurling) for psi; reading the
    # field f adds ifft2(R / dzbar).  After the loop one ifft2 builds the
    # returned field's periodic part from the best iterate's spectrum:
    #   gradient-only:  fft2 = I, ifft2 = I + 1   (2 I + 1 in all)
    #   full map:       fft2 = I, ifft2 = 2 I + 1 (3 I + 1 in all)

    def test_autonomous_two_per_step(self, fft_counts):
        _, rep = solve_autonomous(abs_map(0.5), FORCING, 1.0, tol=1e-10)
        it = rep.iterations
        assert it > 10
        assert fft_counts == {"fft2": it, "ifft2": it + 1}

    def test_neumann_two_per_step(self, fft_counts):
        _, rep = solve_cc_neumann(CCParams(0.3, 0.2j), FORCING, 1.0, tol=1e-10)
        it = rep.iterations
        assert it > 10
        assert fft_counts == {"fft2": it, "ifft2": it + 1}

    def test_full_map_reads_field_every_step(self, fft_counts):
        H = FullMap(eval=lambda z, w, zeta: 0.3 * zeta + 0.05 * w / (1 + np.abs(w)),
                    k=0.3)
        _, rep = solve_full(H, 1.0, tol=1e-10, spec=SPEC)
        it = rep.iterations
        assert it > 10
        assert fft_counts == {"fft2": it, "ifft2": 2 * it + 1}


class TestBestIterate:
    def test_best_iterate_returned_on_nonconvergence(self):
        spec = GridSpec(32)
        H = parse_map("linear:0.9,0,0,0+wterm:50,0+zterm:5,0,1,0", spec.L)
        f, rep = solve_full(H, 1.0, max_iter=60, spec=spec)
        assert not rep.converged
        assert rep.iterations == 60
        best = min(rep.residual_history)
        # the residual is least at the first step and grows afterwards
        assert rep.residual_history[0] == best
        assert rep.residual_history[-1] > 10 * best
        assert rep.final_residual == best
        assert full_residual(H, f) == pytest.approx(best, rel=1e-8)

    def test_report_invariant(self):
        with pytest.raises(ValueError, match="least history entry"):
            SolveReport(iterations=2, residual_history=[1.0, 2.0],
                        contraction_ratio=2.0, final_residual=2.0, converged=False)


class TestNonFinite:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_stops_at_first_nonfinite_residual(self):
        H = FullMap(lambda z, w, zeta: 0.3 * zeta + 0.1 * w ** 2, k=0.3)
        f, rep = solve_full(H, 1.0, max_iter=200, spec=SPEC)
        assert not rep.converged
        assert rep.iterations < 200
        assert f"non-finite at iteration {rep.iterations + 1}" in rep.notes
        assert all(np.isfinite(rep.residual_history))
        assert rep.final_residual == min(rep.residual_history)
        assert np.all(np.isfinite(f.total_values().view(float)))
        assert full_residual(H, f) == pytest.approx(rep.final_residual, rel=1e-8)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_no_finite_iterate_raises(self):
        H = FullMap(lambda z, w, zeta: 0.3 * zeta * np.inf, k=0.3)
        with pytest.raises(ArithmeticError, match="iteration 1"):
            solve_full(H, 1.0, spec=SPEC)
