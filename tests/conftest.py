"""Fixtures shared by the test modules."""

import numpy as np
import pytest


@pytest.fixture
def fft_counts(monkeypatch):
    """Counts numpy's forward and inverse 2-D transforms made while the test runs.

    "fft2" counts np.fft.fft2 calls; "ifft2" counts every inverse transform,
    np.fft.ifft2 and np.fft.ifftn alike (the fixed-point kernel uses ifftn,
    which honours out=).
    """
    counts = {"fft2": 0, "ifft2": 0}
    for name, key in (("fft2", "fft2"), ("ifft2", "ifft2"), ("ifftn", "ifft2")):
        inner = getattr(np.fft, name)

        def counted(*args, _inner=inner, _key=key, **kwargs):
            counts[_key] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return counts


@pytest.fixture
def no_blas(monkeypatch):
    """Makes numpy's BLAS-backed reductions raise while the test runs.

    np.vdot, np.dot, np.inner and np.linalg.norm hand their sums to a
    multithreaded BLAS; a code path that must not wake it fails loudly.
    """
    for owner, name in ((np, "vdot"), (np, "dot"), (np, "inner"), (np.linalg, "norm")):
        def refused(*args, _name=f"{owner.__name__}.{name}", **kwargs):
            raise AssertionError(f"{_name} called: it runs in BLAS")

        monkeypatch.setattr(owner, name, refused)
