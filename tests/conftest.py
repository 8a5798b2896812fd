"""Fixtures shared by the test modules."""

import numpy as np
import pytest


@pytest.fixture
def fft_counts(monkeypatch):
    """Counts numpy's fft2 and ifft2 calls made while the test runs."""
    counts = {"fft2": 0, "ifft2": 0}
    for name in counts:
        inner = getattr(np.fft, name)

        def counted(*args, _inner=inner, _name=name, **kwargs):
            counts[_name] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return counts
