"""Shared fixtures."""

import pytest

from weuler.series import Series


@pytest.fixture
def series_ops(monkeypatch):
    """Counts of Series.inverse and Series.__mul__ calls made from here on."""
    counts = {"inverse": 0, "mul": 0}
    real_inverse, real_mul = Series.inverse, Series.__mul__

    def inverse(self):
        counts["inverse"] += 1
        return real_inverse(self)

    def mul(self, other):
        counts["mul"] += 1
        return real_mul(self, other)

    monkeypatch.setattr(Series, "inverse", inverse)
    monkeypatch.setattr(Series, "__mul__", mul)
    return counts
