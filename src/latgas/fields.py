"""Periodic grid functions on the unit torus, shared by the PDE solvers and
the empirical block-average fields."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Field:
    values: np.ndarray
    t: float = 0.0
    kind: str = "generic"   # rho | u | generic

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1:
            raise ValueError("Field values must be one-dimensional")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("Field values must be finite")

    @property
    def m(self):
        return self.values.size

    def x(self):
        return np.arange(self.m) / self.m

    def __call__(self, x):
        """Periodic linear interpolation at macroscopic positions x."""
        x = np.mod(np.asarray(x, dtype=float), 1.0)
        xi = x * self.m
        i0 = np.floor(xi).astype(int) % self.m
        i1 = (i0 + 1) % self.m
        w = xi - np.floor(xi)
        return (1.0 - w) * self.values[i0] + w * self.values[i1]

    def mean(self):
        return float(self.values.mean())

    def resample(self, m):
        return Field(self(np.arange(m) / m), t=self.t, kind=self.kind)


def l1_distance(f, g):
    """Torus L1 distance between two fields (resampling the finer one)."""
    if f.m != g.m:
        m = min(f.m, g.m)
        f, g = f.resample(m), g.resample(m)
    return float(np.mean(np.abs(f.values - g.values)))


def linf_distance(f, g):
    if f.m != g.m:
        m = min(f.m, g.m)
        f, g = f.resample(m), g.resample(m)
    return float(np.max(np.abs(f.values - g.values)))
