"""Reproducible synthetic classification data with AR(1)-correlated features."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .core import ConfigError, DesignMatrix


@dataclass(frozen=True)
class SynthSpec:
    """n observations, p features, k planted coefficients, neighbor
    correlation rho (column j vs j+1)."""

    n: int
    p: int
    k: int
    rho: float = 0.9
    seed: int = 0

    def __post_init__(self):
        if self.n < 1 or self.p < 1 or self.k < 1:
            raise ConfigError("n, p, k must be positive")
        if self.k > self.p:
            raise ConfigError("k cannot exceed p")
        if not (0.0 <= self.rho < 1.0):
            raise ConfigError("rho must be in [0, 1)")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")


def planted_support(spec: SynthSpec) -> frozenset[int]:
    """Zero-based planted positions: 1-based indices that are multiples of
    floor(p/k), giving exactly k entries."""
    step = spec.p // spec.k
    return frozenset(step * (m + 1) - 1 for m in range(spec.k))


def gen_classification(spec: SynthSpec) -> tuple[DesignMatrix, frozenset[int]]:
    """Draw rows from N(0, Sigma) with Sigma_ij = rho^|i-j| and Bernoulli
    labels from the logistic model with unit coefficients on the planted
    support.  Deterministic in the seed.

    The covariance is realized exactly by the AR(1) column recurrence
    x_j = rho * x_{j-1} + sqrt(1 - rho^2) * eps_j, run in place over the
    draws, so the generator holds no n x p array beside them and the
    signed copy of ``DesignMatrix.from_arrays``.
    """
    rng = np.random.default_rng(spec.seed)
    x = rng.standard_normal((spec.n, spec.p))
    scale = math.sqrt(1.0 - spec.rho * spec.rho)
    for j in range(1, spec.p):
        x[:, j] *= scale
        x[:, j] += spec.rho * x[:, j - 1]

    support = planted_support(spec)
    w = np.zeros(spec.p)
    w[sorted(support)] = 1.0
    prob_pos = expit(x @ w)
    y = np.where(rng.random(spec.n) < prob_pos, 1.0, -1.0)
    data = DesignMatrix.from_arrays(x, y)
    return data, support
