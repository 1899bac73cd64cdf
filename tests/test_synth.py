"""Synthetic data generator tests."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import expit

import sparseclass as sc


class TestGeneration:
    def test_identity_covariance_when_uncorrelated(self):
        spec = sc.SynthSpec(n=50_000, p=8, k=2, rho=0.0, seed=1)
        data, _ = sc.gen_classification(spec)
        cov = np.cov(data.x, rowvar=False)
        assert np.abs(cov - np.eye(8)).max() < 0.05

    def test_adjacent_correlation_matches_rho(self):
        spec = sc.SynthSpec(n=50_000, p=10, k=2, rho=0.9, seed=2)
        data, _ = sc.gen_classification(spec)
        corr = np.corrcoef(data.x, rowvar=False)
        adjacent = np.diag(corr, k=1)
        assert np.abs(adjacent - 0.9).max() < 0.03
        # two-step neighbors decay like rho^2
        two_step = np.diag(corr, k=2)
        assert np.abs(two_step - 0.81).max() < 0.05

    def test_reference_scale_support_positions(self):
        spec = sc.SynthSpec(n=10, p=1000, k=25, rho=0.9, seed=3)
        _, support = sc.gen_classification(spec)
        assert support == frozenset(40 * (m + 1) - 1 for m in range(25))
        assert len(support) == 25

    def test_deterministic_in_seed(self):
        spec = sc.SynthSpec(n=200, p=20, k=4, rho=0.5, seed=7)
        d1, s1 = sc.gen_classification(spec)
        d2, s2 = sc.gen_classification(spec)
        np.testing.assert_array_equal(d1.x, d2.x)
        np.testing.assert_array_equal(d1.y, d2.y)
        assert s1 == s2

    def test_different_seeds_differ(self):
        d1, _ = sc.gen_classification(sc.SynthSpec(n=50, p=5, k=1, seed=0))
        d2, _ = sc.gen_classification(sc.SynthSpec(n=50, p=5, k=1, seed=1))
        assert not np.array_equal(d1.x, d2.x)

    def test_labels_are_signs(self):
        data, _ = sc.gen_classification(sc.SynthSpec(n=500, p=6, k=2, seed=4))
        assert set(np.unique(data.y)) == {-1.0, 1.0}

    def test_invalid_specs_rejected(self):
        with pytest.raises(sc.ConfigError):
            sc.SynthSpec(n=10, p=5, k=6)
        with pytest.raises(sc.ConfigError):
            sc.SynthSpec(n=10, p=5, k=2, rho=1.0)
        with pytest.raises(sc.ConfigError):
            sc.SynthSpec(n=0, p=5, k=2)


class TestRecurrence:
    def test_matches_the_three_array_recurrence_bit_for_bit(self):
        spec = sc.SynthSpec(n=300, p=40, k=4, rho=0.7, seed=5)
        data, support = sc.gen_classification(spec)
        rng = np.random.default_rng(spec.seed)
        eps = rng.standard_normal((spec.n, spec.p))
        x = np.empty((spec.n, spec.p))
        x[:, 0] = eps[:, 0]
        scale = math.sqrt(1.0 - spec.rho * spec.rho)
        for j in range(1, spec.p):
            x[:, j] = spec.rho * x[:, j - 1] + scale * eps[:, j]
        w = np.zeros(spec.p)
        w[sorted(support)] = 1.0
        y = np.where(rng.random(spec.n) < expit(x @ w), 1.0, -1.0)
        np.testing.assert_array_equal(data.x, x)
        np.testing.assert_array_equal(data.y, y)

    def test_holds_two_design_arrays_at_most(self):
        # the draws, run over in place, and the signed copy of from_arrays
        spec = sc.SynthSpec(n=20_000, p=50, k=5, seed=6)
        tracemalloc.start()
        try:
            data, _ = sc.gen_classification(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert data.signed.shape == (spec.n, spec.p)
        assert peak < 2.5 * spec.n * spec.p * 8
