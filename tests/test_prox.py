import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from hpss import l21_norm, prox_l21, prox_sq_fro
from hpss.prox import split_sum_arrays


class TestProjectSum:
    def test_fixed_point(self, rng):
        x = rng.normal(size=50)
        x_h = rng.normal(size=50)
        h, p = split_sum_arrays(x, x_h, x - x_h)
        np.testing.assert_allclose(h, x_h, atol=1e-15)
        assert np.max(np.abs(x - h - p)) == 0.0

    def test_symmetric_split(self, rng):
        x = rng.normal(size=30)
        h, p = split_sum_arrays(x, np.zeros(30), np.zeros(30))
        np.testing.assert_allclose(h, x / 2)
        np.testing.assert_allclose(p, x / 2)

    def test_matches_lstsq_oracle(self, rng):
        # minimize ||(h,p)-(x_h,x_p)||^2 s.t. h+p=x, via unconstrained lstsq in h
        n = 20
        x = rng.normal(size=n)
        x_h = rng.normal(size=n)
        x_p = rng.normal(size=n)
        design = np.vstack([np.eye(n), -np.eye(n)])
        target = np.concatenate([x_h, x_p - x])
        h_star = np.linalg.lstsq(design, target, rcond=None)[0]
        h, _ = split_sum_arrays(x, x_h, x_p)
        assert np.linalg.norm(h - h_star) <= 1e-10

    def test_sum_exact_bitwise(self, rng):
        x = rng.normal(size=100)
        h, p = split_sum_arrays(x, rng.normal(size=100), rng.normal(size=100))
        assert np.max(np.abs(x - h - p)) == 0.0

    def test_length_mismatch(self, rng):
        with pytest.raises(ValueError):
            split_sum_arrays(np.zeros(5), np.zeros(4), np.zeros(5))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=2**32 - 1))
    def test_idempotent_and_nonexpansive(self, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=n)
        a = (rng.normal(size=n), rng.normal(size=n))
        b = (rng.normal(size=n), rng.normal(size=n))
        pa = split_sum_arrays(x, *a)
        pb = split_sum_arrays(x, *b)
        paa = split_sum_arrays(x, *pa)
        assert np.allclose(pa[0], paa[0], atol=1e-12)
        dist_in = np.sqrt(np.sum((a[0] - b[0]) ** 2) + np.sum((a[1] - b[1]) ** 2))
        dist_out = np.sqrt(np.sum((pa[0] - pb[0]) ** 2) + np.sum((pa[1] - pb[1]) ** 2))
        assert dist_out <= dist_in + 1e-12


class TestProxSqFro:
    def test_rho_one_halves(self, rng):
        x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        np.testing.assert_allclose(prox_sq_fro(x, 1.0), x / 2)

    def test_small_rho_limit(self, rng):
        x = rng.normal(size=(3, 5))
        np.testing.assert_allclose(prox_sq_fro(x, 1e-12), x, rtol=1e-11)

    def test_quadratic_oracle(self, rng):
        # argmin (1/2)||Y||^2 + (1/2 rho)||X - Y||^2 solved as a linear system
        rho = 0.7
        x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        flat = np.concatenate([x.real.ravel(), x.imag.ravel()])
        n = flat.size
        system = (1.0 + 1.0 / rho) * np.eye(n)
        y_star = np.linalg.solve(system, flat / rho)
        ours = prox_sq_fro(x, rho)
        ours_flat = np.concatenate([ours.real.ravel(), ours.imag.ravel()])
        assert np.linalg.norm(ours_flat - y_star) <= 1e-9 * np.linalg.norm(y_star)

    def test_rho_validation(self, rng):
        with pytest.raises(ValueError):
            prox_sq_fro(np.ones((2, 2)), 0.0)


class TestProxL21:
    def test_column_at_twice_threshold(self, rng):
        col = rng.normal(size=6) + 1j * rng.normal(size=6)
        rho = np.linalg.norm(col) / 2.0
        out = prox_l21(col[:, None], rho)
        np.testing.assert_allclose(out[:, 0], col / 2)

    def test_column_inside_threshold_zeroed(self, rng):
        col = rng.normal(size=6)
        rho = 2.0 * np.linalg.norm(col)
        out = prox_l21(col[:, None], rho)
        np.testing.assert_array_equal(out, np.zeros_like(out))

    def test_per_column_scalar_oracle(self, rng):
        # per column the minimizer is colinear with the data; solve the 1-D
        # problem  t + (1/2 rho)(||col|| - t)^2  over t in [0, ||col||] by
        # root-finding on its slope, with the boundary for one-signed slopes
        rho = 0.42
        x = rng.normal(size=(6, 5)) + 1j * rng.normal(size=(6, 5))
        ours = prox_l21(x, rho)
        for tau in range(5):
            col = x[:, tau]
            norm = np.linalg.norm(col)

            def slope(t, norm=norm):
                return 1.0 - (norm - t) / rho

            t_star = 0.0 if slope(0.0) >= 0.0 else brentq(slope, 0.0, norm, xtol=1e-14)
            expected = t_star / norm * col
            assert np.linalg.norm(ours[:, tau] - expected) <= 1e-8 * max(norm, 1.0)

    def test_never_increases_column_norms(self, rng):
        x = rng.normal(size=(8, 10)) + 1j * rng.normal(size=(8, 10))
        before = np.linalg.norm(x, axis=0)
        after = np.linalg.norm(prox_l21(x, 0.3), axis=0)
        assert np.all(after <= before + 1e-12)


class TestL21Norm:
    def test_zero(self):
        assert l21_norm(np.zeros((4, 4))) == 0.0

    def test_single_entry(self):
        x = np.zeros((3, 2), dtype=complex)
        x[1, 0] = 3 + 4j
        assert l21_norm(x) == pytest.approx(5.0)

    def test_unit_columns(self):
        x = np.zeros((2, 2))
        x[0, 0] = 1.0
        x[1, 1] = 1.0
        assert l21_norm(x) == pytest.approx(2.0)

    def test_positive_definite(self, rng):
        x = rng.normal(size=(5, 5))
        assert l21_norm(x) > 0


class TestMoreauIdentity:
    def test_squared_norm(self, rng):
        # y = prox_{rho f}(y) + rho * prox_{f*/rho}(y/rho) with f = (1/2)||.||^2,
        # whose conjugate is itself
        y = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
        rho = 0.35
        lhs = prox_sq_fro(y, rho) + rho * prox_sq_fro(y / rho, 1.0 / rho)
        np.testing.assert_allclose(lhs, y, atol=1e-12)

    def test_l21(self, rng):
        # conjugate of the l21 norm is the indicator of the per-column unit
        # ball, whose prox is the column-wise projection
        y = rng.normal(size=(5, 7)) + 1j * rng.normal(size=(5, 7))
        rho = 0.6
        norms = np.linalg.norm(y / rho, axis=0)
        proj = (y / rho) * np.minimum(1.0, 1.0 / np.where(norms > 0, norms, 1.0))
        lhs = prox_l21(y, rho) + rho * proj
        np.testing.assert_allclose(lhs, y, atol=1e-12)
