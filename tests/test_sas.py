"""Tests for SAS: polynomial, LUT, and the approximate softmax."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sas.lut import ExpLUT
from repro.sas.poly import PAPER_POLY_COEFFS, fit_exp_poly, poly_eval, poly_max_error
from repro.sas.softmax import _CHUNK, SAS, SASConfig, sas_exp, sas_softmax

from tests._reference_kernels import reference_sas_exp


class TestPoly:
    def test_paper_coeffs_accurate(self):
        # Eq. 15's fit is accurate to ~4e-4 on [0, 1].
        assert poly_max_error(PAPER_POLY_COEFFS) < 5e-4

    def test_refit_recovers_paper_coeffs(self):
        refit = fit_exp_poly(degree=3)
        np.testing.assert_allclose(refit, PAPER_POLY_COEFFS, atol=2e-3)

    def test_refit_at_least_as_good(self):
        assert poly_max_error(tuple(fit_exp_poly(3))) <= poly_max_error() + 1e-6

    def test_higher_degree_better(self):
        e2 = poly_max_error(tuple(fit_exp_poly(2)))
        e3 = poly_max_error(tuple(fit_exp_poly(3)))
        e4 = poly_max_error(tuple(fit_exp_poly(4)))
        assert e4 < e3 < e2

    def test_horner_matches_polyval(self, rng):
        xs = rng.uniform(0, 1, 100)
        np.testing.assert_allclose(
            poly_eval(xs, PAPER_POLY_COEFFS), np.polyval(PAPER_POLY_COEFFS, xs), rtol=1e-12
        )

    def test_fp16_mode_close(self, rng):
        xs = rng.uniform(0, 1, 100)
        exact = poly_eval(xs, PAPER_POLY_COEFFS)
        fp16 = poly_eval(xs, PAPER_POLY_COEFFS, emulate_fp16=True)
        assert np.max(np.abs(exact - fp16)) < 3e-3

    def test_invalid_degree(self):
        with pytest.raises(ValueError):
            fit_exp_poly(degree=0)


class TestLUT:
    def test_entries_are_exp(self):
        lut = ExpLUT(threshold=-6)
        np.testing.assert_allclose(lut.table[:7], np.exp(-np.arange(7)))
        assert lut.table[-1] == 0.0  # sentinel

    def test_lookup_clamps_to_sentinel(self):
        lut = ExpLUT(threshold=-6)
        assert lut.lookup(np.array([100]))[0] == 0.0

    def test_negative_index_raises(self):
        with pytest.raises(ValueError):
            ExpLUT().lookup(np.array([-1]))

    def test_nonnegative_threshold_raises(self):
        with pytest.raises(ValueError):
            ExpLUT(threshold=0)

    def test_size_tracks_threshold(self):
        assert len(ExpLUT(threshold=-6)) == 8
        assert len(ExpLUT(threshold=-10)) == 12
        assert ExpLUT(threshold=-6).storage_bytes == 16  # fits in registers


class TestSASExp:
    def test_accuracy_in_active_range(self):
        sas = SAS(SASConfig(threshold=-6))
        assert sas.max_abs_error() < 1e-3

    def test_zero_maps_near_one(self):
        sas = SAS()
        assert sas(np.array([0.0]))[0] == pytest.approx(1.0, abs=1e-3)

    def test_sparsity_below_threshold(self):
        sas = SAS(SASConfig(threshold=-6))
        xs = np.array([-6.01, -100.0, -1e20])
        np.testing.assert_array_equal(sas(xs), 0.0)

    def test_boundary_is_active(self):
        sas = SAS(SASConfig(threshold=-6))
        assert sas(np.array([-6.0]))[0] > 0.0

    def test_non_finite_maps_to_zero(self):
        sas = SAS()
        np.testing.assert_array_equal(sas(np.array([-np.inf, np.nan])), 0.0)

    def test_positive_rounding_noise_clamped(self):
        sas = SAS()
        out = sas(np.array([1e-9, 0.01]))
        assert np.all(out <= 1.0 + 1e-3)

    def test_monotone_on_grid(self):
        sas = SAS()
        xs = np.linspace(-5.999, 0, 1000)
        out = sas(xs)
        assert np.all(np.diff(out) >= -2e-3)  # approximately monotone

    @given(st.floats(min_value=-6, max_value=0))
    @settings(max_examples=100, deadline=None)
    def test_pointwise_error_property(self, x):
        sas = SAS()
        assert abs(sas(np.array([x]))[0] - np.exp(x)) < 1e-3

    def test_fp16_mode_still_accurate(self):
        sas = SAS(SASConfig(emulate_fp16=True))
        assert sas.max_abs_error(n_points=2001) < 3e-3


def _sas_inputs(size: int, seed: int) -> np.ndarray:
    """``size`` inputs: every special case first, then random draws from
    the active range, the sparse tail and exact integers."""
    specials = np.array([
        np.nan, np.inf, -np.inf, 0.0, -0.0,
        -6.0, np.nextafter(-6.0, -np.inf), np.nextafter(-6.0, 0.0),
        5e-324, 1e-300, 1e-9, 0.01, 0.5, 3.0, -5e-324, -1.0, -5.5, -7.0, -1e300,
    ])
    rng = np.random.default_rng(seed)
    draws = np.concatenate([
        rng.uniform(-7.0, 0.5, size),
        -8.0 * np.abs(rng.standard_normal(size)),
        rng.integers(-8, 1, size).astype(np.float64),
    ])
    return np.concatenate([specials, rng.permutation(draws)])[:size]


class TestSASExpMatchesFrozenFormula:
    """``sas_exp`` must give the bytes, dtype and shape of one whole-array
    pass of its formula (frozen in ``tests/_reference_kernels.py``) for
    any input size, layout and rank."""

    @staticmethod
    def _check(x, emulate_fp16: bool, threshold: int = -6) -> None:
        lut = ExpLUT(threshold=threshold, emulate_fp16=emulate_fp16)
        got = sas_exp(x, lut, PAPER_POLY_COEFFS, threshold, emulate_fp16)
        want = reference_sas_exp(x, lut, PAPER_POLY_COEFFS, threshold, emulate_fp16)
        assert type(got) is type(want)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("emulate_fp16", [False, True])
    @pytest.mark.parametrize(
        "size", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5]
    )
    def test_sizes(self, size, emulate_fp16):
        self._check(_sas_inputs(size, size), emulate_fp16)

    @pytest.mark.parametrize("emulate_fp16", [False, True])
    def test_views_ranks_and_scalars(self, emulate_fp16):
        grid = _sas_inputs(6 * _CHUNK, 7).reshape(48, -1)
        cube = grid.reshape(6, 8, -1)
        for x in (
            grid[::3, 1::2], grid.T, grid[:, ::-1], cube.transpose(2, 0, 1),
            np.float64(-2.5), np.array(-0.0), np.array(np.nan), np.empty((3, 0)),
            [-0.25, -6.0, 1.0],
        ):
            self._check(x, emulate_fp16)

    def test_other_threshold(self):
        self._check(_sas_inputs(2 * _CHUNK + 3, 11), False, threshold=-3)

    def test_callable_matches_formula(self):
        x = _sas_inputs(_CHUNK + 17, 5).reshape(-1, 1)
        for config in (SASConfig(), SASConfig(emulate_fp16=True)):
            sas = SAS(config)
            want = reference_sas_exp(
                x, sas.lut, config.coeffs, config.threshold, config.emulate_fp16
            )
            assert sas(x).tobytes() == want.tobytes()


class TestSASSoftmax:
    def test_rows_sum_to_one(self, rng):
        p = sas_softmax(rng.standard_normal((6, 40)))
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, rtol=1e-12)

    def test_close_to_exact_softmax(self, rng):
        x = rng.standard_normal((6, 40)) * 2
        from repro.attention.reference import softmax

        err = np.abs(sas_softmax(x) - softmax(x)).max()
        assert err < 2e-3

    def test_sparsification_zeroes_small_probs(self, rng):
        x = np.array([[0.0, -10.0, -20.0]])
        p = sas_softmax(x, SASConfig(threshold=-6))
        assert p[0, 1] == 0.0 and p[0, 2] == 0.0
        assert p[0, 0] == 1.0

    def test_never_nan_on_constant_rows(self):
        p = sas_softmax(np.zeros((3, 5)))
        np.testing.assert_allclose(p, 0.2)

    def test_invalid_coherence_of_config(self):
        with pytest.raises(ValueError):
            ExpLUT(threshold=1)
