import math
import pathlib
import re

import numpy as np
import pytest

import heatgauss

from heatgauss import (
    DomainError,
    GammaSchedule,
    Grid1D,
    ParameterError,
    gtilde,
    schedule_from_gamma,
)
from heatgauss.core import HOLDOUT_SLACK, fit_holdout, holdout_within


class TestGrid:
    def test_mesh_width(self):
        g = Grid1D(length=1.0, n_interior=3)
        assert g.h == pytest.approx(0.25)
        assert np.allclose(g.points, [0.25, 0.5, 0.75])

    def test_invalid_grid(self):
        for length in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                Grid1D(length=length, n_interior=3)
        with pytest.raises(DomainError):
            Grid1D(length=1.0, n_interior=0)


class TestBoundaryDistance:
    def test_values(self):
        g = Grid1D(length=4.0, n_interior=3)
        assert g.boundary_distances.tolist() == [1.0, 2.0, 1.0]
        g = Grid1D(length=1.0, n_interior=4)
        np.testing.assert_allclose(g.boundary_distances, [0.2, 0.4, 0.4, 0.2], rtol=1e-15)
        assert np.array_equal(g.boundary_distances, np.minimum(g.points, 1.0 - g.points))


class TestHoldoutRule:
    def test_both_sides_of_the_slack(self):
        assert HOLDOUT_SLACK == 1e-9
        assert holdout_within(2.0, 2.0)
        assert holdout_within(2.0 * (1.0 + 0.5 * HOLDOUT_SLACK), 2.0)
        assert not holdout_within(2.0 * (1.0 + 2.0 * HOLDOUT_SLACK), 2.0)
        assert holdout_within(1.0, 2.0)


class TestFitHoldout:
    def test_sups_locations_and_verdict(self):
        train = np.array([[[0.5, 2.0], [2.0, 1.0]], [[1.0, 2.0], [0.0, 0.0]]])
        fit = fit_holdout(train, (np.full((2, 2), r) for r in (1.0, 2.5)))  # a generator of tables
        assert (fit.fitted, fit.fitted_at) == (2.0, (0, 0, 1))  # first occurrence: sample, then C order
        assert (fit.held, fit.held_at) == (2.5, (1, 0, 0)) and not fit.passed
        assert all(type(k) is int for k in fit.fitted_at + fit.held_at)
        assert str(fit.held_at) == "(1, 0, 0)"
        assert fit_holdout(train, train[:, :1]).passed

    def test_no_positive_ratio_and_nan(self):
        fit = fit_holdout(np.zeros((2, 3)), np.empty((0, 3)))
        assert (fit.fitted, fit.fitted_at, fit.held, fit.held_at, fit.passed) == (0.0, None, 0.0, None, True)
        fit = fit_holdout(np.array([[1.0, np.nan, 3.0], [5.0, 0.0, 0.0]]), np.zeros((1, 3)))
        assert math.isnan(fit.fitted) and fit.fitted_at == (0, 1) and not fit.passed


class TestGammaSchedule:
    def test_split_into_integer_and_fraction(self):
        sch = GammaSchedule(m=2, N=1, eps=0.125)
        # gamma = 2*(1 - 0.125) - 0.5 = 1.25
        assert sch.gamma == pytest.approx(1.25)
        assert sch.n == 1
        assert sch.kappa == pytest.approx(0.25)

    def test_endpoint_gives_gamma_zero(self):
        sch = GammaSchedule(m=1, N=1, eps=0.5)
        assert sch.gamma == 0.0
        assert sch.n == 0

    def test_roundtrip(self):
        for m, gamma in [(1, 0.4), (2, 0.75), (3, 2.0)]:
            sch = schedule_from_gamma(m, 1, gamma)
            assert sch.gamma == pytest.approx(gamma)
            assert sch.eps == pytest.approx(1.0 - (1 + 2.0 * gamma) / (2.0 * m))

    def test_inadmissible(self):
        with pytest.raises(ParameterError):
            GammaSchedule(m=1, N=2, eps=0.1)  # needs 2m > N
        with pytest.raises(ParameterError):
            GammaSchedule(m=1, N=1, eps=0.6)  # eps > 1 - N/(2m)
        with pytest.raises(ParameterError):
            GammaSchedule(m=2, N=1, eps=0.0)


class TestGTilde:
    def test_branches(self):
        # t > 1/s: s * exp(-2 s t)
        assert gtilde(2.0, 1.0) == pytest.approx(2.0 * math.exp(-4.0))
        # t <= 1/s: exp(-s t - 1) / t
        assert gtilde(2.0, 0.25) == pytest.approx(math.exp(-1.5) / 0.25)

    def test_continuity_at_switch(self):
        t = 1.0 / 3.0
        left = gtilde(3.0, t * (1 - 1e-12))
        right = gtilde(3.0, t * (1 + 1e-12))
        assert left == pytest.approx(right, rel=1e-9)

    def test_ratio_at_switch_point(self):
        # g~(1/(2s)) = 2 s e^{-3/2} against g~(1/s) = s e^{-2}: ratio 2 e^{1/2}
        assert gtilde(1.0, 0.5) / gtilde(1.0, 1.0) == pytest.approx(2.0 * math.exp(0.5))

    def test_vector_input(self):
        out = gtilde(1.0, np.array([0.5, 2.0]))
        assert out.shape == (2,)
        assert out[0] == pytest.approx(math.exp(-1.5) / 0.5)

    def test_invalid(self):
        for s in (0.0, -1.0, math.nan):
            with pytest.raises(DomainError):
                gtilde(s, 1.0)
        for t in (0.0, math.nan, np.array([1.0, math.nan])):
            with pytest.raises(DomainError):
                gtilde(1.0, t)


def test_version_matches_pyproject():
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    declared = re.search(r'^version = "([^"]+)"', pyproject.read_text(encoding="utf-8"), re.M)
    assert declared is not None
    assert heatgauss.__version__ == declared.group(1)
