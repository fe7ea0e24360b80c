from fractions import Fraction

import numpy as np
import pytest

from heatgauss import (
    DomainError,
    PropertyViolation,
    SearchGrid,
    SpectralDecomposition,
    check_basic,
    check_bond,
    check_epsilon,
    check_main,
    check_stephen,
    gtilde_majorant,
    young_constant,
)
from heatgauss.cli import sample_functions


def basic_grid(seed=42):
    return SearchGrid(axes={
        "a": SearchGrid.log_axis(1e-3, 1e3, 14),
        "b": SearchGrid.log_axis(1e-3, 1e3, 14),
        "p": SearchGrid.lin_axis(0.25, 3.0, 7),
        "q": SearchGrid.lin_axis(0.25, 3.0, 7),
        "eps": SearchGrid.log_axis(1e-2, 10.0, 12),
    }, seed=seed)


class TestYoungConstant:
    def test_frozen_values(self):
        assert young_constant(1.0, 1.0) == 0.25
        assert young_constant(2.0, 1.0) == pytest.approx(float(Fraction(4, 27)), abs=1e-16)

    def test_positive_and_below_one(self):
        for p in (0.5, 1.0, 2.5):
            for q in (0.5, 1.0, 3.0):
                assert 0.0 < young_constant(p, q) < 1.0

    def test_invalid(self):
        with pytest.raises(DomainError):
            young_constant(0.0, 1.0)


class TestCheckBasic:
    def test_full_sweep(self):
        out = check_basic(basic_grid())
        assert out["n_points"] >= 10**5
        assert out["worst_margin"] >= -1e-12

    def test_tightness_at_maximizer(self):
        out = check_basic(basic_grid())
        assert out["tightness_rel"] <= 1e-8

    def test_reproducible_worst_point(self):
        one = check_basic(basic_grid(seed=5))
        two = check_basic(basic_grid(seed=5))
        assert one["worst_point"] == two["worst_point"]
        assert one["worst_margin"] == two["worst_margin"]


class TestCheckBond:
    def test_spectral_monotonicity(self, laplace200, rng):
        _, d = laplace200
        out = check_bond(d, [(1, 2), (1, 3), (2, 3)], rng.standard_normal((8, 200)))
        assert all(row["ratio"] <= 1.0 + 1e-10 for row in out["rows"])

    def test_invalid_pair(self, laplace200):
        with pytest.raises(DomainError):
            check_bond(laplace200[1], [(2, 1)], np.ones(200))


class TestCheckMain:
    def test_sweep(self, laplace200, rng):
        _, d = laplace200
        grid = SearchGrid(axes={
            "lam": SearchGrid.log_axis(1e-2, 1e2, 30),
            "eps": SearchGrid.log_axis(1e-2, 1.0, 20),
        }, seed=42)
        out = check_main(d, grid, rng.standard_normal((4, 200)))
        assert out["n_points"] >= 10**5


class TestCheckEpsilon:
    def test_sweep(self, laplace200, rng):
        _, d = laplace200
        grid = SearchGrid(axes={
            "lam": SearchGrid.log_axis(1e-2, 1e2, 40),
            "eps": SearchGrid.log_axis(1e-2, 1.9, 24),
        }, seed=42)
        out = check_epsilon(d, grid, rng.standard_normal((6, 200)))
        assert out["worst_margin"] >= -1e-10

    def test_eps_must_stay_below_two(self, laplace200):
        grid = SearchGrid(axes={
            "lam": np.array([1.0]),
            "eps": np.array([2.5]),
        })
        with pytest.raises(DomainError):
            check_epsilon(laplace200[1], grid, np.ones(200))


class TestCheckStephen:
    def test_fit_and_holdout(self, laplace200, rng):
        form, d = laplace200
        grid = SearchGrid(axes={
            "rho": SearchGrid.log_axis(1e-2, 1e2, 16),
            "theta": SearchGrid.log_axis(1e-2, 10.0, 16),
            "lam": SearchGrid.log_axis(1e-2, 1e2, 24),
        }, seed=42)
        f_train = sample_functions(d, rng, 12)
        f_holdout = rng.standard_normal((12, 200))
        out = check_stephen(form, d, grid, f_train, f_holdout)
        assert out["n_points"] >= 10**5
        # polyharmonic profile: the fitted constant should sit near the
        # ellipticity constant 1
        assert 0.5 <= out["c1"] <= 2.0

    def test_beam_fit(self, beam200, rng):
        form, d = beam200
        grid = SearchGrid(axes={
            "rho": SearchGrid.log_axis(1e-1, 1e3, 6),
            "theta": SearchGrid.log_axis(1e-2, 10.0, 6),
            "lam": SearchGrid.log_axis(1e-1, 1e2, 8),
        }, seed=42)
        f_train = sample_functions(d, rng, 8)
        f_holdout = rng.standard_normal((8, 200))
        check_stephen(form, d, grid, f_train, f_holdout)  # raises PropertyViolation on a held-out violation


class TestGTildeMajorant:
    def test_sweep(self):
        s = 1.0
        grid = SearchGrid(axes={
            "mu": SearchGrid.log_axis(s, 1e4 * s, 400),
            "t": SearchGrid.log_axis(1e-4, 10.0, 400),
        }, seed=42)
        out = gtilde_majorant(s, grid)
        assert out["worst_rel_gap"] >= -1e-12

    def test_minimum_near_saturation(self):
        # equality holds at mu = s for t >= 1/s and at mu = 1/(2t) for small t
        s = 2.0
        grid = SearchGrid(axes={
            "mu": np.array([s]),
            "t": np.array([1.0 / s, 2.0 / s, 5.0 / s]),
        })
        out = gtilde_majorant(s, grid)
        assert out["worst_rel_gap"] == pytest.approx(0.0, abs=1e-12)

    def test_mu_below_gap_rejected(self):
        grid = SearchGrid(axes={"mu": np.array([0.5]), "t": np.array([1.0])})
        with pytest.raises(DomainError):
            gtilde_majorant(1.0, grid)


class TestViolationsRaise:
    """Each sweep reports a violation by raising PropertyViolation, never in its return value."""

    def test_basic(self, monkeypatch):
        from heatgauss import inequalities

        monkeypatch.setattr(inequalities, "young_constant", lambda p, q: 0.5 * young_constant(p, q))
        with pytest.raises(PropertyViolation, match="Young inequality violated"):
            check_basic(basic_grid())

    def test_bond(self, laplace200, rng):
        _, d = laplace200
        reversed_mu = SpectralDecomposition(eigenvalues=d.eigenvalues[::-1], eigenvectors=d.eigenvectors,
                                            grid=d.grid, m=d.m)  # mu_1 is now the largest
        with pytest.raises(PropertyViolation, match="spectral bound violated"):
            check_bond(reversed_mu, [(1, 2)], rng.standard_normal((2, 200)))

    def test_main(self, laplace200, rng):
        _, d = laplace200
        negative = SpectralDecomposition(eigenvalues=-d.eigenvalues, eigenvectors=d.eigenvectors, grid=d.grid, m=d.m)
        grid = SearchGrid(axes={"lam": SearchGrid.log_axis(1e-2, 1e2, 5), "eps": SearchGrid.log_axis(1e-2, 1.0, 5)})
        with pytest.raises(PropertyViolation, match="symbol bound violated"):
            check_main(negative, grid, rng.standard_normal((2, 200)))

    def test_epsilon(self, laplace200, rng, monkeypatch):
        from heatgauss import inequalities

        sides = inequalities._product_sides
        monkeypatch.setattr(inequalities, "_product_sides", lambda *a: (2.0 * sides(*a)[1], sides(*a)[1]))
        grid = SearchGrid(axes={"lam": SearchGrid.log_axis(1e-2, 1e2, 5), "eps": SearchGrid.log_axis(1e-2, 1.9, 5)})
        with pytest.raises(PropertyViolation, match="product estimate violated"):
            check_epsilon(laplace200[1], grid, rng.standard_normal((2, 200)))

    def test_stephen_held_out(self, laplace200):
        form, d = laplace200
        grid = SearchGrid(axes={
            "rho": SearchGrid.log_axis(1e-2, 1e2, 4),
            "theta": SearchGrid.log_axis(1e-2, 10.0, 4),
            "lam": SearchGrid.log_axis(1e-2, 1e2, 4),
        })
        modes = [d.eigenvectors[:, [k]].T for k in (0, 199)]
        lo, hi = sorted(modes, key=lambda f: check_stephen(form, d, grid, f, f)["c1"])
        with pytest.raises(PropertyViolation, match="held-out absorption ratio"):
            check_stephen(form, d, grid, lo, hi)

    def test_gtilde_majorant(self, monkeypatch):
        from heatgauss import inequalities

        monkeypatch.setattr(inequalities, "gtilde", lambda g, t: 0.5 * inequalities.GTildeFn(g.s)(t))
        grid = SearchGrid(axes={"mu": SearchGrid.log_axis(1.0, 1e2, 10), "t": SearchGrid.log_axis(1e-2, 10.0, 10)})
        with pytest.raises(PropertyViolation, match="majorant violated"):
            gtilde_majorant(1.0, grid)
