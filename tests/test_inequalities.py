import math
import types
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
        "a": np.geomspace(1e-3, 1e3, 14),
        "b": np.geomspace(1e-3, 1e3, 14),
        "p": np.linspace(0.25, 3.0, 7),
        "q": np.linspace(0.25, 3.0, 7),
        "eps": np.geomspace(1e-2, 10.0, 12),
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

    def test_cloud_finds_a_dip_between_the_first_geometric_nodes(self, monkeypatch):
        # the margin lowered by 1e-6 only for a, b in (1.2e-3, 2.5e-3): no grid node (1e-3, 2.9e-3, ...)
        # sees it, the witness a = b = 1e-3 sits next to it, and the cloud drawn in index range reaches it
        from heatgauss import inequalities

        margin = inequalities._basic_margin

        def planted(a, b, p, q, eps):
            inside = (1.2e-3 < a) & (a < 2.5e-3) & (1.2e-3 < b) & (b < 2.5e-3)
            return margin(a, b, p, q, eps) - 1e-6 * inside

        monkeypatch.setattr(inequalities, "_basic_margin", planted)
        for seed in range(1, 21):
            with pytest.raises(PropertyViolation, match="Young inequality violated in refinement cloud") as err:
                check_basic(basic_grid(seed=seed))
            assert err.value.witness["a"] == err.value.witness["b"] == 1e-3


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
            "lam": np.geomspace(1e-2, 1e2, 30),
            "eps": np.geomspace(1e-2, 1.0, 20),
        }, seed=42)
        out = check_main(d, grid, rng.standard_normal((4, 200)))
        assert out["n_points"] >= 10**5


class TestCheckEpsilon:
    def test_sweep(self, laplace200, rng):
        _, d = laplace200
        grid = SearchGrid(axes={
            "lam": np.geomspace(1e-2, 1e2, 40),
            "eps": np.geomspace(1e-2, 1.9, 24),
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
            "rho": np.geomspace(1e-2, 1e2, 16),
            "theta": np.geomspace(1e-2, 10.0, 16),
            "lam": np.geomspace(1e-2, 1e2, 24),
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
            "rho": np.geomspace(1e-1, 1e3, 6),
            "theta": np.geomspace(1e-2, 10.0, 6),
            "lam": np.geomspace(1e-1, 1e2, 8),
        }, seed=42)
        f_train = sample_functions(d, rng, 8)
        f_holdout = rng.standard_normal((8, 200))
        check_stephen(form, d, grid, f_train, f_holdout)  # raises PropertyViolation on a held-out violation


class TestGTildeMajorant:
    def test_sweep(self):
        s = 1.0
        grid = SearchGrid(axes={
            "mu": np.geomspace(s, 1e4 * s, 400),
            "t": np.geomspace(1e-4, 10.0, 400),
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

    def test_bond(self, laplace200, rng, monkeypatch):
        # the gap read as mu_max: the constant mu_1^{(q-p)/2} is then too small for the low modes
        monkeypatch.setattr(SpectralDecomposition, "gap", property(lambda d: float(d.eigenvalues[-1])))
        with pytest.raises(PropertyViolation, match="spectral bound violated"):
            check_bond(laplace200[1], [(1, 2)], rng.standard_normal((2, 200)))

    def test_main(self, laplace200, rng, monkeypatch):
        from heatgauss import inequalities

        sides = inequalities._symbol_sides
        monkeypatch.setattr(inequalities, "_symbol_sides", lambda *a: (sides(*a)[0], sides(*a)[1] - sides(*a)[0]))
        grid = SearchGrid(axes={"lam": np.geomspace(1e-2, 1e2, 5), "eps": np.geomspace(1e-2, 1.0, 5)})
        with pytest.raises(PropertyViolation, match="symbol bound violated"):
            check_main(laplace200[1], grid, rng.standard_normal((2, 200)))

    def test_epsilon(self, laplace200, rng, monkeypatch):
        from heatgauss import inequalities

        sides = inequalities._product_sides
        monkeypatch.setattr(inequalities, "_product_sides", lambda *a: (2.0 * sides(*a)[1], sides(*a)[1]))
        grid = SearchGrid(axes={"lam": np.geomspace(1e-2, 1e2, 5), "eps": np.geomspace(1e-2, 1.9, 5)})
        with pytest.raises(PropertyViolation, match="product estimate violated"):
            check_epsilon(laplace200[1], grid, rng.standard_normal((2, 200)))

    def test_stephen_held_out(self, laplace200):
        form, d = laplace200
        grid = SearchGrid(axes={
            "rho": np.geomspace(1e-2, 1e2, 4),
            "theta": np.geomspace(1e-2, 10.0, 4),
            "lam": np.geomspace(1e-2, 1e2, 4),
        })
        modes = [d.eigenvectors[:, [k]].T for k in (0, 199)]
        lo, hi = sorted(modes, key=lambda f: check_stephen(form, d, grid, f, f)["c1"])
        with pytest.raises(PropertyViolation, match="held-out absorption ratio"):
            check_stephen(form, d, grid, lo, hi)

    def test_gtilde_majorant(self, monkeypatch):
        from heatgauss import inequalities

        gtilde = inequalities.gtilde
        monkeypatch.setattr(inequalities, "gtilde", lambda s, t: 0.5 * gtilde(s, t))
        grid = SearchGrid(axes={"mu": np.geomspace(1.0, 1e2, 10), "t": np.geomspace(1e-2, 10.0, 10)})
        with pytest.raises(PropertyViolation, match="majorant violated"):
            gtilde_majorant(1.0, grid)


class TestSweepRule:
    """The worst-point rule every mesh sweep shares: first minimum in loop order, witness, raise, cloud."""

    @staticmethod
    def sweep(blocks, axes=None, cloud=None):
        from heatgauss import inequalities

        grid = SearchGrid(axes={"x": np.arange(3.0), "y": np.arange(2.0)})
        return inequalities._sweep(grid, axes or grid.axes, blocks, "toy bound", "margin", -1.0,
                                   cloud or (lambda pert, at: (np.zeros(1), 1.0)))

    def test_ties_go_to_first_block_and_first_point(self):
        table = np.array([[1.0, 0.5], [0.5, 2.0], [0.5, 0.5]])  # 0.5 at (0, 1), (1, 0), (2, 0), (2, 1)
        out = self.sweep([({"p": 1}, table + 1.0), ({"p": 2}, table), ({"p": 3}, table.copy())])
        assert out["worst_margin"] == 0.5
        assert out["worst_point"] == {"p": 2, "x": 0.0, "y": 1.0}

    def test_violation_names_labels_and_axis_values(self):
        seen = []

        def blocks():
            for fi in range(3):
                seen.append(fi)
                table = np.zeros((3, 2))
                if fi == 1:
                    table[2, 1] = table[1, 1] = -3.0
                yield {"p": 2, "r": 1, "s": 0, "sample": fi}, table

        with pytest.raises(PropertyViolation, match=r"^toy bound violated, margin -3.0$") as err:
            self.sweep(blocks())
        assert err.value.witness == {"p": 2, "r": 1, "s": 0, "sample": 1, "x": 1.0, "y": 1.0}
        assert seen == [0, 1]  # the sweep stops at the first violating block

    def test_cloud_draws_on_grid_axes_at_the_witness(self):
        drawn = {}

        def cloud(pert, at):
            drawn.update(pert=pert, at=at)
            return np.full(3, -5.0), 2.0  # below tol * scale = -2

        axes = {"x": np.arange(3.0), "y": np.arange(2.0), "mu": np.array([7.0, 8.0])}  # mu: not a grid axis
        with pytest.raises(PropertyViolation, match=r"^toy bound violated in refinement cloud$") as err:
            self.sweep([({"p": 1}, np.arange(12.0).reshape(3, 2, 2)[::-1].copy())], axes=axes, cloud=cloud)
        assert err.value.witness == drawn["at"] == {"p": 1, "x": 2.0, "y": 0.0, "mu": 7.0}
        assert list(drawn["pert"]) == ["x", "y"]

    def test_n_points_sums_mesh_sizes(self, laplace200, rng):
        assert self.sweep([({}, np.zeros((3, 2))), ({}, np.ones((3, 2)))])["n_points"] == 12
        _, d = laplace200
        n, f = len(d.eigenvalues), rng.standard_normal((2, 200))
        grid = SearchGrid(axes={"lam": np.geomspace(1e-2, 1e2, 7), "eps": np.geomspace(1e-2, 1.0, 5)})
        assert check_main(d, grid, f)["n_points"] == 6 * 7 * 5 * n  # (p, r) blocks over (lam, eps, mu)
        assert check_epsilon(d, grid, f)["n_points"] == (2 + 6 + 12) * 2 * 7 * 5  # (p, r, s) blocks per sample
        assert check_basic(basic_grid())["n_points"] == 14 * 14 * 7 * 7 * 12

    def test_moment_table_is_the_direct_sums(self, laplace200, rng):
        from heatgauss import inequalities

        _, d = laplace200
        f = rng.standard_normal((3, 200))
        table = inequalities._moments(d, f, range(4))
        for p in range(4):
            for fi, row in enumerate(f):
                c2 = d.coefficients(row) ** 2
                assert table[p][fi] == float(np.sum(d.eigenvalues**p * c2))
                assert p or table[0][fi] == float(np.sum(c2))

    def test_vector_form_first_violation_as_in_a_loop(self, laplace200, rng, monkeypatch):
        from heatgauss import inequalities

        _, d = laplace200
        f = rng.standard_normal((3, 200))
        grid = SearchGrid(axes={"lam": np.geomspace(1e-2, 1e2, 30), "eps": np.geomspace(1e-2, 1.0, 20)})

        def sqrt(x):  # inflates some norms: the vector form then fails where the scalar form holds
            return math.sqrt(x) * (3.0 if int(x * 1e3) % 3 == 0 else 1.0)

        def loop():  # the reference: one (p, r, sample, lam, eps) point at a time
            for p in (1, 2, 3):
                for r in range(0, p):
                    expo = -r / (p - r) if r else 0.0
                    for row in f:
                        c2 = d.coefficients(row) ** 2
                        norm_r, norm_p, norm_0 = (sqrt(float(np.sum(d.eigenvalues**k * c2))) for k in (r, p, 0))
                        for lv in grid.axes["lam"][::5]:
                            for ev in grid.axes["eps"][::4]:
                                lhs = abs(lv) ** (p - r) * norm_r
                                rhs = ev * norm_p + ev**expo * abs(lv) ** p * norm_0
                                if lhs > rhs * (1.0 + 1e-10):
                                    yield (f"vector symbol bound violated: {lhs} > {rhs}",
                                           {"p": p, "r": r, "lam": float(lv), "eps": float(ev)})

        expected = next(loop())
        monkeypatch.setattr(inequalities, "math", types.SimpleNamespace(inf=math.inf, sqrt=sqrt))
        with pytest.raises(PropertyViolation, match="vector symbol bound") as err:
            check_main(d, grid, f)
        assert (str(err.value), err.value.witness) == expected
