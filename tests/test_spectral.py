import math
import warnings

import numpy as np
import pytest

from heatgauss import (
    ContractError,
    DomainError,
    HeatKernelEvaluator,
    PropertyViolation,
    ResolutionWarning,
    SpectralDecomposition,
    assemble_form,
    dirichlet_laplacian,
    evolved_form_bound_check,
    jacobi_eigh,
    kernel_eval,
    polyharmonic_spec,
    semigroup_apply,
    spectral_gap,
)
from heatgauss.cli import sample_functions
from heatgauss import assembly, spectral
from heatgauss.core import Grid1D, is_frozen
from heatgauss.spectral import EXP_UNDERFLOW_CAP, decay_weights, grid_derivative


class TestDirichletLaplacian:
    """Closed-form sine modes against np.linalg.eigh of the assembled Laplacian."""

    @pytest.mark.parametrize("length", [1.0, math.pi])
    @pytest.mark.parametrize("n", [3, 40, 120])
    def test_matches_eigh(self, n, length):
        g = Grid1D(length=length, n_interior=n)
        w, v = np.linalg.eigh(assemble_form(polyharmonic_spec(1), g).operator)
        d = dirichlet_laplacian(g)
        assert np.max(np.abs(d.eigenvalues - w) / w) <= 1e-12
        want = v / math.sqrt(g.h)
        sign = np.sign(np.sum(want * d.eigenvectors, axis=0))
        assert np.max(np.abs(want * sign - d.eigenvectors)) <= 1e-10
        assert np.max(np.abs(g.h * d.eigenvectors.T @ d.eigenvectors - np.eye(n))) <= 1e-12
        assert np.all(d.eigenvectors[:, 0] > 0)
        assert (d.grid, d.m) == (g, 1)

    def test_read_only(self):
        d = dirichlet_laplacian(Grid1D(length=1.0, n_interior=10))
        with pytest.raises(ValueError):
            d.eigenvalues[0] = 0.0

    def test_builders_hand_over_read_only_arrays(self, monkeypatch):
        # owners copy a writable array; the builders freeze theirs first, so nothing is copied
        handed = []
        for module in (assembly, spectral):
            monkeypatch.setattr(module, "read_only", lambda a: handed.append(is_frozen(a)) or a)
        g = Grid1D(length=1.0, n_interior=12)
        SpectralDecomposition.from_form(assemble_form(polyharmonic_spec(2), g))
        dirichlet_laplacian(g)
        assert handed == [True] * 5


class TestJacobi:
    def test_hand_2x2(self):
        w, v = jacobi_eigh(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        assert np.allclose(w, [1.0, 3.0])
        assert np.allclose(np.abs(v.T @ v), np.eye(2))

    def test_diagonal_passthrough(self):
        w, v = jacobi_eigh(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(w, [1.0, 2.0, 3.0])

    def test_random_symmetric_vs_reference(self, rng):
        A = rng.standard_normal((40, 40))
        A = A + A.T
        w, v = jacobi_eigh(A)
        w_ref = np.linalg.eigvalsh(A)
        assert np.allclose(w, w_ref, atol=1e-9 * np.abs(w_ref).max())
        assert np.max(np.abs(v @ np.diag(w) @ v.T - A)) < 1e-9 * np.abs(w_ref).max()

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ContractError):
            jacobi_eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(ContractError):
            jacobi_eigh(np.ones((2, 3)))


class TestDecomposition:
    def test_h_orthonormal_eigenvectors(self, laplace200):
        _, d = laplace200
        G = d.grid.h * d.eigenvectors.T @ d.eigenvectors
        assert np.max(np.abs(G - np.eye(G.shape[0]))) < 1e-9

    def test_gap_matches_analytic(self, laplace400):
        _, d = laplace400
        assert spectral_gap(d) == pytest.approx(1.0, rel=5e-3)

    def test_eigenvalues_match_discrete_symbol(self, laplace200):
        # discrete Dirichlet Laplacian spectrum: (4/h^2) sin^2(k h / 2)
        _, d = laplace200
        h = d.grid.h
        k = np.arange(1, d.grid.n_interior + 1)
        exact = 4.0 / h**2 * np.sin(k * h / 2.0) ** 2
        assert np.allclose(d.eigenvalues, exact, rtol=1e-9)

    def test_parseval(self, laplace200, rng):
        _, d = laplace200
        f = rng.standard_normal(d.grid.n_interior)
        c = d.coefficients(f)
        assert np.sum(c**2) == pytest.approx(d.grid.norm(f) ** 2)

    def test_operator_matrix_roundtrip(self, laplace200):
        form, d = laplace200
        assert np.max(np.abs(d.operator_matrix() - form.operator)) < 1e-8


class TestSemigroup:
    def test_single_mode_decay(self, laplace200):
        _, d = laplace200
        phi = d.eigenvectors[:, 3]
        out = semigroup_apply(d, 0.5, phi)
        assert np.allclose(out, math.exp(-0.5 * d.eigenvalues[3]) * phi)

    def test_semigroup_property(self, laplace200, rng):
        _, d = laplace200
        f = rng.standard_normal(d.grid.n_interior)
        one = semigroup_apply(d, 0.3, semigroup_apply(d, 0.2, f))
        other = semigroup_apply(d, 0.5, f)
        assert np.allclose(one, other)

    def test_propagator_composition(self, laplace200):
        _, d = laplace200
        P = d.propagator(0.25)
        assert np.max(np.abs(P @ P - d.propagator(0.5))) < 1e-10

    def test_negative_time_rejected(self, laplace200):
        with pytest.raises(DomainError):
            semigroup_apply(laplace200[1], -0.1, np.ones(200))

    def test_contraction_in_h_norm(self, laplace200, rng):
        _, d = laplace200
        f = rng.standard_normal(d.grid.n_interior)
        assert d.grid.norm(semigroup_apply(d, 1.0, f)) <= d.grid.norm(f)


class TestDecayWeights:
    def test_cap_is_inclusive_and_exact_zero_past_it(self):
        ex = np.array([0.0, EXP_UNDERFLOW_CAP, np.nextafter(EXP_UNDERFLOW_CAP, np.inf), 1e4])
        w = decay_weights(ex)
        assert EXP_UNDERFLOW_CAP == 700.0
        assert w[0] == 1.0
        assert w[1] == math.exp(-700.0)
        assert w[2] == 0.0 and w[3] == 0.0


class TestHeatKernel:
    def test_symmetry(self, laplace200):
        _, d = laplace200
        K = HeatKernelEvaluator(d).matrix(0.1)
        assert np.max(np.abs(K - K.T)) < 1e-12 * np.max(np.abs(K))

    def test_kernel_eval_matches_matrix(self, laplace200):
        _, d = laplace200
        ev = HeatKernelEvaluator(d)
        K = ev.matrix(0.3)
        assert kernel_eval(ev, 0.3, 10, 57) == pytest.approx(K[10, 57])

    def test_kernel_reproduces_semigroup(self, laplace200, rng):
        # u(t, x_i) = h * sum_j k(t, x_i, x_j) f(x_j)
        _, d = laplace200
        ev = HeatKernelEvaluator(d)
        f = rng.standard_normal(d.grid.n_interior)
        u = d.grid.h * ev.matrix(0.2) @ f
        assert np.allclose(u, semigroup_apply(d, 0.2, f))

    def test_floor_warning(self, laplace200):
        _, d = laplace200
        ev = HeatKernelEvaluator(d)
        with pytest.warns(ResolutionWarning):
            ev.matrix(ev.t_floor / 10.0)

    def test_positive_time_required(self, laplace200):
        ev = HeatKernelEvaluator(laplace200[1])
        with pytest.raises(DomainError):
            ev.matrix(0.0)


class TestGridDerivative:
    def test_centered_first_derivative(self):
        g = Grid1D(length=1.0, n_interior=49)
        f = g.points**2
        assert grid_derivative(g, f, 1, 20) == pytest.approx(2.0 * g.points[20], rel=1e-10)

    def test_centered_second_derivative(self):
        g = Grid1D(length=1.0, n_interior=49)
        f = g.points**2
        assert grid_derivative(g, f, 2, 25) == pytest.approx(2.0, rel=1e-6)

    def test_one_sided_at_boundary_warns(self):
        g = Grid1D(length=1.0, n_interior=20)
        f = g.points.copy()
        with pytest.warns(ResolutionWarning):
            val = grid_derivative(g, f, 1, 0)
        assert val == pytest.approx(1.0, rel=1e-9)

    def test_unsupported_order(self):
        g = Grid1D(length=1.0, n_interior=10)
        with pytest.raises(DomainError):
            grid_derivative(g, g.points, 3, 5)


class TestEvolvedFormBound:
    def test_holds_on_samples(self, laplace200, rng):
        _, d = laplace200
        f = rng.standard_normal((6, d.grid.n_interior))
        rows = evolved_form_bound_check(d, np.geomspace(0.05, 5.0, 12), f)
        assert max(r["ratio"] for r in rows) <= 1.0 + 1e-10

    def test_ground_mode_near_saturation(self, laplace200):
        # for f = phi_1 and t past the switch point the bound is tight
        _, d = laplace200
        s = d.eigenvalues[0]
        rows = evolved_form_bound_check(d, np.array([2.0 / s]), d.eigenvectors[:, 0])
        assert rows[0]["ratio"] == pytest.approx(1.0, rel=1e-4)

    @pytest.mark.parametrize("fixture", ["beam200", "poly3_40"])
    def test_underflowed_bound_compared_in_log_space(self, fixture, request):
        # the default t grid drives g~(t) ||f||^2 to 0 (2 s t > 745); the
        # runner's samples must still pass, with no 0/0 read as inf
        _, d = request.getfixturevalue(fixture)
        s = d.eigenvalues[0]
        t_grid = np.geomspace(0.01, 5.0, 25)
        assert 2.0 * s * t_grid[-1] > 745.0
        f = sample_functions(d, np.random.default_rng(42), 3)
        rows = evolved_form_bound_check(d, t_grid, f)
        assert len(rows) == 8 * 25
        assert all(math.isfinite(r["ratio"]) for r in rows)
        # the ground mode saturates the bound: ratio 1 in log space as well
        rows = evolved_form_bound_check(d, t_grid[t_grid > 1.0 / s], d.eigenvectors[:, 0])
        assert [r["ratio"] for r in rows] == pytest.approx([1.0] * len(rows), rel=1e-12)

    def test_capped_weights_compared_in_log_space(self):
        # past 2 t mu_1 = 700 every decay weight is capped to exactly 0 while
        # g~(t) ||f||^2 is still positive (it underflows near 745): Q(e^{-Ht} f)
        # must not read 0 there. For f = phi_1 the bound is an equality
        form = assemble_form(polyharmonic_spec(1), Grid1D(length=math.pi, n_interior=40))
        d = SpectralDecomposition.from_form(form)
        mu1 = d.eigenvalues[0]
        t_grid = np.array([690.0, 710.0, 740.0, 750.0]) / (2.0 * mu1)
        rows = evolved_form_bound_check(d, t_grid, d.eigenvectors[:, 0])
        assert [r["ratio"] for r in rows] == pytest.approx([1.0] * 4, rel=1e-12)

    def test_t_grid_at_once_matches_one_t_at_a_time(self, beam200):
        _, d = beam200
        t_grid = np.geomspace(0.01, 5.0, 25)
        f = sample_functions(d, np.random.default_rng(3), 3)
        rows = evolved_form_bound_check(d, t_grid, f)
        single = [r for fi, g in enumerate(f) for t in t_grid
                  for r in evolved_form_bound_check(d, np.array([t]), g[np.newaxis])]
        assert [r["ratio"] for r in rows] == [r["ratio"] for r in single]  # bitwise

    def test_ratio_above_one_raises(self, laplace200):
        # with the spectrum reversed, g~ is built on the largest eigenvalue and no longer majorizes
        _, d = laplace200
        bad = SpectralDecomposition(eigenvalues=d.eigenvalues[::-1], eigenvectors=d.eigenvectors, grid=d.grid, m=d.m)
        with pytest.raises(PropertyViolation, match="evolved form bound violated"):
            evolved_form_bound_check(bad, np.array([1.0]), d.eigenvectors[:, -1])

    def test_nonpositive_gap_rejected(self, laplace200):
        _, d = laplace200
        bad = SpectralDecomposition(
            eigenvalues=d.eigenvalues - 2.0 * d.eigenvalues[0],
            eigenvectors=d.eigenvectors,
            grid=d.grid,
            m=d.m,
        )
        with pytest.raises(PropertyViolation):
            evolved_form_bound_check(bad, np.array([1.0]), d.eigenvectors[:, 0])
