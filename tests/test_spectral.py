import dataclasses
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
)
from conftest import evolved_form_ratio_oracle, general_m2_spec, jacobi_oracle, semigroup_apply
from heatgauss.cli import sample_functions
from heatgauss import assembly, core, spectral
from heatgauss.core import Grid1D, is_frozen
from heatgauss.profiles import get_profile
from heatgauss.spectral import EXP_UNDERFLOW_CAP, decay_weights


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
        SpectralDecomposition.from_form(assemble_form(general_m2_spec(), g))  # the eigh route
        dirichlet_laplacian(g)
        assert handed == [True] * 8


class TestGeneralTable:
    """A table with an off-diagonal entry is decomposed by LAPACK eigh, not Jacobi."""

    @pytest.fixture(scope="class")
    def general40(self):
        form = assemble_form(general_m2_spec(), Grid1D(length=1.0, n_interior=40))
        return form, SpectralDecomposition.from_form(form)

    def test_route_follows_the_table(self, monkeypatch):
        calls = []
        solve = spectral.jacobi_eigh
        monkeypatch.setattr(spectral, "jacobi_eigh", lambda M: calls.append(M.shape) or solve(M))
        g = Grid1D(length=1.0, n_interior=40)
        SpectralDecomposition.from_form(assemble_form(general_m2_spec(), g))
        assert calls == []
        SpectralDecomposition.from_form(assemble_form(polyharmonic_spec(2), g))
        assert calls == [(40, 40)]

    def test_eigenvalues_match_jacobi(self, general40):
        form, d = general40
        w, _ = jacobi_eigh(form.operator)
        assert np.max(np.abs(d.eigenvalues - w) / w) <= 1e-10

    def test_residual_and_orthonormality(self, general40):
        form, d = general40
        phi, mu = d.eigenvectors, d.eigenvalues
        assert np.max(np.abs(form.operator @ phi - phi * mu)) <= 1e-13 * mu[-1]
        assert np.max(np.abs(d.grid.h * phi.T @ phi - np.eye(mu.size))) <= 1e-12

    def test_first_entry_above_round_off_is_positive(self, general40):
        _, d = general40
        for col in d.eigenvectors.T:
            big = np.flatnonzero(np.abs(col) > 1e-8 * np.max(np.abs(col)))
            assert col[big[0]] > 0


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

    @pytest.mark.parametrize("source, n", [
        *((source, n) for source in ("laplace-pi", "beam-1", "m3") for n in (24, 40)),
        ("random", 30),
    ])
    def test_bit_identical_to_the_rotation_loop(self, source, n):
        if source == "random":
            M = np.random.default_rng(7).standard_normal((n, n))
            M = M + M.T
        elif source == "m3":
            M = assemble_form(polyharmonic_spec(3), Grid1D(length=1.0, n_interior=n)).operator
        else:
            profile = get_profile(source)
            M = assemble_form(profile.spec, profile.grid(n)).operator
        w, v = jacobi_eigh(M)
        w_ref, v_ref = jacobi_oracle(M)
        assert w.tobytes() == w_ref.tobytes()
        assert v.tobytes() == v_ref.tobytes()

    def test_rejects_nonsymmetric(self, monkeypatch):
        with pytest.raises(ContractError):
            jacobi_eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(ContractError):
            jacobi_eigh(np.ones((2, 3)))
        # a non-finite matrix is rejected before any sweep
        def no_sweeps(*args):
            raise AssertionError("a sweep ran")
        monkeypatch.setattr(spectral, "_jacobi_sweeps", no_sweeps)
        for bad in (np.full((40, 40), np.nan), np.diag([1.0, np.inf, 2.0])):
            with pytest.raises(ContractError, match="finite"):
                jacobi_eigh(bad)
        # a 0 x 0 matrix has an empty decomposition, with no warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w, v = jacobi_eigh(np.zeros((0, 0)))
        assert w.shape == (0,) and v.shape == (0, 0)


class TestDecomposition:
    def test_h_orthonormal_eigenvectors(self, laplace200):
        _, d = laplace200
        G = d.grid.h * d.eigenvectors.T @ d.eigenvectors
        assert np.max(np.abs(G - np.eye(G.shape[0]))) < 1e-9

    def test_gap_matches_analytic(self, laplace400):
        _, d = laplace400
        assert d.gap == pytest.approx(1.0, rel=5e-3)

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
        assert np.sum(c**2) == pytest.approx(d.grid.h * f @ f)

    def test_operator_matrix_roundtrip(self, laplace200):
        form, d = laplace200
        assert np.max(np.abs(d.operator_matrix() - form.operator)) < 1e-8

    @pytest.mark.parametrize("bad", ["reversed", "shape", "nan"])
    def test_constructor_rejects_what_readers_assume_away(self, laplace200, bad):
        # every reader takes the eigenvalues ascending and finite, one per node, with one eigenvector each
        _, d = laplace200
        mu, phi = d.eigenvalues.copy(), d.eigenvectors
        if bad == "reversed":
            mu = mu[::-1]
        elif bad == "shape":
            phi = phi[:, :-1]
        else:
            mu[7] = np.nan
        with pytest.raises(ContractError):
            SpectralDecomposition(eigenvalues=mu, eigenvectors=phi, grid=d.grid, m=d.m)

    def test_operator_is_built_once_and_read_only(self, laplace200, monkeypatch):
        _, d = laplace200
        cold = dataclasses.replace(d)  # same frozen arrays, nothing stored yet
        calls = []
        original = SpectralDecomposition.operator_matrix

        def counting(self, weights=None):
            calls.append(weights)
            return original(self, weights)

        monkeypatch.setattr(SpectralDecomposition, "operator_matrix", counting)
        H = cold.operator
        assert cold.operator is H and calls == [None]
        assert np.array_equal(H, original(cold))  # bit for bit
        with pytest.raises(ValueError):
            H[0, 0] = 1.0
        assert dataclasses.replace(d).operator is not H and len(calls) == 2


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
        P = d.operator_matrix(decay_weights(0.25 * d.eigenvalues))
        assert np.max(np.abs(P @ P - d.operator_matrix(decay_weights(0.5 * d.eigenvalues)))) < 1e-10

    def test_contraction_in_h_norm(self, laplace200, rng):
        _, d = laplace200
        f = rng.standard_normal(d.grid.n_interior)
        g = semigroup_apply(d, 1.0, f)
        assert d.grid.h * g @ g <= d.grid.h * f @ f


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
        for t in (0.0, math.nan):
            with pytest.raises(DomainError):
                ev.matrix(t)


class TestNodeIndices:
    """Indices outside 0..n-1 raise DomainError: numpy would wrap -1 to the last node and raise a
    bare IndexError at n."""

    EV = HeatKernelEvaluator(dirichlet_laplacian(Grid1D(length=1.0, n_interior=20)))

    @pytest.mark.parametrize("bad", [-1, 20])
    def test_block_rejects_rows_and_columns(self, bad):
        for rows, cols in (([0, bad], [1]), ([1], [bad, 0])):
            with pytest.raises(DomainError, match=f"node index {bad} outside 0..19"):
                self.EV.block(0.1, rows, cols)

    @pytest.mark.parametrize("i, j", [(-1, 0), (0, -1), (20, 0), (0, 20)])
    def test_kernel_eval_rejects(self, i, j):
        with pytest.raises(DomainError, match="outside 0..19"):
            kernel_eval(self.EV, 0.1, i, j)

    def test_edge_nodes_are_read(self):
        assert kernel_eval(self.EV, 0.1, 19, 0) == pytest.approx(self.EV.block(0.1, [19], [0])[0, 0], rel=1e-13)


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
        # runner's samples must still pass, with no 0/0 read as inf, and every
        # factored ratio matches the log-space oracle wherever that reads a normal float
        _, d = request.getfixturevalue(fixture)
        s = d.eigenvalues[0]
        t_grid = np.geomspace(0.01, 5.0, 25)
        assert 2.0 * s * t_grid[-1] > 745.0
        f = sample_functions(d, np.random.default_rng(42), 3)
        rows = evolved_form_bound_check(d, t_grid, f)
        assert len(rows) == 8 * 25
        assert all(math.isfinite(r["ratio"]) for r in rows)
        got = np.array([r["ratio"] for r in rows]).reshape(8, 25)
        want = evolved_form_ratio_oracle(d, t_grid, f)
        normal = want >= np.finfo(float).tiny
        assert normal[:, -1].any()  # the flushed end of the grid is compared
        assert np.all(np.abs(got - want)[normal] <= 1e-12 * want[normal])
        # the ground mode saturates the bound: ratio 1 in log space as well
        rows = evolved_form_bound_check(d, t_grid[t_grid > 1.0 / s], d.eigenvectors[:, 0])
        assert [r["ratio"] for r in rows] == pytest.approx([1.0] * len(rows), rel=1e-12)

    def test_capped_weights_compared_in_log_space(self):
        # past 2 t mu_1 = 700 every decay weight e^{-2 t mu_k} is capped to exactly 0
        # while g~(t) ||f||^2 is still positive (it underflows near 745): with
        # e^{-2st} factored out Q(e^{-Ht} f) must not read 0 there. For f = phi_1
        # the bound is an equality
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

    def test_ratio_above_one_raises(self, laplace200, monkeypatch):
        # the ground mode past t = 1/s meets the bound with equality: Q read 1e-6 high is
        # more than 10 times the rule's eps n (Q + bound), and Q read 4 eps high is within it
        _, d = laplace200
        n, forms, t = d.eigenvalues.size, spectral.evolved_forms, np.array([2.0 / d.gap])
        assert 1e-6 >= 10.0 * core.EPS * n * 2.0
        monkeypatch.setattr(spectral, "evolved_forms", lambda *a: (1.0 + 4.0 * core.EPS) * forms(*a))
        assert evolved_form_bound_check(d, t, d.eigenvectors[:, 0])[0]["ratio"] > 1.0
        monkeypatch.setattr(spectral, "evolved_forms", lambda *a: (1.0 + 1e-6) * forms(*a))
        with pytest.raises(PropertyViolation, match="evolved form bound violated"):
            evolved_form_bound_check(d, t, d.eigenvectors[:, 0])

    def test_nonpositive_gap_rejected(self, laplace200):
        _, d = laplace200
        with pytest.raises(PropertyViolation, match="Dirichlet positivity violated") as info:
            SpectralDecomposition(eigenvalues=d.eigenvalues - 2.0 * d.eigenvalues[0], eigenvectors=d.eigenvectors,
                                  grid=d.grid, m=d.m)
        assert info.value.witness == {"mu_1": -float(d.eigenvalues[0])}
