import math

import numpy as np
import pytest

from heatgauss import (
    ConfigurationError,
    DomainError,
    EllipticityError,
    OperatorSpec,
    SpectralDecomposition,
    UnsupportedError,
    assemble_form,
    constant_coefficient,
    load_coefficients_csv,
    measure_ellipticity,
    polyharmonic_spec,
)
from heatgauss.assembly import FormMatrix, level_positions, staggered_operator, staggered_taps
from heatgauss.core import Grid1D
from conftest import general_m2_spec


def unit_grid(n):
    return Grid1D(length=float(n + 1), n_interior=n)  # h = 1


def forward_difference(q, h):
    """Dense zero-extended forward difference R^q -> R^{q+1}."""
    D = np.zeros((q + 1, q))
    idx = np.arange(q)
    D[idx, idx] = 1.0 / h
    D[idx + 1, idx] = -1.0 / h
    return D


def edge_average(q):
    """Dense zero-extended adjacent-value average R^q -> R^{q+1}."""
    M = np.zeros((q + 1, q))
    idx = np.arange(q)
    M[idx, idx] = 0.5
    M[idx + 1, idx] = 0.5
    return M


def dense_chain(g, n_diff, n_avg):
    """D^{n_diff} then M^{n_avg} as a product of dense factor matrices."""
    A = np.eye(g.n_interior)
    q = g.n_interior
    for _ in range(n_diff):
        A = forward_difference(q, g.h) @ A
        q += 1
    for _ in range(n_avg):
        A = edge_average(q) @ A
        q += 1
    return A


class TestDifferenceOperators:
    def test_first_difference_matrix(self):
        D = staggered_operator(unit_grid(2), 1, 0)
        assert np.allclose(D, [[1.0, 0.0], [-1.0, 1.0], [0.0, -1.0]])

    def test_difference_scaling(self):
        g = Grid1D(length=1.0, n_interior=3)
        D = staggered_operator(g, 1, 0)
        f = g.points**0  # constant 1
        # interior slopes vanish, boundary jumps are +-1/h from zero extension
        assert np.allclose(D @ f, [1.0 / g.h, 0.0, 0.0, -1.0 / g.h])

    def test_order_cap(self):
        with pytest.raises(UnsupportedError):
            staggered_operator(unit_grid(4), 4, 0)
        with pytest.raises(DomainError):
            staggered_operator(unit_grid(4), -1, 0)
        with pytest.raises(DomainError):
            staggered_operator(unit_grid(4), 1, -1)

    def test_difference_and_average_commute(self):
        g = unit_grid(6)
        DM = staggered_operator(g, 1, 1)
        # apply in the other order: average first, then difference on level 1
        MD = forward_difference(7, g.h) @ edge_average(6)
        assert np.max(np.abs(DM - MD)) == 0.0

    @pytest.mark.parametrize("length", [math.pi, 1.0, 3.0])
    @pytest.mark.parametrize("n", [3, 4, 7, 18, 57, 120])
    def test_banded_stencil_matches_dense_chain(self, length, n):
        # the taps round like the dense chain; only D^3 off L = 1 may differ,
        # by one ulp of the largest entry, where the chain's BLAS product
        # fuses a multiply into an add that the taps round separately
        g = Grid1D(length=length, n_interior=n)
        for n_diff in range(4):
            for n_avg in range(4 - n_diff):
                want = dense_chain(g, n_diff, n_avg)
                got = staggered_operator(g, n_diff, n_avg)
                assert got.shape == want.shape
                if n_diff <= 2 or length == 1.0:
                    assert np.array_equal(got, want), (n_diff, n_avg)
                else:
                    assert np.max(np.abs(got - want)) <= np.spacing(np.max(np.abs(want)))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_form_taps_give_the_staggered_images(self, m):
        g = Grid1D(length=1.0, n_interior=30)
        f = np.random.default_rng(m).standard_normal(g.n_interior)
        for d, a in [(d, a) for d in range(m + 1) for a in range(m + 1 - d)]:
            taps = staggered_taps(g.h, d, a)
            B = staggered_operator(g, d, a)
            assert np.array_equal(B[: len(taps), 0], taps)
            want = B @ f
            assert np.max(np.abs(np.convolve(f, taps) - want)) <= 1e-13 * np.max(np.abs(want))

    def test_level_positions_staggering(self):
        g = Grid1D(length=1.0, n_interior=3)
        assert np.allclose(level_positions(g, 0), g.points)
        # one application shifts to edge midpoints, including the boundary edges
        assert np.allclose(level_positions(g, 1), [0.125, 0.375, 0.625, 0.875])


class TestAssembly:
    def test_laplacian_tridiagonal(self):
        g = unit_grid(3)
        form = assemble_form(polyharmonic_spec(1), g)
        S = form.operator
        assert np.allclose(S, [[2, -1, 0], [-1, 2, -1], [0, -1, 2]])

    def test_laplacian_spectrum_n3(self):
        # eigenvalues of the 3x3 tridiagonal [-1, 2, -1] at h = 1
        g = unit_grid(3)
        d = SpectralDecomposition.from_form(assemble_form(polyharmonic_spec(1), g))
        assert np.allclose(d.eigenvalues, [2 - np.sqrt(2), 2, 2 + np.sqrt(2)])

    def test_biharmonic_is_square_of_laplacian(self):
        # constant-coefficient a_22: the assembled operator equals the square
        # of the zero-extended difference Laplacian
        g = unit_grid(8)
        S2 = assemble_form(polyharmonic_spec(2), g).operator
        D2 = staggered_operator(g, 2, 0)
        assert np.allclose(S2, D2.T @ D2)

    def test_quadratic_form_value(self):
        g = Grid1D(length=1.0, n_interior=4)
        form = assemble_form(polyharmonic_spec(1), g)
        f = np.sin(np.pi * g.points)
        direct = g.h * np.sum((staggered_operator(g, 1, 0) @ f) ** 2)
        assert form(f) == pytest.approx(direct)

    def test_mixed_orders_symmetric(self):
        spec = OperatorSpec(
            m=2,
            coefficients={
                (2, 2): constant_coefficient(1.0),
                (1, 1): lambda x: 1.0 + x,
                (0, 0): constant_coefficient(2.0),
                (2, 0): constant_coefficient(0.3),
                (0, 2): constant_coefficient(0.3),
            },
        )
        g = Grid1D(length=1.0, n_interior=12)
        Q = assemble_form(spec, g).matrix
        assert np.allclose(Q, Q.T)

    def test_non_hermitian_rejected(self):
        spec = OperatorSpec(
            m=1,
            coefficients={
                (1, 1): constant_coefficient(1.0),
                (1, 0): constant_coefficient(1.0),  # (0,1) missing
            },
        )
        with pytest.raises(UnsupportedError):
            assemble_form(spec, Grid1D(length=1.0, n_interior=6))

    def test_index_out_of_range(self):
        with pytest.raises(ConfigurationError):
            OperatorSpec(m=1, coefficients={(2, 2): constant_coefficient(1.0)})


def pencil_oracle(form, grid, m):
    """max(hi, 1/lo, 1) over eigvalsh(L_P^{-1} Q L_P^{-T}), P = L_P L_P^T the polyharmonic form."""
    L = np.linalg.cholesky(assemble_form(polyharmonic_spec(m), grid).matrix)
    C = np.linalg.solve(L, np.linalg.solve(L, form.matrix).T)
    w = np.linalg.eigvalsh(0.5 * (C + C.T))
    return max(w[-1], 1.0 / w[0], 1.0)


class TestEllipticity:
    """measure_ellipticity (Cholesky factors and an SVD); the oracles use a symmetric eigensolve."""

    def test_polyharmonic_is_one(self):
        g = Grid1D(length=1.0, n_interior=20)
        for m in (1, 2):
            form = assemble_form(polyharmonic_spec(m), g)
            assert measure_ellipticity(form) == pytest.approx(1.0)

    def test_scaled_coefficient(self):
        g = Grid1D(length=1.0, n_interior=16)
        spec = OperatorSpec(m=1, coefficients={(1, 1): constant_coefficient(3.0)})
        form = assemble_form(spec, g)
        assert measure_ellipticity(form) == pytest.approx(3.0)

    def test_variable_coefficient_bracket(self):
        g = Grid1D(length=1.0, n_interior=24)
        spec = OperatorSpec(m=1, coefficients={(1, 1): lambda x: 1.0 + x})
        c = measure_ellipticity(assemble_form(spec, g))
        assert 1.0 < c <= 2.0 + 1e-9

    def test_general_table_matches_oracle(self):
        g = Grid1D(length=1.0, n_interior=40)
        form = assemble_form(general_m2_spec(), g)
        want = pencil_oracle(form, g, 2)
        assert want > 1.2
        assert measure_ellipticity(form) == pytest.approx(want, rel=1e-10)

    def test_variable_coefficient_matches_oracle(self):
        spec = OperatorSpec(m=1, coefficients={
            (0, 0): constant_coefficient(2.0),
            (1, 1): lambda x: 1.0 + x + 0.5 * np.sin(7.0 * x),
        })
        g = Grid1D(length=1.0, n_interior=60)
        form = assemble_form(spec, g)
        assert measure_ellipticity(form) == pytest.approx(pencil_oracle(form, g, 1), rel=1e-10)

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("kappa", [0.25, 40.0])
    def test_scaled_reference_reads_kappa(self, m, kappa):
        g = Grid1D(length=1.0, n_interior=30)
        P = assemble_form(polyharmonic_spec(m), g)
        form = FormMatrix(matrix=kappa * P.matrix, grid=g, m=m, spec=P.spec)
        assert measure_ellipticity(form) == pytest.approx(max(kappa, 1.0 / kappa), rel=1e-12)

    def test_polyharmonic_m3_reads_one(self):
        g = Grid1D(length=1.0, n_interior=80)
        form = assemble_form(polyharmonic_spec(3), g)
        assert abs(measure_ellipticity(form) - 1.0) <= 1e-12

    def test_indefinite_form_rejected(self):
        # a_00 = -100 pulls the lowest pencil value below 0 (mu_1 ~ pi^2 at L = 1)
        spec = OperatorSpec(m=1, coefficients={(1, 1): constant_coefficient(1.0),
                                               (0, 0): constant_coefficient(-100.0)})
        g = Grid1D(length=1.0, n_interior=30)
        with pytest.raises(EllipticityError):
            measure_ellipticity(assemble_form(spec, g))


class TestFracPower:
    def test_power_one_recovers_operator(self, laplace200):
        form, d = laplace200
        A = d.operator_matrix()
        assert np.max(np.abs(A - form.operator)) < 1e-8 * np.max(np.abs(form.operator))

    def test_half_power_squares_back(self, laplace200):
        form, d = laplace200
        R = d.operator_matrix(d.eigenvalues ** 0.5)
        assert np.max(np.abs(R @ R - form.operator)) < 1e-7 * np.max(np.abs(form.operator))


class TestCoefficientCsv:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "coeffs.csv"
        path.write_text("i,j,x,value\n1,1,0.0,1.0\n1,1,1.0,2.0\n", encoding="utf-8")
        table = load_coefficients_csv(str(path))
        fn = table[(1, 1)]
        assert fn(np.array([0.5]))[0] == pytest.approx(1.5)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,1,0.0,1.0\n", encoding="utf-8")
        with pytest.raises(ConfigurationError):
            load_coefficients_csv(str(path))

    def test_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("i,j,x,value\n", encoding="utf-8")
        with pytest.raises(ConfigurationError):
            load_coefficients_csv(str(path))
