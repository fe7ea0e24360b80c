import numpy as np
import pytest

from heatgauss import (
    ConfigurationError,
    DomainError,
    OperatorSpec,
    SpectralDecomposition,
    UnsupportedError,
    assemble_form,
    constant_coefficient,
    difference_matrix,
    load_coefficients_csv,
    measure_ellipticity,
    polyharmonic_spec,
)
from heatgauss.assembly import level_positions, staggered_operator
from heatgauss.core import Grid1D


def unit_grid(n):
    return Grid1D(length=float(n + 1), n_interior=n)  # h = 1


class TestDifferenceOperators:
    def test_first_difference_matrix(self):
        D = difference_matrix(unit_grid(2), 1).matrix
        assert np.allclose(D, [[1.0, 0.0], [-1.0, 1.0], [0.0, -1.0]])

    def test_difference_scaling(self):
        g = Grid1D(length=1.0, n_interior=3)
        D = difference_matrix(g, 1)
        f = g.points**0  # constant 1
        # interior slopes vanish, boundary jumps are +-1/h from zero extension
        assert np.allclose(D(f), [1.0 / g.h, 0.0, 0.0, -1.0 / g.h])

    def test_order_cap(self):
        with pytest.raises(UnsupportedError):
            difference_matrix(unit_grid(4), 4)
        with pytest.raises(DomainError):
            difference_matrix(unit_grid(4), -1)

    def test_difference_and_average_commute(self):
        g = unit_grid(6)
        DM = staggered_operator(g, 1, 1)
        # apply in the other order: average first, then difference on level 1
        from heatgauss.assembly import _edge_average, _forward_difference

        MD = _forward_difference(7, g.h) @ _edge_average(6)
        assert np.max(np.abs(DM - MD)) == 0.0

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
        D2 = difference_matrix(g, 2).matrix
        assert np.allclose(S2, D2.T @ D2)

    def test_quadratic_form_value(self):
        g = Grid1D(length=1.0, n_interior=4)
        form = assemble_form(polyharmonic_spec(1), g)
        f = np.sin(np.pi * g.points)
        direct = g.h * np.sum((difference_matrix(g, 1)(f)) ** 2)
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


class TestEllipticity:
    def test_polyharmonic_is_one(self):
        g = Grid1D(length=1.0, n_interior=20)
        for m in (1, 2):
            form = assemble_form(polyharmonic_spec(m), g)
            assert measure_ellipticity(form, g, m) == pytest.approx(1.0)

    def test_scaled_coefficient(self):
        g = Grid1D(length=1.0, n_interior=16)
        spec = OperatorSpec(m=1, coefficients={(1, 1): constant_coefficient(3.0)})
        form = assemble_form(spec, g)
        assert measure_ellipticity(form, g, 1) == pytest.approx(3.0)

    def test_variable_coefficient_bracket(self):
        g = Grid1D(length=1.0, n_interior=24)
        spec = OperatorSpec(m=1, coefficients={(1, 1): lambda x: 1.0 + x})
        c = measure_ellipticity(assemble_form(spec, g), g, 1)
        assert 1.0 < c <= 2.0 + 1e-9


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
