import dataclasses
import math
import re

import numpy as np
import pytest

from heatgauss import (
    ConditioningError,
    ConsistencyError,
    DomainError,
    HeatKernelEvaluator,
    OperatorSpec,
    PropertyViolation,
    SpectralDecomposition,
    TwistSpec,
    TwistedOperator,
    appendix_b_identities,
    assemble_form,
    constant_coefficient,
    evolved_twisted_form_check,
    numerical_range_sector,
    per_lambda,
    polyharmonic_spec,
    sector_samples,
    sector_shift_search,
    twisted_kernel,
    twisted_semigroup_norm_fit,
)
from heatgauss import twist as twist_mod
from heatgauss.assembly import FormMatrix
from heatgauss.cli import sample_functions
from heatgauss.core import Grid1D, is_frozen
from heatgauss.spectral import decay_weights
from heatgauss.twist import conjugate, mixed_norm_bound_fit, numerical_range_values


def make_twist(grid, lam, a=1.0):
    return TwistSpec(grid=grid, x0=grid.length / 2.0, a=a, lam=lam)


class TestTwistSpec:
    def test_psi_affine(self):
        g = Grid1D(length=2.0, n_interior=7)
        tw = make_twist(g, 1.5)
        assert tw.psi(1.0) == pytest.approx(0.0)
        assert tw.psi(2.0) == pytest.approx(1.0)

    def test_direction_must_be_unit(self):
        g = Grid1D(length=1.0, n_interior=4)
        for a in (2.0, math.nan):
            with pytest.raises(DomainError):
                TwistSpec(grid=g, x0=0.5, a=a, lam=1.0)
        with pytest.raises(DomainError):
            TwistSpec(grid=g, x0=math.nan, a=1.0, lam=1.0)

    def test_cap_on_lambda(self):
        g = Grid1D(length=4.0, n_interior=4)
        for lam in (11.0, math.nan):  # |lam| L = 44 > 40
            with pytest.raises(ConditioningError):
                make_twist(g, lam)


class TestSimilarity:
    def test_spectrum_invariant_under_twist(self, laplace200):
        _, d = laplace200
        tw = make_twist(d.grid, 1.0)
        spec = np.sort(np.linalg.eigvals(conjugate(d.operator_matrix(), tw)).real)
        assert np.max(np.abs(spec - d.eigenvalues)) < 1e-8 * d.eigenvalues[-1]

    def test_twisted_kernel_identity(self, laplace200):
        _, d = laplace200
        ev = HeatKernelEvaluator(d)
        tw = make_twist(d.grid, 1.0)
        # twisted_kernel compares the direct formula with the similarity route
        val = twisted_kernel(ev, tw, 0.2, 40, 150)
        assert math.isfinite(val)

    def test_twisted_kernel_mismatch_raises(self, laplace200, monkeypatch):
        _, d = laplace200
        ev = HeatKernelEvaluator(d)
        kernel = twist_mod.kernel_eval
        monkeypatch.setattr(twist_mod, "kernel_eval", lambda *a: 2.0 * kernel(*a))  # the direct route only
        with pytest.raises(ConsistencyError, match="twisted kernel mismatch"):
            twisted_kernel(ev, make_twist(d.grid, 1.0), 0.2, 40, 150)

    @pytest.mark.parametrize("i, j", [(-1, 150), (40, -1), (200, 150), (40, 200)])
    def test_twisted_kernel_rejects_nodes_outside_the_grid(self, laplace200, i, j):
        _, d = laplace200
        with pytest.raises(DomainError, match="outside 0..199"):
            twisted_kernel(HeatKernelEvaluator(d), make_twist(d.grid, 1.0), 0.2, i, j)

    def test_zero_twist_is_plain_kernel(self, laplace200):
        from heatgauss import kernel_eval

        _, d = laplace200
        ev = HeatKernelEvaluator(d)
        tw = make_twist(d.grid, 0.0)
        assert twisted_kernel(ev, tw, 0.3, 10, 20) == pytest.approx(kernel_eval(ev, 0.3, 10, 20))

    def test_appendix_b(self, laplace200):
        _, d = laplace200
        tw = make_twist(d.grid, 1.5)
        out = appendix_b_identities(d, tw, complex(-2.0, 3.0))
        assert out["ok"]
        # the residual stays at rounding level, far inside the n eps that resolvent_ratio reads
        assert out["resolvent_backward_err"] <= 10 * twist_mod.EPS
        assert out["resolvent_ratio"] <= 1.0 and out["spectrum_ratio"] <= 1.0

    def test_appendix_b_near_spectrum_rejected(self, laplace200):
        _, d = laplace200
        tw = make_twist(d.grid, 0.5)
        with pytest.raises(ConditioningError):
            appendix_b_identities(d, tw, complex(d.eigenvalues[0], 0.0))

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_appendix_b_guard_is_relative_to_z(self, beam100, lam):
        # z = -1+1j lies 482 from the beam-1 spectrum at n = 100; a guard of
        # 1e-6 mu_n (1,664) rejected it although both identities hold to 5e-11
        _, d = beam100
        assert appendix_b_identities(d, make_twist(d.grid, lam), complex(-1.0, 1.0))["ok"]

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_appendix_b_at_m3_holds_with_room(self, poly3_100, lam):
        # the twist-fit workload's z box [-2, -1] + [1, 2] i: under a fixed 1e-8 the m = 3 resolvent
        # errors (2.8e-9 to 1.8e-8) straddled the tolerance, so the verdicts rested on rounding
        _, d = poly3_100
        tw = make_twist(d.grid, lam)
        for z in (complex(-1.0, 1.0), complex(-2.0, 1.0), complex(-1.0, 2.0), complex(-2.0, 2.0), complex(-1.5, 1.5)):
            out = appendix_b_identities(d, tw, z)
            assert out["ok"] and out["resolvent_ratio"] <= 0.25 and out["spectrum_ratio"] <= 0.25, z


class TestConformanceCells:
    """verify-twist's cells at n >= 400 that fixed tolerances failed, on decompositions from LAPACK eigh
    (the conformance matrix's spectra): per(lambda), Appendix B at z = -1 + i, and the twist cap."""

    @pytest.mark.parametrize("case", ["poly3_400_eigh", "poly3_800_eigh"])
    @pytest.mark.parametrize("lam", [0.5, 1.0])
    def test_m3_per_lambda(self, case, lam, request):
        form, d = request.getfixturevalue(case)
        tw = make_twist(d.grid, lam)
        for f in sample_functions(d, np.random.default_rng(42), 12)[:6]:  # verify-twist's, at seed 42
            per_lambda(form, tw, f)  # raises on dual-path mismatch

    @pytest.mark.parametrize("case", ["poly3_400_eigh", "beam800_eigh"])
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_appendix_b(self, case, lam, request):
        _, d = request.getfixturevalue(case)
        out = appendix_b_identities(d, make_twist(d.grid, lam), complex(-1.0, 1.0))
        assert out["ok"] and out["resolvent_ratio"] <= 0.25 and out["spectrum_ratio"] <= 0.25

    def test_at_the_twist_cap(self, beam800_eigh):
        form, d = beam800_eigh
        tw = make_twist(d.grid, twist_mod.TWIST_CAP / d.grid.length)  # weights up to e^20
        n = d.grid.n_interior
        for f in sample_functions(d, np.random.default_rng(42), 12)[:6]:
            per_lambda(form, tw, f)
        ev = HeatKernelEvaluator(d)
        for i, j in ((n // 3, 2 * n // 3), (2 * n // 3, n // 3), (2, n - 3)):
            assert math.isfinite(twisted_kernel(ev, tw, 0.1 / d.gap, i, j))
        assert appendix_b_identities(d, tw, complex(-1.0, 1.0))["ok"]


class TestLeibniz:
    def test_dual_path_constant_coefficients(self, laplace200):
        form, d = laplace200
        rng = np.random.default_rng(7)
        f = rng.standard_normal(d.grid.n_interior)
        tw = make_twist(d.grid, 1.2)
        # per_lambda raises internally when the two routes disagree
        val = per_lambda(form, tw, f)
        assert math.isfinite(val)

    def test_dual_path_variable_coefficients(self):
        spec = OperatorSpec(
            m=2,
            coefficients={
                (2, 2): lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * x),
                (1, 1): lambda x: 2.0 + x,
                (0, 0): constant_coefficient(1.0),
            },
        )
        g = Grid1D(length=1.0, n_interior=40)
        form = assemble_form(spec, g)
        rng = np.random.default_rng(3)
        f = rng.standard_normal(40)
        tw = make_twist(g, 2.0, a=-1.0)
        assert math.isfinite(per_lambda(form, tw, f))

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_polyharmonic_m3_paths_agree(self, poly3_100, lam):
        # the runners' samples start with the lowest eigenmodes, on which
        # f (E^{-1} Q E) f - f Q f cancels past the tolerance at m = 3
        form, d = poly3_100
        tw = make_twist(d.grid, lam)
        for f in sample_functions(d, np.random.default_rng(71), 15):
            assert math.isfinite(per_lambda(form, tw, f))

    SPECS = {
        "m1": OperatorSpec(m=1, coefficients={
            (1, 1): lambda x: 1.0 + x,
            (0, 0): constant_coefficient(2.0),
        }),
        "m2": OperatorSpec(m=2, coefficients={
            (2, 2): lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * x),
            (1, 1): lambda x: 2.0 + x,
            (0, 0): constant_coefficient(1.0),
        }),
        # off-diagonal entries: a top factor D M that is not a pure power of cosh
        "m2-mixed": OperatorSpec(m=2, coefficients={
            (2, 2): lambda x: 3.0 + x,
            (1, 2): lambda x: 0.3 * x,
            (2, 1): lambda x: 0.3 * x,
            (0, 2): constant_coefficient(0.1),
            (2, 0): constant_coefficient(0.1),
            (1, 1): constant_coefficient(2.0),
            (0, 1): constant_coefficient(0.2),
            (1, 0): constant_coefficient(0.2),
            (0, 0): constant_coefficient(1.0),
        }),
        "m3": polyharmonic_spec(3),
    }

    @pytest.mark.parametrize("case", sorted(SPECS))
    @pytest.mark.parametrize("lam", [0.5, 2.0, twist_mod.TWIST_CAP])  # L = 1: the last is the twist cap
    def test_matches_dense_conjugation(self, case, lam):
        # both routes read one band_index, so a wrong index table shows here
        form = assemble_form(self.SPECS[case], Grid1D(length=1.0, n_interior=20))
        f = np.random.default_rng(5).standard_normal(20)
        tw = make_twist(form.grid, lam, a=-1.0 if lam > 1.0 else 1.0)
        e = tw.weights()
        Q = form.matrix
        want = f @ ((Q * e) / e[:, np.newaxis]) @ f - f @ Q @ f
        assert per_lambda(form, tw, f) == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_top_factor(self, level):
        # log of the top coefficient against the expanded product at moderate c
        h, lam = 0.01, 30.0
        c = lam * h / 2.0
        for i in range(level + 1):
            top = twist_mod._twisted_factor_terms(i, level, lam, 1.0, h)[(i, level - i)]
            assert math.exp(twist_mod._log_top_factor(i, level, c)) == pytest.approx(top, rel=1e-14)

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_top_entry_keeps_its_digits_as_lambda_h_vanishes(self, level):
        # top_l top_r - 1 = c^2 (level + i (level - i) + j (level - j)) + O(c^4);
        # the product formed first and then less 1 keeps no digit at c = 1e-6
        h, lam = 1e-3, 2e-3
        c = lam * h / 2.0
        log_top = [twist_mod._log_top_factor(i, level, c) for i in range(level + 1)]
        for i in range(level + 1):
            for j in range(level + 1):
                want = c**2 * (level + i * (level - i) + j * (level - j))
                assert math.expm1(log_top[i] + log_top[j]) == pytest.approx(want, rel=1e-10)
            # a diagonal coefficient a_ii keeps the top entry through the symmetrization
            assert twist_mod._leibniz_matrix(i, i, level, lam, 1.0, h)[i, i] == math.expm1(2.0 * log_top[i])

    def test_small_lambda_quadratic_scaling(self, laplace200):
        # for m = 1, per(lam) ~ -lam^2 ||f||^2 in the continuum limit
        form, d = laplace200
        f = d.eigenvectors[:, 0]
        norm2 = d.grid.h * f @ f
        vals = [per_lambda(form, make_twist(d.grid, lam), f) for lam in (0.01, 0.02)]
        assert vals[1] / vals[0] == pytest.approx(4.0, rel=1e-3)
        assert vals[0] == pytest.approx(-0.01**2 * norm2, rel=5e-3)

    def test_zero_function_rejected(self, laplace200):
        form, d = laplace200
        with pytest.raises(DomainError):
            per_lambda(form, make_twist(d.grid, 1.0), np.zeros(d.grid.n_interior))


class TestSector:
    def test_untwisted_is_sectorial_with_zero_shift(self, laplace200):
        _, d = laplace200
        top = TwistedOperator(base=d, twist=make_twist(d.grid, 0.0))
        samples = sector_samples(d, seed=1, count=50)
        assert sector_shift_search(top, 0.5, samples) == 0.0

    def test_twisted_needs_finite_shift(self, laplace200):
        _, d = laplace200
        tw = make_twist(d.grid, 1.0)
        top = TwistedOperator(base=d, twist=tw)
        samples = sector_samples(d, seed=1, count=200)
        c = sector_shift_search(top, 0.5, samples)
        assert 0.0 < c < 1e3
        unit = (1.0 + 0.5) * (1.0 + d.gap) ** 2 * tw.lam**2
        angle, violations = numerical_range_sector(top, 0.5, c * unit, samples)
        assert violations == []
        assert angle <= math.atan(2.0) + 1e-12

    def test_invalid_p(self, laplace200):
        _, d = laplace200
        top = TwistedOperator(base=d, twist=make_twist(d.grid, 0.5))
        with pytest.raises(DomainError):
            sector_shift_search(top, 1.5, sector_samples(d, count=5))

    def test_point_within_the_slack_of_the_origin_is_inside(self, laplace200):
        # the least shift can land a real point on the origin up to round-off, at z = -1e-16,
        # where atan2 reads the angle pi
        _, d = laplace200
        top = TwistedOperator(base=d, twist=make_twist(d.grid, 0.0))
        f = d.eigenvectors[:, [0]].T.copy()  # a real sample: its point is real
        z0 = float(top.numerical_range(f)[0].real)
        angle, violations = numerical_range_sector(top, 0.5, -z0 - 1e-13, f)
        assert violations == [] and angle == 0.0
        angle, violations = numerical_range_sector(top, 0.5, -z0 - 2e-12, f)
        assert len(violations) == 1 and angle == math.pi

    def test_untwisted_point_outside_raises(self, laplace200, monkeypatch):
        # a numerical range moved 1 to the left puts the ground-mode points at -1: at lambda = 0 no
        # shift is applied, so the outside sample is the witness
        _, d = laplace200
        values = TwistedOperator.numerical_range
        monkeypatch.setattr(TwistedOperator, "numerical_range", lambda top, samples: values(top, samples) - 1.0)
        top = TwistedOperator(base=d, twist=make_twist(d.grid, 0.0))
        samples = sector_samples(d, seed=1, count=20)
        with pytest.raises(PropertyViolation, match="outside the sector at lambda = 0.0") as info:
            sector_shift_search(top, 0.5, samples)
        z = top.numerical_range(samples)
        worst = int(np.argmax(0.5 * np.abs(z.imag) - z.real))
        assert info.value.witness == {"sample": worst, "z": complex(z[worst]), "p": 0.5} and z[worst].real < 0.0


class TestSemigroupFits:
    def test_zero_twist_contraction(self, laplace200):
        _, d = laplace200
        out = twisted_semigroup_norm_fit(d, make_twist(d.grid, 0.0), np.geomspace(0.05, 2.0, 6))
        assert out["c"] == 0.0
        assert all(nrm <= 1.0 + 1e-10 for _, nrm in out["norms"])

    def test_twisted_growth_constant(self, laplace200):
        _, d = laplace200
        out = twisted_semigroup_norm_fit(d, make_twist(d.grid, 1.0), np.geomspace(0.05, 2.0, 8))
        assert 0.0 < out["c"] < 10.0

    def test_mixed_norm_fit(self, laplace200):
        _, d = laplace200
        tw = make_twist(d.grid, 1.0)
        ts = np.geomspace(0.05, 2.0, 6)
        c = twisted_semigroup_norm_fit(d, tw, ts)["c"]
        out = mixed_norm_bound_fit(d, tw, ts, 0.5, 1.0, c)
        assert out["c2"] > 0.0

    @pytest.mark.parametrize("case", ["laplace200", "beam200", "poly3_40"])
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_factored_norms_match_explicit_matrices(self, case, lam, request):
        _, d = request.getfixturevalue(case)
        tw = make_twist(d.grid, lam)
        s = d.gap
        shifted = d.eigenvalues - s
        ts = np.geomspace(0.05, 5.0, 6) / s
        norms = twisted_semigroup_norm_fit(d, tw, ts)["norms"]
        for (t_out, got), t in zip(norms, ts):
            w = decay_weights(t * shifted)
            want = np.linalg.norm(conjugate(d.operator_matrix(w), tw), 2)
            assert t_out == t
            assert abs(got - want) <= 1e-12 * want
            # one t, beta = 0 and no growth: c2 = alpha t ||Hhat_lambda P_t||
            got_hp = mixed_norm_bound_fit(d, tw, [t], 0.5, 0.0, 0.0)["c2"] / (0.5 * t)
            want_hp = np.linalg.norm(conjugate(d.operator_matrix(shifted * w), tw), 2)
            assert abs(got_hp - want_hp) <= 1e-12 * want_hp

    def test_mixed_norm_at_zero_twist_is_closed_form(self, poly3_40):
        # at lambda = 0, ||Hhat P_t|| = max_k (mu_k - s) exp(-t (mu_k - s)); an
        # explicitly formed product Hhat @ P_t would read eps ||Hhat|| ||P_t|| instead
        _, d = poly3_40
        s = d.gap
        t = 5.0 / s
        shifted = d.eigenvalues - s
        want = 0.5 * t * np.max(shifted * np.exp(-t * shifted))
        got = mixed_norm_bound_fit(d, make_twist(d.grid, 0.0), [t], 0.5, 1.0, 0.0)["c2"]
        assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("case", ["laplace200", "beam200", "poly3_100"])
    def test_evolved_form_at_zero_twist_is_closed_form(self, case, request):
        # at lambda = 0 and f = phi_1 the ratio Q(e^{-Ht} f) alpha t e^{2st} / ||f||^2
        # is alpha mu_1 t, largest at t_max = 5/s; Q(g) read as g^T (Q g)
        # cancels at m = 3
        form, d = request.getfixturevalue(case)
        ts = np.geomspace(0.05, 5.0, 6) / d.gap
        phi1 = d.eigenvectors[:, :1].T
        out = evolved_twisted_form_check(d, form, make_twist(d.grid, 0.0), 0.5, ts, phi1, phi1)
        assert out["c1"] == pytest.approx(2.5, rel=1e-12)

    @pytest.mark.parametrize("case", ["beam200", "poly3_100"])
    def test_evolved_form_on_the_default_t_grid(self, case, request):
        # the runner's default t grid reaches 2 s t far past 700 on beam-1 and
        # m = 3; with e^{-2st} factored out of both sides f = phi_1 still
        # reads alpha mu_1 t_max at t_max = 5, not a ratio of flushed zeros
        form, d = request.getfixturevalue(case)
        ts = np.geomspace(0.01, 5.0, 25)
        phi1 = d.eigenvectors[:, :1].T
        out = evolved_twisted_form_check(d, form, make_twist(d.grid, 0.0), 0.5, ts, phi1, phi1)
        assert out["c1"] == pytest.approx(0.5 * d.gap * 5.0, rel=1e-12)

    def test_evolved_twisted_form(self, laplace200, rng):
        form, d = laplace200
        tw = make_twist(d.grid, 1.0)
        f_train = np.vstack([d.eigenvectors[:, [0, 199]].T, rng.standard_normal((5, 200))])
        f_holdout = rng.standard_normal((5, 200))
        out = evolved_twisted_form_check(
            d, form, tw, 0.5, np.geomspace(0.05, 2.0, 6), f_train, f_holdout
        )
        assert out["c1"] > 0 and out["c2"] >= 0

    def test_evolved_twisted_form_held_out_violation_raises(self, laplace200):
        form, d = laplace200
        tw = make_twist(d.grid, 1.0)
        ts = np.geomspace(0.05, 2.0, 6)
        modes = [d.eigenvectors[:, [k]].T for k in (0, 199)]
        lo, hi = sorted(modes, key=lambda f: evolved_twisted_form_check(d, form, tw, 0.5, ts, f, f)["c1"])
        with pytest.raises(PropertyViolation, match="held-out evolved-form ratio"):
            evolved_twisted_form_check(d, form, tw, 0.5, ts, lo, hi)

    def test_evolved_twisted_form_witness_carries_the_fit(self, laplace200):
        # the held-out sup, the fitted c1 and where the held-out sup sits (sample, t index)
        form, d = laplace200
        tw = make_twist(d.grid, 1.0)
        ts = np.geomspace(0.05, 2.0, 6)
        modes = [d.eigenvectors[:, [k]].T for k in (0, 199)]
        lo, hi = sorted(modes, key=lambda f: evolved_twisted_form_check(d, form, tw, 0.5, ts, f, f)["c1"])
        fit_lo = evolved_twisted_form_check(d, form, tw, 0.5, ts, lo, lo)
        fit_hi = evolved_twisted_form_check(d, form, tw, 0.5, ts, hi, hi)
        with pytest.raises(PropertyViolation) as info:
            evolved_twisted_form_check(d, form, tw, 0.5, ts, lo, np.vstack([lo, hi]))
        witness = info.value.witness
        assert set(witness) == {"c2", "alpha", "lam", "held", "c1", "held_at"}
        # one batched evaluation against two: equal up to the rounding of their sums
        assert witness["c1"] == pytest.approx(fit_lo["c1"], rel=1e-12)
        assert witness["held"] == pytest.approx(fit_hi["c1"], rel=1e-12) and witness["held"] > witness["c1"]
        assert witness["held_at"][0] == 1 and 0 <= witness["held_at"][1] < len(ts)


class TestBatchedAgainstLoops:
    """Each batched path against the one-sample-at-a-time loop it replaced."""

    def test_numerical_range_values(self, laplace200):
        _, d = laplace200
        top = TwistedOperator(base=d, twist=make_twist(d.grid, 1.0))
        Hhat = top.hhat
        h = d.grid.h
        samples = sector_samples(d, seed=5, count=150)  # crosses several chunks
        want = np.array([h * np.vdot(f, Hhat @ f) / (h * np.vdot(f, f).real) for f in samples])
        got = numerical_range_values(Hhat, samples)
        assert got.shape == want.shape
        # the 150 random samples come first: relative to the value itself
        assert np.all(np.abs(got - want)[:150] <= 1e-12 * np.abs(want[:150]))
        # eigenvector sums cancel down to O(mu_k) against O(||Hhat||) terms, so
        # relative to the size of the terms summed
        terms = np.array([np.abs(f) @ np.abs(Hhat) @ np.abs(f) / np.vdot(f, f).real for f in samples])
        assert np.all(np.abs(got - want) <= 1e-12 * terms)

    def test_numerical_range_real_samples(self, laplace200):
        _, d = laplace200
        Hhat = TwistedOperator(base=d, twist=make_twist(d.grid, 0.5)).hhat
        f = np.random.default_rng(2).standard_normal((3, d.grid.n_interior))
        want = [float(g @ Hhat @ g) / float(g @ g) for g in f]
        assert np.allclose(numerical_range_values(Hhat, f), want, rtol=1e-12, atol=0.0)

    def test_evolved_form_c1(self, laplace200, rng):
        form, d = laplace200
        tw = make_twist(d.grid, 1.0)
        ts = np.geomspace(0.05, 2.0, 5)
        f_train = np.vstack([d.eigenvectors[:, [0, 199]].T, rng.standard_normal((4, 200))])
        f_holdout = rng.standard_normal((4, 200))
        c2 = 2.0 * twisted_semigroup_norm_fit(d, tw, ts)["c"]
        out = evolved_twisted_form_check(d, form, tw, 0.5, ts, f_train, f_holdout, c2=c2)
        unit = (1.0 + d.gap) ** 2 * tw.lam**2
        c1 = 0.0
        for f in f_train:
            for t in ts:
                # exp(-H_lambda t) by similarity
                g = conjugate(d.operator_matrix(decay_weights(t * d.eigenvalues)), tw) @ f
                env = math.exp(c2 * unit * t - 2.0 * d.gap * t) / (0.5 * t)
                c1 = max(c1, float(g @ (form.matrix @ g)) / (d.grid.h * float(f @ f) * env))
        assert out["c1"] == pytest.approx(c1, rel=1e-10)
        assert out["c2"] == c2

    def test_evolved_form_default_c2(self, laplace200, rng):
        form, d = laplace200
        tw = make_twist(d.grid, 0.5)
        ts = np.geomspace(0.05, 2.0, 4)
        f_train, f_holdout = rng.standard_normal((3, 200)), rng.standard_normal((3, 200))
        c2 = 2.0 * twisted_semigroup_norm_fit(d, tw, ts)["c"]
        default = evolved_twisted_form_check(d, form, tw, 0.5, ts, f_train, f_holdout)
        explicit = evolved_twisted_form_check(d, form, tw, 0.5, ts, f_train, f_holdout, c2=c2)
        assert default == explicit

    def test_appendix_b_errors(self, laplace200, monkeypatch):
        # the residual written per column: a 1e-3 error planted in one entry of H_lambda lifts it
        # far above its rounding, so the two evaluation orders agree to 1e-10 relative
        _, d = laplace200
        tw = make_twist(d.grid, 1.5)
        z = complex(-2.0, 3.0)
        S = d.operator_matrix()
        n = S.shape[0]
        e = tw.weights()
        k = n // 2
        H_lam = (S * e[np.newaxis, :]) / e[:, np.newaxis]
        H_lam[k, k] *= 1.0 + 1e-3
        rng = np.random.default_rng(twist_mod.APPENDIX_B_SEED)
        worst = 0.0
        for _ in range(twist_mod.APPENDIX_B_RHS):
            g0 = rng.standard_normal(n)
            # the twist-free solve (z - H) y = g0, read by the twist as g = g0 / e and x = y / e
            g, x = g0 / e, np.linalg.solve(z * np.eye(n) - S, g0.astype(complex)) / e
            r = g - (z * np.eye(n) - H_lam) @ x
            worst = max(worst, float(np.linalg.norm(r) / np.linalg.norm(
                (np.abs(H_lam) + abs(z) * np.eye(n)) @ np.abs(x) + np.abs(g))))
        original = twist_mod.conjugate

        def planted(M, twist):
            out = original(M, twist)
            out[k, k] *= 1.0 + 1e-3
            return out

        monkeypatch.setattr(twist_mod, "conjugate", planted)
        out = appendix_b_identities(dataclasses.replace(d), tw, z)
        assert out["resolvent_backward_err"] == pytest.approx(worst, rel=1e-10)
        assert not out["ok"] and worst > 1e3 * n * twist_mod.EPS

    def test_right_hand_sides_drawn_in_loop_order(self):
        one_by_one = np.random.default_rng(4)
        rows = [one_by_one.standard_normal(30) for _ in range(5)]
        assert np.array_equal(np.random.default_rng(4).standard_normal((5, 30)), np.array(rows))

    def test_right_hand_sides_drawn_once_per_decomposition(self, laplace200, monkeypatch):
        _, d = laplace200
        cold = dataclasses.replace(d)  # same frozen arrays, nothing stored yet
        tw, z = make_twist(d.grid, 1.0), complex(-1.0, 1.0)
        n = d.grid.n_interior
        fresh = np.random.default_rng(twist_mod.APPENDIX_B_SEED).standard_normal((twist_mod.APPENDIX_B_RHS, n))
        draws = TestPerTwistMemo.counting(monkeypatch, np.random, "default_rng")
        first = appendix_b_identities(cold, tw, z)
        G = cold.derived["appendix-b rhs"]
        # another twist and another z read the same right-hand sides
        appendix_b_identities(cold, make_twist(d.grid, 0.5), complex(-2.0, 3.0))
        assert appendix_b_identities(cold, tw, z) == first
        assert len(draws) == 1 and cold.derived["appendix-b rhs"] is G and is_frozen(G)
        assert G.shape == (n, twist_mod.APPENDIX_B_RHS) and G.tobytes() == fresh.T.tobytes()
        # another decomposition draws its own, equal bit for bit
        assert appendix_b_identities(dataclasses.replace(d), tw, z) == first and len(draws) == 2

    @pytest.mark.parametrize("case", ["laplace200", "beam200", "poly3_40"])
    def test_searched_shift_passes_sector_check(self, case, request):
        # the returned c is the least multiplier: the verdict passes at c and flags a sample
        # 1e-6 below it, where a bisection floor of 2^-20 would pass far below (m >= 2)
        _, d = request.getfixturevalue(case)
        tw = make_twist(d.grid, 1.0)
        top = TwistedOperator(base=d, twist=tw)
        samples = sector_samples(d, seed=9, count=150)
        for p in (0.25, 0.5, 0.75):
            c = sector_shift_search(top, p, samples)
            assert 0.0 < c != 2.0**-20
            unit = (1.0 + p) * (1.0 + d.gap) ** (2 * d.m) * tw.lam ** (2 * d.m)
            angle, violations = numerical_range_sector(top, p, c * unit, samples)
            assert violations == []
            assert angle <= math.atan(1.0 / p) + 1e-12
            assert numerical_range_sector(top, p, c * (1.0 - 1e-6) * unit, samples)[1] != []


class TestPerTwistMemo:
    """What depends only on (decomposition, twist) is computed once per owner."""

    @staticmethod
    def counting(monkeypatch, owner, name):
        calls = []
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)
        return calls

    @staticmethod
    def search_and_verdict(top, samples):
        out = []
        for p in (0.25, 0.5, 0.75):
            c = sector_shift_search(top, p, samples)
            angle, violations = numerical_range_sector(top, p, c * (1.0 + p) * top.unit, samples)
            out.append((c, angle, len(violations)))
        return out

    @pytest.mark.parametrize("case", ["laplace200", "poly3_40"])
    def test_sector_reads_one_numerical_range_per_sample_set(self, case, request, monkeypatch):
        _, d = request.getfixturevalue(case)
        tw = make_twist(d.grid, 1.0)
        samples = sector_samples(d, seed=9, count=150)
        calls = self.counting(monkeypatch, twist_mod, "numerical_range_values")
        frozen = self.search_and_verdict(TwistedOperator(base=d, twist=tw), samples)
        assert len(calls) == 1
        calls.clear()
        writable = self.search_and_verdict(TwistedOperator(base=d, twist=tw), samples.copy())
        assert len(calls) == 6
        assert writable == frozen  # bitwise: same shifts, angles and verdicts

    def test_writable_samples_are_reevaluated(self, laplace200):
        _, d = laplace200
        top = TwistedOperator(base=d, twist=make_twist(d.grid, 1.0))
        samples = sector_samples(d, seed=3, count=20).copy()
        view = samples.view()
        view.flags.writeable = False  # read-only, but written through its base
        before = top.numerical_range(samples).copy()
        before_view = top.numerical_range(view).copy()
        samples[0] *= np.arange(1, d.grid.n_interior + 1)
        after = top.numerical_range(samples)
        assert after[0] != before[0] and np.array_equal(after[1:], before[1:])
        assert np.array_equal(after, numerical_range_values(top.hhat, samples))
        assert np.array_equal(top.numerical_range(view), after)
        assert np.array_equal(before_view, before)

    def test_frozen_samples_return_the_stored_values(self, laplace200):
        _, d = laplace200
        top = TwistedOperator(base=d, twist=make_twist(d.grid, 0.5))
        samples = sector_samples(d, seed=4, count=10)
        z = top.numerical_range(samples)
        assert top.numerical_range(samples) is z
        assert top.numerical_range(samples.copy()) is not z
        # an equal but distinct read-only array is its own sample set
        assert top.numerical_range(sector_samples(d, seed=4, count=10)) is not z
        with pytest.raises(ValueError):
            z[0] = 0.0

    def test_operators_over_one_decomposition_share_the_points(self, laplace200, monkeypatch):
        _, d = laplace200
        base = dataclasses.replace(d)  # same frozen arrays, nothing stored yet
        tw = make_twist(d.grid, 1.0)
        samples = sector_samples(d, seed=5, count=20)
        calls = self.counting(monkeypatch, twist_mod, "numerical_range_values")
        z = TwistedOperator(base=base, twist=tw).numerical_range(samples)
        # a second operator with an equal twist built apart reads the stored points, building no Hhat_lambda
        again = TwistedOperator(base=base, twist=make_twist(d.grid, 1.0))
        assert again.numerical_range(samples) is z and len(calls) == 1
        assert "hhat" not in vars(again)
        assert np.array_equal(z, numerical_range_values(again.hhat, samples))
        calls.clear()
        # another twist, another (equal) sample set, writable samples and another decomposition all miss
        TwistedOperator(base=base, twist=make_twist(d.grid, 0.5)).numerical_range(samples)
        other = sector_samples(d, seed=5, count=20)
        again.numerical_range(other)
        again.numerical_range(samples.copy())
        TwistedOperator(base=dataclasses.replace(d), twist=tw).numerical_range(samples)
        assert len(calls) == 4
        assert set(base.derived) == {(tw, "range", id(samples)), (make_twist(d.grid, 0.5), "range", id(samples)),
                                     (tw, "range", id(other))}

    def test_appendix_b_solves_the_spectrum_once_per_twist(self, laplace200, monkeypatch):
        _, d = laplace200
        cold = dataclasses.replace(d)  # same frozen arrays, nothing stored yet
        zs = [complex(-1.0 - a, 1.0 + 2.0 * a) for a in np.linspace(0.0, 1.0, 5)]
        calls = self.counting(monkeypatch, twist_mod, "_spectrum_residual_ratio")
        for lam in (0.5, 1.0):
            # equal twists built apart share one entry
            results = [appendix_b_identities(cold, make_twist(d.grid, lam), z) for z in zs]
            fresh = [appendix_b_identities(dataclasses.replace(d), make_twist(d.grid, lam), z) for z in zs]
            assert results == fresh
        assert len(calls) == 2 + 2 * len(zs)
        spectra = {key for key in cold.derived if isinstance(key, tuple) and key[1:] == ("spectrum",)}
        assert spectra == {(make_twist(d.grid, 0.5), "spectrum"), (make_twist(d.grid, 1.0), "spectrum")}

    def test_appendix_b_runs_one_lu_per_call(self, laplace200, monkeypatch):
        # the solve is twist-free: one LU per distinct z of a decomposition, none for a seen z
        _, d = laplace200
        cold = dataclasses.replace(d)  # same frozen arrays, nothing stored yet
        n, shapes = d.grid.n_interior, []
        original = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda A, B: shapes.append(A.shape) or original(A, B))
        for lam in (0.5, 1.0):
            for z in (complex(-1.0, 1.0), complex(-2.0, 3.0)):
                appendix_b_identities(cold, make_twist(d.grid, lam), z)
        assert shapes == [(n, n)] * 2
        appendix_b_identities(cold, make_twist(d.grid, 2.0), complex(-2.0, 3.0))
        assert shapes == [(n, n)] * 2

    def test_appendix_b_three_twists_one_solve(self, laplace200, monkeypatch):
        _, d = laplace200
        cold = dataclasses.replace(d)  # same frozen arrays, nothing stored yet
        z = complex(-1.0, 1.0)
        calls = self.counting(monkeypatch, np.linalg, "solve")
        results = [appendix_b_identities(cold, make_twist(d.grid, lam), z) for lam in (0.5, 1.0, 2.0)]
        assert len(calls) == 1 and all(r["ok"] for r in results)
        Y = cold.derived[("appendix-b", z)]
        assert is_frozen(Y) and Y.shape == (d.grid.n_interior, twist_mod.APPENDIX_B_RHS)
        with pytest.raises(ValueError):
            Y[0, 0] = 0.0
        # a copy of the decomposition keeps its own store, so it solves again, to the same results
        copy = dataclasses.replace(cold)
        assert [appendix_b_identities(copy, make_twist(d.grid, lam), z) for lam in (0.5, 1.0, 2.0)] == results
        assert len(calls) == 2 and copy.derived[("appendix-b", z)] is not Y

    def test_appendix_b_guard_stores_nothing(self, laplace200, monkeypatch):
        _, d = laplace200
        cold = dataclasses.replace(d)  # same frozen arrays, nothing stored yet
        calls = self.counting(monkeypatch, np.linalg, "solve")
        with pytest.raises(ConditioningError):
            appendix_b_identities(cold, make_twist(d.grid, 1.0), complex(d.eigenvalues[1], 1e-9))
        assert not calls and not cold.derived

    @staticmethod
    def factored_norms(d, tw, weights):
        """One QR pair and one k x k SVD per weight row, outside any memo."""
        O = math.sqrt(d.grid.h) * d.eigenvectors
        e = tw.weights()[:, np.newaxis]
        r_minus, r_plus = np.linalg.qr(O / e, mode="r"), np.linalg.qr(O * e, mode="r")
        out = []
        for w in weights:
            k = int(np.flatnonzero(w)[-1]) + 1
            out.append(float(np.linalg.norm((r_minus[:k, :k] * w[:k]) @ r_plus[:k, :k].T, 2)))
        return out

    @pytest.mark.parametrize("case", ["laplace200", "poly3_40"])
    def test_twisted_norms_are_kept_per_twist_and_t(self, case, request, monkeypatch):
        form, d = request.getfixturevalue(case)
        cold = dataclasses.replace(d)  # same frozen arrays, nothing stored yet
        ts = np.geomspace(0.05, 5.0, 6) / d.gap
        fs = np.random.default_rng(8).standard_normal((4, d.grid.n_interior))

        def fits(owner, lam):
            tw = make_twist(d.grid, lam)
            norm = twisted_semigroup_norm_fit(owner, tw, ts)
            mixed = mixed_norm_bound_fit(owner, tw, ts, 0.5, 1.0, norm["c"])
            evolved = evolved_twisted_form_check(owner, form, tw, 0.5, ts, fs, fs[:2])
            return norm, mixed, evolved

        fresh = fits(dataclasses.replace(d), 1.0)
        qr = self.counting(monkeypatch, twist_mod.np.linalg, "qr")
        tw = make_twist(d.grid, 1.0)
        norm = twisted_semigroup_norm_fit(cold, tw, ts)
        assert len(qr) == 2
        mixed = mixed_norm_bound_fit(cold, tw, ts, 0.5, 1.0, norm["c"])
        assert len(qr) == 4  # the P norms hit, the Hhat P norms miss
        evolved = evolved_twisted_form_check(cold, form, tw, 0.5, ts, fs, fs[:2])
        assert len(qr) == 4  # its default c2 reads the stored P norms
        assert (norm, mixed, evolved) == fresh  # bit for bit
        # an equal twist built apart hits every norm
        assert fits(cold, 1.0) == fresh and len(qr) == 4
        twisted_semigroup_norm_fit(cold, tw, [2.0 * ts[-1]])
        assert len(qr) == 6  # a new t misses
        assert len(cold.derived) == 2 * len(ts) + 1
        assert all(kind in ("P", "HP") and type(v) is float for (_, kind, _), v in cold.derived.items())

        shifted = d.eigenvalues - d.gap
        w = [decay_weights(t * shifted) for t in ts]
        want = self.factored_norms(d, tw, w + [shifted * wt for wt in w])
        got = [cold.derived[(tw, kind, float(t))] for kind in ("P", "HP") for t in ts]
        assert got == want

    def test_per_lambda_builds_one_table_per_twist(self, laplace200, monkeypatch):
        form, d = laplace200
        with pytest.raises(ValueError):
            form.matrix[0, 0] = 1.0
        cold = dataclasses.replace(form)  # same read-only matrix, nothing stored yet
        assert cold.matrix is form.matrix
        fs = np.random.default_rng(6).standard_normal((4, d.grid.n_interior))
        calls = self.counting(monkeypatch, twist_mod, "per_lambda_table")
        first = [per_lambda(cold, make_twist(d.grid, 1.0), f) for f in fs]
        # an equal twist built apart finds the same table
        again = [per_lambda(cold, make_twist(d.grid, 1.0), f) for f in fs]
        assert len(calls) == 1 and again == first
        assert set(cold.derived) == {make_twist(d.grid, 1.0)}

    @pytest.mark.parametrize("case", ["laplace200", "beam100", "poly3_100"])
    def test_per_lambda_table_keeps_band_rows_only(self, case, request):
        # the band index, [W; Lambda] and their magnitudes: no (stack, stack, n + m) Leibniz array
        form, d = request.getfixturevalue(case)
        n, m = d.grid.n_interior, form.m
        table = twist_mod.per_lambda_table(form, make_twist(d.grid, 1.0))
        arrays = [getattr(table, field.name) for field in dataclasses.fields(table)]
        assert [a.shape for a in arrays] == [(m + 1, n), (2, (m + 1) * n), (2, (m + 1) * n)]
        assert all(is_frozen(a) for a in arrays)

    def test_writable_arrays_are_copied_read_only(self, laplace200, monkeypatch):
        # an owner built from writable arrays keeps read-only copies of them,
        # so later writes to the caller's arrays cannot reach its stored tables
        form, d = laplace200
        matrix, mu, phi = form.matrix.copy(), d.eigenvalues.copy(), d.eigenvectors.copy()
        loose_form = FormMatrix(matrix=matrix, grid=form.grid, m=form.m, spec=form.spec)
        loose = SpectralDecomposition(eigenvalues=mu, eigenvectors=phi, grid=d.grid, m=d.m)
        for kept, given in ((loose_form.matrix, matrix), (loose.eigenvalues, mu), (loose.eigenvectors, phi)):
            assert kept is not given and np.array_equal(kept, given)
            with pytest.raises(ValueError):
                kept[0] = 1.0
        tw = make_twist(d.grid, 1.0)
        f = np.random.default_rng(6).standard_normal(d.grid.n_interior)
        z = complex(-1.0, 1.0)
        first = (per_lambda(loose_form, tw, f), appendix_b_identities(loose, tw, z))
        matrix *= 2.0
        mu *= 2.0
        phi *= 2.0
        tables = self.counting(monkeypatch, twist_mod, "per_lambda_table")
        spectra = self.counting(monkeypatch, twist_mod, "_spectrum_residual_ratio")
        assert (per_lambda(loose_form, tw, f), appendix_b_identities(loose, tw, z)) == first
        assert tables == [] and spectra == []

    def test_stored_arrays_are_read_only(self, poly3_40):
        _, d = poly3_40
        top = TwistedOperator(base=d, twist=make_twist(d.grid, 1.0))
        for a in (d.eigenvalues, d.eigenvectors, sector_samples(d, count=5), top.hhat):
            with pytest.raises(ValueError):
                a[0] = 1.0
        with pytest.raises(ValueError):
            d.eigenvectors[:, 0] *= 2.0
        assert top.hhat is top.hhat


class TestPlantedErrors:
    """A 1e-6 relative error planted in the data each array step reads must fail that step's check
    by at least 10 times its forward-error bound: |a - b| / (eps S) >= 10."""

    CASES = ["laplace200", "poly3_40", "beam100", "poly3_800_eigh", "beam800_eigh"]

    @staticmethod
    def rough_samples(d):
        """Samples whose top Leibniz term carries per(lambda): the last eigenmode, the alternating
        sign vector and seeded noise (on the ground mode it carries below 1e-2 of it)."""
        n = d.grid.n_interior
        return [d.eigenvectors[:, -1], (-1.0) ** np.arange(n), np.random.default_rng(11).standard_normal(n)]

    @staticmethod
    def ratio(excinfo):
        """The |a - b| / (eps S) a ConsistencyError reports."""
        return float(re.search(r"ratio=(\S+)$", str(excinfo.value)).group(1))

    @pytest.mark.parametrize("case", CASES)
    def test_leibniz_entry_error_raises(self, case, request, monkeypatch):
        form, d = request.getfixturevalue(case)
        tw = make_twist(d.grid, 1.0)
        fs = self.rough_samples(d)
        for f in fs:
            per_lambda(dataclasses.replace(form), tw, f)  # a fresh table passes
        original = twist_mod._leibniz_matrix

        def planted(i, j, level, lam, a, h):
            C = original(i, j, level, lam, a, h).copy()
            C[i, j] *= 1.0 + 1e-6  # the top entry, one entry only
            return C

        monkeypatch.setattr(twist_mod, "_leibniz_matrix", planted)
        for f in fs:  # the entrywise check of the table build meets it before any sample is read
            with pytest.raises(ConsistencyError, match=r"band tables disagree at band \d+, node \d+: ") as excinfo:
                per_lambda(dataclasses.replace(form), tw, f)
            assert self.ratio(excinfo) >= 10.0

    @pytest.mark.parametrize("case", CASES)
    def test_band_weight_error_raises(self, case, request):
        form, d = request.getfixturevalue(case)
        tw = make_twist(d.grid, 1.0)
        n, m = d.grid.n_interior, form.m
        table = twist_mod.per_lambda_table(form, tw)
        # not the middle eigenmode: for it sum_i f_i f_{i+1} and hence per(lambda) vanish at m = 1
        fs = [d.eigenvectors[:, 0], d.eigenvectors[:, 1], *self.rough_samples(d)]
        for f in fs:
            per_lambda(dataclasses.replace(form), tw, f)  # a fresh table passes
        for b in range(1, m + 1):  # W_0 = 0
            values = table.values.reshape(2, m + 1, n).copy()
            values[0, b] *= 1.0 + 1e-6  # band b of the direct route's row W
            cold = dataclasses.replace(form)
            cold.derived[tw] = dataclasses.replace(table, values=values.reshape(2, -1))
            for f in fs:
                with pytest.raises(ConsistencyError) as excinfo:
                    per_lambda(cold, tw, f)
                assert self.ratio(excinfo) >= 10.0

    @pytest.mark.parametrize("case", CASES)
    def test_form_entry_error_raises_at_build(self, case, request):
        # one off-diagonal pair of Q at the centre node: on the second eigenmode, whose node sits
        # there, the per-sample check passes it at m = 2 and 3, n = 800; W = Lambda entry by entry does not
        form, d = request.getfixturevalue(case)
        tw, k = make_twist(d.grid, 1.0), d.grid.n_interior // 2
        matrix = form.matrix.copy()
        matrix[k, k + 1] *= 1.0 + 1e-6
        matrix[k + 1, k] = matrix[k, k + 1]
        planted = FormMatrix(matrix=matrix, grid=form.grid, m=form.m, spec=form.spec)
        with pytest.raises(ConsistencyError, match=f"band tables disagree at band 1, node {k}: ") as excinfo:
            twist_mod.per_lambda_table(planted, tw)
        assert self.ratio(excinfo) >= 10.0

    @pytest.mark.parametrize("case", CASES)
    def test_twisted_operator_entry_error_fails_appendix_b(self, case, request, monkeypatch):
        # lambda = 1 and lambda L = 10: the residual reads the twist-free solve through E^{-1}
        _, d = request.getfixturevalue(case)
        twists, z = [make_twist(d.grid, lam) for lam in (1.0, 10.0 / d.grid.length)], complex(-1.0, 1.0)
        assert all(appendix_b_identities(dataclasses.replace(d), tw, z)["ok"] for tw in twists)
        original, k = twist_mod.conjugate, d.grid.n_interior // 2

        def planted(M, twist):
            out = original(M, twist)
            out[k, k] *= 1.0 + 1e-6  # one entry of H_lambda
            return out

        monkeypatch.setattr(twist_mod, "conjugate", planted)
        for tw in twists:
            out = appendix_b_identities(dataclasses.replace(d), tw, z)
            assert not out["ok"] and out["spectrum_ratio"] >= 10.0 and out["resolvent_ratio"] >= 10.0

    @pytest.mark.parametrize("case", CASES)
    def test_solve_output_error_fails_appendix_b(self, case, request, monkeypatch):
        # the H route: one entry of Y in (z - H) Y = G_0, which the spectrum residual never reads
        _, d = request.getfixturevalue(case)
        tw, z, k = make_twist(d.grid, 1.0), complex(-1.0, 1.0), d.grid.n_interior // 2
        clean = appendix_b_identities(dataclasses.replace(d), tw, z)
        original = np.linalg.solve

        def planted(A, B):
            Y = original(A, B)
            Y[k, 0] *= 1.0 + 1e-6
            return Y

        monkeypatch.setattr(np.linalg, "solve", planted)
        out = appendix_b_identities(dataclasses.replace(d), tw, z)
        assert not out["ok"] and out["resolvent_ratio"] >= 10.0
        assert out["spectrum_ratio"] == clean["spectrum_ratio"] <= 1.0

    @pytest.mark.parametrize("case", CASES)
    def test_kernel_route_error_raises(self, case, request, monkeypatch):
        _, d = request.getfixturevalue(case)
        ev, tw, n = HeatKernelEvaluator(d), make_twist(d.grid, 1.0), d.grid.n_interior
        t, pairs = 0.1 / d.gap, [(n // 3, 2 * n // 3), (n // 4, n // 2), (n // 2, n // 2 + 2)]
        clean = [twisted_kernel(ev, tw, t, i, j) for i, j in pairs]
        kernel = twist_mod.kernel_eval
        # the direct route's off-diagonal entry only, not the diagonal entries of the error scale
        monkeypatch.setattr(twist_mod, "kernel_eval", lambda ev, t, i, j: kernel(ev, t, i, j) * (
            1.0 + 1e-6 * (i != j)))
        for (i, j), value in zip(pairs, clean):
            with pytest.raises(ConsistencyError, match="twisted kernel mismatch") as excinfo:
                twisted_kernel(ev, tw, t, i, j)
            assert self.ratio(excinfo) >= 10.0 and value != 0.0

    @pytest.mark.parametrize("case", ["laplace200", "poly3_40"])
    def test_numerical_range_against_the_complex_formula(self, case, request):
        # <f, Hhat f>_h / <f, f>_h summed in complex arithmetic, one sample at a time
        _, d = request.getfixturevalue(case)
        Hhat, h, n = TwistedOperator(base=d, twist=make_twist(d.grid, 1.0)).hhat, d.grid.h, d.grid.n_interior
        u, v = np.random.default_rng(13).standard_normal((2, 2 * twist_mod.RANGE_CHUNK + 5, n))
        complex_H = Hhat.astype(complex)
        for kind, samples in (("real", u + 0j), ("imaginary", 1j * v), ("mixed", u + 1j * v)):
            want = np.array([(h * np.vdot(f, complex_H @ f)) / (h * np.vdot(f, f).real) for f in samples])
            got = numerical_range_values(Hhat, samples)
            # relative to the size of the terms summed: the imaginary part is the antisymmetric
            # part of Hhat, O(lambda h) against Hhat itself
            terms = np.array([np.abs(f) @ np.abs(Hhat) @ np.abs(f) / np.vdot(f, f).real for f in samples])
            assert np.all(np.abs(got.real - want.real) <= 1e-13 * terms), kind
            assert np.all(np.abs(got.imag - want.imag) <= 1e-13 * terms), kind
            if kind != "mixed":
                assert np.all(got.imag == 0.0) and np.all(want.imag == 0.0), kind
