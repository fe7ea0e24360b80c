import dataclasses
import math

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
from heatgauss.core import Grid1D
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
        with pytest.raises(DomainError):
            TwistSpec(grid=g, x0=0.5, a=2.0, lam=1.0)

    def test_cap_on_lambda(self):
        g = Grid1D(length=4.0, n_interior=4)
        with pytest.raises(ConditioningError):
            make_twist(g, 11.0)  # |lam| L = 44 > 40


class TestSimilarity:
    def test_spectrum_invariant_under_twist(self, laplace200):
        _, d = laplace200
        tw = make_twist(d.grid, 1.0)
        top = TwistedOperator(base=d, twist=tw)
        spec = np.sort(np.linalg.eigvals(top.matrix()).real)
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
        assert out["resolvent_rel_err"] <= 1e-8
        assert out["spectrum_rel_err"] <= 1e-8

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


class TestLeibniz:
    def test_dual_path_constant_coefficients(self, laplace200):
        form, d = laplace200
        rng = np.random.default_rng(7)
        f = rng.standard_normal(d.grid.n_interior)
        tw = make_twist(d.grid, 1.2)
        # per_lambda raises internally when the two routes disagree
        val = per_lambda(form, tw, f, rel_tol=1e-8)
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
        assert math.isfinite(per_lambda(form, tw, f, rel_tol=1e-8))

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_polyharmonic_m3_paths_agree(self, poly3_100, lam):
        # the runners' samples start with the lowest eigenmodes, on which
        # f (E^{-1} Q E) f - f Q f cancels past the tolerance at m = 3
        form, d = poly3_100
        tw = make_twist(d.grid, lam)
        for f in sample_functions(d, np.random.default_rng(71), 15):
            assert math.isfinite(per_lambda(form, tw, f, rel_tol=1e-10))

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
    }

    @pytest.mark.parametrize("case", sorted(SPECS))
    @pytest.mark.parametrize("lam", [0.5, 2.0])
    def test_matches_dense_conjugation(self, case, lam):
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
        norm2 = d.grid.norm(f) ** 2
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


class TestBatchedAgainstLoops:
    """Each batched path against the one-sample-at-a-time loop it replaced."""

    def test_numerical_range_values(self, laplace200):
        _, d = laplace200
        top = TwistedOperator(base=d, twist=make_twist(d.grid, 1.0))
        Hhat = top.hhat
        h = d.grid.h
        samples = sector_samples(d, seed=5, count=150)  # crosses several chunks
        want = np.array([h * np.vdot(f, Hhat @ f) / (h * np.vdot(f, f).real) for f in samples])
        got = numerical_range_values(Hhat, samples, h)
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
        assert np.allclose(numerical_range_values(Hhat, f, d.grid.h), want, rtol=1e-12, atol=0.0)

    def test_evolved_form_c1(self, laplace200, rng):
        form, d = laplace200
        tw = make_twist(d.grid, 1.0)
        top = TwistedOperator(base=d, twist=tw)
        ts = np.geomspace(0.05, 2.0, 5)
        f_train = np.vstack([d.eigenvectors[:, [0, 199]].T, rng.standard_normal((4, 200))])
        f_holdout = rng.standard_normal((4, 200))
        c2 = 2.0 * twisted_semigroup_norm_fit(d, tw, ts)["c"]
        out = evolved_twisted_form_check(d, form, tw, 0.5, ts, f_train, f_holdout, c2=c2)
        unit = (1.0 + d.gap) ** 2 * tw.lam**2
        c1 = 0.0
        for f in f_train:
            for t in ts:
                g = top.propagator(t) @ f
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

    def test_appendix_b_errors(self, laplace200):
        _, d = laplace200
        tw = make_twist(d.grid, 1.5)
        z = complex(-2.0, 3.0)
        S = d.operator_matrix()
        n = S.shape[0]
        e = tw.weights()
        H_lam = (S * e[np.newaxis, :]) / e[:, np.newaxis]
        rng = np.random.default_rng(twist_mod.APPENDIX_B_SEED)
        worst = 0.0
        for _ in range(twist_mod.APPENDIX_B_RHS):
            g = rng.standard_normal(n)
            x1 = np.linalg.solve(z * np.eye(n) - H_lam, g.astype(complex))
            x2 = np.linalg.solve(z * np.eye(n) - S, (e * g).astype(complex)) / e
            worst = max(worst, float(np.linalg.norm(x1 - x2) / np.linalg.norm(x2)))
        out = appendix_b_identities(d, tw, z)
        assert abs(out["resolvent_rel_err"] - worst) <= 1e-10
        assert out["ok"]

    def test_right_hand_sides_drawn_in_loop_order(self):
        one_by_one = np.random.default_rng(4)
        rows = [one_by_one.standard_normal(30) for _ in range(5)]
        assert np.array_equal(np.random.default_rng(4).standard_normal((5, 30)), np.array(rows))

    @pytest.mark.parametrize("case", ["laplace200", "beam200", "poly3_40"])
    def test_searched_shift_passes_sector_check(self, case, request):
        _, d = request.getfixturevalue(case)
        tw = make_twist(d.grid, 1.0)
        top = TwistedOperator(base=d, twist=tw)
        samples = sector_samples(d, seed=9, count=150)
        for p in (0.25, 0.5, 0.75):
            c = sector_shift_search(top, p, samples)
            unit = (1.0 + p) * (1.0 + d.gap) ** (2 * d.m) * tw.lam ** (2 * d.m)
            angle, violations = numerical_range_sector(top, p, c * unit, samples)
            assert violations == []
            assert angle <= math.atan(1.0 / p) + 1e-12


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
        assert np.array_equal(after, numerical_range_values(top.hhat, samples, d.grid.h))
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

    def test_appendix_b_solves_the_spectrum_once_per_twist(self, laplace200, monkeypatch):
        _, d = laplace200
        cold = dataclasses.replace(d)  # same frozen arrays, nothing stored yet
        zs = [complex(-1.0 - a, 1.0 + 2.0 * a) for a in np.linspace(0.0, 1.0, 5)]
        calls = self.counting(monkeypatch, np.linalg, "eigvals")
        for lam in (0.5, 1.0):
            # equal twists built apart share one entry
            results = [appendix_b_identities(cold, make_twist(d.grid, lam), z) for z in zs]
            fresh = [appendix_b_identities(dataclasses.replace(d), make_twist(d.grid, lam), z) for z in zs]
            assert results == fresh
        assert len(calls) == 2 + 2 * len(zs)
        assert set(cold.twisted_spectra) == {make_twist(d.grid, 0.5), make_twist(d.grid, 1.0)}

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
        assert set(cold.twist_tables) == {make_twist(d.grid, 1.0)}

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
        spectra = self.counting(monkeypatch, np.linalg, "eigvals")
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
