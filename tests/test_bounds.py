import math
import warnings

import numpy as np
import pytest

from heatgauss import (
    BoundEnvelope,
    ConfigurationError,
    DomainError,
    HeatKernelEvaluator,
    ParameterError,
    SpectralDecomposition,
    boundary_slope,
    envelope_eval,
    fit_envelope_constants,
    longtime_rate,
    optimal_lambda,
    semigroup_apply,
    sobolev_pointwise_check,
)
from heatgauss.bounds import _sample_indices, envelope_ratios, envelope_sup_ratio
from heatgauss.errors import ResolutionWarning
from heatgauss.core import schedule_from_gamma


def lap_schedule(gamma):
    return schedule_from_gamma(1, 1, gamma)


class TestEnvelope:
    def test_gamma_zero_reduces_to_gaussian(self):
        env = BoundEnvelope(schedule=lap_schedule(0.0), s=1.0, c1=1.0, c2=0.25)
        t, x, y = 0.5, 1.0, 2.0
        val = envelope_eval(env, t, x, y, 1.0, 1.0)
        expected = (1.0 / 0.5) * t**-0.5 * math.exp(-0.25 * abs(x - y) ** 2 / t - t)
        assert val == pytest.approx(expected)

    def test_boundary_decay_factor(self):
        env = BoundEnvelope(schedule=lap_schedule(0.4), s=1.0, c1=1.0, c2=0.1)
        near = envelope_eval(env, 1.0, 0.1, 1.0, 0.1, 1.0)
        far = envelope_eval(env, 1.0, 1.0, 1.0, 1.0, 1.0)
        # same |x-y| would be needed for a clean ratio; compare the d_x factor directly
        assert near / far == pytest.approx(
            0.1**0.4 * math.exp(-0.1 * (0.9**2 - 0.0)), rel=1e-9
        )

    def test_invalid_arguments(self):
        env = BoundEnvelope(schedule=lap_schedule(0.0), s=1.0, c1=1.0, c2=1.0)
        with pytest.raises(DomainError):
            envelope_eval(env, 0.0, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            envelope_eval(env, 1.0, 1.0, 1.0, -0.1, 1.0)
        with pytest.raises(ParameterError):
            BoundEnvelope(schedule=lap_schedule(0.0), s=1.0, c1=0.0, c2=1.0)


class TestOptimalLambda:
    def test_stationary_point_of_exponent(self):
        # the returned lambda makes d/dlam [lam r - 2 m c2 (1+s)^{2m} lam^{2m} t] vanish
        m, c2, s, r, t = 2, 0.3, 1.5, 2.0, 0.7
        lam = optimal_lambda(m, c2, s, r, t).value
        deriv = r - 2 * m * c2 * (1 + s) ** (2 * m) * (2 * m) * lam ** (2 * m - 1) * t / (2 * m)
        assert deriv == pytest.approx(0.0, abs=1e-9 * r)

    def test_cap_saturation(self):
        out = optimal_lambda(1, 0.1, 1.0, 1e6, 1e-6, length=1.0)
        assert out.saturated
        assert out.value == pytest.approx(40.0)

    def test_zero_distance(self):
        out = optimal_lambda(1, 0.1, 1.0, 0.0, 1.0)
        assert out.value == 0.0 and not out.saturated

    def test_invalid(self):
        with pytest.raises(DomainError):
            optimal_lambda(1, 0.1, 1.0, -1.0, 1.0)


class TestEnvelopeFit:
    def test_fit_passes_gamma_zero(self, laplace200):
        _, d = laplace200
        ev = HeatKernelEvaluator(d)
        fit = fit_envelope_constants(
            ev, lap_schedule(0.0), np.geomspace(1e-2, 1.0, 5), np.geomspace(0.02, 3.0, 10)
        )
        assert fit.passed
        assert fit.constants["c1"] > 0

    def test_drift_between_meshes(self, laplace200, laplace400):
        ev200 = HeatKernelEvaluator(laplace200[1])
        ev400 = HeatKernelEvaluator(laplace400[1])
        fit = fit_envelope_constants(
            ev200, lap_schedule(0.4), np.geomspace(1e-2, 1.0, 5),
            np.geomspace(0.02, 3.0, 10), refined=ev400,
        )
        assert fit.passed
        assert fit.drift is not None and fit.drift <= 0.10

    def test_drift_beyond_budget_fails(self, laplace200):
        _, d = laplace200
        ev = HeatKernelEvaluator(d)
        doubled = SpectralDecomposition(eigenvalues=d.eigenvalues, eigenvectors=2.0 * d.eigenvectors,
                                        grid=d.grid, m=d.m)  # every kernel value times 4
        fit = fit_envelope_constants(ev, lap_schedule(0.0), [0.1], [0.5, 1.0], refined=HeatKernelEvaluator(doubled))
        assert not fit.passed and fit.drift == pytest.approx(3.0)
        assert fit.failure.startswith("refined sup ratio")

    def test_sup_ratio_reports_location(self, laplace200):
        ev = HeatKernelEvaluator(laplace200[1])
        ratio, where = envelope_sup_ratio(ev, lap_schedule(0.0), 0.1, [0.5])
        assert ratio > 0
        t, x, y = where
        assert t == 0.5 and 0 < x < math.pi and 0 < y < math.pi

    def test_no_admissible_slices(self, laplace200):
        ev = HeatKernelEvaluator(laplace200[1])
        with pytest.raises(ConfigurationError):
            envelope_sup_ratio(ev, lap_schedule(0.0), 0.1, [ev.t_floor / 100.0])


def loop_sup_ratio(ev, schedule, c2, t_grid, stride=4):
    """envelope_sup_ratio entry by entry, every ratio taken in log space."""
    grid = ev.grid
    idx = _sample_indices(grid.n_interior, stride)
    s = float(ev.decomposition.eigenvalues[0])
    m, gamma = schedule.m, schedule.gamma
    power = (schedule.N + 2.0 * gamma) / (2.0 * m)
    worst, where = 0.0, None
    for t in t_grid:
        if t < 10.0 * ev.t_floor:
            continue
        K = ev.block(t, idx)
        for a, i in enumerate(idx):
            for b, j in enumerate(idx):
                x, y = grid.points[i], grid.points[j]
                d_x, d_y = min(x, grid.length - x), min(y, grid.length - y)
                log_env = (-math.log(schedule.eps) - power * math.log(t)
                           + gamma * (math.log(d_x) + math.log(d_y))
                           - c2 * abs(x - y) ** (2 * m / (2 * m - 1)) / t ** (1.0 / (2 * m - 1)) - s * t)
                k = abs(K[a, b])
                r = math.exp(math.log(k) - log_env) if k > 0 else 0.0
                if r > worst:
                    worst, where = r, (t, x, y)
    return worst, where


class TestSupRatioUnderflow:
    """envelope_sup_ratio against the entry-by-entry loop on polyharmonic m = 3, n = 40."""

    @pytest.mark.parametrize("gamma", [0.0, 0.4])
    @pytest.mark.parametrize("c2, ground_mode_only", [
        # default t grid: from t ~ 0.017 on, kernel and envelope both underflow to zero
        (0.1, False),
        # at t = 690/s only the ground mode survives the decay cap, and the
        # steep envelope underflows off the diagonal where the kernel does not
        (50.0, True),
    ])
    def test_matches_entrywise_loop(self, poly3_40, gamma, c2, ground_mode_only):
        ev = HeatKernelEvaluator(poly3_40[1])
        s = float(ev.decomposition.eigenvalues[0])
        schedule = schedule_from_gamma(3, 1, gamma)
        t_grid = np.array([690.0 / s]) if ground_mode_only else np.geomspace(0.01, 5.0, 25)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            ratio, where = envelope_sup_ratio(ev, schedule, c2, t_grid)
            expected, expected_where = loop_sup_ratio(ev, schedule, c2, t_grid)
            assert ratio == pytest.approx(expected, rel=1e-10)
            assert where == expected_where
            # slice by slice, so slices the sup does not pick are checked too
            for t in t_grid:
                expected, expected_where = loop_sup_ratio(ev, schedule, c2, [t])
                if expected_where is None:  # the whole kernel block underflows
                    with pytest.raises(ConfigurationError):
                        envelope_sup_ratio(ev, schedule, c2, [t])
                    continue
                ratio, where = envelope_sup_ratio(ev, schedule, c2, [t])
                assert ratio == pytest.approx(expected, rel=1e-10)
                assert where == expected_where
        if ground_mode_only:  # the sup sits where the envelope itself reads 0
            t, x, y = where
            env = BoundEnvelope(schedule=schedule, s=s, c1=1.0, c2=c2)
            assert envelope_eval(env, t, x, y, min(x, 1.0 - x), min(y, 1.0 - y)) == 0.0
            assert math.isfinite(ratio) and ratio > 1.0


class TestEnvelopeRatios:
    def test_rule_entry_by_entry(self, poly3_40):
        # 0 where k = 0, |k| / envelope where the envelope is positive, and
        # log space where only the envelope underflows (at t = 690/s only the
        # ground mode survives and the steep envelope underflows off the diagonal)
        _, d = poly3_40
        ev = HeatKernelEvaluator(d)
        s = d.gap
        schedule = schedule_from_gamma(3, 1, 0.4)
        env = BoundEnvelope(schedule=schedule, s=s, c1=2.5, c2=50.0)
        idx = _sample_indices(d.grid.n_interior, 2)
        x = d.grid.points
        seen = set()
        for t in (0.5 / s, 690.0 / s, 800.0 / s):
            K = ev.matrix(t)[np.ix_(idx, idx)]
            ratios = envelope_ratios(env, d.grid, idx, t, K)
            for a, i in enumerate(idx):
                for b, j in enumerate(idx):
                    d_x, d_y = min(x[i], 1.0 - x[i]), min(x[j], 1.0 - x[j])
                    k, e = abs(K[a, b]), envelope_eval(env, t, x[i], x[j], d_x, d_y)
                    if k == 0.0:
                        seen.add("zero")
                        assert ratios[a, b] == 0.0
                    elif e > 0.0:
                        seen.add("plain")
                        assert ratios[a, b] == pytest.approx(k / e, rel=1e-12)
                    else:
                        seen.add("log")
                        log_env = (math.log(2.5 / schedule.eps)
                                   - (1 + 2 * schedule.gamma) / 6.0 * math.log(t)
                                   + schedule.gamma * (math.log(d_x) + math.log(d_y))
                                   - 50.0 * abs(x[i] - x[j]) ** 1.2 / t**0.2 - s * t)
                        assert ratios[a, b] == pytest.approx(math.exp(math.log(k) - log_env), rel=1e-9)
        assert seen == {"zero", "plain", "log"}


class TestKernelBlock:
    def test_block_matches_full_table(self, laplace200, beam200):
        for _, d in (laplace200, beam200):
            ev = HeatKernelEvaluator(d)
            idx = _sample_indices(d.grid.n_interior, 4)
            for t in (0.1 / d.gap, 1.0 / d.gap):
                want = ev.matrix(t)[np.ix_(idx, idx)]
                got = ev.block(t, idx)
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_block_keeps_floor_warning(self, laplace200):
        ev = HeatKernelEvaluator(laplace200[1])
        with pytest.warns(ResolutionWarning):
            ev.block(ev.t_floor / 2.0, np.array([0, 5]))
        with pytest.raises(DomainError):
            ev.block(0.0, np.array([0, 5]))


class TestDecayExtractors:
    def test_longtime_rate_matches_gap(self, laplace200):
        ev = HeatKernelEvaluator(laplace200[1])
        rate = longtime_rate(ev, np.linspace(2.0, 8.0, 7))
        assert rate == pytest.approx(laplace200[1].gap, rel=1e-2)

    def test_longtime_rate_needs_two_resolved_times(self, poly3_40):
        # m = 3, n = 40: t * mu_1 passes the 700 cap between the second and the
        # third point of the default grid, and sup|k| underflows from there on
        ev = HeatKernelEvaluator(poly3_40[1])
        default = np.geomspace(0.01, 5.0, 25)
        assert longtime_rate(ev, default) == pytest.approx(poly3_40[1].gap, rel=1e-6)
        for ts in (default[1:], default[[1, 1, 2]]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no RankWarning from a one-point fit
                with pytest.raises(ConfigurationError, match="two distinct t"):
                    longtime_rate(ev, ts)

    def test_boundary_slope_nonnegative(self, laplace200):
        ev = HeatKernelEvaluator(laplace200[1])
        slope = boundary_slope(ev, 0.5, laplace200[1].grid.n_interior // 2)
        # Dirichlet kernel vanishes linearly at the wall
        assert slope == pytest.approx(1.0, abs=0.1)

    def test_beam_boundary_slope_steeper(self, beam200):
        # clamped conditions force a quadratic zero
        ev = HeatKernelEvaluator(beam200[1])
        slope = boundary_slope(ev, 2e-4, beam200[1].grid.n_interior // 2)
        assert slope >= 1.5


def evolved_samples(d, rng, count):
    """Smooth form-domain samples e^{-Ht} g: random g, t log-uniform on [1e-3, 1]."""
    out = np.empty((count, d.grid.n_interior))
    for i in range(count):
        g = rng.standard_normal(d.grid.n_interior)
        out[i] = semigroup_apply(d, math.exp(rng.uniform(math.log(1e-3), 0.0)), g)
    return out


class TestSobolevPointwise:
    def test_fit_and_holdout(self, laplace200, rng):
        form, d = laplace200
        f_train = np.vstack([
            d.eigenvectors[:, [0, 1, 100, 199]].T,
            evolved_samples(d, rng, 10),
        ])
        f_holdout = evolved_samples(d, rng, 8)
        out = sobolev_pointwise_check(
            d, form, lap_schedule(0.4), f_train, f_holdout, range(0, 200, 10)
        )
        assert out.passed
        assert out.constants["C"] > 0

    def test_held_out_violation_fails(self, laplace200):
        form, d = laplace200
        modes = [d.eigenvectors[:, [k]].T for k in (0, 1)]
        nodes = range(0, 200, 10)

        def fitted(f):
            return sobolev_pointwise_check(d, form, lap_schedule(0.4), f, f, nodes).constants["C"]

        lo, hi = sorted(modes, key=fitted)
        out = sobolev_pointwise_check(d, form, lap_schedule(0.4), lo, hi, nodes)
        assert not out.passed and out.failure.startswith("held-out ratio")

    def test_empty_node_set_rejected(self, laplace200):
        form, d = laplace200
        f = d.eigenvectors[:, [0]].T
        with pytest.raises(ConfigurationError, match="no evaluation nodes"):
            sobolev_pointwise_check(d, form, lap_schedule(0.4), f, f, range(2, 2))
