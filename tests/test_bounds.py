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
    assemble_form,
    boundary_slope,
    dirichlet_laplacian,
    fit_envelope_constants,
    longtime_rate,
    polyharmonic_spec,
    sobolev_pointwise_check,
)
from conftest import envelope_eval, semigroup_apply
from heatgauss.bounds import EnvelopeTable, centered_derivatives, envelope_ratios, envelope_sup_ratio, sample_indices
from heatgauss.cli import _train_holdout
from heatgauss.errors import ResolutionWarning
from heatgauss.core import Grid1D, schedule_from_gamma


def lap_schedule(gamma):
    return schedule_from_gamma(1, 1, gamma)


def envelope_at(env, grid, t):
    """EnvelopeTable's envelope of env over every node of grid at t."""
    idx = np.arange(grid.n_interior)
    return EnvelopeTable([env], grid, idx).at(t, np.zeros((idx.size, idx.size)))[0][0]


class TestEnvelope:
    GRID = Grid1D(length=math.pi, n_interior=30)

    def test_gamma_zero_reduces_to_gaussian(self):
        env = BoundEnvelope(schedule=lap_schedule(0.0), s=1.0, c1=1.0, c2=0.25)
        t, x = 0.5, self.GRID.points
        table = envelope_at(env, self.GRID, t)
        expected = (1.0 / 0.5) * t**-0.5 * np.exp(-0.25 * (x[:, None] - x[None, :]) ** 2 / t - t)
        np.testing.assert_allclose(table, expected, rtol=1e-14)
        assert np.all(table > 0)

    def test_boundary_decay_factor(self):
        env = BoundEnvelope(schedule=lap_schedule(0.4), s=1.0, c1=1.0, c2=0.1)
        flat = BoundEnvelope(schedule=lap_schedule(0.4), s=1.0, c1=1.0, c2=1e-300)
        table, plain = envelope_at(env, self.GRID, 1.0), envelope_at(flat, self.GRID, 1.0)
        x, d = self.GRID.points, self.GRID.boundary_distances
        # at c2 -> 0 only the boundary-decay product (d_x d_y)^gamma varies over the nodes
        np.testing.assert_allclose(plain / plain[0, 0], np.outer(d, d) ** 0.4 / d[0] ** 0.8, rtol=1e-13)
        # and the Gaussian factor decays with the distance |x - y|
        np.testing.assert_allclose(table / plain, np.exp(-0.1 * (x[:, None] - x[None, :]) ** 2), rtol=1e-13)

    def test_matches_scalar_oracle(self):
        for m, gamma in ((1, 0.0), (1, 0.4), (2, 1.2), (3, 2.3)):
            grid = Grid1D(length=1.0, n_interior=20)
            env = BoundEnvelope(schedule=schedule_from_gamma(m, 1, gamma), s=3.0, c1=2.0, c2=0.2)
            x, d = grid.points, grid.boundary_distances
            for t in (1e-3, 0.1, 2.0):
                table = envelope_at(env, grid, t)
                oracle = [[envelope_eval(env, t, x[i], x[j], d[i], d[j]) for j in range(20)] for i in range(20)]
                np.testing.assert_allclose(table, oracle, rtol=1e-14, atol=0.0)

    def test_invalid_arguments(self):
        env = BoundEnvelope(schedule=lap_schedule(0.0), s=1.0, c1=1.0, c2=1.0)
        for t in (0.0, -1.0, math.nan):
            with pytest.raises(DomainError):
                envelope_at(env, self.GRID, t)
        for c1 in (0.0, math.nan):
            with pytest.raises(ParameterError):
                BoundEnvelope(schedule=lap_schedule(0.0), s=1.0, c1=c1, c2=1.0)
        with pytest.raises(ParameterError):  # a table shares everything but c2
            EnvelopeTable([env, BoundEnvelope(schedule=lap_schedule(0.0), s=1.0, c1=2.0, c2=1.0)],
                          self.GRID, np.arange(3))


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

    def test_empty_c2_grid_is_a_configuration_error(self, laplace200):
        ev = HeatKernelEvaluator(laplace200[1])
        with pytest.raises(ConfigurationError, match="empty c2 grid"):
            fit_envelope_constants(ev, lap_schedule(0.0), [], np.geomspace(0.02, 3.0, 10))

    def test_no_admissible_slices(self, laplace200):
        ev = HeatKernelEvaluator(laplace200[1])
        with pytest.raises(ConfigurationError):
            envelope_sup_ratio(ev, lap_schedule(0.0), 0.1, [ev.t_floor / 100.0])


def loop_sup_ratio(ev, schedule, c2, t_grid, stride=4):
    """envelope_sup_ratio entry by entry, every ratio taken in log space."""
    grid = ev.grid
    idx = sample_indices(grid.n_interior, stride)
    s = float(ev.decomposition.eigenvalues[0])
    m, gamma = schedule.m, schedule.gamma
    power = (schedule.N + 2.0 * gamma) / (2.0 * m)
    worst, where = 0.0, None
    for t in t_grid:
        if t < 10.0 * ev.t_floor:
            continue
        K = ev.block(t, idx, idx)
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


@pytest.fixture(scope="module", params=[1, 2, 3])
def evaluator40(request):
    """Kernel evaluator of the Laplacian on (0, pi), the clamped beam and m = 3 at n = 40."""
    m = request.param
    length = math.pi if m == 1 else 1.0
    form = assemble_form(polyharmonic_spec(m), Grid1D(length=length, n_interior=40))
    return HeatKernelEvaluator(SpectralDecomposition.from_form(form))


class TestFitAgainstPerC2Loop:
    """fit_envelope_constants against one envelope_sup_ratio call per c2."""

    C2_GRID = np.geomspace(1e-3, 1.0, 7)

    @staticmethod
    def per_c2_fit(ev, schedule, c2_grid, t_grid):
        m, N = schedule.m, schedule.N
        best = None
        for c2 in c2_grid:
            c1, where = envelope_sup_ratio(ev, schedule, float(c2), t_grid)
            score = c1 * float(c2) ** (-(2 * m - 1) * N / (2.0 * m))
            if best is None or score < best[0]:
                best = (score, c1, float(c2), where)
        return best[1:]

    @pytest.mark.parametrize("gamma", [0.0, 0.4])
    def test_same_constants_and_location(self, evaluator40, gamma, monkeypatch):
        ev = evaluator40
        m, s = ev.decomposition.m, ev.decomposition.gap
        schedule = schedule_from_gamma(m, 1, gamma)
        # the first two slices (and at m = 1 the third) lie below 10 t_floor, which the fit skips
        t_grid = np.concatenate([[ev.t_floor, 5.0 * ev.t_floor], np.geomspace(0.05, 5.0, 12) / s])
        c1, c2, where = self.per_c2_fit(ev, schedule, self.C2_GRID, t_grid)
        blocks, block = [], HeatKernelEvaluator.block

        def counted(self, t, rows, cols):
            blocks.append(t)
            return block(self, t, rows, cols)

        monkeypatch.setattr(HeatKernelEvaluator, "block", counted)
        fit = fit_envelope_constants(ev, schedule, self.C2_GRID, t_grid)
        assert fit.constants == {"c1": c1, "c2": c2} and fit.worst_location == where
        assert blocks == [float(t) for t in t_grid if t >= 10.0 * ev.t_floor]  # one block per admissible t
        assert len(blocks) >= 11

    def test_refined_path(self):
        coarse = HeatKernelEvaluator(dirichlet_laplacian(Grid1D(length=math.pi, n_interior=40)))
        refined = HeatKernelEvaluator(dirichlet_laplacian(Grid1D(length=math.pi, n_interior=80)))
        schedule, t_grid = lap_schedule(0.4), np.geomspace(0.05, 5.0, 12)
        c1, c2, where = self.per_c2_fit(coarse, schedule, self.C2_GRID, t_grid)
        c1_ref, _ = envelope_sup_ratio(refined, schedule, c2, t_grid)
        fit = fit_envelope_constants(coarse, schedule, self.C2_GRID, t_grid, refined=refined)
        assert fit.constants == {"c1": c1, "c2": c2} and fit.worst_location == where
        assert fit.drift == abs(c1_ref - c1) / c1
        assert fit.passed == (c1_ref <= c1 * 1.10)

    def test_all_slices_below_the_floor(self, evaluator40):
        ev = evaluator40
        schedule = schedule_from_gamma(ev.decomposition.m, 1, 0.0)
        with pytest.raises(ConfigurationError, match="no admissible t slices"):
            fit_envelope_constants(ev, schedule, self.C2_GRID, [ev.t_floor, 5.0 * ev.t_floor])

    def test_every_admissible_slice_flushed_names_the_cap(self, evaluator40):
        # admissible t whose mu_1 t passes the 700 cap: every kernel block is exactly 0
        ev = evaluator40
        s = ev.decomposition.gap
        schedule = schedule_from_gamma(ev.decomposition.m, 1, 0.0)
        ts = [750.0 / s, 2000.0 / s]
        assert all(not np.any(ev.block(t, np.arange(40), np.arange(40))) for t in ts)
        with pytest.raises(ConfigurationError, match="exactly 0 on every admissible t slice: mu_1 t >= 750 "):
            fit_envelope_constants(ev, schedule, self.C2_GRID, ts)


class TestEnvelopeRatios:
    def test_rule_entry_by_entry(self, poly3_40):
        # 0 where k = 0, |k| / envelope where the envelope is normal, and log
        # space where only the envelope is subnormal or underflows (at t = 690/s only
        # the ground mode survives and the steep envelope underflows off the diagonal)
        _, d = poly3_40
        ev = HeatKernelEvaluator(d)
        s = d.gap
        schedule = schedule_from_gamma(3, 1, 0.4)
        env = BoundEnvelope(schedule=schedule, s=s, c1=2.5, c2=50.0)
        idx = sample_indices(d.grid.n_interior, 2)
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
                    elif e >= np.finfo(float).tiny:
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


    @pytest.mark.parametrize("gamma", [0.0, 0.4])
    def test_table_matches_the_per_pair_arithmetic_exactly(self, evaluator40, gamma):
        # the table hoists the c2-independent factors but keeps each expression's order, so the
        # envelope, the ratios and hence the fitted constants are those of one rebuild per (c2, t)
        ev = evaluator40
        m, s = ev.decomposition.m, float(ev.decomposition.eigenvalues[0])
        schedule = schedule_from_gamma(m, 1, gamma)
        gamma = schedule.gamma  # the schedule's round trip through eps can move the last bit
        idx = sample_indices(ev.grid.n_interior, 4)
        xi = ev.grid.points[idx]
        di, r = np.minimum(xi, ev.grid.length - xi), np.abs(xi[:, None] - xi[None, :])
        envs = [BoundEnvelope(schedule=schedule, s=s, c1=1.5, c2=c2) for c2 in (1e-3, 0.1, 50.0)]
        table = EnvelopeTable(envs, ev.grid, idx)
        for t in np.geomspace(0.05, 700.0, 6) / s:
            K = ev.block(t, idx, idx)
            for env, envelope, ratios in zip(envs, *table.at(t, K)):
                decay = np.outer(di**gamma, di**gamma) if gamma > 0 else 1.0
                expo = -env.c2 * r ** (2 * m / (2 * m - 1)) / t ** (1.0 / (2 * m - 1)) - s * t
                prefactor = (1.5 / schedule.eps) * t ** (-(1 + 2.0 * gamma) / (2.0 * m)) * decay
                want = prefactor * np.exp(expo)
                assert np.array_equal(envelope, want)
                plain = want >= np.finfo(float).tiny
                with np.errstate(over="ignore"):
                    assert np.array_equal(ratios[plain], np.abs(K[plain]) / want[plain])

    @pytest.mark.parametrize("c2", [100.0, 1e4])
    def test_ratio_past_the_float_range_reads_inf(self, c2):
        # laplace-pi at n = 40, t = 1: below a kernel entry the envelope is subnormal (the plain
        # branch, at c2 = 100) or underflows to 0 (the log branch, at both c2), and |k| / envelope
        # passes the float range; the suite turns an unguarded overflow's RuntimeWarning into an error
        form = assemble_form(polyharmonic_spec(1), Grid1D(length=math.pi, n_interior=40))
        ev = HeatKernelEvaluator(SpectralDecomposition.from_form(form))
        ratio, _ = envelope_sup_ratio(ev, lap_schedule(0.0), c2, [1.0])
        assert ratio == math.inf
        env = BoundEnvelope(schedule=lap_schedule(0.0), s=float(ev.decomposition.eigenvalues[0]), c1=1.0, c2=c2)
        idx = sample_indices(40, 4)
        envelope, ratios = (a[0] for a in EnvelopeTable([env], ev.grid, idx).at(1.0, ev.block(1.0, idx, idx)))
        assert np.any(np.isinf(ratios) & (envelope > 0)) == (c2 == 100.0)
        assert np.any(np.isinf(ratios) & (envelope == 0))

    def test_subnormal_envelope_keeps_the_ratio_digits(self):
        # laplace-pi at n = 40, t = 1, c2 = 100 on every node, the kernel scaled by 1e-20 so that the
        # ratios over subnormal envelopes stay finite; dividing by those envelopes read 4.4e-12 relative
        # error against a 40-digit reference, the log branch 1.2e-13
        form = assemble_form(polyharmonic_spec(1), Grid1D(length=math.pi, n_interior=40))
        ev = HeatKernelEvaluator(SpectralDecomposition.from_form(form))
        s, idx, x = ev.decomposition.gap, np.arange(40), ev.grid.points
        env = BoundEnvelope(schedule=lap_schedule(0.0), s=s, c1=1.0, c2=100.0)
        K = 1e-20 * ev.block(1.0, idx, idx)
        envelope, ratios = (a[0] for a in EnvelopeTable([env], ev.grid, idx).at(1.0, K))
        subnormal = (envelope > 0) & (envelope < np.finfo(float).tiny) & (K != 0) & np.isfinite(ratios)
        assert np.count_nonzero(subnormal) == 10
        for i, j in zip(*np.nonzero(subnormal)):
            log_env = math.log(1.0 / 0.5) - 100.0 * (x[i] - x[j]) ** 2 - s  # t = 1, gamma = 0, eps = 1/2
            assert ratios[i, j] == pytest.approx(math.exp(math.log(abs(K[i, j])) - log_env), rel=1e-12)


class TestKernelBlock:
    def test_block_matches_full_table(self, laplace200, beam200, poly3_40):
        # the sampled block, a boundary column and a row against the sliced full table, relative to
        # the table's largest entry: the products differ in summation order, not in the rule
        for _, d in (laplace200, beam200, poly3_40):
            ev, n = HeatKernelEvaluator(d), d.grid.n_interior
            idx = sample_indices(n, 4)
            reads = [(idx, idx), (np.arange(n // 5), [n // 2]), ([n // 3], np.arange(n))]
            for t in (0.1 / d.gap, 1.0 / d.gap):
                K = ev.matrix(t)
                assert np.array_equal(K, ev.block(t, np.arange(n), np.arange(n)))
                for rows, cols in reads:
                    want, got = K[np.ix_(rows, cols)], ev.block(t, rows, cols)
                    assert got.shape == want.shape
                    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(K))

    def test_block_keeps_floor_warning(self, laplace200):
        ev = HeatKernelEvaluator(laplace200[1])
        with pytest.warns(ResolutionWarning):
            ev.block(ev.t_floor / 2.0, [0, 5], [0, 5])
        with pytest.raises(DomainError):
            ev.block(0.0, [0, 5], [0, 5])


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

    def test_longtime_sup_is_the_largest_diagonal_entry(self, evaluator40):
        # the kernel is positive semidefinite, so sup |k| sits on the diagonal; the default grid
        # flushes every t past mu_1 t = 700 at m >= 2, where both read exactly 0
        ev = evaluator40
        ts = np.concatenate([np.geomspace(0.01, 5.0, 25), np.geomspace(0.5, 800.0, 9) / ev.decomposition.gap])
        sups = []
        for t in ts:
            full = np.max(np.abs(ev.matrix(float(t))))
            assert abs(np.max(ev.diagonal(float(t))) - full) <= 1e-14 * full
            sups.append(full)
        sups = np.array(sups)
        assert np.any(sups == 0.0)  # mu_1 t = 800 at the least
        # the rate is the line through the sups of the full tables
        keep = sups > 1e-300
        want, _ = np.polyfit(ts[keep], -np.log(sups[keep]), 1)
        assert longtime_rate(ev, ts) == pytest.approx(want, rel=1e-12)

    def test_longtime_rate_keeps_the_floor_warning(self, evaluator40):
        ev = evaluator40
        with pytest.warns(ResolutionWarning):
            longtime_rate(ev, [ev.t_floor / 2.0, 2.0 * ev.t_floor, 4.0 * ev.t_floor])
        with pytest.raises(DomainError):
            longtime_rate(ev, [0.0, 1.0])

    def test_boundary_slope_nonnegative(self, laplace200):
        ev = HeatKernelEvaluator(laplace200[1])
        slope = boundary_slope(ev, 0.5, laplace200[1].grid.n_interior // 2)
        # Dirichlet kernel vanishes linearly at the wall
        assert slope == pytest.approx(1.0, abs=0.1)

    def test_boundary_slope_reads_one_column(self, laplace200, monkeypatch):
        # the slope of the window of column j, with no full table built
        ev = HeatKernelEvaluator(laplace200[1])
        col = np.abs(ev.matrix(0.5)[:20, 100])
        want, _ = np.polyfit(np.log(ev.grid.points[:20]), np.log(col), 1)

        def no_table(self, t):
            raise AssertionError("full kernel table built")

        monkeypatch.setattr(HeatKernelEvaluator, "matrix", no_table)
        assert boundary_slope(ev, 0.5, 100) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("j", [-1, 200])
    def test_boundary_slope_rejects_a_column_outside_the_grid(self, laplace200, j):
        with pytest.raises(DomainError, match=f"node index {j} outside 0..199"):
            boundary_slope(HeatKernelEvaluator(laplace200[1]), 0.5, j)

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

    # orders 1 and 2, which no benchmark config reaches: C, its location and the verdict
    # pinned to the values of the per-node stencil loop that the array step replaced
    @pytest.mark.parametrize("m, gamma, order, c, where", [
        pytest.param(2, 1.2, 1, 0.18619969501385444, (0, 32), id="beam-1"),
        pytest.param(3, 2.2, 2, 0.11873779888687762, (0, 2), id="m3"),
    ])
    def test_pinned_higher_orders(self, m, gamma, order, c, where):
        # beam-1 is polyharmonic m = 2 on (0, 1); the runner's samples and nodes at n = 40
        form = assemble_form(polyharmonic_spec(m), Grid1D(length=1.0, n_interior=40))
        d = SpectralDecomposition.from_form(form)
        f_train, f_holdout = _train_holdout(d, 42, 24)
        schedule = schedule_from_gamma(m, 1, gamma)
        assert schedule.n == order
        out = sobolev_pointwise_check(d, form, schedule, f_train, f_holdout, range(2, 38, 2))
        assert out.constants["C"] == pytest.approx(c, rel=1e-12)
        assert out.worst_location == where and out.passed

    def test_boundary_node_raises_at_order_one(self, beam100):
        form, d = beam100
        f = d.eigenvectors[:, [0, 1]].T
        with pytest.raises(DomainError, match=r"needs nodes 1\.\.98, got 0"):
            sobolev_pointwise_check(d, form, schedule_from_gamma(2, 1, 1.2), f, f, range(0, 100, 10))


class TestCenteredDerivatives:
    @pytest.mark.parametrize("order, node, want, rel", [
        pytest.param(0, 7, lambda x: x**2, 0.0, id="order0"),
        pytest.param(1, 20, lambda x: 2.0 * x, 1e-10, id="order1"),
        pytest.param(2, 25, lambda x: 2.0, 1e-6, id="order2"),
    ])
    def test_analytic_cases(self, order, node, want, rel):
        g = Grid1D(length=1.0, n_interior=49)
        f = g.points**2
        (got,) = centered_derivatives(g, f[None, :], order, [node])
        assert got[0] == pytest.approx(want(g.points[node]), rel=rel)

    def test_every_sample_at_every_node(self):
        g = Grid1D(length=1.0, n_interior=20)
        fs = np.vstack([g.points, 3.0 * g.points**2])
        got = centered_derivatives(g, fs, 1, [1, 10, 18])
        assert got.shape == (2, 3)
        assert np.allclose(got, [[1.0] * 3, 6.0 * g.points[[1, 10, 18]]], rtol=1e-9)

    @pytest.mark.parametrize("order, node", [(1, 0), (1, 19), (2, 0), (2, 19), (0, 20), (0, -1)])
    def test_node_outside_the_stencil_raises(self, order, node):
        g = Grid1D(length=1.0, n_interior=20)
        with pytest.raises(DomainError, match="centered"):
            centered_derivatives(g, g.points[None, :], order, [5, node])

    def test_unsupported_order(self):
        g = Grid1D(length=1.0, n_interior=10)
        with pytest.raises(DomainError):
            centered_derivatives(g, g.points[None, :], 3, [5])
