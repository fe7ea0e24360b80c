"""End-to-end acceptance gate: one criterion per test, one verdict line each."""

import math
import sys
import time

import numpy as np
import pytest

from heatgauss import (
    HeatKernelEvaluator,
    TwistSpec,
    TwistedOperator,
    appendix_b_identities,
    check_basic,
    check_bond,
    check_epsilon,
    check_main,
    check_stephen,
    evolved_form_bound_check,
    evolved_twisted_form_check,
    fit_envelope_constants,
    gtilde_majorant,
    kernel_eval,
    numerical_range_sector,
    per_lambda,
    sector_samples,
    sector_shift_search,
    twisted_kernel,
    twisted_semigroup_norm_fit,
    young_constant,
)
from heatgauss.bounds import boundary_slope, longtime_rate
from heatgauss.cli import main as cli_main
from heatgauss.cli import sample_functions
from heatgauss.core import schedule_from_gamma
from heatgauss.inequalities import SearchGrid
from heatgauss.twist import conjugate, mixed_norm_bound_fit

from conftest import BUILD_SECONDS


_CAPTURE = None


@pytest.fixture(autouse=True)
def _verdict_channel(capfd):
    # capfd restores the real stdout fd inside disabled(), so the verdict
    # lines survive pytest's capture and reach the terminal / tee stream
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _report(index: int, name: str, ok: bool) -> None:
    line = f"ACCEPTANCE {index} ({name}): {'PASS' if ok else 'FAIL'}\n"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            sys.stdout.write(line)
            sys.stdout.flush()
    else:
        sys.stdout.write(line)
        sys.stdout.flush()


def _drift(a: float, b: float) -> float:
    return abs(b - a) / max(abs(a), 1e-12)


def test_criterion_1_laplace_oracle(laplace400):
    """Sine-series kernel and unit gap on laplace-pi at n = 400 within 60 s, the fixture's solve included."""
    start = time.perf_counter()
    ok = True
    try:
        _, d = laplace400
        ev = HeatKernelEvaluator(d)
        gap_rel = abs(d.gap - 1.0)
        ok &= gap_rel <= 5e-3
        x = d.grid.points
        modes = np.arange(1, 4001)
        E = np.sin(np.outer(x, modes))
        worst_sup = 0.0
        worst_diag = 0.0
        for t in np.geomspace(0.01, 5.0, 12):
            KO = 2.0 / math.pi * (E * np.exp(-modes.astype(float) ** 2 * t)) @ E.T
            KD = ev.matrix(float(t))
            sup = np.max(np.abs(KO))
            # relative to the kernel scale at each slice; pointwise relative
            # error is ill-posed in the Gaussian tail where k crosses zero
            worst_sup = max(worst_sup, float(np.max(np.abs(KO - KD)) / sup))
            # pointwise relative check on the diagonal away from the O(h)
            # boundary layer, where the kernel stays strictly positive
            diag = np.arange(20, 380)
            worst_diag = max(
                worst_diag,
                float(np.max(np.abs(KO[diag, diag] - KD[diag, diag]) / KO[diag, diag])),
            )
        point = kernel_eval(ev, 1.0, round(1.0 / d.grid.h) - 1, round(2.0 / d.grid.h) - 1)  # nodes nearest 1, 2
        ok &= math.isfinite(point)
        ok &= worst_sup <= 1e-3 and worst_diag <= 1e-3
        elapsed = time.perf_counter() - start + BUILD_SECONDS[("laplace-pi", 400)]
        ok &= elapsed <= 60.0
    except Exception:
        ok = False
        raise
    finally:
        _report(1, "laplace-pi kernel and gap oracle", ok)
    assert ok


def _beam_root_oracle() -> float:
    """beta_1 solving cos(b) cosh(b) = 1 by bisection on [4, 5]."""

    def g(b):
        return math.cos(b) * math.cosh(b) - 1.0

    lo, hi = 4.0, 5.0
    assert g(lo) < 0 < g(hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_2_beam_oracle(beam400):
    """Smallest beam-1 eigenvalue within 1% of beta_1^4 within 120 s, the fixture's solve included."""
    start = time.perf_counter()
    ok = True
    try:
        beta = _beam_root_oracle()
        assert beta == pytest.approx(4.7300407448627040, abs=1e-10)
        mu_star = beta**4
        _, d = beam400
        rel = abs(d.gap - mu_star) / mu_star
        ok &= rel <= 0.01
        elapsed = time.perf_counter() - start + BUILD_SECONDS[("beam-1", 400)]
        ok &= elapsed <= 120.0
    except Exception:
        ok = False
        raise
    finally:
        _report(2, "clamped-beam eigenvalue oracle", ok)
    assert ok


def test_criterion_3_gtilde(laplace400, beam400, rng):
    """Evolved-form bound and g~ majorant: zero violations on both profiles."""
    ok = True
    try:
        for _, d in (laplace400, beam400):
            s = d.gap
            t_grid = np.geomspace(0.02 / s, 5.0 / s, 12)
            samples = np.vstack([
                d.eigenvectors[:, [0, 1, 199, 399]].T,
                rng.standard_normal((8, d.grid.n_interior)),
            ])
            evolved_form_bound_check(d, t_grid, samples)  # raises PropertyViolation on a ratio above 1
            grid = SearchGrid(axes={
                "mu": np.geomspace(s, 1e4 * s, 300),
                "t": np.geomspace(1e-4 / s, 10.0 / s, 300),
            }, seed=42)
            gtilde_majorant(s, grid)  # raises PropertyViolation on a violation
    except Exception:
        ok = False
        raise
    finally:
        _report(3, "g~ bound on evolved forms", ok)
    assert ok


def test_criterion_4_envelope_fits(laplace200, laplace400, beam200, beam400):
    """Envelope fits with <= 10% mesh drift, long-time rate, boundary slopes."""
    ok = True
    try:
        cases = [
            (laplace200, laplace400, 1, [0.0, 0.4]),
            (beam200, beam400, 2, [0.0, 0.75, 1.49]),
        ]
        c2_grid = np.geomspace(1e-3, 1.0, 7)
        for (f200, d200), (f400, d400), m, gammas in cases:
            ev200 = HeatKernelEvaluator(d200)
            ev400 = HeatKernelEvaluator(d400)
            s = d400.gap
            t_grid = np.geomspace(0.02 / s, 3.0 / s, 12)
            for gamma in gammas:
                schedule = schedule_from_gamma(m, 1, gamma)
                fit = fit_envelope_constants(ev200, schedule, c2_grid, t_grid, refined=ev400)
                ok &= fit.passed and fit.drift is not None and fit.drift <= 0.10
                slope = boundary_slope(ev400, float(np.median(t_grid)), 200)
                ok &= slope >= gamma
            rate = longtime_rate(ev400, np.linspace(2.0 / s, 10.0 / s, 9))
            ok &= abs(rate - s) / s <= 0.01
    except Exception:
        ok = False
        raise
    finally:
        _report(4, "boundary-decaying envelope fits", ok)
    assert ok


def test_criterion_5_twist_exactness(laplace400):
    """Similarity identities, spectrum invariance and the dual per(lambda) path."""
    ok = True
    try:
        form, d = laplace400
        ev = HeatKernelEvaluator(d)
        tw = TwistSpec(grid=d.grid, x0=d.grid.length / 2.0, a=1.0, lam=1.0)
        # twisted kernel: raises when its two routes differ beyond eps n max(k_ii, k_jj) e_j / e_i
        for t, i, j in [(0.05, 30, 300), (0.5, 100, 200), (2.0, 10, 390)]:
            twisted_kernel(ev, tw, t, i, j)
        spec = np.sort(np.linalg.eigvals(conjugate(d.operator_matrix(), tw)).real)
        ok &= float(np.max(np.abs(spec - d.eigenvalues))) <= 1e-8 * d.eigenvalues[-1]
        for z in [complex(-1, 1), complex(-10, 0), complex(0.5, 2), complex(3, 0.5), complex(100, -5)]:
            out = appendix_b_identities(d, tw, z)
            ok &= out["ok"]
        rng = np.random.default_rng(42)
        samples = rng.standard_normal((1000, d.grid.n_interior))
        for f in samples:
            per_lambda(form, tw, f)  # raises on dual-path mismatch
    except Exception:
        ok = False
        raise
    finally:
        _report(5, "twist exactness and Appendix B identities", ok)
    assert ok


def test_criterion_6_sectoriality(laplace400):
    """Finite sector shift and in-sector numerical range on laplace-pi."""
    ok = True
    try:
        _, d = laplace400
        samples = sector_samples(d, seed=42, count=1000)
        for p in (0.25, 0.5, 0.75):
            for lam in (0.5, 1.0, 2.0):
                tw = TwistSpec(grid=d.grid, x0=d.grid.length / 2.0, a=1.0, lam=lam)
                top = TwistedOperator(base=d, twist=tw)
                c = sector_shift_search(top, p, samples)
                ok &= math.isfinite(c)
                unit = (1.0 + p) * (1.0 + d.gap) ** (2 * d.m) * lam ** (2 * d.m)
                angle, violations = numerical_range_sector(top, p, c * unit, samples)
                ok &= violations == [] and angle <= math.atan(1.0 / p) + 1e-12
    except Exception:
        ok = False
        raise
    finally:
        _report(6, "sectoriality of the twisted operator", ok)
    assert ok


def test_criterion_7_semigroup_fits(laplace200, laplace400, beam200, beam400):
    """Twisted semigroup-norm and evolved-form fits: held-out clean, <= 15% drift."""
    ok = True
    try:
        for pair in [(laplace200, laplace400), (beam200, beam400)]:
            fitted = {}
            for form, d in pair:
                n = d.grid.n_interior
                s = d.gap
                t_grid = np.geomspace(0.02 / s, 3.0 / s, 10)
                rng = np.random.default_rng(42)
                f_train = sample_functions(d, rng, 8)
                f_holdout = rng.standard_normal((8, n))
                for lam in (0.0, 0.5, 1.0, 2.0):
                    tw = TwistSpec(grid=d.grid, x0=d.grid.length / 2.0, a=1.0, lam=lam)
                    growth = twisted_semigroup_norm_fit(d, tw, t_grid)["c"]
                    mixed = mixed_norm_bound_fit(d, tw, t_grid, 0.5, 1.0, growth)["c2"]
                    # raises PropertyViolation on a held-out violation
                    evolved = evolved_twisted_form_check(
                        d, form, tw, 0.5, t_grid, f_train, f_holdout
                    )
                    fitted.setdefault(lam, {})[n] = (growth, mixed, evolved["c1"])
            for lam, by_n in fitted.items():
                coarse, fine = by_n[200], by_n[400]
                ok &= all(_drift(a, b) <= 0.15 for a, b in zip(coarse, fine))
    except Exception:
        ok = False
        raise
    finally:
        _report(7, "twisted semigroup constant fits", ok)
    assert ok


def test_criterion_8_appendix_sweeps(laplace200, beam200, rng):
    """Appendix A inequalities over >= 1e5 seeded points with exact constants."""
    ok = True
    try:
        ok &= young_constant(1.0, 1.0) == 0.25
        ok &= abs(young_constant(2.0, 1.0) - 4.0 / 27.0) <= 1e-16
        basic = check_basic(SearchGrid(axes={
            "a": np.geomspace(1e-3, 1e3, 14),
            "b": np.geomspace(1e-3, 1e3, 14),
            "p": np.linspace(0.25, 3.0, 7),
            "q": np.linspace(0.25, 3.0, 7),
            "eps": np.geomspace(1e-2, 10.0, 12),
        }, seed=42))
        ok &= basic["n_points"] >= 10**5  # each sweep raises PropertyViolation on a violation
        ok &= basic["tightness_rel"] <= 1e-8

        form, d = laplace200
        f_samples = rng.standard_normal((8, 200))
        check_bond(d, [(1, 2), (1, 3), (2, 3)], f_samples)

        sym = SearchGrid(axes={
            "lam": np.geomspace(1e-2, 1e2, 30),
            "eps": np.geomspace(1e-2, 1.0, 20),
        }, seed=42)
        main_out = check_main(d, sym, f_samples[:4])
        ok &= main_out["n_points"] >= 10**5

        eps_grid = SearchGrid(axes={
            "lam": np.geomspace(1e-2, 1e2, 40),
            "eps": np.geomspace(1e-2, 1.9, 24),
        }, seed=42)
        eps_out = check_epsilon(d, eps_grid, f_samples[:6])
        ok &= eps_out["n_points"] >= 10**5

        stephen_grid = SearchGrid(axes={
            "rho": np.geomspace(1e-2, 1e2, 16),
            "theta": np.geomspace(1e-2, 10.0, 16),
            "lam": np.geomspace(1e-2, 1e2, 24),
        }, seed=42)
        for profile_form, profile_d in (laplace200, beam200):
            f_train = sample_functions(profile_d, np.random.default_rng(42), 12)
            f_holdout = np.random.default_rng(7).standard_normal((12, 200))
            stephen = check_stephen(profile_form, profile_d, stephen_grid, f_train, f_holdout)
            ok &= stephen["n_points"] >= 10**5
    except Exception:
        ok = False
        raise
    finally:
        _report(8, "Appendix A inequality sweeps", ok)
    assert ok


def test_criterion_9_determinism(tmp_path):
    """Identical config and seed produce byte-identical verify-bounds CSVs."""
    ok = True
    try:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "[operator]\nsource = laplace-pi\nn = 120\n\n"
            "[schedule]\ngamma = 0.0 0.4\n\n"
            "[sweep]\nt_grid = 0.05 0.1 0.2 0.5 1.0 2.0\n"
            "c2_grid = 0.01 0.05 0.1 0.25\nsamples = 8\nseed = 42\n",
            encoding="utf-8",
        )
        outputs = []
        for sub in ("one", "two"):
            out = tmp_path / sub
            code = cli_main(["verify-bounds", "--config", str(cfg), "--out", str(out)])
            ok &= code == 0
            outputs.append((out / "verify_bounds.csv").read_bytes())
        ok &= outputs[0] == outputs[1] and len(outputs[0]) > 0
    except Exception:
        ok = False
        raise
    finally:
        _report(9, "byte-identical deterministic reports", ok)
    assert ok
