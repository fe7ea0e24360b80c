"""Experiment runner: config parsing, sweep orchestration, CSV and SVG output.

Exit codes: 0 when every executed check passes, 1 on a check failure (failing
rows go to standard error), 2 on a configuration or parse error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import bounds as bounds_mod
from . import inequalities as ineq
from . import twist as twist_mod
from .assembly import FormMatrix, assemble_form, measure_ellipticity
from .config import N_MAX, RunConfig, load_run_config
from .core import Grid1D
from .errors import ConfigurationError, HeatGaussError, PropertyViolation, UnsupportedError
from .reporting import (
    KERNEL_HEADER,
    ReportRow,
    kernel_rows,
    line_plot_svg,
    ratio_table_svg,
    witness_text,
    write_csv,
    write_report_rows,
)
from .spectral import (
    HeatKernelEvaluator,
    SpectralDecomposition,
    dirichlet_laplacian,
    evolved_form_bound_check,
)

SUBCOMMANDS = (
    "spectrum",
    "kernel",
    "verify-bounds",
    "verify-twist",
    "verify-inequalities",
    "report",
)


def _build_form(cfg: RunConfig, n: int) -> FormMatrix:
    try:
        return assemble_form(cfg.spec, Grid1D(length=cfg.length, n_interior=n))
    except UnsupportedError as exc:  # a non-Hermitian coefficient table
        raise ConfigurationError(str(exc)) from None


def sample_functions(d: SpectralDecomposition, rng: np.random.Generator, count: int) -> np.ndarray:
    """Structured extremal modes plus seeded random vectors."""
    n = d.grid.n_interior
    k = d.eigenvectors.shape[1]
    structured = np.stack([
        d.eigenvectors[:, 0],
        d.eigenvectors[:, min(1, k - 1)],
        d.eigenvectors[:, k // 2],
        d.eigenvectors[:, k - 1],
        d.eigenvectors[:, 0] + d.eigenvectors[:, k - 1],
    ])
    randoms = rng.standard_normal((count, n))
    return np.vstack([structured, randoms])


def _decomposition(cfg: RunConfig, n: int) -> tuple[FormMatrix, SpectralDecomposition]:
    """Form and decomposition of the configured operator at n; a non-positive one is a config error."""
    form = _build_form(cfg, n)
    try:
        return form, SpectralDecomposition.from_form(form)
    except PropertyViolation as exc:  # the constructor's mu_1 > 0 check
        raise ConfigurationError(f"the configured operator is not positive: mu_1 = {exc.witness['mu_1']}") from None


def _decompose(cfg: RunConfig) -> tuple[FormMatrix, SpectralDecomposition, HeatKernelEvaluator]:
    """Form, decomposition and kernel evaluator of the configured operator at n = cfg.n."""
    form, d = _decomposition(cfg, cfg.n)
    return form, d, HeatKernelEvaluator(d)


def _train_holdout(d: SpectralDecomposition, seed: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded training samples (structured modes first) and then held-out random vectors."""
    rng = np.random.default_rng(seed)
    f_train = sample_functions(d, rng, count)
    return f_train, rng.standard_normal((count, d.grid.n_interior))


def _fitted_envelope(cfg: RunConfig, ev: HeatKernelEvaluator):
    """Envelope fit at the first configured gamma and the envelope with its constants."""
    schedule = cfg.schedules[0]
    fit = bounds_mod.fit_envelope_constants(ev, schedule, cfg.c2_grid, cfg.t_grid)
    env = bounds_mod.BoundEnvelope(schedule=schedule, s=ev.decomposition.gap,
                                   c1=fit.constants["c1"], c2=fit.constants["c2"])
    return fit, env


def _fit_row(check: str, params: dict, statistic: float, fit: bounds_mod.FitResult) -> ReportRow:
    return ReportRow(check, params, statistic, fit.passed, None if fit.passed else {"flags": fit.failure})


def _guarded(rows: list, name: str, params: dict, outcome) -> None:
    """Append one check's row: outcome() returns a passing row's statistic or a finished ReportRow, and
    a HeatGaussError it raises becomes a failing row `name` with the error's witness or message."""
    try:
        value = outcome()
        rows.append(value if isinstance(value, ReportRow) else ReportRow(name, params, float(value), True))
    except HeatGaussError as exc:
        rows.append(ReportRow(name, params, math.nan, False, getattr(exc, "witness", None) or {"error": str(exc)}))


def run_spectrum(cfg: RunConfig, out: str) -> list[ReportRow]:
    _, d, _ = _decompose(cfg)
    write_csv(
        os.path.join(out, "spectrum.csv"),
        ["index", "eigenvalue"],
        ([k, mu] for k, mu in enumerate(d.eigenvalues)),
    )
    write_csv(os.path.join(out, "gap.csv"), ["gap"], [[d.gap]])
    return [ReportRow("spectral-gap", {"n": cfg.n, "m": cfg.m}, d.gap, True)]


def run_kernel(cfg: RunConfig, out: str) -> list[ReportRow]:
    _, _, ev = _decompose(cfg)
    fit, env = _fitted_envelope(cfg, ev)
    idx = bounds_mod.sample_indices(cfg.n, max(cfg.n // 24, 1))
    table = bounds_mod.EnvelopeTable([env], ev.grid, idx)
    x, dist = ev.grid.points[idx], ev.grid.boundary_distances[idx]

    def rows():
        for t in bounds_mod.admissible_times(ev, cfg.t_grid):
            K = ev.block(t, idx, idx)
            envelope, ratio = table.at(t, K)
            yield from kernel_rows(t, x, dist, K, envelope[0], ratio[0])

    write_csv(os.path.join(out, "kernel.csv"), KERNEL_HEADER, rows())
    return [_fit_row("kernel-dump", {"n": cfg.n, "gamma": env.schedule.gamma}, fit.constants["c1"], fit)]


def run_verify_bounds(cfg: RunConfig, out: str, refine: bool) -> list[ReportRow]:
    if refine and 2 * cfg.n > N_MAX:
        raise ConfigurationError(f"--refine decomposes at 2n = {2 * cfg.n}, above n = {N_MAX}; use n <= {N_MAX // 2}")
    form, d, ev = _decompose(cfg)
    refined_ev = HeatKernelEvaluator(_decomposition(cfg, 2 * cfg.n)[1]) if refine else None
    f_train, f_holdout = _train_holdout(d, cfg.seed, cfg.sample_count)
    x_indices = list(range(2, cfg.n - 2, max(cfg.n // 16, 1)))
    rows = []
    for schedule in cfg.schedules:
        params = {"gamma": schedule.gamma, "n": cfg.n}

        def envelope():
            fit = bounds_mod.fit_envelope_constants(ev, schedule, cfg.c2_grid, cfg.t_grid, refined=refined_ev)
            return _fit_row("fit-envelope", dict(params, c2=fit.constants["c2"]), fit.constants["c1"], fit)

        def sobolev():
            sob = bounds_mod.sobolev_pointwise_check(d, form, schedule, f_train, f_holdout, x_indices)
            return _fit_row("sobolev-pointwise", params, sob.constants["C"], sob)

        _guarded(rows, "fit-envelope", params, envelope)
        _guarded(rows, "sobolev-pointwise", params, sobolev)
    t_tail = [t for t in cfg.t_grid if t >= 1.0 / d.gap]
    if len(t_tail) >= 2:
        def longtime():
            rate = bounds_mod.longtime_rate(ev, t_tail)
            ok = abs(rate - d.gap) / d.gap <= 0.05
            return ReportRow("longtime-rate", {"s": d.gap}, rate, ok, None if ok else {"rate": rate, "s": d.gap})

        _guarded(rows, "longtime-rate", {"s": d.gap}, longtime)
    _guarded(rows, "evolved-form-gtilde", {"n": cfg.n}, lambda: max(
        r["ratio"] for r in evolved_form_bound_check(d, np.asarray(cfg.t_grid), f_train[: min(8, len(f_train))])))
    write_report_rows(os.path.join(out, "verify_bounds.csv"), rows)
    return rows


def run_verify_twist(cfg: RunConfig, out: str) -> list[ReportRow]:
    form, d, ev = _decompose(cfg)
    f_train, f_holdout = _train_holdout(d, cfg.seed, min(cfg.sample_count, 12))
    x0 = cfg.length / 2.0
    rows = []
    t_mid = float(np.median(cfg.t_grid))
    i, j = cfg.n // 3, 2 * cfg.n // 3
    # depends only on d and the seed; read-only, so each twist evaluates it once
    samples = twist_mod.sector_samples(d, seed=cfg.seed, count=200)
    for lam in cfg.lam_grid:
        params = {"lam": lam, "n": cfg.n}
        tw = twist_mod.TwistSpec(grid=d.grid, x0=x0, a=1.0, lam=float(lam))
        _guarded(rows, "twisted-norm-fit", params,
                 lambda: twist_mod.twisted_semigroup_norm_fit(d, tw, cfg.t_grid)["c"])
        # without a norm fit the evolved check fits c2 itself and fails its own row
        c2 = 2.0 * rows[-1].statistic if rows[-1].passed else None

        def evolved():
            fit = twist_mod.evolved_twisted_form_check(d, form, tw, 0.5, cfg.t_grid, f_train, f_holdout, c2=c2)
            return ReportRow("evolved-twisted-form", dict(params, c2=fit["c2"]), fit["c1"], True)

        _guarded(rows, "evolved-twisted-form", params, evolved)
        if lam == 0.0:
            continue
        _guarded(rows, "twisted-kernel", dict(params, t=t_mid),
                 lambda: twist_mod.twisted_kernel(ev, tw, t_mid, i, j))
        _guarded(rows, "per-lambda-dual-path", params,
                 lambda: max(abs(twist_mod.per_lambda(form, tw, f)) for f in f_train[:6]))

        def appendix_b():
            ident = twist_mod.appendix_b_identities(d, tw, complex(-1.0, 1.0))
            witness = {key: ident[key] for key in ("z", "resolvent_ratio", "spectrum_ratio")}
            return ReportRow("appendix-b", params, ident["resolvent_backward_err"], ident["ok"],
                             None if ident["ok"] else witness)

        def sector():
            top = twist_mod.TwistedOperator(base=d, twist=tw)
            c = twist_mod.sector_shift_search(top, 0.5, samples)
            shift = c * ((1.0 + 0.5) * top.unit)  # the shift applied, c (1+p) u
            angle, violations = twist_mod.numerical_range_sector(top, 0.5, shift, samples)
            return ReportRow("sector", dict(params, p=0.5, shift=shift, multiplier=c), angle, not violations,
                             {"violations": len(violations)} if violations else None)

        _guarded(rows, "appendix-b", params, appendix_b)
        _guarded(rows, "sector", dict(params, p=0.5), sector)
    write_report_rows(os.path.join(out, "verify_twist.csv"), rows)
    return rows


def run_verify_inequalities(cfg: RunConfig, out: str) -> list[ReportRow]:
    form, d_form, _ = _decompose(cfg)
    d_lap = dirichlet_laplacian(form.grid)
    f_train, f_holdout = _train_holdout(d_form, cfg.seed, cfg.sample_count)
    rows = []

    basic_grid = ineq.SearchGrid(axes={
        "a": np.geomspace(1e-3, 1e3, 14),
        "b": np.geomspace(1e-3, 1e3, 14),
        "p": np.linspace(0.25, 3.0, 7),
        "q": np.linspace(0.25, 3.0, 7),
        "eps": np.geomspace(1e-2, 10.0, 12),
    }, seed=cfg.seed)
    _guarded(rows, "check-basic", {"points": math.prod(axis.size for axis in basic_grid.axes.values())},
             lambda: ineq.check_basic(basic_grid)["worst_margin"])

    _guarded(rows, "check-bond", {"n": cfg.n},
             lambda: ineq.check_bond(d_lap, [(1, 2), (1, 3), (2, 3)], f_train[:8])["worst_margin"])

    symbol_grid = ineq.SearchGrid(axes={
        "lam": np.geomspace(1e-2, 1e2, 30),
        "eps": np.geomspace(1e-2, 1.0, 20),
    }, seed=cfg.seed)
    _guarded(rows, "check-main", {"n": cfg.n},
             lambda: ineq.check_main(d_lap, symbol_grid, f_train[:4])["worst_margin"])

    eps_grid = ineq.SearchGrid(axes={
        "lam": np.geomspace(1e-2, 1e2, 40),
        "eps": np.geomspace(1e-2, 1.9, 24),
    }, seed=cfg.seed)
    _guarded(rows, "check-epsilon", {"n": cfg.n},
             lambda: ineq.check_epsilon(d_lap, eps_grid, f_train[:6])["worst_margin"])

    stephen_grid = ineq.SearchGrid(axes={
        "rho": np.geomspace(1e-2, 1e2, 16),
        "theta": np.geomspace(1e-2, 10.0, 16),
        "lam": np.geomspace(1e-2, 1e2, 24),
    }, seed=cfg.seed)
    _guarded(rows, "check-stephen", {"n": cfg.n, "m": cfg.m},
             lambda: ineq.check_stephen(form, d_form, stephen_grid, f_train, f_holdout)["c1"])

    s = d_form.gap
    gtilde_grid = ineq.SearchGrid(axes={
        "mu": np.geomspace(s, 1e4 * s, 400),
        "t": np.geomspace(1e-4 / s, 10.0 / s, 400),
    }, seed=cfg.seed)
    _guarded(rows, "gtilde-majorant", {"s": s}, lambda: ineq.gtilde_majorant(s, gtilde_grid)["worst_rel_gap"])
    _guarded(rows, "ellipticity", {"m": cfg.m}, lambda: measure_ellipticity(form))
    write_report_rows(os.path.join(out, "verify_inequalities.csv"), rows)
    return rows


def run_report(cfg: RunConfig, out: str) -> list[ReportRow]:
    _, d, ev = _decompose(cfg)
    _, env = _fitted_envelope(cfg, ev)  # before any file: a config error leaves no output directory
    half = cfg.n // 2
    t_mid = float(np.median(cfg.t_grid))
    left = np.arange(max(cfg.n // 5, 3))
    vals = np.abs(ev.block(t_mid, left, [half])[:, 0])
    keep = vals > 0
    line_plot_svg(
        os.path.join(out, "kernel_boundary.svg"),
        [("log|k|", np.log(d.grid.boundary_distances[left][keep]), np.log(vals[keep]))],
        "kernel decay at the boundary", "log d_x", "log |k|",
    )
    ts = np.asarray(cfg.t_grid, dtype=float)
    # a positive semidefinite kernel's sup |k| sits on its diagonal, as longtime_rate reads it
    sups = np.array([np.max(ev.diagonal(float(t))) for t in ts])
    line_plot_svg(
        os.path.join(out, "longtime_norm.svg"),
        [("log sup|k|", ts, np.log(np.maximum(sups, 1e-300)))],
        "long-time kernel decay", "t", "log sup |k|",
    )
    idx = bounds_mod.sample_indices(cfg.n, max(cfg.n // 40, 1))
    ratios = bounds_mod.envelope_ratios(env, d.grid, idx, t_mid, ev.block(t_mid, idx, idx))
    ratio_table_svg(os.path.join(out, "envelope_ratio.svg"), ratios,
                    "kernel / envelope ratio")
    rows = [ReportRow("report", {"t": t_mid}, float(np.max(ratios)), True)]
    if not np.any(keep):  # the boundary plot has no point to draw
        rows.append(ReportRow("report-boundary", {"t": t_mid}, 0.0, False,
                              {"t": t_mid, "column": half, "window": left.size,
                               "error": "kernel underflows in the boundary window"}))
    return rows


RUNNERS = {
    "spectrum": run_spectrum,
    "kernel": run_kernel,
    "verify-bounds": run_verify_bounds,
    "verify-twist": run_verify_twist,
    "verify-inequalities": run_verify_inequalities,
    "report": run_report,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="heatgauss", description=__doc__)
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=".")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--refine", action="store_true")
    args = parser.parse_args(argv)

    try:
        if args.refine and args.subcommand != "verify-bounds":
            raise ConfigurationError(f"--refine applies to verify-bounds only, not to {args.subcommand}")
        cfg = load_run_config(args.config, seed_override=args.seed)
        runner = RUNNERS[args.subcommand]
        rows = runner(cfg, args.out, args.refine) if args.subcommand == "verify-bounds" else runner(cfg, args.out)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    failing = [r for r in rows if not r.passed]
    for row in failing:
        print(f"FAIL {row.check} {row.params} witness: {witness_text(row.witness)}", file=sys.stderr)
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
