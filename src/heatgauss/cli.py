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
from .assembly import (
    FormMatrix,
    OperatorSpec,
    assemble_form,
    load_coefficients_csv,
    measure_ellipticity,
    polyharmonic_spec,
)
from .config import RunConfig, load_run_config
from .core import Grid1D
from .errors import ConfigurationError, HeatGaussError, PropertyViolation, UnsupportedError
from .profiles import BUILTIN_PROFILES, get_profile
from .reporting import (
    KERNEL_HEADER,
    ReportRow,
    format_value,
    kernel_rows,
    line_plot_svg,
    ratio_table_svg,
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
    grid = Grid1D(length=cfg.length, n_interior=n)
    if cfg.source in BUILTIN_PROFILES:
        spec = get_profile(cfg.source).spec
    elif cfg.source == "polyharmonic":
        spec = polyharmonic_spec(cfg.m)
    elif cfg.source.startswith("csv:"):
        spec = OperatorSpec(m=cfg.m, coefficients=load_coefficients_csv(cfg.source[4:]))
    else:
        raise ConfigurationError(f"unknown coefficient source {cfg.source!r}")
    try:
        return assemble_form(spec, grid)
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


def _decompose(cfg: RunConfig) -> tuple[FormMatrix, SpectralDecomposition, HeatKernelEvaluator]:
    """Form, decomposition and kernel evaluator of the configured operator at n = cfg.n."""
    form = _build_form(cfg, cfg.n)
    d = SpectralDecomposition.from_form(form)
    if d.eigenvalues[0] <= 0:
        raise ConfigurationError(f"the configured operator is not positive: mu_1 = {d.eigenvalues[0]}")
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


def run_spectrum(cfg: RunConfig, out: str, refine: bool) -> list[ReportRow]:
    _, d, _ = _decompose(cfg)
    write_csv(
        os.path.join(out, "spectrum.csv"),
        ["index", "eigenvalue"],
        ([k, mu] for k, mu in enumerate(d.eigenvalues)),
    )
    write_csv(os.path.join(out, "gap.csv"), ["gap"], [[d.gap]])
    return [ReportRow("spectral-gap", {"n": cfg.n, "m": cfg.m}, d.gap, d.gap > 0,
                      None if d.gap > 0 else {"gap": d.gap})]


def run_kernel(cfg: RunConfig, out: str, refine: bool) -> list[ReportRow]:
    _, _, ev = _decompose(cfg)
    fit, env = _fitted_envelope(cfg, ev)
    indices = bounds_mod._sample_indices(cfg.n, max(cfg.n // 24, 1))
    ts = [t for t in cfg.t_grid if t >= bounds_mod.SHORT_TIME_EXCLUSION * ev.t_floor]
    rows = kernel_rows(ev, lambda *args: bounds_mod.envelope_eval(env, *args), ts, indices)
    write_csv(os.path.join(out, "kernel.csv"), KERNEL_HEADER, rows)
    return [_fit_row("kernel-dump", {"n": cfg.n, "gamma": env.schedule.gamma}, fit.constants["c1"], fit)]


def run_verify_bounds(cfg: RunConfig, out: str, refine: bool) -> list[ReportRow]:
    form, d, ev = _decompose(cfg)
    refined_ev = None
    if refine:
        refined_ev = HeatKernelEvaluator(SpectralDecomposition.from_form(_build_form(cfg, 2 * cfg.n)))
    f_train, f_holdout = _train_holdout(d, cfg.seed, cfg.sample_count)
    x_indices = list(range(2, cfg.n - 2, max(cfg.n // 16, 1)))
    rows = []
    for schedule in cfg.schedules:
        params = {"gamma": schedule.gamma, "n": cfg.n}
        try:
            fit = bounds_mod.fit_envelope_constants(
                ev, schedule, cfg.c2_grid, cfg.t_grid, refined=refined_ev
            )
            rows.append(_fit_row("fit-envelope", dict(params, c2=fit.constants["c2"]), fit.constants["c1"], fit))
        except (PropertyViolation, ConfigurationError) as exc:
            rows.append(ReportRow("fit-envelope", params, math.nan, False, {"error": str(exc)}))
        try:
            sob = bounds_mod.sobolev_pointwise_check(d, form, schedule, f_train, f_holdout, x_indices)
            rows.append(_fit_row("sobolev-pointwise", params, sob.constants["C"], sob))
        except ConfigurationError as exc:  # no evaluation node at n <= 4
            rows.append(ReportRow("sobolev-pointwise", params, math.nan, False, {"error": str(exc)}))
    t_tail = [t for t in cfg.t_grid if t >= 1.0 / d.gap]
    if len(t_tail) >= 2:
        try:
            rate = bounds_mod.longtime_rate(ev, t_tail)
        except ConfigurationError as exc:  # fewer than two t above the regression floor
            rows.append(ReportRow("longtime-rate", {"s": d.gap}, math.nan, False, {"error": str(exc)}))
        else:
            rel = abs(rate - d.gap) / d.gap
            rows.append(ReportRow("longtime-rate", {"s": d.gap}, rate, rel <= 0.05,
                                  None if rel <= 0.05 else {"rate": rate, "s": d.gap}))
    try:
        check = evolved_form_bound_check(d, np.asarray(cfg.t_grid), f_train[: min(8, len(f_train))])
        worst = max(r["ratio"] for r in check)
        rows.append(ReportRow("evolved-form-gtilde", {"n": cfg.n}, worst, True))
    except PropertyViolation as exc:
        rows.append(ReportRow("evolved-form-gtilde", {"n": cfg.n}, math.nan, False,
                              exc.witness or {"error": str(exc)}))
    write_report_rows(os.path.join(out, "verify_bounds.csv"), rows)
    return rows


def run_verify_twist(cfg: RunConfig, out: str, refine: bool) -> list[ReportRow]:
    form, d, ev = _decompose(cfg)
    f_train, f_holdout = _train_holdout(d, cfg.seed, min(cfg.sample_count, 12))
    x0 = cfg.length / 2.0
    rows = []
    t_mid = float(np.median(cfg.t_grid))
    # depends only on d and the seed; read-only, so each twist evaluates it once
    samples = twist_mod.sector_samples(d, seed=cfg.seed, count=200)
    for lam in cfg.lam_grid:
        params = {"lam": lam, "n": cfg.n}
        tw = twist_mod.TwistSpec(grid=d.grid, x0=x0, a=1.0, lam=float(lam))
        try:
            norm_fit = twist_mod.twisted_semigroup_norm_fit(d, tw, cfg.t_grid)
            rows.append(ReportRow("twisted-norm-fit", params, norm_fit["c"], True))
            evolved = twist_mod.evolved_twisted_form_check(
                d, form, tw, 0.5, cfg.t_grid, f_train, f_holdout, c2=2.0 * norm_fit["c"]
            )
            rows.append(ReportRow("evolved-twisted-form", dict(params, c2=evolved["c2"]),
                                  evolved["c1"], True))
            if lam != 0.0:
                i, j = cfg.n // 3, 2 * cfg.n // 3
                val = twist_mod.twisted_kernel(ev, tw, t_mid, i, j)
                rows.append(ReportRow("twisted-kernel", dict(params, t=t_mid), val, True))
                p_worst = 0.0
                for f in f_train[:6]:
                    p_worst = max(p_worst, abs(twist_mod.per_lambda(form, tw, f)))
                rows.append(ReportRow("per-lambda-dual-path", params, p_worst, True))
                ident = twist_mod.appendix_b_identities(d, tw, complex(-1.0, 1.0))
                rows.append(ReportRow("appendix-b", params,
                                      ident["resolvent_rel_err"], ident["ok"],
                                      None if ident["ok"] else {"z": ident["z"]}))
                top = twist_mod.TwistedOperator(base=d, twist=tw)
                shift = twist_mod.sector_shift_search(top, 0.5, samples)
                shift_applied = shift * ((1.0 + 0.5) * top.unit)
                angle, violations = twist_mod.numerical_range_sector(top, 0.5, shift_applied, samples)
                ok = not violations and angle <= math.atan(2.0) + 1e-12
                rows.append(ReportRow("sector", dict(params, p=0.5, shift=shift), angle, ok,
                                      None if ok else {"violations": len(violations)}))
        except HeatGaussError as exc:
            rows.append(ReportRow("twist-suite", params, math.nan, False, {"error": str(exc)}))
    write_report_rows(os.path.join(out, "verify_twist.csv"), rows)
    return rows


def run_verify_inequalities(cfg: RunConfig, out: str, refine: bool) -> list[ReportRow]:
    form, d_form, _ = _decompose(cfg)
    d_lap = dirichlet_laplacian(form.grid)
    f_train, f_holdout = _train_holdout(d_form, cfg.seed, cfg.sample_count)
    rows = []

    def guarded(name, params, statistic):
        try:
            rows.append(ReportRow(name, params, float(statistic()), True))
        except HeatGaussError as exc:
            witness = getattr(exc, "witness", None) or {"error": str(exc)}
            rows.append(ReportRow(name, params, math.nan, False, witness))

    basic_grid = ineq.SearchGrid(axes={
        "a": ineq.SearchGrid.log_axis(1e-3, 1e3, 14),
        "b": ineq.SearchGrid.log_axis(1e-3, 1e3, 14),
        "p": ineq.SearchGrid.lin_axis(0.25, 3.0, 7),
        "q": ineq.SearchGrid.lin_axis(0.25, 3.0, 7),
        "eps": ineq.SearchGrid.log_axis(1e-2, 10.0, 12),
    }, seed=cfg.seed)
    guarded("check-basic", {"points": 14 * 14 * 7 * 7 * 12}, lambda: ineq.check_basic(basic_grid)["worst_margin"])

    guarded("check-bond", {"n": cfg.n},
            lambda: ineq.check_bond(d_lap, [(1, 2), (1, 3), (2, 3)], f_train[:8])["worst_margin"])

    symbol_grid = ineq.SearchGrid(axes={
        "lam": ineq.SearchGrid.log_axis(1e-2, 1e2, 30),
        "eps": ineq.SearchGrid.log_axis(1e-2, 1.0, 20),
    }, seed=cfg.seed)
    guarded("check-main", {"n": cfg.n}, lambda: ineq.check_main(d_lap, symbol_grid, f_train[:4])["worst_margin"])

    eps_grid = ineq.SearchGrid(axes={
        "lam": ineq.SearchGrid.log_axis(1e-2, 1e2, 40),
        "eps": ineq.SearchGrid.log_axis(1e-2, 1.9, 24),
    }, seed=cfg.seed)
    guarded("check-epsilon", {"n": cfg.n}, lambda: ineq.check_epsilon(d_lap, eps_grid, f_train[:6])["worst_margin"])

    stephen_grid = ineq.SearchGrid(axes={
        "rho": ineq.SearchGrid.log_axis(1e-2, 1e2, 16),
        "theta": ineq.SearchGrid.log_axis(1e-2, 10.0, 16),
        "lam": ineq.SearchGrid.log_axis(1e-2, 1e2, 24),
    }, seed=cfg.seed)
    guarded("check-stephen", {"n": cfg.n, "m": cfg.m},
            lambda: ineq.check_stephen(form, d_form, stephen_grid, f_train, f_holdout)["c1"])

    s = d_form.gap
    gtilde_grid = ineq.SearchGrid(axes={
        "mu": ineq.SearchGrid.log_axis(s, 1e4 * s, 400),
        "t": ineq.SearchGrid.log_axis(1e-4 / s, 10.0 / s, 400),
    }, seed=cfg.seed)
    guarded("gtilde-majorant", {"s": s}, lambda: ineq.gtilde_majorant(s, gtilde_grid)["worst_rel_gap"])
    guarded("ellipticity", {"m": cfg.m}, lambda: measure_ellipticity(form, form.grid, cfg.m))
    write_report_rows(os.path.join(out, "verify_inequalities.csv"), rows)
    return rows


def run_report(cfg: RunConfig, out: str, refine: bool) -> list[ReportRow]:
    _, d, ev = _decompose(cfg)
    x = d.grid.points
    dist = np.minimum(x, cfg.length - x)
    half = cfg.n // 2
    t_mid = float(np.median(cfg.t_grid))
    left = slice(0, max(cfg.n // 5, 3))
    K = ev.matrix(t_mid)
    vals = np.abs(K[left, half])
    keep = vals > 0
    line_plot_svg(
        os.path.join(out, "kernel_boundary.svg"),
        [("log|k|", np.log(dist[left][keep]), np.log(vals[keep]))],
        "kernel decay at the boundary", "log d_x", "log |k|",
    )
    ts = np.asarray(cfg.t_grid, dtype=float)
    sups = np.array([np.max(np.abs(ev.matrix(float(t)))) for t in ts])
    line_plot_svg(
        os.path.join(out, "longtime_norm.svg"),
        [("log sup|k|", ts, np.log(np.maximum(sups, 1e-300)))],
        "long-time kernel decay", "t", "log sup |k|",
    )
    _, env = _fitted_envelope(cfg, ev)
    idx = bounds_mod._sample_indices(cfg.n, max(cfg.n // 40, 1))
    ratios = bounds_mod.envelope_ratios(env, d.grid, idx, t_mid, K[np.ix_(idx, idx)])
    ratio_table_svg(os.path.join(out, "envelope_ratio.svg"), ratios,
                    "kernel / envelope ratio")
    rows = [ReportRow("report", {"t": t_mid}, float(np.max(ratios)), True)]
    if not np.any(keep):  # the boundary plot has no point to draw
        rows.append(ReportRow("report-boundary", {"t": t_mid}, 0.0, False,
                              {"t": t_mid, "column": half, "window": left.stop,
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
        cfg = load_run_config(args.config, seed_override=args.seed)
        rows = RUNNERS[args.subcommand](cfg, args.out, args.refine)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    failing = [r for r in rows if not r.passed]
    for row in failing:
        witness = row.witness or {}
        detail = ";".join(f"{k}={format_value(v)}" for k, v in sorted(witness.items()))
        print(f"FAIL {row.check} {row.params} witness: {detail}", file=sys.stderr)
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
