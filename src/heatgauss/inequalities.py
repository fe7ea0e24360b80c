"""Brute-force and spectral-calculus sweeps for the auxiliary inequalities.

Every sweep is deterministic given the seed; after each grid pass a cloud of
random perturbations is sampled around the worst-margin point to hunt for
violations the grid missed. Margins are reported as RHS - LHS (non-negative
when the inequality holds).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import fit_holdout, gtilde
from .errors import DomainError, PropertyViolation
from .spectral import SpectralDecomposition

REFINEMENT_SAMPLES = 1000


@dataclass
class SearchGrid:
    """Named parameter axes (materialized arrays) with a master seed."""

    axes: dict[str, np.ndarray]
    seed: int = 42
    rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        self.rng = np.random.default_rng(self.seed)

    def perturbations(self, worst: dict[str, float], names: list[str]):
        """REFINEMENT_SAMPLES uniform draws per ascending axis within +- 5 % of its index range around
        worst[name]'s position on it (np.interp), clipped to the axis and mapped back: on a geometric
        axis the draws stay near the witness in log terms, and no axis has to be positive."""
        out = {}
        for name in names:
            axis = self.axes[name]
            index, top = np.arange(axis.size), axis.size - 1.0
            center, spread = float(np.interp(worst[name], axis, index)), 0.05 * top
            draws = self.rng.uniform(center - spread, center + spread, REFINEMENT_SAMPLES)
            out[name] = np.interp(np.clip(draws, 0.0, top), index, axis)
        return out


def _sweep(grid: SearchGrid, axes: dict, blocks, what: str, measure: str, tol: float, cloud) -> dict:
    """Worst margin, witness and point count over `blocks`, each (labels, margin table over `axes`).

    The first minimum in loop order wins (np.argmin in a table, strict < across tables) and its
    witness holds the block labels (p, r, s, sample) and axis values; the first table whose
    minimum is below `tol` raises. `cloud(draws, witness)` maps the perturbations at the witness
    over the axes the grid declares to (margins, scale); a margin below tol * scale raises.
    """
    worst, witness, n_points = math.inf, None, 0
    for labels, table in blocks:
        n_points += table.size
        mn = float(np.min(table))
        if mn < worst:
            worst = mn
            pos = np.unravel_index(int(np.argmin(table)), table.shape)
            witness = {**labels, **{k: float(v[i]) for (k, v), i in zip(axes.items(), pos)}}
        if mn < tol:
            raise PropertyViolation(f"{what} violated, {measure} {mn}", witness=witness)
    if witness is None:  # every minimum is NaN: nothing was checked
        raise PropertyViolation(f"{what} violated, {measure} nan")
    margins, scale = cloud(grid.perturbations(witness, [k for k in axes if k in grid.axes]), witness)
    if float(np.min(margins)) < tol * scale:
        raise PropertyViolation(f"{what} violated in refinement cloud", witness=witness)
    return {"worst_margin": worst, "worst_point": witness, "n_points": n_points}


def _moments(d: SpectralDecomposition, f_samples: np.ndarray, powers) -> dict:
    """||(-L)^{p/2} f||^2 = sum_k mu_k^p <f, phi_k>_h^2 for each sample f (a row), keyed by p."""
    c2 = [d.coefficients(f) ** 2 for f in np.atleast_2d(f_samples)]
    return {p: [float(np.sum(d.eigenvalues**p * c)) for c in c2] for p in powers}


def young_constant(p: float, q: float) -> float:
    """c_{p,q} = (p/(p+q))^{p/q} - (p/(p+q))^{1+p/q}, always in (0, 1)."""
    if np.any(p <= 0) or np.any(q <= 0):
        raise DomainError(f"young_constant requires p, q > 0, got p={p}, q={q}")
    base = p / (p + q)
    return base ** (p / q) - base ** (1.0 + p / q)


def _basic_margin(a, b, p, q, eps):
    lhs = a**p * b**q
    rhs = eps * a ** (p + q) + young_constant(p, q) * eps ** (-p / q) * b ** (p + q)
    return rhs - lhs


def check_basic(grid: SearchGrid) -> dict:
    """Weighted Young inequality sweep with tightness probe at the maximizer.

    Checks a^p b^q <= eps a^{p+q} + c_{p,q} eps^{-p/q} b^{p+q} on the full
    grid, then verifies equality at a* = (p b^q / (eps (p+q)))^{1/q} to 1e-8
    relative for every (b, p, q, eps).
    """
    axes = {k: grid.axes[k] for k in ("a", "b", "p", "q", "eps")}
    out = _sweep(grid, axes, [({}, _basic_margin(*np.ix_(*axes.values())))], "Young inequality", "margin", -1e-12,
                 lambda pert, at: (_basic_margin(*pert.values()), 1.0))

    # tightness: maximizer attains equality
    b4, p4, q4, e4 = np.ix_(*list(axes.values())[1:])
    a_star = (p4 * b4**q4 / (e4 * (p4 + q4))) ** (1.0 / q4)
    tight = float(np.max(np.abs(_basic_margin(a_star, b4, p4, q4, e4)) / np.maximum(a_star**p4 * b4**q4, 1e-300)))
    if tight > 1e-8:
        raise PropertyViolation(f"tightness at the analytic maximizer fails: rel gap {tight}")
    return {**out, "tightness_rel": tight}


def check_bond(d: SpectralDecomposition, pairs, f_samples: np.ndarray) -> dict:
    """||(-L)^{q/2} f|| <= mu_1^{(q-p)/2} ||(-L)^{p/2} f|| for q < p.

    Checked mode by mode over the whole discrete spectrum and on the given
    sample functions; equality is attained on the ground mode.
    """
    mu, mu1 = d.eigenvalues, d.gap
    powers = {k for q, p in pairs if 0 < q < p for k in (q, p)}
    norm2, ground = _moments(d, f_samples, powers), _moments(d, d.eigenvectors[:, 0], powers)
    worst, rows = math.inf, []
    for (q, p) in pairs:
        if not (0 < q < p):
            raise DomainError(f"check_bond requires 0 < q < p, got q={q}, p={p}")
        c_qp = mu1 ** ((q - p) / 2.0)
        # scalar reduction over every eigenvalue
        scalar_margin = float(np.min(c_qp * mu ** (p / 2.0) - mu ** (q / 2.0)))
        if scalar_margin < -1e-10 * c_qp * float(mu[-1]) ** (p / 2.0):
            raise PropertyViolation(f"spectral bound violated at (q={q}, p={p})")
        for fi, (norm2_q, norm2_p) in enumerate(zip(norm2[q], norm2[p])):
            lhs, rhs = math.sqrt(norm2_q), c_qp * math.sqrt(norm2_p)
            ratio = lhs / rhs if rhs > 0 else math.inf
            worst = min(worst, rhs - lhs)
            if ratio > 1.0 + 1e-10:
                raise PropertyViolation(f"check_bond violated: ratio {ratio}", witness={"q": q, "p": p, "sample": fi})
            rows.append({"q": q, "p": p, "sample": fi, "ratio": ratio})
        # ground-mode saturation
        sat = math.sqrt(ground[q][0]) / (c_qp * math.sqrt(ground[p][0]))
        if abs(sat - 1.0) > 1e-8:
            raise PropertyViolation(f"ground-mode saturation off: {sat}")
    return {"worst_margin": worst, "rows": rows}


def _symbol_sides(p: int, r: int, lam, eps, mu):
    """Right side eps mu^p + eps^{-r/(p-r)} lam^{2p} of the symbol bound, and its margin."""
    expo = -r / (p - r) if r else 0.0
    rhs = eps * mu**p + eps**expo * lam ** (2 * p)
    return rhs, rhs - lam ** (2 * (p - r)) * mu**r


def check_main(d: SpectralDecomposition, grid: SearchGrid, f_samples: np.ndarray) -> dict:
    """Lower-order symbol bound: lam^{2(p-r)} mu^r <= eps mu^p + eps^{-r/(p-r)} lam^{2p}.

    The scalar reduction runs over every discrete eigenvalue; the vector form
    ||lam^{p-r} (-L)^{r/2} f|| <= eps ||(-L)^{p/2} f|| + eps^{-r/(p-r)} |lam|^p ||f||
    is then checked on the sample functions.
    """
    lam_axis, eps_axis = grid.axes["lam"], grid.axes["eps"]
    lam_sub, eps_sub = lam_axis[:: max(len(lam_axis) // 6, 1)], eps_axis[:: max(len(eps_axis) // 5, 1)]
    norm2 = _moments(d, f_samples, range(4))

    def blocks():
        for p in (1, 2, 3):
            for r in range(0, p):
                total, margin = _symbol_sides(p, r, lam_axis[:, None, None], eps_axis[None, :, None], d.eigenvalues)
                yield {"p": p, "r": r}, margin / np.maximum(total, 1e-300)
                # vector form on a coarse (lam, eps) sub-grid, axes (sample, lam, eps); the powers are
                # taken of one numpy scalar at a time, as a loop over points takes them
                expo = -r / (p - r) if r else 0.0
                norm = {k: np.array([math.sqrt(v) for v in norm2[k]])[:, None, None] for k in (r, p, 0)}
                lam_k = {k: np.array([abs(v) ** k for v in lam_sub])[:, None] for k in (p - r, p)}
                lhs = lam_k[p - r] * norm[r]
                rhs = eps_sub * norm[p] + np.array([v**expo for v in eps_sub]) * lam_k[p] * norm[0]
                bad = np.flatnonzero(lhs > rhs * (1.0 + 1e-10))
                if bad.size:
                    i, j, k = np.unravel_index(bad[0], rhs.shape)
                    raise PropertyViolation(f"vector symbol bound violated: {lhs[i, j, 0]} > {rhs[i, j, k]}",
                                            witness=dict(p=p, r=r, lam=float(lam_sub[j]), eps=float(eps_sub[k])))

    def cloud(pert, at):  # the scalar form at the worst (p, r, mu)
        return _symbol_sides(at["p"], at["r"], pert["lam"], pert["eps"], at["mu"])[1], max(at["mu"] ** at["p"], 1.0)

    return _sweep(grid, {"lam": lam_axis, "eps": eps_axis, "mu": d.eigenvalues}, blocks(), "scalar symbol bound",
                  "rel margin", -1e-10, cloud)


def _product_sides(norm2: dict, fi: int, p: int, r: int, s_idx: int, lam, eps):
    """Left and right sides of the product estimate for sample fi of the moments norm2 (see _moments)."""
    lhs = np.abs(lam) ** (p - r) * math.sqrt(norm2[r][fi]) * np.abs(lam) ** (p - s_idx) * math.sqrt(norm2[s_idx][fi])
    rhs = eps * norm2[p][fi] + 2.0 ** (2 * p - 1) * eps ** (1 - 2 * p) * lam ** (2 * p) * norm2[0][fi]
    return lhs, rhs


def check_epsilon(d: SpectralDecomposition, grid: SearchGrid, f_samples: np.ndarray) -> dict:
    """Product estimate with the 2^{2p-1} eps^{1-2p} constant, for eps < 2.

    ||lam^{p-r} (-L)^{r/2} f|| * ||lam^{p-s} (-L)^{s/2} f||
    <= eps ||(-L)^{p/2} f||^2 + 2^{2p-1} eps^{1-2p} lam^{2p} ||f||^2
    over r <= p, s <= p-1.
    """
    lam_axis, eps_axis = grid.axes["lam"], grid.axes["eps"]
    if np.any(eps_axis >= 2.0):
        raise DomainError("check_epsilon requires eps < 2")
    norm2 = _moments(d, f_samples, range(4))

    def blocks():
        for p in (1, 2, 3):
            for r in range(0, p + 1):
                for s_idx in range(0, p):
                    for fi in range(len(norm2[0])):
                        lhs, rhs = _product_sides(norm2, fi, p, r, s_idx, lam_axis[:, None], eps_axis[None, :])
                        yield {"p": p, "r": r, "s": s_idx, "sample": fi}, (rhs - lhs) / np.maximum(rhs, 1e-300)

    def cloud(pert, at):
        lhs, rhs = _product_sides(norm2, at["sample"], at["p"], at["r"], at["s"], pert["lam"], pert["eps"])
        return rhs - lhs, float(np.max(rhs))

    return _sweep(grid, {"lam": lam_axis, "eps": eps_axis}, blocks(), "product estimate", "rel margin", -1e-10, cloud)


def check_stephen(form, d: SpectralDecomposition, grid: SearchGrid,
                  f_train: np.ndarray, f_holdout: np.ndarray) -> dict:
    """Fit c1 in the lower-order absorption estimate against the measured form.

    ||(-L)^{p/2} f||^2 + rho lam^{2p} ||f||^2
    <= c1 (1+theta) Q(f) + c1 rho (1 + theta s / rho)^{2m} lam^{2m} ||f||^2.
    Trains on f_train, requires zero violations on f_holdout.
    """
    s, m = d.gap, form.m
    lam_axis, rho_axis, theta_axis = grid.axes["lam"], grid.axes["rho"], grid.axes["theta"]
    lam, rho, theta = lam_axis[:, None, None], rho_axis[None, :, None], theta_axis[None, None, :]

    def ratios(fs: np.ndarray):
        """One table per sample, axes (p - 1, lam, rho, theta)."""
        fs = np.atleast_2d(fs)
        for f, *norm2 in zip(fs, *_moments(d, fs, range(m + 1)).values()):  # norm2[p] = ||(-L)^{p/2} f||^2
            rhs_unit = (1.0 + theta) * form(f) + rho * (1.0 + theta * s / rho) ** (2 * m) * lam ** (2 * m) * norm2[0]
            yield np.stack([(norm2[p] + rho * lam ** (2 * p) * norm2[0]) / rhs_unit for p in range(1, m + 1)])

    def point(at):
        if at is None:  # no training sample
            return None
        fi, p, i, j, k = at
        return {"sample": fi, "p": p + 1, "lam": float(lam_axis[i]),
                "rho": float(rho_axis[j]), "theta": float(theta_axis[k])}

    fit = fit_holdout(ratios(f_train), ratios(f_holdout))
    if not fit.passed:
        raise PropertyViolation(f"held-out absorption ratio {fit.held} exceeds fitted c1={fit.fitted}",
                                witness=point(fit.held_at))
    n_points = len(np.atleast_2d(f_train)) * m * lam_axis.size * rho_axis.size * theta_axis.size
    return {"c1": fit.fitted, "worst_point": point(fit.fitted_at), "n_points": int(n_points)}


def gtilde_majorant(s: float, grid: SearchGrid) -> dict:
    """mu e^{-2 mu t} <= g~(t) over the (mu, t) grid; reports the minimal gap."""
    if s <= 0:
        raise DomainError(f"spectral gap must be positive, got {s}")
    axes = {k: grid.axes[k] for k in ("mu", "t")}
    if np.any(axes["mu"] < s * (1.0 - 1e-12)):
        raise DomainError("mu axis must start at or above the gap s")
    lhs = axes["mu"][:, None] * np.exp(-2.0 * axes["mu"][:, None] * axes["t"][None, :])
    rhs = gtilde(s, axes["t"])[None, :]

    def cloud(pert, at):
        rhs_p = gtilde(s, pert["t"])
        return rhs_p - pert["mu"] * np.exp(-2.0 * pert["mu"] * pert["t"]), float(np.max(rhs_p))

    out = _sweep(grid, axes, [({}, (rhs - lhs) / rhs)], "g~ majorant", "rel gap", -1e-12, cloud)
    return {"worst_rel_gap": out.pop("worst_margin"), **out}
