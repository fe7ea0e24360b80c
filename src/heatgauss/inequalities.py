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

from .core import GTildeFn, gtilde, holdout_within
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

    @staticmethod
    def log_axis(lo: float, hi: float, count: int) -> np.ndarray:
        return np.geomspace(lo, hi, count)

    @staticmethod
    def lin_axis(lo: float, hi: float, count: int) -> np.ndarray:
        return np.linspace(lo, hi, count)

    def perturbations(self, worst: dict[str, float], names: list[str]):
        """REFINEMENT_SAMPLES random points near `worst`, clipped to the declared axis ranges."""
        out = {}
        for name in names:
            axis = self.axes[name]
            lo, hi = float(np.min(axis)), float(np.max(axis))
            center = worst[name]
            spread = 0.05 * (hi - lo)
            vals = self.rng.uniform(center - spread, center + spread, size=REFINEMENT_SAMPLES)
            out[name] = np.clip(vals, lo, hi)
        return out


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
    names = ["a", "b", "p", "q", "eps"]
    margin = _basic_margin(*np.ix_(*(grid.axes[k] for k in names)))  # open mesh over the five axes
    worst = float(np.min(margin))
    pos = np.unravel_index(int(np.argmin(margin)), margin.shape)
    worst_point = {k: float(grid.axes[k][i]) for k, i in zip(names, pos)}
    n_points = margin.size
    if worst < -1e-12:
        raise PropertyViolation(f"Young inequality violated, margin {worst}", witness=worst_point)

    # randomized refinement near the worst point
    pert = grid.perturbations(worst_point, names)
    ref = _basic_margin(pert["a"], pert["b"], pert["p"], np.maximum(pert["q"], 1e-6), pert["eps"])
    if float(np.min(ref)) < -1e-12:
        raise PropertyViolation("Young inequality violated in refinement cloud", witness=worst_point)

    # tightness: maximizer attains equality
    b4, p4, q4, e4 = np.ix_(*(grid.axes[k] for k in names[1:]))
    a_star = (p4 * b4**q4 / (e4 * (p4 + q4))) ** (1.0 / q4)
    gap = _basic_margin(a_star, b4, p4, q4, e4)
    scale = a_star**p4 * b4**q4
    tight = float(np.max(np.abs(gap) / np.maximum(scale, 1e-300)))
    if tight > 1e-8:
        raise PropertyViolation(f"tightness at the analytic maximizer fails: rel gap {tight}")
    return {"worst_margin": worst, "worst_point": worst_point, "tightness_rel": tight,
            "n_points": int(n_points)}


def _spectral_norm2(d: SpectralDecomposition, c2: np.ndarray, power: float) -> float:
    """||(-Laplace)^{power/2} f||^2 from modal coefficients squared."""
    return float(np.sum(d.eigenvalues**power * c2))


def check_bond(d: SpectralDecomposition, pairs, f_samples: np.ndarray) -> dict:
    """||(-L)^{q/2} f|| <= mu_1^{(q-p)/2} ||(-L)^{p/2} f|| for q < p.

    Checked mode by mode over the whole discrete spectrum and on the given
    sample functions; equality is attained on the ground mode.
    """
    mu = d.eigenvalues
    mu1 = float(mu[0])
    worst = math.inf
    rows = []
    for (q, p) in pairs:
        if not (0 < q < p):
            raise DomainError(f"check_bond requires 0 < q < p, got q={q}, p={p}")
        c_qp = mu1 ** ((q - p) / 2.0)
        # scalar reduction over every eigenvalue
        scalar_margin = float(np.min(c_qp * mu ** (p / 2.0) - mu ** (q / 2.0)))
        if scalar_margin < -1e-10 * c_qp * float(mu[-1]) ** (p / 2.0):
            raise PropertyViolation(f"spectral bound violated at (q={q}, p={p})")
        for fi, f in enumerate(np.atleast_2d(f_samples)):
            c2 = d.coefficients(f) ** 2
            lhs = math.sqrt(_spectral_norm2(d, c2, q))
            rhs = c_qp * math.sqrt(_spectral_norm2(d, c2, p))
            ratio = lhs / rhs if rhs > 0 else math.inf
            worst = min(worst, rhs - lhs)
            if ratio > 1.0 + 1e-10:
                raise PropertyViolation(
                    f"check_bond violated: ratio {ratio}", witness={"q": q, "p": p, "sample": fi}
                )
            rows.append({"q": q, "p": p, "sample": fi, "ratio": ratio})
        # ground-mode saturation
        ground = d.eigenvectors[:, 0]
        cg = d.coefficients(ground) ** 2
        sat = math.sqrt(_spectral_norm2(d, cg, q)) / (c_qp * math.sqrt(_spectral_norm2(d, cg, p)))
        if abs(sat - 1.0) > 1e-8:
            raise PropertyViolation(f"ground-mode saturation off: {sat}")
    return {"worst_margin": worst, "rows": rows}


def check_main(d: SpectralDecomposition, grid: SearchGrid, f_samples: np.ndarray) -> dict:
    """Lower-order symbol bound: lam^{2(p-r)} mu^r <= eps mu^p + eps^{-r/(p-r)} lam^{2p}.

    The scalar reduction runs over every discrete eigenvalue; the vector form
    ||lam^{p-r} (-L)^{r/2} f|| <= eps ||(-L)^{p/2} f|| + eps^{-r/(p-r)} |lam|^p ||f||
    is then checked on the sample functions.
    """
    mu = d.eigenvalues
    lam_axis = grid.axes["lam"]
    eps_axis = grid.axes["eps"]
    n_points = 0
    worst = math.inf
    worst_point = None
    for p in (1, 2, 3):
        for r in range(0, p):
            expo = -r / (p - r) if r else 0.0
            lam = lam_axis[:, None, None]
            eps = eps_axis[None, :, None]
            muv = mu[None, None, :]
            margin = eps * muv**p + eps**expo * lam ** (2 * p) - lam ** (2 * (p - r)) * muv**r
            scale = np.maximum(eps * muv**p + eps**expo * lam ** (2 * p), 1e-300)
            rel = margin / scale
            n_points += margin.size
            mn = float(np.min(rel))
            if mn < worst:
                worst = mn
                pos = np.unravel_index(int(np.argmin(rel)), rel.shape)
                worst_point = {"p": p, "r": r, "lam": float(lam_axis[pos[0]]),
                               "eps": float(eps_axis[pos[1]]), "mu": float(mu[pos[2]])}
            if mn < -1e-10:
                raise PropertyViolation(f"scalar symbol bound violated, rel margin {mn}", witness=worst_point)
            # vector form on samples, coarse sub-grid of (lam, eps)
            for f in np.atleast_2d(f_samples):
                c2 = d.coefficients(f) ** 2
                norm_r = math.sqrt(_spectral_norm2(d, c2, r))
                norm_p = math.sqrt(_spectral_norm2(d, c2, p))
                norm_0 = math.sqrt(float(np.sum(c2)))
                for lv in lam_axis[:: max(len(lam_axis) // 6, 1)]:
                    for ev_ in eps_axis[:: max(len(eps_axis) // 5, 1)]:
                        lhs = abs(lv) ** (p - r) * norm_r
                        rhs = ev_ * norm_p + ev_**expo * abs(lv) ** p * norm_0
                        if lhs > rhs * (1.0 + 1e-10):
                            raise PropertyViolation(
                                f"vector symbol bound violated: {lhs} > {rhs}",
                                witness={"p": p, "r": r, "lam": float(lv), "eps": float(ev_)},
                            )
    # refinement cloud around the scalar worst point
    pert = grid.perturbations(worst_point, ["lam", "eps"])
    p, r = worst_point["p"], worst_point["r"]
    expo = -r / (p - r) if r else 0.0
    muw = worst_point["mu"]
    margin = (
        pert["eps"] * muw**p + pert["eps"] ** expo * pert["lam"] ** (2 * p)
        - pert["lam"] ** (2 * (p - r)) * muw**r
    )
    if float(np.min(margin)) < -1e-10 * max(muw**p, 1.0):
        raise PropertyViolation("scalar symbol bound violated in refinement cloud", witness=worst_point)
    return {"worst_margin": worst, "worst_point": worst_point, "n_points": int(n_points)}


def _product_sides(d: SpectralDecomposition, c2: np.ndarray, p: int, r: int, s_idx: int, lam, eps):
    """Left and right sides of the product estimate for modal weights c2 = <f, phi_k>^2."""
    norm_r = math.sqrt(_spectral_norm2(d, c2, r))
    norm_s = math.sqrt(_spectral_norm2(d, c2, s_idx))
    lhs = np.abs(lam) ** (p - r) * norm_r * np.abs(lam) ** (p - s_idx) * norm_s
    norm_p2 = _spectral_norm2(d, c2, p)
    norm_02 = float(np.sum(c2))
    rhs = eps * norm_p2 + 2.0 ** (2 * p - 1) * eps ** (1 - 2 * p) * lam ** (2 * p) * norm_02
    return lhs, rhs


def check_epsilon(d: SpectralDecomposition, grid: SearchGrid, f_samples: np.ndarray) -> dict:
    """Product estimate with the 2^{2p-1} eps^{1-2p} constant, for eps < 2.

    ||lam^{p-r} (-L)^{r/2} f|| * ||lam^{p-s} (-L)^{s/2} f||
    <= eps ||(-L)^{p/2} f||^2 + 2^{2p-1} eps^{1-2p} lam^{2p} ||f||^2
    over r <= p, s <= p-1.
    """
    lam_axis = grid.axes["lam"]
    eps_axis = grid.axes["eps"]
    if np.any(eps_axis >= 2.0):
        raise DomainError("check_epsilon requires eps < 2")
    n_points = 0
    worst = math.inf
    worst_point = None
    samples = np.atleast_2d(f_samples)
    modal = [d.coefficients(f) ** 2 for f in samples]
    for p in (1, 2, 3):
        for r in range(0, p + 1):
            for s_idx in range(0, p):
                for fi, c2 in enumerate(modal):
                    lhs, rhs = _product_sides(d, c2, p, r, s_idx, lam_axis[:, None], eps_axis[None, :])
                    rel = (rhs - lhs) / np.maximum(rhs, 1e-300)
                    n_points += rel.size
                    mn = float(np.min(rel))
                    if mn < worst:
                        worst = mn
                        pos = np.unravel_index(int(np.argmin(rel)), rel.shape)
                        worst_point = {"p": p, "r": r, "s": s_idx, "sample": fi,
                                       "lam": float(lam_axis[pos[0]]), "eps": float(eps_axis[pos[1]])}
                    if mn < -1e-10:
                        raise PropertyViolation(
                            f"product estimate violated, rel margin {mn}", witness=worst_point
                        )
    pert = grid.perturbations(worst_point, ["lam", "eps"])
    p, r, s_idx = worst_point["p"], worst_point["r"], worst_point["s"]
    lhs, rhs = _product_sides(d, modal[worst_point["sample"]], p, r, s_idx, pert["lam"], pert["eps"])
    if float(np.min(rhs - lhs)) < -1e-10 * float(np.max(rhs)):
        raise PropertyViolation("product estimate violated in refinement cloud", witness=worst_point)
    return {"worst_margin": worst, "worst_point": worst_point, "n_points": int(n_points)}


def check_stephen(
    form,
    d: SpectralDecomposition,
    grid: SearchGrid,
    f_train: np.ndarray,
    f_holdout: np.ndarray,
) -> dict:
    """Fit c1 in the lower-order absorption estimate against the measured form.

    ||(-L)^{p/2} f||^2 + rho lam^{2p} ||f||^2
    <= c1 (1+theta) Q(f) + c1 rho (1 + theta s / rho)^{2m} lam^{2m} ||f||^2.
    Trains on f_train, requires zero violations on f_holdout.
    """
    s = float(d.eigenvalues[0])
    m = form.m
    rho_axis = grid.axes["rho"]
    theta_axis = grid.axes["theta"]
    lam_axis = grid.axes["lam"]

    def sup_ratio(fs: np.ndarray):
        worst, where, count = 0.0, None, 0
        for fi, f in enumerate(np.atleast_2d(fs)):
            c2 = d.coefficients(f) ** 2
            q_f = float(f @ (form.matrix @ f))
            norm2 = float(np.sum(c2))
            for p in range(1, m + 1):
                norm_p2 = _spectral_norm2(d, c2, p)
                lam = lam_axis[:, None, None]
                rho = rho_axis[None, :, None]
                theta = theta_axis[None, None, :]
                lhs = norm_p2 + rho * lam ** (2 * p) * norm2
                rhs_unit = (1.0 + theta) * q_f + rho * (1.0 + theta * s / rho) ** (2 * m) * lam ** (2 * m) * norm2
                ratio = lhs / rhs_unit
                count += ratio.size
                mx = float(np.max(ratio))
                if mx > worst:
                    worst = mx
                    pos = np.unravel_index(int(np.argmax(ratio)), ratio.shape)
                    where = {"sample": fi, "p": p, "lam": float(lam_axis[pos[0]]),
                             "rho": float(rho_axis[pos[1]]), "theta": float(theta_axis[pos[2]])}
        return worst, where, count

    c1, where, n_points = sup_ratio(f_train)
    held, held_where, _ = sup_ratio(f_holdout)
    if not holdout_within(held, c1):
        raise PropertyViolation(
            f"held-out absorption ratio {held} exceeds fitted c1={c1}", witness=held_where
        )
    return {"c1": c1, "worst_point": where, "n_points": int(n_points)}


def gtilde_majorant(s: float, grid: SearchGrid) -> dict:
    """mu e^{-2 mu t} <= g~(t) over the (mu, t) grid; reports the minimal gap."""
    if s <= 0:
        raise DomainError(f"spectral gap must be positive, got {s}")
    mu = grid.axes["mu"][:, None]
    t = grid.axes["t"][None, :]
    if np.any(grid.axes["mu"] < s * (1.0 - 1e-12)):
        raise DomainError("mu axis must start at or above the gap s")
    lhs = mu * np.exp(-2.0 * mu * t)
    g = GTildeFn(s)
    rhs = gtilde(g, grid.axes["t"])[None, :]
    rel_gap = (rhs - lhs) / rhs
    mn = float(np.min(rel_gap))
    pos = np.unravel_index(int(np.argmin(rel_gap)), rel_gap.shape)
    worst_point = {"mu": float(grid.axes["mu"][pos[0]]), "t": float(grid.axes["t"][pos[1]])}
    if mn < -1e-12:
        raise PropertyViolation(f"g~ majorant violated, rel gap {mn}", witness=worst_point)
    pert = grid.perturbations(worst_point, ["mu", "t"])
    mu_p = np.maximum(pert["mu"], s)
    t_p = np.maximum(pert["t"], float(np.min(grid.axes["t"])))
    lhs_p = mu_p * np.exp(-2.0 * mu_p * t_p)
    rhs_p = gtilde(g, t_p)
    if float(np.min(rhs_p - lhs_p)) < -1e-12 * float(np.max(rhs_p)):
        raise PropertyViolation("g~ majorant violated in refinement cloud", witness=worst_point)
    return {"worst_rel_gap": mn, "worst_point": worst_point, "n_points": int(rel_gap.size)}
