"""Flat `[section]` / `key = value` configuration parser.

Zero-dependency format: UTF-8 text, `#` starts a comment, blank lines are
ignored. Parse failures raise ConfigurationError with line and column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import GammaSchedule, schedule_from_gamma
from .errors import ConfigurationError, ParameterError
from .profiles import BUILTIN_PROFILES, get_profile
from .twist import TWIST_CAP


N_MAX = 800  # largest grid a run decomposes, --refine's 2n included
SCALE_DIGITS = 200  # log10 cap on the spectrum's top (2/h)^2m to the power 2m the twisted estimates take
# the sections load_run_config reads and the keys it reads in each
KNOWN_KEYS = {
    "operator": ("source", "m", "L", "n"),
    "schedule": ("gamma", "eps"),
    "sweep": ("t_grid", "lam_grid", "c2_grid", "samples", "seed"),
}


def _strip_comment(line: str) -> str:
    pos = line.find("#")
    return line if pos < 0 else line[:pos]


def parse_config_text(text: str) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]") or len(line) < 3:
                col = raw.index("[") + 1
                raise ConfigurationError(
                    f"line {lineno}, column {col}: malformed section header {line!r}"
                )
            current = line[1:-1].strip()
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            col = len(raw) - len(raw.lstrip()) + 1
            raise ConfigurationError(
                f"line {lineno}, column {col}: expected `key = value`, got {line!r}"
            )
        if current is None:
            raise ConfigurationError(f"line {lineno}, column 1: key outside any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigurationError(f"line {lineno}, column 1: empty key")
        sections[current][key] = value
    return sections


def parse_config_file(path: str) -> dict[str, dict[str, str]]:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_config_text(fh.read())
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path!r}: {exc}") from exc


def _parse_floats(raw: str, where: str) -> list[float]:
    try:
        return [float(tok) for tok in raw.replace(",", " ").split()]
    except ValueError:
        raise ConfigurationError(f"{where}: expected a list of numbers, got {raw!r}") from None


def _parse_number(raw: str, where: str, kind: type[int] | type[float]) -> int | float:
    try:
        return kind(raw)
    except ValueError:
        raise ConfigurationError(f"{where}: expected one {kind.__name__} value, got {raw!r}") from None


@dataclass
class RunConfig:
    """Validated run parameters for the experiment runner."""

    m: int
    length: float
    n: int
    source: str  # `polyharmonic`, `csv:<path>` or a built-in profile name
    gamma_list: list[float]
    t_grid: list[float] = field(default_factory=lambda: list(np.geomspace(0.01, 5.0, 25)))
    lam_grid: list[float] | None = None  # None: the twists 0 0.5 1 2 that L admits
    c2_grid: list[float] = field(default_factory=lambda: list(np.geomspace(1e-3, 1.0, 7)))
    sample_count: int = 24
    seed: int = 42
    schedules: list[GammaSchedule] = field(init=False, repr=False)

    def __post_init__(self):
        if not (1 <= self.m <= 3):
            raise ConfigurationError(f"m must be 1..3, got {self.m}")
        if not (16 <= self.n <= N_MAX):
            raise ConfigurationError(f"n must be 16..{N_MAX}, got {self.n}")
        if not (0 < self.length < math.inf):
            raise ConfigurationError(f"L must be positive and finite, got {self.length}")
        digits = 4 * self.m**2 * math.log10(2.0 * (self.n + 1) / self.length)
        if digits > SCALE_DIGITS:
            raise ConfigurationError(f"L = {self.length} is too small for m = {self.m}, n = {self.n}: "
                                     f"(2/h)^(4 m^2) = 10^{digits:.1f} is past 10^{SCALE_DIGITS}")
        if self.lam_grid is None:
            self.lam_grid = [lam for lam in (0.0, 0.5, 1.0, 2.0) if lam * self.length <= TWIST_CAP]
        for name in ("gamma_list", "t_grid", "lam_grid", "c2_grid"):
            if not getattr(self, name):
                raise ConfigurationError(f"{name} must be non-empty")
            if name in ("t_grid", "c2_grid") and not all(0 < v < math.inf for v in getattr(self, name)):
                raise ConfigurationError(f"[sweep] {name} entries must be positive and finite")
        if not all(abs(lam) * self.length <= TWIST_CAP for lam in self.lam_grid):  # also rejects nan
            raise ConfigurationError(f"[sweep] lam_grid entries must be finite with |lam| * L <= {TWIST_CAP}")
        if self.seed < 0:
            raise ConfigurationError("seed must be a non-negative integer")
        if self.sample_count < 1:
            raise ConfigurationError(f"samples must be at least 1, got {self.sample_count}")
        self.schedules = []
        for g in self.gamma_list:
            try:
                self.schedules.append(schedule_from_gamma(self.m, 1, g))
            except ParameterError:
                raise ConfigurationError(
                    f"[schedule] gamma = {g} outside the admissible interval [0, {self.m - 0.5}) for m = {self.m}"
                ) from None


def load_run_config(path: str, seed_override: int | None = None) -> RunConfig:
    """Build a RunConfig from a parsed file, applying profile defaults; a section or key outside
    KNOWN_KEYS, or both gamma and eps, raises ConfigurationError naming it."""
    sections = parse_config_file(path)
    for name, body in sections.items():
        if name not in KNOWN_KEYS:
            raise ConfigurationError(f"unknown section [{name}]; known sections: {', '.join(KNOWN_KEYS)}")
        for key in body:
            if key not in KNOWN_KEYS[name]:
                raise ConfigurationError(f"[{name}] unknown key `{key}`; known keys: {', '.join(KNOWN_KEYS[name])}")
    op = sections.get("operator", {})
    sched = sections.get("schedule", {})
    sweep = sections.get("sweep", {})

    source = op.get("source", "polyharmonic")
    if source in BUILTIN_PROFILES:
        profile = get_profile(source)
        m = _parse_number(op["m"], "[operator] m", int) if "m" in op else profile.m
        if m != profile.m:
            raise ConfigurationError(f"[operator] m = {m} differs from the order m = {profile.m} of {source}")
        length = _parse_number(op["L"], "[operator] L", float) if "L" in op else profile.length
    else:
        if "m" not in op:
            raise ConfigurationError("[operator] section is missing the required key `m`")
        m = _parse_number(op["m"], "[operator] m", int)
        if "L" not in op:
            raise ConfigurationError("[operator] section is missing the required key `L`")
        length = _parse_number(op["L"], "[operator] L", float)
    n = _parse_number(op.get("n", "200"), "[operator] n", int)

    eps_schedules = None
    if "gamma" in sched and "eps" in sched:
        raise ConfigurationError("[schedule] gives both `gamma` and `eps`; give one of them")
    if "gamma" in sched:
        gamma_list = _parse_floats(sched["gamma"], "[schedule] gamma")
    elif "eps" in sched:
        eps_list = _parse_floats(sched["eps"], "[schedule] eps")
        try:
            eps_schedules = [GammaSchedule(m=m, N=1, eps=e) for e in eps_list]
        except ParameterError as exc:
            raise ConfigurationError(f"[schedule] eps: {exc}") from None
        gamma_list = [schedule.gamma for schedule in eps_schedules]
    else:
        gamma_list = [0.0]

    kwargs = {}
    if "t_grid" in sweep:
        kwargs["t_grid"] = _parse_floats(sweep["t_grid"], "[sweep] t_grid")
    if "lam_grid" in sweep:
        kwargs["lam_grid"] = _parse_floats(sweep["lam_grid"], "[sweep] lam_grid")
    if "c2_grid" in sweep:
        kwargs["c2_grid"] = _parse_floats(sweep["c2_grid"], "[sweep] c2_grid")
    if "samples" in sweep:
        kwargs["sample_count"] = _parse_number(sweep["samples"], "[sweep] samples", int)
    seed = _parse_number(sweep.get("seed", "42"), "[sweep] seed", int)
    if seed_override is not None:
        seed = seed_override

    cfg = RunConfig(m=m, length=length, n=n, source=source,
                    gamma_list=gamma_list, seed=seed, **kwargs)
    if eps_schedules is not None:  # eps as given: its round trip through gamma can move it by an ulp
        cfg.schedules = eps_schedules
    return cfg
