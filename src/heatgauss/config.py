"""Flat `[section]` / `key = value` configuration parser.

Zero-dependency format: UTF-8 text, `#` starts a comment, blank lines are
ignored. Parse failures raise ConfigurationError with line and column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .assembly import OperatorSpec, load_coefficients_csv, polyharmonic_spec
from .core import GammaSchedule, schedule_from_gamma
from .errors import ConfigurationError, ParameterError, UnsupportedError
from .profiles import BUILTIN_PROFILES
from .twist import TWIST_CAP


N_MAX = 800  # largest grid a run decomposes, --refine's 2n included
SCALE_DIGITS = 200  # log10 cap on the spectrum's top (2/h)^2m to the power 2m the twisted estimates take


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


# the sections load_run_config reads and the keys it reads in each; a [sweep] key names its RunConfig field and parser
KNOWN_KEYS = {
    "operator": ("source", "m", "L", "n"),
    "schedule": ("gamma", "eps"),
    "sweep": {
        "t_grid": ("t_grid", _parse_floats),
        "lam_grid": ("lam_grid", _parse_floats),
        "c2_grid": ("c2_grid", _parse_floats),
        "samples": ("sample_count", partial(_parse_number, kind=int)),
        "seed": ("seed", partial(_parse_number, kind=int)),
    },
}


@dataclass
class RunConfig:
    """Validated run parameters: the operator, its interval and grid, its decay schedules, the sweeps."""

    spec: OperatorSpec
    length: float
    n: int
    schedules: list[GammaSchedule]
    t_grid: list[float] = field(default_factory=lambda: list(np.geomspace(0.01, 5.0, 25)))
    lam_grid: list[float] | None = None  # None: the twists 0 0.5 1 2 that L admits
    c2_grid: list[float] = field(default_factory=lambda: list(np.geomspace(1e-3, 1.0, 7)))
    sample_count: int = 24
    seed: int = 42

    @property
    def m(self) -> int:
        return self.spec.m

    def __post_init__(self):
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
        for name in ("schedules", "t_grid", "lam_grid", "c2_grid"):
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
        for schedule in self.schedules:
            if (schedule.m, schedule.N) != (self.m, 1):
                raise ConfigurationError(f"a schedule for m = {schedule.m}, N = {schedule.N} does not fit "
                                         f"the operator of order m = {self.m} on an interval")


def load_run_config(path: str, seed_override: int | None = None) -> RunConfig:
    """Build a RunConfig from a parsed file, applying profile defaults; the one place a `source` becomes an
    operator, a csv: table read once. An unknown source, a table that does not read, an order outside 1..3,
    a section or key outside KNOWN_KEYS, or both gamma and eps, raises ConfigurationError naming it."""
    sections = parse_config_file(path)
    for name, body in sections.items():
        if name not in KNOWN_KEYS:
            raise ConfigurationError(f"unknown section [{name}]; known sections: {', '.join(KNOWN_KEYS)}")
        for key in body:
            if key not in KNOWN_KEYS[name]:
                raise ConfigurationError(f"[{name}] unknown key `{key}`; known keys: {', '.join(KNOWN_KEYS[name])}")
    op, sched, sweep = (sections.get(name, {}) for name in KNOWN_KEYS)

    source = op.get("source", "polyharmonic")
    profile = BUILTIN_PROFILES.get(source)
    for key in ("m", "L") if profile is None else ():
        if key not in op:
            raise ConfigurationError(f"[operator] section is missing the required key `{key}`")
    m = _parse_number(op["m"], "[operator] m", int) if "m" in op else profile.m
    length = _parse_number(op["L"], "[operator] L", float) if "L" in op else profile.length
    n = _parse_number(op.get("n", "200"), "[operator] n", int)
    try:
        if profile is not None:
            if m != profile.m:
                raise ConfigurationError(f"[operator] m = {m} differs from the order m = {profile.m} of {source}")
            spec = profile.spec
        elif source == "polyharmonic":
            spec = polyharmonic_spec(m)
        elif source.startswith("csv:"):
            spec = OperatorSpec(m=m, coefficients=load_coefficients_csv(source[4:]))
        else:
            raise ConfigurationError(f"unknown coefficient source {source!r}")
    except UnsupportedError as exc:  # an order outside 1..MAX_ORDER
        raise ConfigurationError(str(exc)) from None

    if "gamma" in sched and "eps" in sched:
        raise ConfigurationError("[schedule] gives both `gamma` and `eps`; give one of them")
    if "eps" in sched:
        try:
            schedules = [GammaSchedule(m=m, N=1, eps=e) for e in _parse_floats(sched["eps"], "[schedule] eps")]
        except ParameterError as exc:
            raise ConfigurationError(f"[schedule] eps: {exc}") from None
    else:
        schedules = []
        for g in _parse_floats(sched["gamma"], "[schedule] gamma") if "gamma" in sched else [0.0]:
            try:
                schedules.append(schedule_from_gamma(m, 1, g))
            except ParameterError:
                raise ConfigurationError(
                    f"[schedule] gamma = {g} outside the admissible interval [0, {m - 0.5}) for m = {m}"
                ) from None

    kwargs = {name: parse(sweep[key], f"[sweep] {key}") for key, (name, parse) in KNOWN_KEYS["sweep"].items()
              if key in sweep}
    if seed_override is not None:
        kwargs["seed"] = seed_override
    return RunConfig(spec=spec, length=length, n=n, schedules=schedules, **kwargs)
