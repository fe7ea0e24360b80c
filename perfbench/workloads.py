"""The three benchmark workloads and the seeded inputs they run on.

Each workload is a closed loop with one caller: the next call starts when the
previous one returns, as for a user waiting on each verdict of a batch lab.
``setup`` builds every input from the workload seed (configs, the
``csv-general`` coefficient table, sample functions, sector samples) plus any
one-time work; ``run_pass`` runs the fixed job list once and returns what it
attempted, what failed and a digest of its outputs.

Library calls go through module attributes (``bounds.fit_envelope_constants``)
so that the tracer's wrappers, installed after import, see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import probe
from tracer import Tracer

SUBCOMMANDS = ("spectrum", "kernel", "verify-bounds", "verify-twist", "verify-inequalities", "report")
JOB_TIMEOUT_S = 150.0
MU1_RTOL = 1e-6  # reference check; the seed's Jacobi solver is within 1e-7


@dataclass
class PassResult:
    """Outcome of one pass over a workload's job list."""

    index: int = 0
    attempted: int = 0
    failures: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    mu1: dict = field(default_factory=dict)  # reference key -> computed mu_1
    problems: list = field(default_factory=list)  # failed correctness checks
    subcommand_s: dict = field(default_factory=dict)
    exit_codes: dict = field(default_factory=dict)
    jobs: list = field(default_factory=list)  # cli: (job id, JobOutcome, spans file)
    walls: list = field(default_factory=list)  # wall time of each job, in job-list order
    probes: list = field(default_factory=list)  # mean probe time around each job

    def call(self, label: str, fn, *args, verdict=None, **kwargs):
        """Run one library unit; a heatgauss error or a failing verdict fails it."""
        from heatgauss.errors import HeatGaussError

        self.attempted += 1
        try:
            result = fn(*args, **kwargs)
        except HeatGaussError as exc:
            self.failures.append(f"{label}: {type(exc).__name__}")
            return None
        if verdict is not None and not verdict(result):
            self.failures.append(f"{label}: failing verdict")
        return result

    def skip(self, label: str, reason: str) -> None:
        """A unit that could not run because a unit it depends on failed."""
        self.attempted += 1
        self.failures.append(f"{label}: not run ({reason})")

    def digest(self) -> str:
        h = hashlib.sha256()
        for item in self.outputs + sorted(self.failures):
            h.update(repr(item).encode())
        return h.hexdigest()


class Clock:
    """Times the jobs of one pass, each between two host-speed probes
    (``probe.py``); in a traced pass each job is also the root span
    ``bench.job``."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.walls: list[float] = []
        self.probes: list[float] = []

    @contextlib.contextmanager
    def job(self, name: str):
        before = probe.measure()
        sid = None
        if self.tracer is not None:
            self.tracer.job = name
            sid = self.tracer.open("bench.job")
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.walls.append(time.perf_counter() - t0)
            if sid is not None:
                self.tracer.close(sid)
            self.probes.append(0.5 * (before + probe.measure()))


def write_coefficient_csv(path: str, rng: np.random.Generator) -> None:
    """m = 2 table on (0, 1) with a12 = a21 != 0, uniformly elliptic.

    Values are written as repr(float(x)): numpy scalar reprs such as
    ``np.float64(0.5)`` do not parse in ``load_coefficients_csv``.
    """
    xs = np.linspace(0.0, 1.0, 9)
    u = rng.uniform(0.0, 1.0, size=(4, xs.size))
    table = {
        (0, 0): 0.5 * u[0],
        (1, 1): 0.2 + 0.5 * u[1],
        (2, 2): 1.0 + 0.5 * u[2],
        (1, 2): 0.1 * (2.0 * u[3] - 1.0),  # |a12|^2 <= 0.01 < a11 * a22
    }
    table[(2, 1)] = table[(1, 2)]
    lines = ["i,j,x,value"]
    for (i, j), values in sorted(table.items()):
        lines += [f"{i},{j},{float(x)!r},{float(v)!r}" for x, v in zip(xs, values)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------- spectra
class Spectra:
    """Library path: assemble, decompose and tabulate the kernel.

    Four operators (three with high-precision mu_1 references, and the
    non-diagonal ``csv-general`` table that a factor-based spectral path
    cannot take) at two grid sizes. Nearly all time is eigensolve.
    """

    name = "spectra"
    warmup = True  # the first job once, untimed, before the timed passes
    SIZES = (50, 100)
    T_COUNT = 25

    def setup(self, seed: int, work: str) -> None:
        from heatgauss import assembly
        from heatgauss.profiles import get_profile

        csv_path = os.path.join(work, "csv-general.csv")
        write_coefficient_csv(csv_path, np.random.default_rng([seed, 1]))
        lap = get_profile("laplace-pi")
        operators = [
            ("laplace-pi", lap.spec, lap.length),
            ("beam-1", assembly.polyharmonic_spec(2), 1.0),
            ("polyharmonic-m3", assembly.polyharmonic_spec(3), 1.0),
            ("csv-general", assembly.OperatorSpec(m=2, coefficients=assembly.load_coefficients_csv(csv_path)), 1.0),
        ]
        self.jobs = [(key, spec, length, n) for key, spec, length in operators for n in self.SIZES]
        # t values scaled by 1/mu_1 from a seeded log-uniform spread over [0.01, 10]
        rng = np.random.default_rng([seed, 2])
        self.t_units = np.sort(np.exp(rng.uniform(math.log(0.01), math.log(10.0), self.T_COUNT)))

    def run_pass(self, clock: Clock, index: int, limit: int | None = None) -> PassResult:
        from heatgauss import assembly, spectral
        from heatgauss.core import Grid1D

        res = PassResult(index=index)
        for key, spec, length, n in self.jobs[:limit]:
            label = f"{key}/{n}"
            with clock.job(f"pass{index}/{label}"):
                grid = Grid1D(length=length, n_interior=n)
                form = res.call(f"{label} assemble", assembly.assemble_form, spec, grid)
                d = res.call(f"{label} decompose", spectral.SpectralDecomposition.from_form, form) \
                    if form is not None else res.skip(f"{label} decompose", "assembly failed")
                if d is None:
                    for _ in self.t_units:
                        res.skip(f"{label} kernel", "no decomposition")
                    continue
                mu1 = float(d.eigenvalues[0])
                res.mu1[label] = mu1
                if key == "csv-general":  # no reference: cross-check with LAPACK
                    ref = float(np.linalg.eigvalsh(form.operator)[0])
                    if abs(mu1 - ref) > MU1_RTOL * abs(ref):
                        res.problems.append(f"{label}: mu_1 {mu1!r} vs eigvalsh {ref!r}")
                ev = spectral.HeatKernelEvaluator(d)
                res.outputs.append((label, d.eigenvalues.tobytes()))
                for t in self.t_units / mu1:
                    K = res.call(f"{label} kernel", ev.matrix, float(t))
                    if K is None:
                        continue
                    # h * trace K(t) = sum_k exp(-mu_k t); K is symmetric
                    trace = d.grid.h * float(np.trace(K))
                    want = float(np.sum(np.exp(-t * d.eigenvalues)))
                    scale = float(np.max(np.abs(K)))
                    if abs(trace - want) > 1e-9 * want or float(np.max(np.abs(K - K.T))) > 1e-12 * scale:
                        res.problems.append(f"{label}: kernel table inconsistent at t={t!r}")
                    res.outputs.append((label, float(K.sum()), trace))
        return res


# -------------------------------------------------------------- twist-fit
@dataclass
class _Operator:
    key: str
    form: object
    d: object
    ev: object
    s: float
    length: float
    m: int
    t_fit: np.ndarray
    t_twist: np.ndarray
    t_tail: list
    f_train: np.ndarray
    f_holdout: np.ndarray
    per_samples: np.ndarray
    sector: np.ndarray
    z_values: list


class TwistFit:
    """Acceptance-gate pattern on decomposed operators: fits, twists, sweeps.

    Decompositions happen once in set-up, so the timed phase isolates the
    twist and bounds layers: dense propagator rebuilds, SVD operator norms and
    the kernel tables recomputed for every c2. A change to the spectral
    backend alone should move set-up time here and leave run time unchanged.
    """

    name = "twist-fit"
    warmup = True  # the first job once, untimed, before the timed passes
    N = 100
    GAMMAS = (0.0, 0.4)
    C2_GRID = np.geomspace(1e-3, 1.0, 7)
    LAMS = (0.0, 0.5, 1.0, 2.0)
    PS = (0.25, 0.5, 0.75)
    DEFAULT_T = np.geomspace(0.01, 5.0, 25)  # the runner's default t grid
    PER_SAMPLES = 200
    SECTOR_SAMPLES = 1000

    def setup(self, seed: int, work: str) -> None:
        from heatgauss import assembly, spectral, twist
        from heatgauss.cli import sample_functions
        from heatgauss.core import Grid1D, schedule_from_gamma
        from heatgauss.profiles import get_profile

        lap = get_profile("laplace-pi")
        specs = [
            ("laplace-pi", lap.spec, lap.length),
            ("beam-1", assembly.polyharmonic_spec(2), 1.0),
            ("polyharmonic-m3", assembly.polyharmonic_spec(3), 1.0),
        ]
        n = self.N
        self.operators = []
        self.schedules = {}
        for k, (key, spec, length) in enumerate(specs):
            rng = np.random.default_rng([seed, 10 + k])
            grid = Grid1D(length=length, n_interior=n)
            form = assembly.assemble_form(spec, grid)
            d = spectral.SpectralDecomposition.from_form(form)
            s = float(d.eigenvalues[0])
            self.operators.append(_Operator(
                key=key, form=form, d=d, ev=spectral.HeatKernelEvaluator(d), s=s,
                length=length, m=spec.m,
                t_fit=np.geomspace(0.05, 5.0, 12) / s,
                t_twist=np.geomspace(0.05, 5.0, 6) / s,
                t_tail=[float(t) for t in self.DEFAULT_T if t >= 1.0 / s],
                # the runners' sample sets: 5 extremal eigenmode samples, then seeded noise
                f_train=sample_functions(d, rng, 7),
                f_holdout=rng.standard_normal((12, n)),
                per_samples=sample_functions(d, rng, self.PER_SAMPLES - 5),
                sector=twist.sector_samples(d, seed=int(rng.integers(2**31)), count=self.SECTOR_SAMPLES),
                z_values=[complex(-1.0 - a, 1.0 + b) for a, b in rng.uniform(0.0, 1.0, (5, 2))],
            ))
            self.schedules[spec.m] = [schedule_from_gamma(spec.m, 1, g) for g in self.GAMMAS]

    def run_pass(self, clock: Clock, index: int, limit: int | None = None) -> PassResult:
        res = PassResult(index=index)
        for op in self.operators[:limit]:
            with clock.job(f"pass{index}/{op.key}"):
                self._operator(res, op)
                res.mu1[f"{op.key}/{self.N}"] = op.s
        return res

    def _operator(self, res: PassResult, op: _Operator) -> None:
        from heatgauss import bounds, spectral, twist

        n, key = self.N, op.key
        x_idx = list(range(2, n - 2, max(n // 16, 1)))
        for sched in self.schedules[op.m]:
            g = f"{key} gamma={sched.gamma}"
            fit = res.call(f"{g} fit-envelope", bounds.fit_envelope_constants, op.ev, sched,
                           self.C2_GRID, op.t_fit, verdict=lambda r: r.passed)
            if fit is not None:
                res.outputs.append((g, fit.constants["c1"], fit.constants["c2"]))
            sob = res.call(f"{g} sobolev", bounds.sobolev_pointwise_check, op.d, op.form, sched,
                           op.f_train, op.f_holdout, x_idx, verdict=lambda r: r.passed)
            if sob is not None:
                res.outputs.append((g, sob.constants["C"]))
        if len(op.t_tail) >= 2:
            rate = res.call(f"{key} longtime-rate", bounds.longtime_rate, op.ev, op.t_tail,
                            verdict=lambda r: abs(r - op.s) <= 0.05 * op.s)
            res.outputs.append((key, rate))
        else:
            res.skip(f"{key} longtime-rate", "fewer than two t >= 1/s")
        res.call(f"{key} evolved-form-gtilde", spectral.evolved_form_bound_check,
                 op.d, self.DEFAULT_T, op.f_train[:8])

        t_mid = float(np.median(op.t_twist))
        points = [(n // 3, 2 * n // 3), (n // 4, n // 2), (n // 2, 3 * n // 4)]
        for lam in self.LAMS:
            lk = f"{key} lam={lam}"
            tw = twist.TwistSpec(grid=op.d.grid, x0=op.length / 2.0, a=1.0, lam=lam)
            norm = res.call(f"{lk} twisted-norm-fit", twist.twisted_semigroup_norm_fit, op.d, tw, op.t_twist)
            if norm is None:
                res.skip(f"{lk} mixed-norm-fit", "norm fit failed")
            else:
                res.outputs.append((lk, norm["c"]))
                mixed = res.call(f"{lk} mixed-norm-fit", twist.mixed_norm_bound_fit,
                                 op.d, tw, op.t_twist, 0.5, 1.0, norm["c"])
                if mixed is not None:
                    res.outputs.append((lk, mixed["c2"]))
            evolved = res.call(f"{lk} evolved-twisted-form", twist.evolved_twisted_form_check,
                               op.d, op.form, tw, 0.5, op.t_twist, op.f_train[:4], op.f_holdout[:4])
            if evolved is not None:
                res.outputs.append((lk, evolved["c1"]))
            if lam == 0.0:
                continue
            for i, j in points:
                res.outputs.append((lk, res.call(f"{lk} twisted-kernel", twist.twisted_kernel,
                                                 op.ev, tw, t_mid, i, j)))
            for z in op.z_values:
                res.call(f"{lk} appendix-b", twist.appendix_b_identities, op.d, tw, z,
                         verdict=lambda r: r["ok"])
            for f in op.per_samples:
                res.outputs.append(res.call(f"{lk} per-lambda", twist.per_lambda, op.form, tw, f))
            top = twist.TwistedOperator(base=op.d, twist=tw)
            for p in self.PS:
                shift = res.call(f"{lk} p={p} sector-shift", twist.sector_shift_search, top, p, op.sector)
                if shift is None:
                    res.skip(f"{lk} p={p} sector", "no admissible shift")
                    continue
                unit = (1.0 + p) * (1.0 + op.s) ** (2 * op.m) * lam ** (2 * op.m)
                sector = res.call(f"{lk} p={p} sector", twist.numerical_range_sector, top, p,
                                  shift * unit, op.sector, verdict=lambda r: not r[1])
                res.outputs.append((lk, p, shift, sector[0] if sector else None))


# -------------------------------------------------------------------- cli
CONFIGS = {
    # the acceptance gate's criterion-9 determinism config
    "laplace-pi": (
        "[operator]\nsource = laplace-pi\nn = 120\n\n"
        "[schedule]\ngamma = 0.0 0.4\n\n"
        "[sweep]\nt_grid = 0.05 0.1 0.2 0.5 1.0 2.0\n"
        "c2_grid = 0.01 0.05 0.1 0.25\nsamples = 8\nseed = {seed}\n"
    ),
    "beam-1": "[operator]\nsource = beam-1\nn = 80\n\n[schedule]\ngamma = 0.0 0.4\n\n[sweep]\nseed = {seed}\n",
    "polyharmonic-m3": (
        "[operator]\nsource = polyharmonic\nm = 3\nL = 1.0\nn = 80\n\n"
        "[schedule]\ngamma = 0.0 0.4\n\n[sweep]\nseed = {seed}\n"
    ),
}
CLI_MU1_KEYS = {"laplace-pi": "laplace-pi/120", "beam-1": "beam-1/80", "polyharmonic-m3": "polyharmonic-m3/80"}


@dataclass
class JobOutcome:
    code: int
    crashed: bool
    wall_s: float
    start: float
    end: float
    stderr_tail: str


def run_cli_job(root: str, argv: list[str], spans_path: str | None, job_id: str) -> JobOutcome:
    """One subcommand in a fresh interpreter; traced through cli_child.py when spans_path is set."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    if spans_path is None:
        cmd = [sys.executable, "-m", "heatgauss.cli", *argv]
    else:
        cmd = [sys.executable, os.path.join(root, "perfbench", "cli_child.py"), spans_path, job_id, *argv]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env, cwd=root)
    try:
        _, err = proc.communicate(timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        _, err = proc.communicate()
    end = time.perf_counter()
    text = err.decode("utf-8", "replace")
    crashed = "Traceback (most recent call last)" in text or proc.returncode not in (0, 1, 2)
    tail = text.strip().splitlines()[-1] if text.strip() else ""
    return JobOutcome(proc.returncode, crashed, end - start, start, end, tail)


class Cli:
    """End-user path: each subcommand in a fresh interpreter, one job at a time.

    Every job re-assembles and re-decomposes its operator, parses its config
    and writes CSV or SVG output; jobs run cold, as for users. Exit 1 is a
    failed check, exit 2 a config error, anything else (or a traceback) a
    crash; each counts as a failed unit.
    """

    name = "cli"
    warmup = False

    def setup(self, seed: int, work: str) -> None:
        self.root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        self.work = work
        rng = np.random.default_rng([seed, 20])
        self.configs = {}
        for key, text in CONFIGS.items():
            path = os.path.join(work, f"{key}.cfg")
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text.format(seed=int(rng.integers(2**31))))
            self.configs[key] = path

    def out_dir(self, index: int, key: str, sub: str) -> str:
        return os.path.join(self.work, f"pass{index}", key, sub)

    def run_pass(self, clock: Clock, index: int, spans_dir: str | None = None) -> PassResult:
        res = PassResult(index=index)
        res.subcommand_s = {sub: 0.0 for sub in SUBCOMMANDS}
        res.exit_codes = {"0": 0, "1": 0, "2": 0, "crash": 0}
        for key, cfg in self.configs.items():
            for sub in SUBCOMMANDS:
                job_id = f"pass{index}/{key}/{sub}"
                out = self.out_dir(index, key, sub)
                spans_path = os.path.join(spans_dir, job_id.replace("/", "_") + ".json") if spans_dir else None
                res.attempted += 1
                with clock.job(job_id):
                    outcome = run_cli_job(self.root, [sub, "--config", cfg, "--out", out], spans_path, job_id)
                res.jobs.append((job_id, outcome, spans_path))
                res.subcommand_s[sub] += outcome.wall_s
                kind = "crash" if outcome.crashed else str(outcome.code)
                res.exit_codes[kind] += 1
                if kind != "0":
                    res.failures.append(f"{key} {sub}: exit {kind}: {outcome.stderr_tail[:160]}")
            spectrum = os.path.join(self.out_dir(index, key, "spectrum"), "spectrum.csv")
            if os.path.exists(spectrum):
                with open(spectrum, encoding="utf-8") as fh:
                    rows = fh.read().splitlines()
                if len(rows) > 1:
                    res.mu1[CLI_MU1_KEYS[key]] = float(rows[1].split(",")[1])
        res.outputs = sorted(f.split(":")[0] for f in res.failures)
        return res

    def csv_files(self, index: int) -> dict[str, bytes]:
        files = {}
        base = os.path.join(self.work, f"pass{index}")
        for dirpath, _, names in os.walk(base):
            for name in names:
                if name.endswith(".csv"):
                    path = os.path.join(dirpath, name)
                    with open(path, "rb") as fh:
                        files[os.path.relpath(path, base)] = fh.read()
        return files

    def recheck(self) -> bytes:
        """Re-run the criterion-9 verify-bounds job (untimed) and return its CSV."""
        out = os.path.join(self.work, "recheck")
        run_cli_job(self.root, ["verify-bounds", "--config", self.configs["laplace-pi"], "--out", out], None, "recheck")
        with open(os.path.join(out, "verify_bounds.csv"), "rb") as fh:
            return fh.read()


WORKLOADS = {"spectra": Spectra, "twist-fit": TwistFit, "cli": Cli}
