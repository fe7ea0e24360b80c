"""heatgauss benchmark: one command per workload, metrics as one JSON line.

    python3 perfbench/run.py --workload {spectra,twist-fit,cli,all} --seed N --seconds S --trace {0,1}

Run from the repository root (the package is imported from ``src/``).
Workloads are described in ``workloads.py``. With ``--trace 0`` the last line
of standard output holds the end-to-end metrics:

  setup_s      s       median over 5 fresh interpreters of the time from
                       process start to the first timed call (imports, input
                       generation, one-time decompositions)
  run_s        s       wall time of the job list: each job's median over the
                       timed passes, summed (library workloads run their first
                       job once, untimed, before the timed passes)
  peak_rss_mb  MB      peak resident memory of this process or its largest child
  pass_frac    ratio   passed units / attempted units of one pass (failed_frac
                       = 1 - pass_frac; the failing units are listed above it)
  mu1_digits   digits  min over the workload's operators of -log10 of the
                       relative error of mu_1 against ``mu1_reference.json``

Both times are at nominal host speed: each job and each set-up is timed
between two runs of a fixed probe kernel, and its wall time is scaled by
``probe.NOMINAL_S`` / mean probe time (see ``probe.py``). The raw wall times
are printed above the result line.

Every timed pass runs with one BLAS thread (see ``BLAS_VARS``). With
``--trace 1`` the run instead times untraced passes, then traced passes with
every public heatgauss layer function wrapped (``tracer.py``), then one pass
in a child with the BLAS thread count users get by default; the last line
holds the per-layer metrics, and all spans go to ``perfbench/out/trace-<workload>-s<seed>.json``.
Outputs are checked: mu_1 against references, kernel tables for symmetry and
trace, identical results on every pass, byte-identical CSVs across runs.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib.util
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

# One BLAS thread in every timed process (children inherit it). On a shared
# 2-vCPU Intel Xeon VM the default two spinning OpenBLAS threads measure
# contention, not the program: a 200x200 matmul there takes 5.4 ms at two
# threads and 0.25 ms at one. The traced run reports the default regime as
# blas_default.run_s. All processes of a run also share one CPU (children
# inherit it), so that the probe reads the speed of the CPU the jobs run on:
# the two vCPUs of a shared host can be slowed by neighbours at different
# times.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PINNABLE = hasattr(os, "sched_setaffinity")
# the user's settings, saved in the environment so that later imports and children see them
USER_SETTINGS = json.loads(os.environ.setdefault("PERFBENCH_USER", json.dumps({
    "blas": {v: os.environ[v] for v in BLAS_VARS if v in os.environ},
    "cpus": sorted(os.sched_getaffinity(0)) if PINNABLE else None,
})))
if os.environ.get("PERFBENCH_BLAS") == "default":  # the traced run's baseline child: as users run
    if PINNABLE:
        os.sched_setaffinity(0, USER_SETTINGS["cpus"])
else:
    os.environ.update({v: "1" for v in BLAS_VARS})
    if PINNABLE:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 5
FLOAT_EPS_DIGITS = 53 * math.log10(2.0)  # mu1_digits cap: error below one ulp

sys.path.insert(0, HERE)
import probe  # noqa: E402
from workloads import MU1_RTOL, WORKLOADS, Clock  # noqa: E402


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"),
                   help="one workload, or all of them in turn (one child process each)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: "setup" times one set-up in a fresh interpreter; "baseline" runs one timed pass
    p.add_argument("--phase", choices=("run", "setup", "baseline"), default="run", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ------------------------------------------------------------ environment
def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_lines = 0
    for path in glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "src_lines": src_lines,
    }


# ------------------------------------------------------------------ helpers
def mu1_digits(mu1: dict) -> tuple[float, list[str]]:
    """Min digits over operators with a reference, and the references missed."""
    with open(os.path.join(HERE, "mu1_reference.json"), encoding="utf-8") as fh:
        refs = json.load(fh)["mu1"]
    digits, problems = math.inf, []
    for key, value in sorted(mu1.items()):
        if key not in refs:
            continue
        ref = float(refs[key])
        rel = abs(value - ref) / ref
        if rel > MU1_RTOL:
            problems.append(f"{key}: mu_1 {value!r} vs reference {refs[key]} (rel. error {rel:.3g})")
        digits = min(digits, -math.log10(rel) if rel > 0 else FLOAT_EPS_DIGITS, FLOAT_EPS_DIGITS)
    return digits, problems


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0  # ru_maxrss is in KiB on Linux


def timed_passes(wl, seconds: float, first_index: int, tracer=None, **kw):
    """Run passes while the next one, as long as the last, ends within `seconds` (at least one)."""
    results = []
    begin = time.perf_counter()
    last = 0.0
    while not results or time.perf_counter() - begin + last <= seconds:
        start = time.perf_counter()
        clock = Clock(tracer)
        res = wl.run_pass(clock, first_index + len(results), **kw)
        res.walls, res.probes = clock.walls, clock.probes
        results.append(res)
        last = time.perf_counter() - start
    return results


def nominal(wall: float, probe_s: float) -> float:
    """A wall time scaled to nominal host speed by the probe timed around it."""
    return wall * probe.NOMINAL_S / probe_s


def run_seconds(results) -> float:
    """Job list time at nominal host speed: each job's median over the passes, summed."""
    return sum(statistics.median(nominal(w, p) for w, p in zip(walls, probes))
               for walls, probes in zip(zip(*(r.walls for r in results)), zip(*(r.probes for r in results))))


def raw_seconds(results) -> float:
    """Job list wall time as measured: each job's median over the passes, summed."""
    return sum(statistics.median(job) for job in zip(*(r.walls for r in results)))


def setup_sample(args) -> tuple[float, float]:
    """Wall time from starting a fresh interpreter to the end of its set-up,
    and the mean probe time around it."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--phase", "setup"]
    before = probe.measure()
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-300:]}")
    wall = json.loads(proc.stdout.strip().splitlines()[-1])["setup_end"] - t0
    return wall, 0.5 * (before + probe.measure())


def check_passes(results) -> list[str]:
    problems = []
    for r in results:
        problems += r.problems
    digests = {r.digest() for r in results}
    if len(digests) > 1:
        problems.append(f"passes disagree: {len(digests)} distinct output digests over {len(results)} passes")
    return problems


def summarize_failures(failures: list[str]) -> list[str]:
    counts: dict[str, int] = {}
    for f in failures:
        counts[f] = counts.get(f, 0) + 1
    return [f"  {n:4d} x {f}" for f, n in sorted(counts.items())]


def cli_determinism(wl, results) -> list[str]:
    """CSV outputs must be byte-identical across passes and on a re-run."""
    problems = []
    first = wl.csv_files(results[0].index)
    for r in results[1:]:
        other = wl.csv_files(r.index)
        for name in sorted(set(first) | set(other)):
            if first.get(name) != other.get(name):
                problems.append(f"{name}: CSV differs between pass {results[0].index} and pass {r.index}")
    again = wl.recheck()
    if again != first.get(os.path.join("laplace-pi", "verify-bounds", "verify_bounds.csv")):
        problems.append("criterion-9 verify_bounds.csv differs on re-run")
    return problems


def emit(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


# --------------------------------------------------------------- main paths
def prepare(args):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    wl = WORKLOADS[args.workload]()
    work = os.path.join(OUT, f"{args.workload}-s{args.seed}-{args.phase}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    return wl, work


def run_untraced(args, wl, work) -> int:
    wl.setup(args.seed, work)
    setups = [setup_sample(args) for _ in range(SETUP_SAMPLES)]
    if wl.warmup:
        wl.run_pass(Clock(), -1, limit=1)
    results = timed_passes(wl, args.seconds, 0)
    first = results[0]
    problems = check_passes(results)
    if args.workload == "cli":
        problems += cli_determinism(wl, results)
    digits, mu_problems = mu1_digits(first.mu1)
    problems += mu_problems
    metrics = {
        "setup_s": statistics.median(nominal(w, p) for w, p in setups),
        "run_s": run_seconds(results),
        "peak_rss_mb": peak_rss_mb(),
        "pass_frac": 1.0 - len(first.failures) / first.attempted,
        "mu1_digits": digits,
    }
    units = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB", "pass_frac": "ratio", "mu1_digits": "digits"}
    print(f"env: {json.dumps(environment(), sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: {len(results)} timed passes "
          f"({', '.join(f'{sum(r.walls):.3f}' for r in results)} s wall), {SETUP_SAMPLES} set-ups "
          f"({', '.join(f'{w:.3f}' for w, _ in setups)} s wall)")
    probes = [p for r in results for p in r.probes]
    print(f"host speed: probe median {statistics.median(probes) * 1e3:.2f} ms over {len(probes)} jobs "
          f"(nominal {probe.NOMINAL_S * 1e3:.2f} ms); raw run_s {raw_seconds(results):.4f} s, "
          f"raw setup_s {statistics.median(w for w, _ in setups):.4f} s")
    if args.workload == "cli":
        for sub, secs in first.subcommand_s.items():
            print(f"  {sub.replace('-', '_')}_s = {secs:.3f} s (pass 0, summed over {len(wl.configs)} configs)")
    print(f"failed units per pass: {len(first.failures)} of {first.attempted} "
          f"(failed_frac {len(first.failures) / first.attempted:.6f})")
    for line in summarize_failures(first.failures):
        print(line)
    for name, value in metrics.items():
        print(f"  {name} = {value!r} {units[name]}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print("correctness: " + ("ok" if not problems else f"{len(problems)} problems"))
    emit(not problems, first.attempted, len(first.failures), metrics, units)
    return 0


def run_setup_phase(args, wl, work) -> int:
    wl.setup(args.seed, work)
    print(json.dumps({"setup_end": time.perf_counter()}))
    return 0


def run_baseline_phase(args, wl, work) -> int:
    wl.setup(args.seed, work)
    if wl.warmup:
        wl.run_pass(Clock(), -1, limit=1)
    clock = Clock()
    res = wl.run_pass(clock, 0)
    res.walls, res.probes = clock.walls, clock.probes
    print(json.dumps({"run_s": run_seconds([res]), "blas_threads": blas_threads()}))
    return 0


def run_all(args) -> int:
    """Each workload in turn; the last line merges their results, names prefixed."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "heatgauss", "__init__.py")):
        print(f"perfbench: no heatgauss sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    wl, work = prepare(args)
    try:
        if args.phase == "setup":
            return run_setup_phase(args, wl, work)
        if args.phase == "baseline":
            return run_baseline_phase(args, wl, work)
        if args.trace:
            from traced import run_traced

            return run_traced(args, wl, work)
        return run_untraced(args, wl, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
