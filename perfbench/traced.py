"""The traced run (``--trace 1``): per-layer spans and metrics.

Order: set-up (traced, kept apart), the untraced warm-up job, untraced passes
for half the time, traced passes for the other half, then one pass in a child
interpreter with the BLAS thread count users get by default. Per-layer numbers
are per traced pass, measured with one BLAS thread like the timed runs
(``trace.blas_threads``); ``blas_default.run_s`` is the same job list in the
default regime. Tracing overhead is traced run_s minus untraced run_s.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

from run import BLAS_VARS, HERE, OUT, ROOT, USER_SETTINGS, blas_threads, check_passes, cli_determinism, emit, \
    environment, mu1_digits, run_seconds, timed_passes
from tracer import BYTES, END, JOB, KEY, N, NAME, PARENT, POINTS, START, Tracer, layer_failures, self_times
from workloads import SUBCOMMANDS, Clock

LAYERS = ("assembly", "spectral", "twist", "bounds", "inequalities", "reporting")


def merge_cli_spans(tracer: Tracer, results) -> list[tuple[int, int | None]]:
    """Add each job's parent-side span and the spans its child wrote at exit.

    Returns (job span, child cli.main span or None) pairs; a child that was
    killed before writing leaves its whole job time to process start.
    """
    pairs = []
    for res in results:
        for job_id, outcome, spans_path in res.jobs:
            root = len(tracer.spans)
            tracer.spans.append(["bench.job", outcome.start, outcome.end, None, job_id,
                                 None, 0, 0, None, 0, None])
            main = None
            if spans_path and os.path.exists(spans_path):
                with open(spans_path, encoding="utf-8") as fh:
                    child = json.load(fh)["spans"]
                offset = len(tracer.spans)
                for s in child:
                    s[PARENT] = root if s[PARENT] is None else s[PARENT] + offset
                    if s[NAME] == "cli.main":
                        main = len(tracer.spans)
                    tracer.spans.append(s)
            pairs.append((root, main))
    return pairs


def baseline_default_threads(args) -> tuple[float, int | None]:
    """run_s of one pass in a fresh interpreter with the user's BLAS threading
    and CPUs, and that interpreter's BLAS thread count."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(USER_SETTINGS["blas"], PERFBENCH_BLAS="default")
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--phase", "baseline"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, env=env, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"default-thread baseline failed: {proc.stderr.strip()[-300:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["run_s"], result["blas_threads"]


def layer_metrics(spans, first, untraced, traced_passes, pairs, blas_default_s) -> dict:
    """Per-layer numbers per traced pass, from the spans at index >= first."""
    selfs = self_times(spans)
    traced = range(first, len(spans))
    per = 1.0 / len(traced_passes)

    def calls(*names):
        return per * sum(1 for i in traced if spans[i][NAME] in names)

    def busy(*names):
        return per * sum(selfs[i] for i in traced if spans[i][NAME] in names)

    def layer_self(layer):
        return per * sum(selfs[i] for i in traced if spans[i][NAME].startswith(layer + "."))

    kernel = [spans[i] for i in traced if spans[i][NAME] == "spectral.kernel_matrix"]
    distinct = {(s[JOB], tuple(s[KEY])) for s in kernel}
    dense = [spans[i] for i in traced if spans[i][NAME] in ("spectral.kernel_matrix", "spectral.operator_matrix")]
    sweep_s = busy("inequalities.sweep")
    points = per * sum(spans[i][POINTS] for i in traced if spans[i][NAME] == "inequalities.sweep")
    writes = [spans[i] for i in traced if spans[i][NAME] == "reporting.write" and spans[i][BYTES]]
    start_s = per * sum(spans[m][START] - spans[r][START] for r, m in pairs if m is not None) \
        + per * sum(spans[r][END] - spans[r][START] for r, m in pairs if m is None)
    exit_s = per * sum(spans[r][END] - spans[m][END] for r, m in pairs if m is not None)
    traced_spans = [spans[i] for i in traced]
    roots = per * sum(s[END] - s[START] for s in traced_spans if s[PARENT] is None)
    codes = untraced[0].exit_codes or {"0": 0, "1": 0, "2": 0, "crash": 0}
    m = {
        "assembly.assemble_calls": calls("assembly.assemble"),
        "assembly.assemble_s": busy("assembly.assemble"),
        "assembly.ellipticity_calls": calls("assembly.ellipticity"),
        "assembly.ellipticity_s": busy("assembly.ellipticity"),
        "spectral.decompose_calls": calls("spectral.decompose"),
        "spectral.decompose_s": busy("spectral.decompose"),
        "spectral.kernel_matrix_calls": calls("spectral.kernel_matrix"),
        "spectral.kernel_matrix_s": busy("spectral.kernel_matrix"),
        "spectral.kernel_matrix_useful_ratio": len(distinct) / len(kernel) if kernel else 0.0,
        "spectral.operator_matrix_calls": calls("spectral.operator_matrix"),
        "spectral.operator_matrix_s": busy("spectral.operator_matrix"),
        "spectral.dense_gflop_computed": per * sum(2.0 * s[N] ** 3 for s in dense) / 1e9,
        "twist.norm_fit_s": busy("twist.norm_fit"),
        "twist.evolved_form_s": busy("twist.evolved_form"),
        "twist.per_lambda_calls": calls("twist.per_lambda"),
        "twist.per_lambda_s": busy("twist.per_lambda"),
        "twist.sector_s": busy("twist.sector"),
        "twist.appendix_b_s": busy("twist.appendix_b"),
        "twist.kernel_s": busy("twist.kernel"),
        "twist.failed": per * layer_failures(spans, "twist", first),
        "bounds.fit_envelope_s": busy("bounds.fit_envelope", "bounds.sup_ratio"),
        "bounds.sup_ratio_calls": calls("bounds.sup_ratio"),
        "bounds.sobolev_s": busy("bounds.sobolev"),
        "bounds.longtime_s": busy("bounds.longtime"),
        "bounds.failed": per * layer_failures(spans, "bounds", first),
        "inequalities.sweep_s": sweep_s,
        "inequalities.points": points,
        "inequalities.points_per_s": points / sweep_s if sweep_s > 0 else 0.0,
        "cli.process_start_s": start_s,
        "cli.process_exit_s": exit_s,
        "cli.config_s": busy("cli.config"),
        "cli.self_s": busy("cli.main", "cli.run"),
        "cli.exit_0": codes["0"],
        "cli.exit_1": codes["1"],
        "cli.exit_2": codes["2"],
        "cli.crash": codes["crash"],
        "reporting.write_s": busy("reporting.write"),
        "reporting.bytes_written": per * sum(s[BYTES] for s in writes),
        "reporting.files_written": per * len(writes),
    }
    for sub in SUBCOMMANDS:
        m[f"cli.{sub.replace('-', '_')}_s"] = statistics.median(r.subcommand_s.get(sub, 0.0) for r in untraced)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self(layer)
    # harness time inside job spans; for cli jobs that is process start/exit, counted above
    m["bench.self_s"] = busy("bench.job") - (start_s + exit_s if pairs else 0.0)
    m["trace.run_s"] = run_seconds(traced_passes)
    m["trace.untraced_run_s"] = run_seconds(untraced)
    m["trace.overhead_s"] = m["trace.run_s"] - m["trace.untraced_run_s"]
    # job walls of the traced passes not covered by any root span
    m["trace.unaccounted_s"] = per * sum(sum(r.walls) for r in traced_passes) - roots
    m["trace.spans"] = per * len(traced_spans)
    m["trace.blas_threads"] = blas_threads() or 0
    m["blas_default.run_s"] = blas_default_s
    return m


UNITS = {"calls": "count", "failed": "count", "points": "count", "ratio": "ratio", "written": "count",
         "computed": "Gflop", "spans": "count", "threads": "count", "per_s": "1/s"}


def unit_of(name: str) -> str:
    if name.startswith("cli.exit_") or name == "cli.crash":
        return "count"
    if name == "reporting.bytes_written":
        return "bytes"
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "s"


def run_traced(args, wl, work) -> int:
    tracer = Tracer()
    missing = tracer.install()
    tracer.job = "setup"
    wl.setup(args.seed, work)
    tracer.uninstall()
    first = len(tracer.spans)  # spans before this index belong to set-up
    if wl.warmup:
        wl.run_pass(Clock(), -1, limit=1)
    half = args.seconds / 2.0
    untraced = timed_passes(wl, half, 0)
    if args.workload == "cli":
        # children trace themselves; the parent adds one span per job afterwards
        kw = {"spans_dir": os.path.join(work, "spans")}
        os.makedirs(kw["spans_dir"])
        traced = timed_passes(wl, half, len(untraced), **kw)
    else:
        tracer.install()
        traced = timed_passes(wl, half, len(untraced), tracer=tracer)
        tracer.uninstall()
    pairs = merge_cli_spans(tracer, traced) if args.workload == "cli" else []
    blas_default_s, default_threads = baseline_default_threads(args)

    results = untraced + traced
    problems = check_passes(results)
    if args.workload == "cli":
        problems += cli_determinism(wl, results)
    _, mu_problems = mu1_digits(untraced[0].mu1)
    problems += mu_problems
    metrics = layer_metrics(tracer.spans, first, untraced, traced, pairs, blas_default_s)
    units = {k: unit_of(k) for k in metrics}

    env = environment()
    selfs = self_times(tracer.spans)
    by_operator: dict[str, dict] = {}
    for i in range(first, len(tracer.spans)):
        s = tracer.spans[i]
        if s[NAME] == "spectral.decompose":
            entry = by_operator.setdefault(f"m={s[KEY]},n={s[N]}", {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += selfs[i]
    accounted = sum(metrics[f"{layer}.self_s"] for layer in LAYERS) + sum(
        metrics[k] for k in ("cli.self_s", "cli.config_s", "cli.process_start_s", "cli.process_exit_s",
                             "bench.self_s"))
    os.makedirs(OUT, exist_ok=True)
    trace_path = os.path.join(OUT, f"trace-{args.workload}-s{args.seed}.json")
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({
            "workload": args.workload, "seed": args.seed, "env": env,
            "regime": {"blas_threads": metrics["trace.blas_threads"], "default_blas_threads": default_threads,
                       "blas_default_run_s": blas_default_s},
            "missing_targets": missing, "traced_passes": len(traced), "first_traced_span": first,
            "decompose_by_operator": by_operator, "metrics": metrics,
            "span_fields": ["name", "start", "end", "parent", "job", "error", "n", "points", "key",
                            "bytes", "verdict"],
            "spans": tracer.spans,
        }, fh)

    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced and {len(traced)} traced passes; "
          f"spans in {os.path.relpath(trace_path, ROOT)}")
    if missing:
        print(f"not wrapped (absent): {', '.join(missing)}")
    print(f"per-layer numbers: BLAS threads {metrics['trace.blas_threads']}; "
          f"run_s with the default {default_threads} BLAS threads {blas_default_s:.4f} s")
    for name in sorted(metrics):
        print(f"  {name} = {metrics[name]!r} {units[name]}")
    # means over passes here, so that the sums match the per-pass layer numbers
    traced_mean = statistics.mean(sum(r.walls) for r in traced)
    untraced_mean = statistics.mean(sum(r.walls) for r in untraced)
    gap = accounted - untraced_mean
    within = abs(gap) <= abs(traced_mean - untraced_mean) + abs(metrics["trace.unaccounted_s"]) + 1e-9
    print(f"accounting: layer self times (with cli process start/exit and harness) sum to {accounted:.4f} s "
          f"per traced pass against {untraced_mean:.4f} s per untraced pass; the difference {gap:.4f} s is "
          f"{'within' if within else 'outside'} the tracing overhead {traced_mean - untraced_mean:.4f} s")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print("correctness: " + ("ok" if not problems else f"{len(problems)} problems"))
    first_res = untraced[0]
    emit(not problems, first_res.attempted, len(first_res.failures), metrics, units)
    return 0
