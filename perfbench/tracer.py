"""Span tracing of heatgauss layers by wrapping public functions from outside.

Nothing in ``src/`` knows about tracing. ``Tracer.install`` replaces each
target function in every loaded ``heatgauss`` module namespace (and in
module-level dicts such as ``cli.RUNNERS``) with a wrapper that records a
span: name, start, end, parent span, job id, error class and a few
work-size fields. ``Tracer.uninstall`` puts the originals back. Spans stay in
memory until the run ends.

A layer's self time is a span's duration minus the durations of its direct
children; there is one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

# (module, attribute path, span name). Span names are "<layer>.<group>".
TARGETS = [
    ("heatgauss.assembly", "assemble_form", "assembly.assemble"),
    ("heatgauss.assembly", "measure_ellipticity", "assembly.ellipticity"),
    ("heatgauss.assembly", "load_coefficients_csv", "assembly.load_csv"),
    ("heatgauss.spectral", "SpectralDecomposition.from_form", "spectral.decompose"),
    ("heatgauss.spectral", "SpectralDecomposition.operator_matrix", "spectral.operator_matrix"),
    ("heatgauss.spectral", "HeatKernelEvaluator.matrix", "spectral.kernel_matrix"),
    ("heatgauss.spectral", "evolved_form_bound_check", "spectral.evolved_form_check"),
    ("heatgauss.bounds", "fit_envelope_constants", "bounds.fit_envelope"),
    ("heatgauss.bounds", "envelope_sup_ratio", "bounds.sup_ratio"),
    ("heatgauss.bounds", "envelope_eval", "bounds.envelope_eval"),
    ("heatgauss.bounds", "sobolev_pointwise_check", "bounds.sobolev"),
    ("heatgauss.bounds", "longtime_rate", "bounds.longtime"),
    ("heatgauss.twist", "twisted_semigroup_norm_fit", "twist.norm_fit"),
    ("heatgauss.twist", "mixed_norm_bound_fit", "twist.norm_fit"),
    ("heatgauss.twist", "evolved_twisted_form_check", "twist.evolved_form"),
    ("heatgauss.twist", "per_lambda", "twist.per_lambda"),
    ("heatgauss.twist", "sector_shift_search", "twist.sector"),
    ("heatgauss.twist", "numerical_range_sector", "twist.sector"),
    ("heatgauss.twist", "sector_samples", "twist.sector"),
    ("heatgauss.twist", "appendix_b_identities", "twist.appendix_b"),
    ("heatgauss.twist", "twisted_kernel", "twist.kernel"),
    ("heatgauss.inequalities", "check_basic", "inequalities.sweep"),
    ("heatgauss.inequalities", "check_bond", "inequalities.sweep"),
    ("heatgauss.inequalities", "check_main", "inequalities.sweep"),
    ("heatgauss.inequalities", "check_epsilon", "inequalities.sweep"),
    ("heatgauss.inequalities", "check_stephen", "inequalities.sweep"),
    ("heatgauss.inequalities", "gtilde_majorant", "inequalities.sweep"),
    ("heatgauss.reporting", "write_csv", "reporting.write"),
    ("heatgauss.reporting", "write_report_rows", "reporting.write"),
    ("heatgauss.reporting", "line_plot_svg", "reporting.write"),
    ("heatgauss.reporting", "ratio_table_svg", "reporting.write"),
    ("heatgauss.config", "load_run_config", "cli.config"),
    ("heatgauss.cli", "run_spectrum", "cli.run"),
    ("heatgauss.cli", "run_kernel", "cli.run"),
    ("heatgauss.cli", "run_verify_bounds", "cli.run"),
    ("heatgauss.cli", "run_verify_twist", "cli.run"),
    ("heatgauss.cli", "run_verify_inequalities", "cli.run"),
    ("heatgauss.cli", "run_report", "cli.run"),
    ("heatgauss.cli", "sample_functions", "cli.run"),
]

# span fields
NAME, START, END, PARENT, JOB, ERROR, N, POINTS, KEY, BYTES, VERDICT = range(11)
FILE_WRITERS = {"write_csv", "line_plot_svg", "ratio_table_svg"}


def _dense_n(args):
    """Grid size of the decomposition a spectral method was called on."""
    obj = args[0]
    d = getattr(obj, "decomposition", obj)
    return d.eigenvectors.shape[0]


def _grid_points(args, kwargs):
    """Points in the SearchGrid argument of an inequality sweep."""
    for a in list(args) + list(kwargs.values()):
        axes = getattr(a, "axes", None)
        if isinstance(axes, dict):
            total = 1
            for axis in axes.values():
                total *= len(axis)
            return total
    return 0


def _failing_verdict(result) -> bool:
    """True when a call returned a verdict that says the check failed."""
    if getattr(result, "passed", True) is False:
        return True
    if isinstance(result, dict) and result.get("ok") is False:
        return True
    # numerical_range_sector returns (max angle, violations)
    return isinstance(result, tuple) and len(result) == 2 and isinstance(result[1], list) and bool(result[1])


class Tracer:
    """Records spans of wrapped heatgauss calls in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = None
        self._patches: list[tuple] = []
        self._error_type = Exception

    # -- spans -----------------------------------------------------------
    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.job, None, 0, 0, None, 0, None])
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][END] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, fn, span_name: str, attr: str):
        tracer = self
        leaf = attr.rsplit(".", 1)[-1]
        spectral_dense = span_name in ("spectral.kernel_matrix", "spectral.operator_matrix")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer.open(span_name)
            span = tracer.spans[sid]
            try:
                if spectral_dense:
                    span[N] = _dense_n(args)
                    if span_name == "spectral.kernel_matrix":
                        t = args[1] if len(args) > 1 else kwargs["t"]
                        span[KEY] = (id(args[0].decomposition), float(t))
                elif span_name == "spectral.decompose":
                    form = args[1] if len(args) > 1 else kwargs["form"]  # args[0] is the class
                    span[N] = form.grid.n_interior
                    span[KEY] = form.m
                elif span_name == "inequalities.sweep":
                    span[POINTS] = _grid_points(args, kwargs)
                result = fn(*args, **kwargs)
                if _failing_verdict(result):
                    span[VERDICT] = "fail"
                if leaf in FILE_WRITERS:
                    path = args[0] if args else kwargs["path"]
                    span[BYTES] = os.path.getsize(path)
                return result
            except BaseException as exc:
                span[ERROR] = "heatgauss" if isinstance(exc, tracer._error_type) else type(exc).__name__
                raise
            finally:
                tracer.close(sid)

        return wrapper

    # -- install / uninstall --------------------------------------------
    def install(self) -> list[str]:
        """Wrap every target that exists; returns the targets not found."""
        from heatgauss.errors import HeatGaussError

        self._error_type = HeatGaussError
        missing = []
        replaced = {}
        for module_name, attr, span_name in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = owner.__dict__.get(leaf) if owner is not None else None
            if raw is None:
                missing.append(f"{module_name}.{attr}")
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, span_name, attr))
                setattr(owner, leaf, wrapped)
                self._patches.append((owner, leaf, raw))
            elif owner_name:
                setattr(owner, leaf, self._wrap(raw, span_name, attr))
                self._patches.append((owner, leaf, raw))
            else:
                replaced[id(raw)] = (raw, self._wrap(raw, span_name, attr))
        # a function imported by name lives on in other modules and in dicts
        modules = [m for name, m in sys.modules.items() if name == "heatgauss" or name.startswith("heatgauss.")]
        for module in modules:
            for key, value in list(vars(module).items()):
                if id(value) in replaced and replaced[id(value)][0] is value:
                    setattr(module, key, replaced[id(value)][1])
                    self._patches.append((module, key, value))
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in replaced and replaced[id(v)][0] is v:
                            value[k] = replaced[id(v)][1]
                            self._patches.append((value, k, v))
        return missing

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()


def self_times(spans: list[list]) -> list[float]:
    """Self time of every span: duration minus its direct children's durations."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def layer_failures(spans: list[list], layer: str, first: int = 0) -> int:
    """Calls into a layer, among spans[first:], that raised a heatgauss error
    or returned a failing verdict.

    Counted at the layer boundary only (the caller is in another layer), so
    one failure propagating through nested calls of the layer counts once.
    """
    count = 0
    for s in spans[first:]:
        if not s[NAME].startswith(layer + "."):
            continue
        parent = spans[s[PARENT]][NAME] if s[PARENT] is not None else ""
        if parent.startswith(layer + "."):
            continue
        count += s[ERROR] == "heatgauss" or s[VERDICT] == "fail"
    return count
