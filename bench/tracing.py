"""In-process tracing of the retrialsi layers, from outside the package.

A :class:`Tracer` replaces public functions of ``cli``, ``generator``,
``laplace``, ``inversion`` and ``transient`` with wrappers that record a span
(name, start, end, parent) per call and a few counts, and puts the originals
back on :meth:`Tracer.uninstall`.  A target that no longer exists is reported
as missing with a reason instead of stopping the run.  Standard library only,
so importing this module does not load numpy.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import weakref
from fractions import Fraction

ILT_SPAN = "inversion.transient_via_ilt"

# (module, attribute path, span name); ResolventSystem.solve is split below.
TARGETS = (
    ("retrialsi.cli", "load_scenario", "cli.load_scenario"),
    ("retrialsi.generator", "build_generator", "generator.build_generator"),
    ("retrialsi.laplace", "assemble_resolvent", "laplace.assemble_resolvent"),
    ("retrialsi.laplace", "ResolventSystem.solve", None),
    ("retrialsi.laplace", "ResolventSystem.solve_refined", "laplace.solve_refined"),
    ("retrialsi.laplace", "stationary_nullspace", "laplace.stationary_nullspace"),
    ("retrialsi.laplace", "stationary_fvt", "laplace.stationary_fvt"),
    ("retrialsi.inversion", "transient_via_ilt", ILT_SPAN),
    ("retrialsi.transient", "uniformize", "transient.uniformize"),
    ("retrialsi.transient", "monte_carlo_estimate", "transient.monte_carlo_estimate"),
)
# per-layer counts taken by the _after_<attr> hooks
COUNTS_OF = {
    "build_generator": ("generator.nnz",),
    "transient_via_ilt": ("inversion.distinct_abscissa_ratio", "inversion.band_excursion_max",
                          "inversion.raw_sum_deviation_max"),
    "uniformize": ("transient.uniformization_steps",),
}
FIRST_SOLVE = "laplace.first_solve"
CACHED_SOLVE = "laplace.cached_solve"

# spans whose total self time is a per-layer metric, reported as "<span>_s"
TIME_METRICS = (
    "cli.import", "cli.load_scenario", "generator.build_generator",
    "laplace.assemble_resolvent", FIRST_SOLVE, CACHED_SOLVE, "laplace.solve_refined",
    "laplace.stationary_nullspace", "laplace.stationary_fvt", ILT_SPAN,
    "transient.uniformize", "transient.monte_carlo_estimate",
)


class Tracer:
    """Spans and counts of one traced run.  Spans are kept in memory as
    ``[name, start, end, parent_index, error]``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self.missing: dict[str, str] = {}
        self.nnz = 0
        self.uniformization_steps = 0.0
        self.band_excursion_max = None
        self.raw_sum_deviation_max = None
        self.ilt_systems = 0      # resolvent systems assembled inside transient_via_ilt
        self.ilt_abscissae = 0    # distinct abscissae those calls needed
        self._solved = weakref.WeakSet()
        self._exit_rate = weakref.WeakKeyDictionary()

    # --- spans ----------------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, index, error=None):
        self.spans[index][2] = time.perf_counter()
        self.spans[index][4] = error
        self._stack.pop()

    def record(self, name, start, end):
        """Add a finished span at the top level."""
        self.spans.append([name, start, end, None, None])

    def call(self, name, fn, *args, **kwargs):
        index = self._open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self._close(index, type(exc).__name__)
            raise
        self._close(index)
        return result

    def enclosing(self, name):
        """Index of the innermost open span called ``name``, or None."""
        for index in reversed(self._stack):
            if self.spans[index][0] == name:
                return index
        return None

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus direct children's durations."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals: dict[str, float] = {}
        for k, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start) - child[k]
        return totals

    # --- wrapping -------------------------------------------------------------

    def install(self):
        for module_name, path, span in TARGETS:
            owner = sys.modules.get(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing[span or FIRST_SOLVE] = f"{module_name}.{path} not found"
                if span is None:
                    self.missing[CACHED_SOLVE] = self.missing[FIRST_SOLVE]
                continue
            wrapper = self._wrapper(original, span, attr)
            if outer:  # a method: replace it on its class
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            # a function: replace every module-level reference under retrialsi
            for name, module in list(sys.modules.items()):
                if name.split(".")[0] == "retrialsi" and getattr(module, attr, None) is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrapper(self, fn, span, attr):
        if span is None:  # ResolventSystem.solve: the first call on a system factorizes
            @functools.wraps(fn)
            def solve(system, *args, **kwargs):
                name = CACHED_SOLVE if system in self._solved else FIRST_SOLVE
                self._solved.add(system)
                return self.call(name, fn, system, *args, **kwargs)
            return solve

        before = getattr(self, f"_before_{attr}", None)
        after = getattr(self, f"_after_{attr}", None)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before()
            result = self.call(span, fn, *args, **kwargs)
            if after is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    after(bound.arguments, result)
                except (AttributeError, KeyError, TypeError) as exc:  # a changed signature or result
                    for metric in COUNTS_OF[attr]:
                        self.missing.setdefault(metric, f"counting after {attr} failed: {exc!r}")
            return result
        return wrapper

    # --- counts, taken outside the spans ---------------------------------------

    def _before_assemble_resolvent(self):
        if self.enclosing(ILT_SPAN) is not None:
            self.ilt_systems += 1

    def _after_build_generator(self, args, gen):
        self.nnz += int(gen.matrix.nnz)

    def _after_transient_via_ilt(self, args, solution):
        # abscissae k ln2 / t, k = 1..K, compared exactly as the rationals k / t
        order = int(args["order"])
        self.ilt_abscissae += len({Fraction(k) / Fraction(float(t))
                                   for t in args["times"] for k in range(1, order + 1)})
        meta = solution.metadata
        band = max(meta.get("band_excursion", []), default=None)
        raw = max((abs(d) for d in meta.get("raw_sum_deviation", [])), default=None)
        if band is not None:
            self.band_excursion_max = max(band, self.band_excursion_max or 0.0)
        if raw is not None:
            self.raw_sum_deviation_max = max(raw, self.raw_sum_deviation_max or 0.0)

    def _after_uniformize(self, args, vector):
        gen = args["gen"]
        if gen not in self._exit_rate:
            self._exit_rate[gen] = float(gen.exit_rates().max())
        self.uniformization_steps += self._exit_rate[gen] * float(args["t"])

    # --- results ----------------------------------------------------------------

    def per_layer(self, traced_wall: float) -> tuple[dict, dict]:
        """(metrics, reasons): every per-layer metric, and why any is missing.

        A missing metric is reported as 0 together with its reason.
        """
        reasons = dict(self.missing)
        totals = self.self_times()
        metrics = {}
        for name in TIME_METRICS:
            metrics[f"{name}_s"] = (totals.get(name, 0.0), "s")
            if name in reasons:
                reasons[f"{name}_s"] = reasons.pop(name)
            elif name not in totals:
                reasons[f"{name}_s"] = "not called on this workload"

        systems = self.ilt_systems
        metrics["inversion.resolvent_systems"] = (systems, "count")
        metrics["inversion.distinct_abscissa_ratio"] = (
            self.ilt_abscissae / systems if systems else 0.0, "ratio")
        if not systems:
            reasons["inversion.distinct_abscissa_ratio"] = (
                "no resolvent system was assembled inside transient_via_ilt")
        metrics["generator.nnz"] = (self.nnz, "count")
        metrics["inversion.band_excursion_max"] = (self.band_excursion_max or 0.0, "abs")
        metrics["inversion.raw_sum_deviation_max"] = (self.raw_sum_deviation_max or 0.0, "abs")
        if self.band_excursion_max is None:
            reason = "no transient_via_ilt call returned band_excursion/raw_sum_deviation metadata"
            reasons["inversion.band_excursion_max"] = reason
            reasons["inversion.raw_sum_deviation_max"] = reason
        metrics["transient.uniformization_steps"] = (self.uniformization_steps, "count")
        for dependent, target in (("generator.nnz", "generator.build_generator"),
                                  ("inversion.resolvent_systems", "laplace.assemble_resolvent"),
                                  ("transient.uniformization_steps", "transient.uniformize")):
            if f"{target}_s" in reasons:
                reasons[dependent] = reasons[f"{target}_s"]
        metrics["trace.overhead_share"] = (
            len(self.spans) * span_cost() / traced_wall if traced_wall > 0 else 0.0, "ratio")
        return metrics, reasons


def span_cost(calls: int = 20000) -> float:
    """Seconds a traced call costs over a plain one, measured on a no-op."""
    def noop():
        return None

    traced_noop = Tracer()._wrapper(noop, "calibration", "noop")
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    plain = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        traced_noop()
    traced = time.perf_counter() - start
    return max(traced - plain, 0.0) / calls
