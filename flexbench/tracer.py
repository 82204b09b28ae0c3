"""Outside-in layer tracing: timed wrappers around the program's public functions.

Each wrapper replaces a function at the name its caller looks it up
(a module attribute or a class attribute), so the program itself is not
edited.  A wrapped call records its inclusive time, and its *self* time:
the inclusive time minus the time spent in wrapped calls it made.  Self
times of all layers plus the unwrapped remainder add up to the wall time
of the traced work.  Nesting is tracked per thread, since the service
runs each connection on its own thread.

Wrappers stay installed for the life of the process (objects built while
tracing hold wrapped functions) and record only while :attr:`active`;
every benchmark run is a process of its own.
"""

from __future__ import annotations

import functools
import threading
import time
import types
from collections import defaultdict
from typing import Any, Callable, Dict, Optional

#: ``hook(tracer, result, args)`` after a call; ``before(tracer, args)`` ahead of it.
CountHook = Callable[["Tracer", Any, tuple], None]
BeforeHook = Callable[["Tracer", tuple], None]


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.self_s: Dict[str, float] = defaultdict(float)
            self.incl_s: Dict[str, float] = defaultdict(float)
            self.calls: Dict[str, int] = defaultdict(int)
            self.counts: Dict[str, float] = defaultdict(float)

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] += value

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "incl_s": dict(self.incl_s),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
            }

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner: Any, attr: str, layer: Optional[str],
             count: Optional[CountHook] = None, *,
             before: Optional[BeforeHook] = None) -> None:
        """Wrap ``owner.attr``; ``layer=None`` records counts but no time."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            if before is not None:
                before(tracer, args)
            if layer is None:
                result = original(*args, **kwargs)
            else:
                stack = tracer._stack()
                frame = [0.0]
                stack.append(frame)
                start = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - start
                    stack.pop()
                    if stack:
                        stack[-1][0] += elapsed
                    with tracer._lock:
                        tracer.self_s[layer] += elapsed - frame[0]
                        tracer.incl_s[layer] += elapsed
                        tracer.calls[layer] += 1
            if count is not None:
                count(tracer, result, args)
            return result

        setattr(owner, attr, wrapper)


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer the benchmark reports, at the names callers use."""
    import json

    import repro.designio
    import repro.incremental.engine as engine_mod
    import repro.mgl.legalizer as legalizer_mod
    import repro.service.protocol as protocol_mod
    from repro.core.flex_legalizer import FlexLegalizer
    from repro.core.ordering import SlidingWindowOrdering
    from repro.core.sacs import SortAheadShifter
    from repro.geometry.layout import Layout
    from repro.incremental.engine import IncrementalLegalizer
    from repro.kernels.numpy_backend import NumpyKernelBackend
    from repro.legality.metrics import PlacementMetrics
    from repro.mgl.legalizer import MGLLegalizer
    from repro.mgl.local_region import RegionBuilder
    from repro.mgl.shifting import OriginalShifter
    from repro.service.session import Session

    def window_growths(t, result, args):
        t.add("window_plan.growths", result[1])

    def region_counts(t, result, args):
        region, scanned = result
        t.add("region_build.scanned", scanned)
        t.add("region.local_cells", len(region.local_cells))

    def fop_points(t, result, args):
        t.add("fop.points", result.n_points_evaluated)
        t.add("fop.feasible_points", result.n_points_feasible)

    def sacs_shift(t, result, args):
        t.add("sacs.calls", 1)
        t.add("sacs.cell_visits", result.cell_visits)

    def original_shift(t, result, args):
        t.add("shift_original.calls", 1)

    def breakpoints(t, result, args):
        t.add("curve.breakpoints", sum(e.n_breakpoints for e in result))

    def moved(t, result, args):
        t.add("commit.moved_cells", result or 0)

    def retry_ladder(t, result, args):
        trace = result.trace
        t.add("legalize.window_retries", trace.retries_total)
        t.add("legalize.fallbacks", trace.fallback_targets)
        t.add("legalize.failed_cells", len(result.failed_cells))

    def model_outputs(t, result, args):
        t.add("model.fpga_busy_ms", result.timeline.fpga_busy * 1e3)
        t.add("model.transfer_ms", result.timeline.visible_transfer * 1e3)

    def eco_stats(t, result, args):
        t.add("eco.dirty_cells", result.stats.dirty_total)
        t.add("eco.repacks", 1 if result.stats.repack_reason else 0)

    def queue_wait(t, args):
        item = args[1]
        if item.kind == "batch":
            t.add("svc.queue_wait_s", time.perf_counter() - item.enqueued_at)

    wrap = tracer.wrap
    wrap(repro.designio, "load_cells", "designio.load")
    wrap(SlidingWindowOrdering, "__call__", "ordering")
    # MGLLegalizer binds its default ordering at construction time.
    wrap(legalizer_mod, "size_descending_order", "ordering")
    wrap(legalizer_mod, "plan_initial_window", "window_plan", window_growths)
    wrap(RegionBuilder, "build", "region_build", region_counts)
    wrap(Layout, "window_density", "density_scan")
    wrap(legalizer_mod, "find_optimal_position", "fop", fop_points)
    wrap(SortAheadShifter, "prepare", "sacs")
    wrap(SortAheadShifter, "shift", "sacs", sacs_shift)
    wrap(OriginalShifter, "prepare", "shift_original")
    wrap(OriginalShifter, "shift", "shift_original", original_shift)
    wrap(NumpyKernelBackend, "build_curves", "curve_build")
    # FOP scores a region's points through the batch entry points; their
    # per-curve fallbacks (minimize / evaluate) run inside them.
    wrap(NumpyKernelBackend, "minimize_batch", "curve_minimize", breakpoints)
    wrap(NumpyKernelBackend, "evaluate_batch", "curve_snap")
    wrap(legalizer_mod, "commit_placement", "commit", moved)
    wrap(MGLLegalizer, "legalize", None, retry_ladder)
    wrap(MGLLegalizer, "legalize_subset", "eco.subset", retry_ladder)
    wrap(FlexLegalizer, "model_run", "model", model_outputs)
    wrap(PlacementMetrics, "compute", "metrics")
    wrap(engine_mod, "validate_deltas", "eco.validate")
    wrap(engine_mod, "apply_deltas", "eco.apply")
    wrap(IncrementalLegalizer, "_repack", "eco.repack")
    wrap(IncrementalLegalizer, "apply", "svc.engine", eco_stats)
    wrap(Session, "submit", "svc.submit")
    wrap(Session, "_apply_one", None, before=queue_wait)
    # Frame encode/decode: protocol.py looks up json.dumps / json.loads
    # through its module-level ``json`` name.
    codec = types.SimpleNamespace(
        dumps=json.dumps, loads=json.loads, JSONDecodeError=json.JSONDecodeError
    )
    wrap(codec, "dumps", "svc.frame")
    wrap(codec, "loads", "svc.frame")
    protocol_mod.json = codec
