"""The three benchmark workloads and their input generators.

Every input is generated here from the run's seed; the program under
test only receives the generated designs (as ``.cells`` files or the
service's JSON upload) and the generated delta streams.

A run repeats whole *rounds* of the same operations until its time is
used up, so operations attempted and failed keep the same ratio in every
run whatever its length.

* ``flex_dense``: one round is one FLEX legalization of each dense
  design plus one legalization of the tall-cell repro (a known failure).
* ``flex_sparse``: one round is one FLEX legalization of each sparse design.
* ``eco_served``: one round streams every session's ECO batches through
  one in-process server, a session at a time, over a single client
  connection in a closed loop.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

import numpy as np

import check
from tracer import Tracer, install_layers

import repro.designio as designio
from repro.benchgen import EcoSpec, generate_eco_stream
from repro.benchgen.generator import DesignSpec, generate_design
from repro.benchgen.iccad2017 import iccad2017_spec
from repro.core.config import FlexConfig
from repro.core.flex_legalizer import FlexLegalizer
from repro.designio import layout_to_dict
from repro.designio.serialize import layout_fingerprint
from repro.mgl.legalizer import MGLLegalizer
from repro.service import LegalizationServer, ServeConfig, ServiceClient, SessionConfig
from repro.service.session import offline_replay


@dataclass(frozen=True)
class Sizes:
    dense_scale: float
    dense_designs: int
    sparse_scale: float
    sparse_designs: int
    eco_cells: int
    eco_designs: int
    eco_batches: int


#: des_perf_1 at 0.5 % is 563 cells; pci_b_b_md2 at 8 % is 2313 cells.  A
#: round covers several designs so that one noise draw does not decide a run.
#: eco_served runs 16 short sessions rather than one long stream: how soon the
#: governor repacks differs a lot from stream to stream, and repacks dominate
#: the served time, so more streams per run keep runs comparable (repacks per
#: 400 batches: 24-34 over 16 x 25, 21-40 over 4 x 100).  200 cells rather
#: than 300 halve the time per repack, so a run affords more of them.
FULL = Sizes(dense_scale=0.005, dense_designs=6, sparse_scale=0.08, sparse_designs=2,
             eco_cells=150, eco_designs=24, eco_batches=25)
#: Toy sizes for the benchmark's own tests: every workload in seconds.
SMOKE = Sizes(dense_scale=0.0004, dense_designs=2, sparse_scale=0.0025, sparse_designs=2,
              eco_cells=40, eco_designs=2, eco_batches=4)

#: Seed of the k-th design's cells and packing, the same in every run.
PACKING_SEED = 1000

ECO_DENSITY = 0.6
ECO_CHURN = 0.02
#: Session knobs of eco_served: the numpy kernels and a 5 % AveDis budget.
ECO_SESSION = {"backend": "numpy", "max_avedis_drift": 0.05}

#: The tall-cell fault: FLEX leaves cell 19 (3 rows) unplaced, MGL places it.
TALL_CELL_REPRO = dict(
    name="tall_cell_repro", num_cells=30, density=0.8125, seed=30,
    height_mix={1: 0.6, 2: 0.2, 3: 0.1, 4: 0.07, 5: 0.03},
)

#: flex set-up (about 20 ms) is repeated this often per run; the median is reported.
SETUP_REPEATS = 15


class CheckFailed(Exception):
    """The program's output broke a property the benchmark checks."""


def _require(faults: List[str], what: str) -> None:
    if faults:
        shown = "; ".join(faults[:5])
        raise CheckFailed(f"{what}: {len(faults)} fault(s): {shown}")


def seeded_design(spec: DesignSpec, noise_seed: int):
    """The spec's design with its global-placement noise drawn from ``noise_seed``.

    The cells, the chip and the legal packing they are perturbed from come
    from ``spec.seed``, which the workloads keep fixed; only the noise a
    global placer would leave (same distribution as ``generate_design``)
    follows the run's seed.  Whole designs drawn per seed differ so much in
    difficulty (AveDis 1.18 to 1.62, modeled runtime 9.2 to 19.5 ms over
    three des_perf_1 seeds) that their spread over ten seeds would exceed
    the benchmark's bounds.
    """
    layout = generate_design(replace(spec, perturbation_x=0.0, perturbation_y=0.0))
    rng = np.random.default_rng(noise_seed)
    cells = layout.cells
    noise_x = rng.normal(0.0, spec.perturbation_x, size=len(cells))
    noise_y = rng.normal(0.0, spec.perturbation_y, size=len(cells))
    for cell, dx, dy in zip(cells, noise_x, noise_y):
        cell.gp_x = cell.x = float(np.clip(cell.gp_x + dx, 0.0, layout.num_sites - cell.width))
        cell.gp_y = cell.y = float(np.clip(cell.gp_y + dy, 0.0, layout.num_rows - cell.height))
    return layout


def design_hash(layout) -> str:
    digest = hashlib.sha256(
        f"{layout.num_rows}|{layout.num_sites}|{layout.site_width!r}|"
        f"{layout.row_height!r}\n".encode()
    )
    for c in layout.cells:
        digest.update(
            f"{c.width!r}|{c.height}|{c.gp_x!r}|{c.gp_y!r}|{int(c.fixed)}\n".encode()
        )
    return digest.hexdigest()[:16]


def stream_hash(batches: List[List[Dict]]) -> str:
    return hashlib.sha256(json.dumps(batches, sort_keys=True).encode()).hexdigest()[:16]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def nearest_rank(values: List[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


@dataclass
class Outcome:
    """What a workload hands back to run.py."""

    attempted: int
    failed: int
    metrics: Dict[str, float]
    layers: Dict[str, float]
    note: str


def check_legal_layout(layout, reported_avedis: float, what: str) -> float:
    """Independent legality + Eq. 2 check of a live layout; returns AveDis."""
    chip, cells = check.from_layout(layout)
    _require(check.legality_faults(chip, cells), what)
    avedis = check.average_displacement(chip, cells)
    if not check.avedis_matches(avedis, reported_avedis):
        raise CheckFailed(f"{what}: recomputed AveDis {avedis!r} != reported {reported_avedis!r}")
    return avedis


# ----------------------------------------------------------------------
# Layer metrics from tracer snapshots
# ----------------------------------------------------------------------
SELF_TIME_LAYERS = {
    "ordering.s": "ordering",
    "window_plan.s": "window_plan",
    "region_build.s": "region_build",
    "density_scan.s": "density_scan",
    "fop.s": "fop",
    "sacs.s": "sacs",
    "shift_original.s": "shift_original",
    "curve_build.s": "curve_build",
    "curve_minimize.s": "curve_minimize",
    "curve_snap.s": "curve_snap",
    "commit.s": "commit",
    "model.s": "model",
    "metrics.s": "metrics",
    "eco.validate_s": "eco.validate",
    "eco.apply_s": "eco.apply",
    "eco.subset_s": "eco.subset",
    "eco.repack_s": "eco.repack",
    "svc.frame_s": "svc.frame",
}
CALL_COUNTS = {
    "region_build.calls": "region_build",
    "density_scan.calls": "density_scan",
    "curve_build.calls": "curve_build",
}
COUNTS = (
    "window_plan.growths", "region_build.scanned", "fop.points", "fop.feasible_points",
    "sacs.calls", "sacs.cell_visits", "shift_original.calls", "curve.breakpoints",
    "commit.moved_cells", "legalize.window_retries", "legalize.fallbacks",
    "legalize.failed_cells", "model.fpga_busy_ms", "model.transfer_ms",
    "eco.dirty_cells", "eco.repacks", "svc.queue_wait_s",
)


def layer_metrics(snap: Dict[str, Dict[str, float]], wall: float) -> Dict[str, float]:
    """Per-layer metrics of one traced round (``wall`` = its traced wall time)."""
    self_s, incl_s, calls, counts = snap["self_s"], snap["incl_s"], snap["calls"], snap["counts"]
    out = {name: self_s.get(layer, 0.0) for name, layer in SELF_TIME_LAYERS.items()}
    out.update({name: float(calls.get(layer, 0)) for name, layer in CALL_COUNTS.items()})
    out.update({name: counts.get(name, 0.0) for name in COUNTS})
    builds = calls.get("region_build", 0)
    out["region.local_cells"] = counts.get("region.local_cells", 0.0) / builds if builds else 0.0
    out["svc.engine_s"] = incl_s.get("svc.engine", 0.0)
    # Whatever no reported layer owns: glue, sockets, the client, the engine's
    # own bookkeeping.
    out["other.s"] = wall - sum(out[name] for name in SELF_TIME_LAYERS)
    return out


class Rounds:
    """Round scheduling and the traced run's switch.

    An untraced run repeats rounds until its measuring time is used up
    (at least one).  A traced run does exactly two: an untraced round,
    then the same round traced; per-layer metrics come from the traced
    one and the ratio of their walls is the tracing overhead.
    """

    def __init__(self, seconds: float, trace: bool) -> None:
        self.seconds = seconds
        self.trace = trace
        self.tracer: Optional[Tracer] = None
        if trace:
            self.tracer = Tracer()
            install_layers(self.tracer)
        self.start = time.perf_counter()
        self.durations: List[float] = []
        self.untraced_walls: List[float] = []
        self.traced_wall = 0.0
        self.layers: Dict[str, float] = {}

    def __iter__(self) -> Iterator[bool]:
        """Yields whether each round is traced.

        Another untraced round starts when it would end nearer to the
        measuring time than stopping now does, so the number of rounds
        only changes where the round time crosses ``seconds / (n + 1/2)``.
        """
        if self.trace:
            for traced in (False, True):
                yield traced
            return
        while not self.durations or (
            time.perf_counter() - self.start + statistics.mean(self.durations) / 2
            <= self.seconds
        ):
            began = time.perf_counter()
            yield False
            self.durations.append(time.perf_counter() - began)

    @contextmanager
    def measured(self, traced: bool):
        """Trace the enclosed program calls when ``traced`` (nothing otherwise)."""
        if not traced:
            yield
            return
        self.tracer.active = True
        try:
            yield
        finally:
            self.tracer.active = False

    def begin_round(self, traced: bool) -> None:
        if traced:
            self.tracer.reset()

    def end_round(self, traced: bool, wall: float) -> None:
        if not traced:
            self.untraced_walls.append(wall)
            return
        self.traced_wall = wall
        self.layers = layer_metrics(self.tracer.snapshot(), wall)

    def summary(self, extra: Dict[str, float]) -> Dict[str, float]:
        if not self.trace:
            return {}
        out = dict(self.layers)
        out.update(extra)
        out["trace.overhead_pct"] = (self.traced_wall / self.untraced_walls[0] - 1.0) * 100.0
        return out


# ----------------------------------------------------------------------
# flex_dense / flex_sparse
# ----------------------------------------------------------------------
def _tall_cell_repro(legalizer: FlexLegalizer) -> bool:
    """Legalize the tall-cell repro; True when it failed (the known fault)."""
    layout = generate_design(DesignSpec(**TALL_CELL_REPRO))
    result = legalizer.legalize(layout)
    failed = result.legalization.failed_cells
    chip, cells = check.from_layout(layout)
    # Whatever the repro placed must still be legal; only the cells the
    # program reported as failed may stay unplaced.
    _require(check.legality_faults(chip, cells, allow_unplaced=failed), "tall-cell repro")
    return bool(failed)


class _TargetTimer:
    """Times each target cell's legalization (``MGLLegalizer._legalize_cell``).

    A flex "batch" is one target cell: its window plan, region build, FOP
    and commit.  A run makes only a handful of legalize calls, too few for
    a 95th percentile; it legalizes thousands of target cells.
    """

    def __init__(self) -> None:
        self.on = False
        self.samples: List[float] = []
        original = MGLLegalizer._legalize_cell

        def timed(*args, **kwargs):
            if not self.on:
                return original(*args, **kwargs)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.samples.append(time.perf_counter() - start)

        MGLLegalizer._legalize_cell = timed


def run_flex(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes,
             workdir: Path, log: Callable[[str], None]) -> Outcome:
    dense = workload == "flex_dense"
    profile, scale, count = (
        ("des_perf_1", sizes.dense_scale, sizes.dense_designs) if dense
        else ("pci_b_b_md2", sizes.sparse_scale, sizes.sparse_designs)
    )
    paths, hashes = [], []
    for k in range(count):
        spec = iccad2017_spec(profile, scale=scale, seed=PACKING_SEED + k)
        generated = seeded_design(spec, seed * 100 + k)
        path = workdir / f"{workload}-{seed}-{k}.cells"
        designio.save_cells(generated, path)
        paths.append(path)
        hashes.append(design_hash(generated))
        log(f"inputs {workload}[{k}]: profile={profile} scale={scale} "
            f"packing_seed={PACKING_SEED + k} noise_seed={seed * 100 + k} "
            f"cells={len(generated.movable_cells())} density={generated.density():.3f} "
            f"design_sha256={hashes[-1]}")

    rounds = Rounds(seconds, trace)
    targets = _TargetTimer()
    # Lazy kernel initialisation happens once per process for a user too;
    # keep it out of the timed calls.
    FlexLegalizer(FlexConfig(kernel_backend="numpy")).legalize(
        generate_design(DesignSpec(name="warmup", num_cells=24, density=0.5, seed=seed))
    )

    # Set-up: load every design file of a round and build the legalizer.
    setup, load = [], []
    for _ in range(SETUP_REPEATS):
        if trace:
            rounds.tracer.reset()
        start = time.perf_counter()
        with rounds.measured(trace):
            designs = [designio.load_cells(path) for path in paths]
            legalizer = FlexLegalizer(FlexConfig(kernel_backend="numpy"))
        setup.append(time.perf_counter() - start)
        if trace:
            load.append(rounds.tracer.snapshot()["self_s"].get("designio.load", 0.0))
    if [design_hash(d) for d in designs] != hashes:
        raise CheckFailed("a design file did not load back to the generated design")

    walls: List[float] = []
    untraced_rounds = 0
    quality: Dict[int, tuple] = {}
    attempted = failed = 0
    movable = [len(d.movable_cells()) for d in designs]
    for traced in rounds:
        rounds.begin_round(traced)
        if dense:
            attempted += 1
            failed += _tall_cell_repro(legalizer)
        round_walls = []
        for k, base in enumerate(designs):
            layout = base.copy()
            attempted += 1
            targets.on = not traced
            with rounds.measured(traced):
                start = time.perf_counter()
                result = legalizer.legalize(layout)
                wall = time.perf_counter() - start
            targets.on = False
            what = f"{workload}[{k}]"
            if not result.legalization.success:
                raise CheckFailed(f"{what}: cells {result.legalization.failed_cells} unplaced")
            avedis = check_legal_layout(layout, result.average_displacement, what)
            outputs = (avedis, result.modeled_runtime_seconds)
            if quality.setdefault(k, outputs) != outputs:
                raise CheckFailed(f"{what}: outputs differ between identical rounds")
            round_walls.append(wall)
            del layout, result  # peak memory: hold one legalization at a time
        rounds.end_round(traced, sum(round_walls))
        if not traced:
            walls.extend(round_walls)
            untraced_rounds += 1

    metrics = {
        "cells_per_s": sum(movable) * untraced_rounds / sum(walls),
        "avedis": statistics.median(q[0] for q in quality.values()),
        "modeled_runtime_ms": statistics.median(q[1] for q in quality.values()) * 1e3,
        "batch_p50_ms": statistics.median(targets.samples) * 1e3,
        "batch_p95_ms": nearest_rank(targets.samples, 0.95) * 1e3,
        "batches_per_s": len(targets.samples) / sum(targets.samples),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb(),
    }
    layers = rounds.summary({"designio.load_s": statistics.median(load) if load else 0.0,
                             "svc.overhead_ms": 0.0})
    note = (f"{workload}: {untraced_rounds} untraced round(s) of {count} design(s) "
            f"x {movable[0]} cells, {len(walls)} timed calls, "
            f"{len(targets.samples)} timed target cells, setup x{len(setup)}")
    return Outcome(attempted, failed, metrics, layers, note)


# ----------------------------------------------------------------------
# eco_served
# ----------------------------------------------------------------------
def _eco_inputs(seed: int, sizes: Sizes):
    """One (design, stream) pair per session, all drawn from the run seed."""
    inputs = []
    for k in range(sizes.eco_designs):
        spec = DesignSpec(name=f"eco_served_{k}", num_cells=sizes.eco_cells,
                          density=ECO_DENSITY, seed=PACKING_SEED)
        layout = seeded_design(spec, seed * 100 + k)
        stream = generate_eco_stream(
            layout, EcoSpec(churn=ECO_CHURN, batches=sizes.eco_batches, seed=seed * 100 + k)
        )
        raw = [[delta.to_dict() for delta in batch] for batch in stream]
        inputs.append((layout, layout_to_dict(layout), raw))
    return inputs


def _cells_legalized(reply: Dict) -> int:
    """Cells the engine (re)legalized for one batch, from its reply."""
    mode, reason = reply["mode"], reply["repack_reason"]
    if mode == "incremental":
        return reply["dirty_total"]
    if mode == "repack" and reason in ("drift", "fragmentation"):
        # The incremental pass ran, then the governor repacked everything.
        return reply["dirty_total"] + reply["num_movable"]
    if mode == "noop":
        return 0
    return reply["num_movable"]


def _check_session(layout0, raw, replies: List[Dict], final: Dict, what: str) -> float:
    """Independent checks of one served session; returns its final AveDis."""
    budget = ECO_SESSION["max_avedis_drift"]
    for i, reply in enumerate(replies):
        if not reply["success"]:
            raise CheckFailed(f"{what}: batch {i} reported success=false")
        if reply["avedis_drift"] > budget + 1e-12:
            raise CheckFailed(f"{what}: batch {i} drift {reply['avedis_drift']:.4f} over budget")
    ops = [d["op"] for batch in raw for d in batch]
    expected = len(layout0.movable_cells()) + ops.count("insert") - ops.count("delete")
    chip, cells = check.from_dict(final["layout"])
    live = sum(1 for c in cells if not c.fixed)
    if live != expected:
        raise CheckFailed(f"{what}: {live} live cells, expected {expected}")
    _require(check.legality_faults(chip, cells), what)
    avedis = check.average_displacement(chip, cells)
    if not check.avedis_matches(avedis, replies[-1]["avedis"]):
        raise CheckFailed(f"{what}: recomputed AveDis {avedis!r} != reported "
                          f"{replies[-1]['avedis']!r}")
    return avedis


def run_eco(seed: int, seconds: float, trace: bool, sizes: Sizes,
            log: Callable[[str], None]) -> Outcome:
    inputs = _eco_inputs(seed, sizes)
    for k, (layout, _, raw) in enumerate(inputs):
        log(f"inputs eco_served[{k}]: packing_seed={PACKING_SEED} "
            f"noise_and_stream_seed={seed * 100 + k} "
            f"cells={len(layout.movable_cells())} density={layout.density():.3f} "
            f"batches={len(raw)} churn={ECO_CHURN} "
            f"design_sha256={design_hash(layout)} stream_sha256={stream_hash(raw)}")

    rounds = Rounds(seconds, trace)
    # The served engine does not run the FLEX runtime model; its
    # legalization results are collected during each request and modeled
    # after the timed round trip.
    runs: List = []
    capture = Tracer()
    for name in ("legalize", "legalize_subset"):
        capture.wrap(MGLLegalizer, name, None, lambda t, result, args: runs.append(result))
    model = FlexLegalizer(FlexConfig(kernel_backend="numpy"))

    setup: List[float] = []
    latencies: List[float] = []
    modeled: List[float] = []
    stream_wall = cells = 0.0
    results: Dict[int, float] = {}
    served_first = None  # (design, close reply) of the traced round's first session
    attempted = failed = 0
    for traced in rounds:
        rounds.begin_round(traced)
        round_wall = 0.0
        server = client = None
        try:
            for k, (layout0, design, raw) in enumerate(inputs):
                # Set-up: start the server (first session) and open the session,
                # which uploads the design and legalizes it.
                start = time.perf_counter()
                if server is None:
                    server = LegalizationServer(ServeConfig(port=0)).start()
                    client = ServiceClient(*server.address)
                handle = client.open_session(design, config=ECO_SESSION)
                setup.append(time.perf_counter() - start)
                replies = []
                for batch in raw:
                    attempted += 1
                    capture.active = True
                    with rounds.measured(traced):
                        start = time.perf_counter()
                        reply = handle.apply(batch)
                        elapsed = time.perf_counter() - start
                    capture.active = False
                    replies.append(reply)
                    failed += not reply["success"]
                    round_wall += elapsed
                    if not traced:
                        latencies.append(elapsed)
                        cells += _cells_legalized(reply)
                        modeled.append(sum(model.model_run(run).modeled_runtime_seconds
                                           for run in runs))
                    runs.clear()
                final = handle.close(return_layout=True)
                avedis = _check_session(layout0, raw, replies, final, f"eco_served[{k}]")
                if results.setdefault(k, avedis) != avedis:
                    raise CheckFailed(f"eco_served[{k}]: final AveDis differs between rounds")
                if traced and k == 0:
                    served_first = (design, final)
        finally:
            if client is not None:
                client.close()
            if server is not None:
                server.close()
        rounds.end_round(traced, round_wall)
        if traced:
            submits = rounds.tracer.snapshot()["incl_s"].get("svc.submit", 0.0)
            rounds.layers["svc.overhead_ms"] = (
                (round_wall - submits) / (len(inputs) * sizes.eco_batches) * 1e3
            )
        else:
            stream_wall += round_wall

    if served_first is not None:
        # The service's exactness contract: an offline replay of the served
        # ledger reproduces the served layout bit for bit.
        design, final = served_first
        replayed = offline_replay(design, final["ledger"], SessionConfig(**ECO_SESSION))
        if layout_fingerprint(replayed) != final["fingerprint"]:
            raise CheckFailed("eco_served[0]: offline replay differs from the served layout")
    untraced_rounds = len(rounds.untraced_walls)
    metrics = {
        "cells_per_s": cells / stream_wall,
        "avedis": statistics.mean(results.values()),
        "modeled_runtime_ms": statistics.median(modeled) * 1e3,
        "batch_p50_ms": statistics.median(latencies) * 1e3,
        "batch_p95_ms": nearest_rank(latencies, 0.95) * 1e3,
        "batches_per_s": len(latencies) / stream_wall,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb(),
    }
    layers = rounds.summary({"designio.load_s": 0.0})
    note = (f"eco_served: {untraced_rounds} untraced round(s) of {len(inputs)} sessions x "
            f"{sizes.eco_batches} batches ({len(latencies)} timed batches), "
            f"setup x{len(setup)}")
    return Outcome(attempted, failed, metrics, layers, note)
