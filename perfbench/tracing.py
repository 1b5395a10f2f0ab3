"""Per-layer tracing, attached from outside the program.

:class:`Tracer` keeps spans in memory: each records its name, start, end, the
span that caused it and the campaign cell it belongs to (by fingerprint).  A
span's self time is its duration minus the part of it covered by its child
spans.  Calls that happen hundreds of thousands of times per pass (RNG
streams, handlers, payload sizing) are aggregated into per-layer totals and
into their parent's child intervals instead of being kept one by one.

:func:`install` wraps the public functions of each measured layer -- in the
defining module and wherever another module bound the same function object
with ``from ... import`` -- and restores every original on exit.  Nothing
under ``src/`` changes.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from measure import self_time


class Tracer:
    """In-memory span recorder with per-layer call, busy and self time."""

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self.clock = clock
        self.spans: List[Dict[str, object]] = []
        self.layers: Dict[str, List[float]] = {}  # layer -> [calls, busy_s, self_s]
        self.counts: Dict[str, float] = {}
        self._stack: List[list] = []
        self._open: Dict[str, int] = {}

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def call(self, layer: str, record: bool, cell: Optional[str],
             fn: Callable, args: tuple, kwargs: dict):
        """Run ``fn`` inside a span of ``layer`` (re-entry runs it bare)."""
        if self._open.get(layer):
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else None
        if cell is None and parent is not None:
            cell = parent[4]
        # frame: layer, start, child intervals, span id, cell, parent span id
        frame = [layer, 0.0, [], len(self.spans) if record else None, cell,
                 parent[3] if parent is not None else None]
        if record:
            self.spans.append({})
        self._open[layer] = 1
        self._stack.append(frame)
        frame[1] = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            self._stack.pop()
            self._open[layer] = 0
            start = frame[1]
            own = self_time(start, end, frame[2])
            stats = self.layers.setdefault(layer, [0, 0.0, 0.0])
            stats[0] += 1
            stats[1] += end - start
            stats[2] += own
            if parent is not None:
                parent[2].append((start, end))
            if record:
                self.spans[frame[3]] = {
                    "id": frame[3], "name": layer, "parent": frame[5],
                    "cell": cell, "start": start, "end": end, "self_s": own,
                }

    def calls(self, layer: str) -> float:
        return self.layers.get(layer, (0, 0.0, 0.0))[0]

    def busy_s(self, layer: str) -> float:
        return self.layers.get(layer, (0, 0.0, 0.0))[1]

    def self_s(self, layer: str) -> float:
        return self.layers.get(layer, (0, 0.0, 0.0))[2]

    def write(self, path: Path, header: Dict[str, object]) -> None:
        """Write the header, per-layer totals and every kept span as JSONL."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            handle.write(json.dumps({"header": header}) + "\n")
            for layer, (calls, busy, own) in sorted(self.layers.items()):
                handle.write(json.dumps({"layer": layer, "calls": calls,
                                         "busy_s": busy, "self_s": own}) + "\n")
            for name, value in sorted(self.counts.items()):
                handle.write(json.dumps({"count": name, "value": value}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def traced(tracer: Tracer, layer: str, fn: Callable, record: bool = False,
           cell_of: Optional[Callable[[tuple], Optional[str]]] = None,
           after: Optional[Callable[[tuple, object], None]] = None) -> Callable:
    """``fn`` wrapped in a span of ``layer``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        cell = cell_of(args) if cell_of is not None else None
        result = tracer.call(layer, record, cell, fn, args, kwargs)
        if after is not None:
            after(args, result)
        return result

    return wrapper


# ------------------------------------------------------------ layer patching
def _payload_cell(args: tuple) -> Optional[str]:
    from repro.faas.campaign import CampaignJob

    return CampaignJob.from_dict(args[0]).fingerprint()


def _job_cell(args: tuple) -> Optional[str]:
    return args[1].fingerprint() if len(args) > 1 else None


#: (layer, module, attribute or "Class.method", keep each span, cell of args)
LAYER_TARGETS: Tuple[Tuple[str, str, str, bool, Optional[Callable]], ...] = (
    ("analysis.artifacts.render", "repro.analysis.artifacts", "render_plan", True, None),
    ("analysis.artifacts.render", "repro.analysis.artifacts", "render_artifact", True, None),
    ("sim.engine.run", "repro.sim.engine", "Environment.run", True, None),
    ("sim.rng.stream", "repro.sim.rng", "named_stream", False, None),
    ("sim.rng.stream", "repro.sim.rng", "RandomStreams.stream", False, None),
    ("sim.rng.stream", "repro.sim.rng", "RandomStreams.uniform", False, None),
    ("sim.rng.stream", "repro.sim.rng", "RandomStreams.lognormal_around", False, None),
    ("sim.rng.stream", "repro.sim.rng", "RandomStreams.exponential", False, None),
    ("sim.rng.stream", "repro.sim.rng", "RandomStreams.choice_bool", False, None),
    ("sim.rng.stream", "repro.sim.rng", "RandomStreams.integers", False, None),
    ("sim.noise.detour", "repro.sim.noise", "NoiseModel.sample_detour_trace", True, None),
    ("sim.orchestration.payload_size", "repro.sim.orchestration.events",
     "payload_size_bytes", False, None),
    ("faas.experiment.repetition", "repro.faas.experiment",
     "ExperimentRunner.run_repetition", True, None),
    ("core.critical_path", "repro.core.critical_path",
     "WorkflowMeasurement.critical_path", False, None),
    ("faas.metrics.reduce", "repro.faas.metrics", "summarize", False, None),
    ("faas.metrics.reduce", "repro.faas.metrics", "container_scaling_profile", False, None),
    ("faas.metrics.reduce", "repro.faas.metrics", "open_loop_summary", False, None),
    ("faas.metrics.reduce", "repro.faas.metrics",
     "open_loop_summary_over_repetitions", False, None),
    ("faas.metrics.reduce", "repro.faas.metrics", "split_warm_cold", False, None),
    ("faas.metrics.reduce", "repro.faas.metrics", "distinct_containers", False, None),
    ("faas.results.encode", "repro.faas.results", "result_to_dict", True, None),
    ("faas.results.decode", "repro.faas.results", "result_from_dict", True, None),
    ("faas.campaign", "repro.faas.campaign", "run_campaign", True, None),
    ("faas.campaign", "repro.faas.campaign", "run_cells", True, None),
    ("faas.campaign", "repro.faas.campaign", "scan_cache_fingerprints", True, None),
    ("faas.campaign", "repro.faas.campaign", "_load_cached_document", True, _job_cell),
    ("faas.campaign", "repro.faas.campaign", "_load_cached", True, _job_cell),
    ("faas.campaign", "repro.faas.campaign", "_store_cached", True, _job_cell),
    ("faas.campaign.cell", "repro.faas.campaign", "_execute_job", True, _payload_cell),
    ("faas.grid.worker", "repro.faas.grid", "run_grid_worker", True, None),
    ("faas.grid.merge", "repro.faas.grid", "merge_run", True, None),
)

#: FileBackend operations counted as ``faas.backends.ops``.
BACKEND_OPS = ("claim", "renew", "mark_done", "release", "active", "read_lease",
               "append_record", "iter_records", "read_manifest", "write_manifest")


class _Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def set(self, owner: object, name: str, value: object) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def undo(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


def _patch_function(patches: _Patches, module_name: str, name: str,
                    wrapper_of: Callable[[Callable], Callable]) -> None:
    """Replace a module function everywhere ``repro`` modules bound it."""
    original = getattr(importlib.import_module(module_name), name)
    wrapper = wrapper_of(original)
    for module_key, module in list(sys.modules.items()):
        if module_key == "repro" or module_key.startswith("repro."):
            if getattr(module, "__dict__", {}).get(name) is original:
                patches.set(module, name, wrapper)


def _handler_wrapping_factory(tracer: Tracer, original: Callable) -> Callable:
    """``get_benchmark`` whose benchmarks' handlers run in handler spans."""

    @functools.wraps(original)
    def get_benchmark(*args, **kwargs):
        benchmark = original(*args, **kwargs)
        benchmark.functions = {
            name: replace(spec, handler=traced(tracer, "benchmarks.handler", spec.handler))
            for name, spec in benchmark.functions.items()
        }
        return benchmark

    return get_benchmark


@contextlib.contextmanager
def install(tracer: Tracer) -> Iterator[None]:
    """Wrap every measured layer for the duration of the block."""
    from repro.faas import campaign
    from repro.faas.backends.file import FileBackend

    patches = _Patches()
    # Benchmarks built before tracing hold unwrapped handlers; drop the
    # per-process memo so the traced block builds (and wraps) its own.
    campaign._BENCHMARK_MEMO.clear()
    try:
        for layer, module_name, attribute, record, cell_of in LAYER_TARGETS:
            owner_name, _, method = attribute.rpartition(".")
            if owner_name:
                owner = getattr(importlib.import_module(module_name), owner_name)
                patches.set(owner, method, traced(
                    tracer, layer, owner.__dict__[method], record, cell_of))
            else:
                _patch_function(patches, module_name, attribute,
                                lambda fn, layer=layer, record=record, cell_of=cell_of:
                                traced(tracer, layer, fn, record, cell_of))
        _patch_function(patches, "repro.benchmarks.registry", "get_benchmark",
                        lambda fn: _handler_wrapping_factory(tracer, fn))

        def after_op(op: str) -> Callable[[tuple, object], None]:
            def count(args: tuple, result: object) -> None:
                tracer.count("faas.backends.ops")
                if op == "claim" and result is False:
                    tracer.count("faas.backends.claim_conflicts")
            return count

        for op in BACKEND_OPS:
            patches.set(FileBackend, op, traced(
                tracer, "faas.backends", FileBackend.__dict__[op], after=after_op(op)))
        yield
    finally:
        patches.undo()
        campaign._BENCHMARK_MEMO.clear()
