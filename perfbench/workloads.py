"""The benchmark's workloads, driven through the program's public entry points.

Each workload takes the seed as an argument (``ArtifactConfig.seed`` or
``CampaignSpec.base_seed``), builds its campaign (:meth:`plan`) and runs one
timed pass (:meth:`run_pass`).  Only the calls into the program sit inside the
timed region; digests, invariant checks and clean-up happen after it.
Host times are turned into reference-speed seconds with the process's speed
probe (:mod:`speed`) once the pass is over.
:meth:`reference` produces, by another route through the program, the digest
every pass must reproduce (where the workload has such a route).
"""

from __future__ import annotations

import contextlib
import os
import shutil
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from time import monotonic
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# Entry points are called through their modules (``artifacts.render_plan``),
# so a traced pass sees the wrapped layers; ``result_to_dict`` is bound here
# on purpose, so digests computed after a pass never count as layer work.
from repro.analysis import artifacts
from repro.analysis.artifacts import ArtifactConfig, available_artifacts
from repro.faas import campaign as faas_campaign, grid
from repro.faas.campaign import CampaignJob, CampaignResult, CampaignSpec
from repro.faas.experiment import derive_platform_seed
from repro.faas.results import result_to_dict
from repro.faas.workload import WorkloadSpec
from repro.sim.rng import RandomStreams

import measure
import speed

CLOUDS = ("gcp", "aws", "azure")
#: Seed the definition hash is taken at, so it names the cells, not the seed.
REFERENCE_SEED = 0


@dataclass
class PassOutcome:
    """One timed pass and what was checked about it afterwards.

    ``wall_s`` and ``cell_s`` are reference-speed seconds, ``host_wall_s``
    the host seconds the pass took.
    """

    wall_s: float
    host_wall_s: float
    cells: int
    invocations: int
    cell_s: List[float]
    digest: str
    problems: List[str]
    cache_hits: int
    containers_created: int
    cold_starts: int
    doc_bytes: Optional[int] = None


class Workload:
    """Base class: a named, seeded set of inputs run in timed passes."""

    name = ""
    #: Whether :meth:`reference` is part of the workload's set-up.
    reference_is_setup = False
    #: Passes a run needs at least (the second checks the first's digest).
    min_passes = 2

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = int(seed)
        self.workdir = workdir

    # -- definition ----------------------------------------------------------
    def params(self) -> Dict[str, object]:
        raise NotImplementedError

    def jobs(self) -> List[CampaignJob]:
        raise NotImplementedError

    def definition_hash(self) -> str:
        reference = type(self)(REFERENCE_SEED, self.workdir)
        reference.plan()
        return measure.definition_hash(
            self.name, self.params(), [job.fingerprint() for job in reference.jobs()]
        )

    # -- set-up and passes ---------------------------------------------------
    def plan(self) -> None:
        raise NotImplementedError

    def reference(self) -> Optional[str]:
        """The digest every pass must equal, computed another way (or None)."""
        return None

    def _timed(self, progress: Callable[[CampaignJob, bool], None]):
        """The timed calls; returns ``(campaign, digest_source, cache_hits)``."""
        raise NotImplementedError

    def digest(self, campaign: CampaignResult, source: object) -> str:
        raise NotImplementedError

    def extra_checks(self, campaign: CampaignResult, source: object,
                     cache_hits: int) -> List[str]:
        return []

    def reference_times(self, timeline: speed.Timeline, start: float, end: float,
                        cells: List[Tuple[float, float]]):
        """``(pass seconds, per-cell seconds)`` at reference speed.

        In a serial pass the gap between two progress completions is the
        later cell's time.
        """
        return (timeline.reference_s(start, end),
                [timeline.reference_s(a, b) for a, b in cells])

    def fresh_dir(self, label: str) -> Path:
        path = self.workdir / label
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def run_pass(self, probe: speed.SpeedProbe, around: Optional[Callable] = None,
                 doc_bytes: bool = False) -> PassOutcome:
        """One timed pass, while ``probe`` samples the host's speed.

        ``around`` is a context-manager factory entered just outside the timed
        region (tracing); ``doc_bytes`` also sizes the result documents.
        """
        cells: List[Tuple[float, float]] = []
        clock = [0.0]

        def progress(job: CampaignJob, from_cache: bool) -> None:
            now = monotonic()
            cells.append((clock[0], now))
            clock[0] = now

        with (around or contextlib.nullcontext)():
            start = clock[0] = monotonic()
            campaign, source, cache_hits = self._timed(progress)
            end = monotonic()
        timeline = probe.timeline()
        wall, cell_s = self.reference_times(timeline, start, end, cells)
        problems, invocations, containers, cold = check_cells(campaign, self.jobs())
        problems += self.extra_checks(campaign, source, cache_hits)
        if len(cells) != len(campaign.cells):
            problems.append(f"progress reported {len(cells)} of {len(campaign.cells)} cells")
        self.cleanup()
        return PassOutcome(
            wall_s=wall, host_wall_s=timeline.host_s(start, end),
            cells=len(campaign.cells), invocations=invocations,
            cell_s=cell_s, digest=self.digest(campaign, source),
            problems=problems,
            cache_hits=cache_hits, containers_created=containers, cold_starts=cold,
            doc_bytes=result_documents_bytes(campaign) if doc_bytes else None,
        )

    def cleanup(self) -> None:
        """Remove what one pass left on disk (outside the timed region)."""
        for path in self.workdir.glob("pass-*"):
            shutil.rmtree(path, ignore_errors=True)


def check_cells(campaign: CampaignResult, jobs: Sequence[CampaignJob]):
    """Cheap oracle invariants over every cell of a pass.

    Returns ``(problems, invocations, containers created, cold starts)``.
    """
    problems: List[str] = []
    if len(campaign.cells) != len(jobs):
        problems.append(f"campaign holds {len(campaign.cells)} of {len(jobs)} cells")
    invocations = containers = cold_total = 0
    for cell in campaign.cells:
        job, result = cell.job, cell.result
        label = f"cell {job.fingerprint()[:12]} ({job.benchmark} {job.platform.canonical()})"
        workload = job.workload
        if workload.is_open_loop:
            expected = sum(
                len(workload.arrival_times(
                    RandomStreams(derive_platform_seed(job.seed, repetition))))
                for repetition in range(job.repetitions)
            )
        else:
            expected = workload.burst_size * job.repetitions
        if len(result.measurements) != expected:
            problems.append(f"{label}: {len(result.measurements)} measurements, "
                            f"expected {expected}")
        cold = sum(f.cold_start for m in result.measurements for f in m.functions)
        if cold > result.containers_created:
            problems.append(f"{label}: {cold} cold starts > "
                            f"{result.containers_created} containers created")
        for m in result.measurements:
            runtime = m.runtime
            if m.critical_path() > runtime + 1e-9 * max(1.0, runtime):
                problems.append(f"{label}: critical path {m.critical_path()} > "
                                f"runtime {runtime} for {m.invocation_id}")
                break
        invocations += len(result.measurements)
        containers += result.containers_created
        cold_total += cold
    return problems, invocations, containers, cold_total


def result_documents_digest(campaign: CampaignResult) -> str:
    return measure.digest([
        {"cell": cell.job.fingerprint(), "result": result_to_dict(cell.result)}
        for cell in campaign.cells
    ])


def result_documents_bytes(campaign: CampaignResult) -> int:
    """Size of the pass's result documents as compact canonical JSON."""
    return sum(len(measure.canonical_json(result_to_dict(cell.result)))
               for cell in campaign.cells)


def rendered_digest(rendered) -> str:
    return measure.digest({
        name: {"complete": artifact.complete, "data": artifact.data}
        for name, artifact in rendered.items()
    })


def rendered_problems(rendered) -> List[str]:
    return [f"artifact {name} incomplete: {len(artifact.missing)} cell(s) missing"
            for name, artifact in rendered.items() if not artifact.complete]


# ------------------------------------------------------------------ workloads
class PaperEval(Workload):
    """All registered artifacts at burst 30, serially into an empty cell cache."""

    name = "paper-eval"
    # Passes take 7 to 10 host seconds; a run takes the median of three.
    min_passes = 3

    def params(self):
        return {"artifacts": available_artifacts(), "burst_size": 30,
                "workers": 1, "cache": "empty per pass", "render": True}

    def plan(self):
        self.plan_ = artifacts.plan_artifacts(
            available_artifacts(), ArtifactConfig(burst_size=30, seed=self.seed))

    def jobs(self):
        return list(self.plan_.jobs)

    def _timed(self, progress):
        cache = self.fresh_dir("pass-cache")
        result = artifacts.execute_plan(self.plan_, workers=1, cache_dir=cache,
                                        progress=progress)
        return result, artifacts.render_plan(self.plan_, result), 0

    def digest(self, campaign, rendered):
        return rendered_digest(rendered)

    def extra_checks(self, campaign, rendered, cache_hits):
        problems = rendered_problems(rendered)
        if cache_hits:
            problems.append(f"{cache_hits} cache hit(s) in an empty cache")
        return problems


class WarmRerender(PaperEval):
    """The paper plan re-served from a warm cell cache through a grid run."""

    name = "warm-rerender"
    # Passes take about 1 host second.
    min_passes = 5

    def params(self):
        return {"artifacts": available_artifacts(), "burst_size": 30,
                "workers": 1, "backend": "file", "cache": "warm", "render": True}

    reference_is_setup = True

    @property
    def cache(self) -> Path:
        return self.workdir / "warm-cache"

    def reference(self):
        """Warm the cell cache; the re-rendered outputs must equal these."""
        shutil.rmtree(self.cache, ignore_errors=True)
        result = artifacts.execute_plan(self.plan_, workers=1, cache_dir=self.cache)
        return rendered_digest(artifacts.render_plan(self.plan_, result))

    def _timed(self, progress):
        run_dir = self.fresh_dir("pass-grid")
        run = grid.GridRun.create(self.plan_.spec, run_dir=run_dir)
        self.report = grid.run_grid_worker(run, workers=1, cache_dir=self.cache,
                                           progress=progress)
        result = grid.merge_run(run)
        return result, artifacts.render_plan(self.plan_, result), self.report.cache_hits

    def extra_checks(self, campaign, rendered, cache_hits):
        problems = rendered_problems(rendered)
        if self.report.executed or self.report.failed:
            problems.append(f"warm re-render executed {self.report.executed} and "
                            f"failed {self.report.failed} cell(s)")
        if cache_hits != len(self.plan_.jobs):
            problems.append(f"cache hit ratio {cache_hits}/{len(self.plan_.jobs)} != 1.0")
        if not all(cell.from_cache for cell in campaign.cells):
            problems.append("merged cells not marked as served from cache")
        return problems


class OpenLoopMicro(Workload):
    """Three trivial-handler microbenchmarks under Poisson arrivals, serially."""

    name = "open-loop-micro"
    # Passes take 7 to 10 host seconds.
    min_passes = 2
    BENCHMARKS = ("function_chain", "parallel_sleep", "storage_io")
    ARRIVALS = "poisson:rate=20,duration=30"

    def params(self):
        return {"workers": 1, "cache": None}

    def plan(self):
        self.spec = CampaignSpec(
            benchmarks=self.BENCHMARKS, platforms=CLOUDS,
            workloads=(WorkloadSpec.parse(self.ARRIVALS),), seeds=(0,),
            base_seed=self.seed,
        )
        self.jobs_ = self.spec.expand()

    def jobs(self):
        return self.jobs_

    def _timed(self, progress):
        return faas_campaign.run_campaign(self.spec, workers=1, progress=progress), None, 0

    def digest(self, campaign, source):
        return result_documents_digest(campaign)


class PoolDispatch(Workload):
    """480 light burst cells through the process pool with two workers."""

    name = "pool-dispatch"
    BENCHMARKS = ("function_chain", "parallel_sleep", "storage_io", "trip_booking")
    WORKERS = 2

    def params(self):
        return {"workers": self.WORKERS, "cache": None}

    def plan(self):
        self.spec = CampaignSpec(
            benchmarks=self.BENCHMARKS, platforms=CLOUDS, eras=("2022", "2024"),
            workloads=(WorkloadSpec.burst(4),), seeds=tuple(range(20)),
            base_seed=self.seed,
        )
        self.jobs_ = self.spec.expand()
        self.pool = None
        self.child_peak_kb = 0

    def jobs(self):
        return self.jobs_

    def _timed(self, progress):
        self.pool = PoolStats(self.fresh_dir("pass-probes"))
        executor = faas_campaign.ProcessPoolExecutor
        faas_campaign.ProcessPoolExecutor = self.pool.executor_class()
        try:
            result = faas_campaign.run_campaign(self.spec, workers=self.WORKERS,
                                           progress=progress)
        finally:
            faas_campaign.ProcessPoolExecutor = executor
        self.child_peak_kb = max(self.child_peak_kb, self.pool.child_peak_kb)
        return result, None, 0

    def digest(self, campaign, source):
        return result_documents_digest(campaign)

    def reference_times(self, timeline, start, end, cells):
        """The pass scaled by the speed its workers' probes saw.

        Cell times are the ``elapsed_s`` each chunk envelope carries: in a
        pooled pass, completion gaps measure the parent's dispatch cadence
        (whole chunks land at once).
        """
        workers = speed.read_samples(sorted(self.pool.probe_dir.glob("*.log")))
        factor = speed.pool_speed(workers, start, end)
        return (timeline.host_s(start, end) * factor,
                [cell * factor for cell in self.pool.cell_seconds])

    def reference(self):
        """The same cells run serially, without the pool."""
        return result_documents_digest(faas_campaign.run_campaign(self.spec, workers=1))


class PoolStats:
    """Parent-side view of the campaign's process pool: tasks and child memory.

    Every worker runs a speed probe whose samples land in ``probe_dir``.
    """

    def __init__(self, probe_dir: Path) -> None:
        self.probe_dir = probe_dir
        self.tasks = 0
        self.cells = 0
        self.child_peak_kb = 0
        self.cell_seconds: List[float] = []

    def collect(self, future) -> None:
        """Read the per-cell costs off a finished chunk task."""
        if future.cancelled() or future.exception() is not None:
            return
        result = future.result()  # a chunk's envelope list, or one envelope
        for envelope in result if isinstance(result, list) else [result]:
            if "elapsed_s" in envelope:
                self.cell_seconds.append(envelope["elapsed_s"])

    def executor_class(self):
        stats = self

        class ObservedPool(ProcessPoolExecutor):
            def __init__(self, max_workers=None, mp_context=None, initializer=None,
                         initargs=(), **kwargs):
                super().__init__(max_workers, mp_context, _start_worker_probe,
                                 (str(stats.probe_dir), initializer, initargs), **kwargs)

            def submit(self, fn, /, *args, **kwargs):
                stats.tasks += 1
                batch = args[0] if args else None
                stats.cells += len(batch) if isinstance(batch, list) else 1
                future = super().submit(fn, *args, **kwargs)
                future.add_done_callback(stats.collect)
                return future

            def shutdown(self, wait=True, *, cancel_futures=False):
                pids = list((getattr(self, "_processes", None) or {}).keys())
                total = sum(_peak_rss_kb(pid) for pid in pids)
                stats.child_peak_kb = max(stats.child_peak_kb, total)
                super().shutdown(wait=wait, cancel_futures=cancel_futures)

        return ObservedPool


def _start_worker_probe(probe_dir: str, initializer, initargs) -> None:
    """Pool-worker initializer: sample this worker's speed into a file, then
    run the campaign's own initializer, if it has one.

    Every sample is written as it is taken; the file is closed when the
    worker exits.
    """
    speed.SpeedProbe(sink=Path(probe_dir) / f"{os.getpid()}.log").start()
    if initializer is not None:
        initializer(*initargs)


def _peak_rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


WORKLOADS = {cls.name: cls for cls in (PaperEval, OpenLoopMicro, WarmRerender, PoolDispatch)}
