"""Benchmark of the SeBS-Flow reproduction, timed from outside the program.

Run one workload for a fixed time and print its metrics::

    python3 perfbench/run.py --workload paper-eval --seed 0 --seconds 15 --trace 0

Every timed pass runs in a fresh process, as a user's command would: the
process imports the program, plans the workload and then times one pass
through the program's public entry points.  ``setup_s`` is the median time
from starting such a process to the start of its pass (plus, on
warm-rerender, warming the cell cache).  ``cell_p50_ms``/``cell_p90_ms``
pool the per-cell times of every pass (see ``Workload.reference_times``).

Times are reference-speed seconds: a shared host's speed can drift by up to
half for tens of seconds at a time, so every process the benchmark times
runs a speed probe and scales its host seconds by it (see ``speed.py``).  The
host seconds of each pass are kept in the result record.

``open-loop-micro`` runs too, but is not in ``BENCHMARK.json``: its nine
cells differ widely in cost, so its per-cell percentiles jump from one cell
to another with the seed (see ``record.json``).

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs untraced passes for half the time and traced passes for
the other half, and reports the per-layer metrics plus the tracing overhead.

Either way the outputs are checked: every pass must give the same digest, the
digest another route through the program gives (where there is one), and for
the default seed the digest recorded in ``perfbench/record.json``; cheap
invariants must hold on every cell.  A failed check makes the run exit 1.
The last line of standard output is the JSON result.

Scratch files, one result record per run (``results/``) and the trace spans
(``traces/``) go to ``.bench_build/perfbench/`` under the repository root.
Compare two sets of result records with ``python3 perfbench/compare.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Optional

import measure
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_build" / "perfbench"
RECORD = HERE / "record.json"
WORKLOAD_NAMES = ("paper-eval", "open-loop-micro", "warm-rerender", "pool-dispatch")
CHILD_TIMEOUT_S = 150


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: the roles of the child processes the run starts.
    parser.add_argument("--role", choices=("run", "pass", "reference"), default="run",
                        help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--trace-out", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--spawned", type=float, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program() -> None:
    """Import the program from this checkout's ``src``."""
    sys.path.insert(0, str(SRC))
    import workloads  # noqa: F401  (imports every measured layer)
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {SRC}")


def planned(args: argparse.Namespace):
    """Import the program and plan the workload.

    Returns the workload and the times the import started, the planning
    started and the planning ended.
    """
    marks = [time.monotonic()]
    import_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    marks.append(time.monotonic())
    workload.plan()
    marks.append(time.monotonic())
    return workload, marks


# ------------------------------------------------------------- child roles
def reference_role(args: argparse.Namespace, probe: speed.SpeedProbe) -> Dict[str, object]:
    """The workload's reference digest and identity, in a fresh process."""
    workload, _ = planned(args)
    digest = workload.reference()
    return {
        "digest": digest,
        "setup_s": probe.timeline().reference_s(args.spawned, time.monotonic()),
        "is_setup": workload.reference_is_setup,
        "min_passes": workload.min_passes,
        "definition_hash": workload.definition_hash(),
        "inputs_hash": measure.digest([job.fingerprint() for job in workload.jobs()]),
        "machine": measure.machine(),
    }


def pass_role(args: argparse.Namespace, probe: speed.SpeedProbe) -> Dict[str, object]:
    """Set up and time one pass in this fresh process (traced with --trace-out)."""
    workload, marks = planned(args)
    around = tracer = registry = None
    if args.trace_out is not None:
        from repro.observability import MetricsRegistry, use_registry

        import tracing

        tracer, registry = tracing.Tracer(), MetricsRegistry()

        @contextlib.contextmanager
        def around():
            with use_registry(registry), tracing.install(tracer):
                yield

    pass_start = time.monotonic()
    outcome = workload.run_pass(probe, around=around, doc_bytes=tracer is not None)
    timeline = probe.timeline()
    result = asdict(outcome)
    result.update(
        import_s=timeline.reference_s(marks[0], marks[1]),
        plan_s=timeline.reference_s(marks[1], marks[2]),
        setup_s=timeline.reference_s(args.spawned, pass_start),
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + getattr(workload, "child_peak_kb", 0),
    )
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, registry, outcome, workload)
        tracer.write(args.trace_out, {"workload": args.workload, "seed": args.seed})
    return result


def layer_metrics(tracer, registry, outcome, workload) -> Dict[str, float]:
    """Per-layer metrics of one traced pass.

    Span times are host seconds; they are scaled to reference seconds by the
    pass's own speed (reference over host seconds of the whole pass).
    """
    factor = outcome.wall_s / outcome.host_wall_s
    engine_busy = tracer.busy_s("sim.engine.run")
    events = registry.counter("repro_engine_events_total").value()
    pool = getattr(workload, "pool", None)
    tasks = pool.tasks if pool is not None else 0
    metrics = {
        "benchmarks.handler_s": tracer.busy_s("benchmarks.handler"),
        "benchmarks.handler_calls": tracer.calls("benchmarks.handler"),
        "sim.engine.run_self_s": tracer.self_s("sim.engine.run"),
        "sim.engine.events": events,
        "sim.engine.events_per_s": events / engine_busy if engine_busy else 0.0,
        "sim.rng.stream_calls": tracer.calls("sim.rng.stream"),
        "sim.rng.stream_s": tracer.busy_s("sim.rng.stream"),
        "sim.noise.detour_calls": tracer.calls("sim.noise.detour"),
        "sim.noise.detour_s": tracer.busy_s("sim.noise.detour"),
        "sim.orchestration.payload_size_calls": tracer.calls("sim.orchestration.payload_size"),
        "sim.orchestration.payload_size_s": tracer.busy_s("sim.orchestration.payload_size"),
        "sim.container.containers_created": outcome.containers_created,
        "sim.container.cold_starts": outcome.cold_starts,
        "faas.experiment.repetition_s": tracer.busy_s("faas.experiment.repetition"),
        "faas.experiment.repetitions": tracer.calls("faas.experiment.repetition"),
        "core.critical_path_s": tracer.busy_s("core.critical_path"),
        "faas.metrics.reduce_s": tracer.busy_s("faas.metrics.reduce"),
        "faas.results.encode_s": tracer.busy_s("faas.results.encode"),
        "faas.results.decode_s": tracer.busy_s("faas.results.decode"),
        "faas.results.doc_bytes": outcome.doc_bytes,
        "faas.campaign.self_s": tracer.self_s("faas.campaign"),
        "faas.campaign.cache_hit_ratio": outcome.cache_hits / outcome.cells,
        "faas.campaign.pool_tasks": tasks,
        "faas.campaign.cells_per_task": pool.cells / tasks if tasks else 0.0,
        "faas.grid.worker_s": tracer.busy_s("faas.grid.worker"),
        "faas.grid.merge_s": tracer.busy_s("faas.grid.merge"),
        "faas.backends.ops": tracer.counts.get("faas.backends.ops", 0),
        "faas.backends.claim_conflicts": tracer.counts.get("faas.backends.claim_conflicts", 0),
        "analysis.artifacts.render_s": tracer.busy_s("analysis.artifacts.render"),
    }
    for name in metrics:
        if name.endswith("_per_s"):
            metrics[name] /= factor
        elif name.endswith("_s"):
            metrics[name] *= factor
    return metrics


# ------------------------------------------------------------ orchestration
def spawn(args: argparse.Namespace, role: str, workdir: Path,
          *extra: str) -> Dict[str, object]:
    """Run a child role to completion and return its JSON output."""
    start = time.monotonic()
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--role", role, "--workdir", str(workdir), "--spawned", repr(start),
               *extra]
    # A session of its own, so a timed-out child goes down with its pool workers.
    child = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True, cwd=ROOT, start_new_session=True)
    try:
        stdout, stderr = child.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:  # timed out, or the run itself was stopped
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise
    if child.returncode != 0:
        raise RuntimeError(f"{role} process failed:\n{stderr[-3000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_passes(args, workdir: Path, seconds: float, min_passes: int,
               extra_setup_s: float, trace_stem: Optional[str] = None):
    """Fresh-process passes until ``seconds`` have passed and ``min_passes`` ran."""
    passes = []
    start = time.monotonic()
    while len(passes) < min_passes or time.monotonic() - start < seconds:
        extra = ()
        if trace_stem is not None:
            extra = ("--trace-out", str(WORKDIR / "traces" / f"{trace_stem}.pass{len(passes)}.jsonl"))
        outcome = spawn(args, "pass", workdir, *extra)
        outcome["setup_s"] += extra_setup_s
        passes.append(outcome)
    return passes


def gate(workload: str, seed: int, passes, reference: Optional[str]) -> List[str]:
    """Output checks over all passes of a run."""
    problems = [problem for outcome in passes for problem in outcome["problems"]]
    digests = sorted({outcome["digest"] for outcome in passes})
    if len(digests) != 1:
        problems.append(f"passes disagree: {len(digests)} distinct output digests")
    digest = passes[0]["digest"]
    if reference is not None and reference != digest:
        problems.append(f"digest {digest[:12]} != reference digest {reference[:12]}")
    record = json.loads(RECORD.read_text())
    recorded = record["digests"].get(workload)
    if seed == record["default_seed"] and recorded != digest:
        problems.append(f"digest {digest[:12]} != recorded {str(recorded)[:12]} "
                        f"for seed {seed}")
    return problems


def summary(values, unit: str, **extra) -> Dict[str, object]:
    return dict(measure.summarize(values), unit=unit, **extra)


def end_to_end_metrics(passes) -> Dict[str, Dict[str, object]]:
    cell_ms = sorted(cell * 1000.0 for outcome in passes for cell in outcome["cell_s"])
    tail = {"tail_percentile_rule": measure.tail_percentile(len(cell_ms))}
    cell_p50 = summary([measure.nearest_rank(cell_ms, 50.0)], "ms", **tail)
    cell_p90 = summary([measure.nearest_rank(cell_ms, 90.0)], "ms", **tail)
    cell_p50["n"] = cell_p90["n"] = len(cell_ms)
    return {
        "wall_s": summary([p["wall_s"] for p in passes], "s"),
        "cells_per_s": summary([p["cells"] / p["wall_s"] for p in passes], "1/s"),
        "invocations_per_s": summary([p["invocations"] / p["wall_s"] for p in passes], "1/s"),
        "cell_p50_ms": cell_p50,
        "cell_p90_ms": cell_p90,
        "setup_s": summary([p["setup_s"] for p in passes], "s"),
        "peak_rss_mb": summary([p["peak_rss_kb"] / 1024.0 for p in passes], "MB"),
    }


LAYER_UNITS = (("_per_s", "1/s"), ("_s", "s"), ("_calls", "count"),
               ("_bytes", "bytes"), ("_ratio", "ratio"))


def layer_summaries(plain, traced) -> Dict[str, Dict[str, object]]:
    every = plain + traced
    overhead = (measure.summarize([p["wall_s"] for p in traced])["median"]
                / measure.summarize([p["wall_s"] for p in plain])["median"])
    summaries = {
        "process.import_s": summary([p["import_s"] for p in every], "s"),
        "analysis.artifacts.plan_s": summary([p["plan_s"] for p in every], "s"),
        "trace.overhead_ratio": summary([overhead], "ratio"),
    }
    for name in traced[0]["layers"]:
        unit = next((unit for suffix, unit in LAYER_UNITS if name.endswith(suffix)), "count")
        summaries[name] = summary([p["layers"][name] for p in traced], unit)
    return summaries


def orchestrate(args: argparse.Namespace) -> int:
    workdir = WORKDIR / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    stem = f"{args.workload}.seed{args.seed}.trace{args.trace}"
    for old in (WORKDIR / "traces").glob(f"{stem}.*"):
        old.unlink()

    reference = spawn(args, "reference", workdir)
    extra_setup_s = reference["setup_s"] if reference["is_setup"] else 0.0
    if args.trace == 0:
        passes = run_passes(args, workdir, args.seconds, reference["min_passes"],
                            extra_setup_s)
        metrics = end_to_end_metrics(passes)
    else:
        plain = run_passes(args, workdir, args.seconds / 2.0, 1, extra_setup_s)
        traced = run_passes(args, workdir, args.seconds / 2.0, 1, extra_setup_s, stem)
        passes = plain + traced
        metrics = layer_summaries(plain, traced)
    shutil.rmtree(workdir, ignore_errors=True)
    os.sync()
    problems = gate(args.workload, args.seed, passes, reference["digest"])

    bench_files = list(HERE.glob("*.py"))
    bench_files += [path for path in (ROOT / "BENCHMARK.json",) if path.is_file()]
    attempted = sum(p["cells"] for p in passes)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "run_seconds": args.seconds,
        "definition_hash": reference["definition_hash"],
        "inputs_hash": reference["inputs_hash"],
        "benchmark_revision": measure.tree_revision(bench_files, ROOT),
        "program_revision": measure.tree_revision(SRC.rglob("*.py"), ROOT),
        "machine": reference["machine"],
        "correct": not problems, "attempted": attempted, "failed": len(problems),
        "problems": problems, "metrics": metrics,
        "passes": [{key: p[key] for key in ("wall_s", "host_wall_s", "setup_s", "cells",
                                            "invocations", "digest", "peak_rss_kb")}
                   for p in passes],
    }
    results = WORKDIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))

    report(record)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": value["median"], "unit": value["unit"]}
                    for name, value in metrics.items()},
    }))
    return 0 if record["correct"] else 1


def report(record: Dict[str, object]) -> None:
    """Human-readable lines: identity, every metric with its unit, problems."""
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"definition {record['definition_hash'][:12]}, benchmark "
          f"{record['benchmark_revision'][:12]}, program "
          f"{record['program_revision'][:12]}, machine {record['machine']}")
    for name, value in sorted(record["metrics"].items()):
        rule = ""
        if "tail_percentile_rule" in value:
            tail = value["tail_percentile_rule"]
            rule = (f" (highest percentile with >= 10 samples beyond: "
                    f"{f'p{tail:g}' if tail else 'none'})")
        print(f"  {name:40s} {value['median']:>14.6g} {value['unit']:6s} "
              f"q1 {value['q1']:.6g} q3 {value['q3']:.6g} n {value['n']}{rule}")
    print(f"  attempted {record['attempted']} failed {record['failed']}")
    for problem in record["problems"]:
        print(f"  check failed: {problem}")


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure at {SRC / 'repro'}", file=sys.stderr)
        return 2
    if args.role == "run":
        # A terminated run unwinds, so that spawn() stops the child it waits on.
        signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
        return orchestrate(args)
    role = reference_role if args.role == "reference" else pass_role
    probe = speed.SpeedProbe().start()
    try:
        result = role(args, probe)
    finally:
        probe.stop()
    # Write back what this process wrote and deleted, so that the next timed
    # process does not wait behind it in its own fsync calls.
    os.sync()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
