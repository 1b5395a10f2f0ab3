"""Selfish-detour microbenchmark: OS noise / CPU suspension (paper Figure 13a, E6).

A single function runs the selfish-detour probe (a tight loop recording
iterations that took significantly longer than expected) and reports the
estimated fraction of time it was suspended by the host OS.  The paper runs the
probe with memory configurations from 128 MB to 2048 MB in warm mode and
compares the measured suspension against the providers' documentation.
"""

from __future__ import annotations

from typing import Dict

from ...core.definition import WorkflowDefinition
from ...faas.benchmark import WorkflowBenchmark, require_at_least
from ...sim.invocation import FunctionSpec, InvocationContext


def detour_handler(ctx: InvocationContext, payload: Dict[str, object]) -> Dict[str, object]:
    """Run the selfish-detour probe and report the suspension estimate."""
    events = int(payload.get("events", 5000)) if isinstance(payload, dict) else 5000
    trace = ctx.detour_trace(events=events)
    return {
        "memory_mb": ctx.memory_mb,
        "events": len(trace.events),
        "suspension_share": trace.suspension_share(),
    }


def build_definition() -> WorkflowDefinition:
    return WorkflowDefinition.from_dict(
        {
            "root": "detour_phase",
            "states": {"detour_phase": {"type": "task", "func_name": "detour"}},
        },
        name="selfish_detour",
    )


def create_benchmark(events: int = 5000, memory_mb: int = 256) -> WorkflowBenchmark:
    """Single-function selfish-detour probe collecting ``events`` detour events."""
    require_at_least(1, events=events, memory_mb=memory_mb)
    definition = build_definition()
    functions = {
        "detour": FunctionSpec("detour", detour_handler, cold_init_s=0.05),
    }

    def make_input(index: int) -> Dict[str, object]:
        return {"events": events}

    return WorkflowBenchmark(
        name="selfish_detour",
        definition=definition,
        functions=functions,
        memory_mb=memory_mb,
        make_input=make_input,
        description="Selfish-detour probe estimating OS-noise suspension",
        category="micro",
    )
