"""Function-chain microbenchmark: return-payload latency (paper Figure 9b, E5).

A chain of ``length`` functions where every function returns ``payload_bytes``
bytes of data to its successor.  The paper runs chains of ten functions with
payload sizes from 2^5 to 2^18 bytes in warm mode; the latency stays constant
on AWS and Google Cloud but grows sharply on Azure beyond ~16 kB because large
payloads spill to remote storage.
"""

from __future__ import annotations

from typing import Dict

from ...core.definition import WorkflowDefinition
from ...faas.benchmark import WorkflowBenchmark, require_at_least
from ...sim.invocation import FunctionSpec, InvocationContext

#: Tiny fixed compute cost of producing the payload (string generation).
_STEP_WORK = 0.01


def chain_step_handler(ctx: InvocationContext, payload: Dict[str, object]) -> Dict[str, object]:
    """Forward a payload of the configured size to the next function."""
    size = int(payload.get("payload_bytes", 64)) if isinstance(payload, dict) else 64
    hops = int(payload.get("hops", 0)) if isinstance(payload, dict) else 0
    ctx.compute(_STEP_WORK)
    return {
        "payload_bytes": size,
        "hops": hops + 1,
        "data": "x" * max(0, size - 64),
    }


def build_definition(length: int = 10) -> WorkflowDefinition:
    states: Dict[str, object] = {}
    for index in range(length):
        phase_name = f"step_{index}"
        spec: Dict[str, object] = {"type": "task", "func_name": "chain_step"}
        if index < length - 1:
            spec["next"] = f"step_{index + 1}"
        states[phase_name] = spec
    return WorkflowDefinition.from_dict(
        {"root": "step_0", "states": states}, name=f"function_chain_{length}"
    )


def create_benchmark(
    length: int = 10,
    payload_bytes: int = 1024,
    memory_mb: int = 256,
) -> WorkflowBenchmark:
    """Chain of ``length`` functions returning ``payload_bytes`` each."""
    require_at_least(1, length=length, memory_mb=memory_mb)
    require_at_least(0, payload_bytes=payload_bytes)
    definition = build_definition(length)
    functions = {
        "chain_step": FunctionSpec("chain_step", chain_step_handler, cold_init_s=0.1),
    }

    def make_input(index: int) -> Dict[str, object]:
        return {"payload_bytes": payload_bytes, "hops": 0}

    return WorkflowBenchmark(
        name=f"function_chain_{length}",
        definition=definition,
        functions=functions,
        memory_mb=memory_mb,
        make_input=make_input,
        description="Chain of functions passing a configurable return payload",
        category="micro",
    )
