"""Parallel-sleep microbenchmark: fan-out scheduling overhead (paper Figure 10, E4).

``num_functions`` functions run in parallel, each sleeping for
``sleep_seconds``.  Because the functions do no work, the entire difference
between the workflow runtime and the sleep duration is orchestration and
scheduling overhead.  The paper sweeps N in {2, 4, 8, 16} and T in
{1, 5, 10, 15, 20} seconds with 30 burst invocations: AWS shows a small,
roughly constant overhead, Google Cloud's overhead grows with the parallelism,
and Azure's is an order of magnitude larger.
"""

from __future__ import annotations

from typing import Dict

from ...core.definition import WorkflowDefinition
from ...faas.benchmark import WorkflowBenchmark, require_at_least
from ...sim.invocation import FunctionSpec, InvocationContext


def sleep_handler(ctx: InvocationContext, item: Dict[str, object]) -> Dict[str, object]:
    """Sleep for the requested duration without consuming CPU."""
    duration = float(item.get("sleep_seconds", 1.0))
    ctx.sleep(duration)
    return {"worker": item.get("worker", 0), "slept_s": duration}


def build_definition() -> WorkflowDefinition:
    return WorkflowDefinition.from_dict(
        {
            "root": "sleep_phase",
            "states": {
                "sleep_phase": {
                    "type": "map",
                    "array": "workers",
                    "root": "sleeper",
                    "states": {"sleeper": {"type": "task", "func_name": "sleeper"}},
                }
            },
        },
        name="parallel_sleep",
    )


def create_benchmark(
    num_functions: int = 4,
    sleep_seconds: float = 1.0,
    memory_mb: int = 256,
) -> WorkflowBenchmark:
    """``num_functions`` parallel sleepers of ``sleep_seconds`` each."""
    require_at_least(1, num_functions=num_functions, memory_mb=memory_mb)
    require_at_least(0, sleep_seconds=sleep_seconds)
    definition = build_definition()
    functions = {
        "sleeper": FunctionSpec("sleeper", sleep_handler, cold_init_s=0.05),
    }

    def make_input(index: int) -> Dict[str, object]:
        return {
            "workers": [
                {"worker": worker, "sleep_seconds": sleep_seconds}
                for worker in range(num_functions)
            ]
        }

    return WorkflowBenchmark(
        name="parallel_sleep",
        definition=definition,
        functions=functions,
        memory_mb=memory_mb,
        make_input=make_input,
        array_sizes={"workers": num_functions},
        description="Parallel sleeping functions isolating scheduling overhead",
        category="micro",
    )
