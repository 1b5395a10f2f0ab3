"""Parallel-download microbenchmark: object-storage I/O overhead (paper Figure 9a, E3).

``num_functions`` functions run in parallel; each downloads a file of
``download_bytes`` from object storage.  The paper sweeps file sizes from 2^10
to 2^28 bytes with 20 parallel functions at 512 MB: the workflow-level overhead
stays around one second on AWS, grows slightly on Google Cloud, and explodes on
Azure for large files.
"""

from __future__ import annotations

from typing import Dict, List

from ...core.definition import WorkflowDefinition
from ...faas.benchmark import WorkflowBenchmark, require_at_least
from ...sim.invocation import FunctionSpec, InvocationContext

_OBJECT_KEY = "micro/storage-io-object"


def download_handler(ctx: InvocationContext, item: Dict[str, object]) -> Dict[str, object]:
    """Download the staged object and report how many bytes were received."""
    key = str(item.get("object_key", _OBJECT_KEY))
    ctx.compute(0.02)
    received = 0
    if ctx.object_exists(key):
        received = ctx.download(key).size_bytes
    return {"worker": item.get("worker", 0), "received_bytes": received}


def build_definition() -> WorkflowDefinition:
    return WorkflowDefinition.from_dict(
        {
            "root": "download_phase",
            "states": {
                "download_phase": {
                    "type": "map",
                    "array": "workers",
                    "root": "download",
                    "states": {"download": {"type": "task", "func_name": "download"}},
                }
            },
        },
        name="storage_io",
    )


def create_benchmark(
    num_functions: int = 20,
    download_bytes: int = 1 << 20,
    memory_mb: int = 512,
) -> WorkflowBenchmark:
    """Parallel download of a ``download_bytes`` object by ``num_functions`` workers."""
    require_at_least(1, num_functions=num_functions, memory_mb=memory_mb)
    require_at_least(0, download_bytes=download_bytes)
    definition = build_definition()
    functions = {
        "download": FunctionSpec("download", download_handler, cold_init_s=0.1),
    }

    def prepare(platform) -> None:
        platform.object_storage.put_object(_OBJECT_KEY, download_bytes)

    def make_input(index: int) -> Dict[str, object]:
        return {
            "workers": [
                {"worker": worker, "object_key": _OBJECT_KEY}
                for worker in range(num_functions)
            ]
        }

    return WorkflowBenchmark(
        name="storage_io",
        definition=definition,
        functions=functions,
        memory_mb=memory_mb,
        prepare=prepare,
        make_input=make_input,
        array_sizes={"workers": num_functions},
        description="Parallel object-storage downloads of a configurable size",
        category="micro",
    )
