"""Benchmark abstraction of the SeBS-Flow suite.

A :class:`WorkflowBenchmark` bundles everything needed to run one workflow on
any platform: the platform-agnostic definition, the function implementations,
the input generator, the data that must be staged in object storage before the
first invocation, and the memory configuration the paper uses for the
benchmark.  Benchmarks register themselves in :mod:`repro.benchmarks.registry`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional

from ..core.builder import FunctionDataSpec, ModelBuilder, WorkflowStatistics
from ..core.definition import WorkflowDefinition
from ..sim.invocation import FunctionSpec
from ..sim.platforms.base import Platform

#: Stages benchmark input data (videos, text corpora, variant files) into the
#: platform's object storage / NoSQL tables before the first invocation.
PrepareFn = Callable[[Platform], None]
#: Builds the input payload for one workflow invocation.
InputFn = Callable[[int], Dict[str, object]]


def require_at_least(minimum: float, **values: float) -> None:
    """Raise ``ValueError`` naming every benchmark parameter below ``minimum``.

    Factories call this on their counts (``minimum=1``) and sizes/durations
    (``minimum=0``), so an out-of-range spec fails when the benchmark is
    built -- at planning time -- instead of inside a worker.
    """
    # Written so that NaN fails too; infinity is never a usable size.
    low = [f"{name}={value!r}" for name, value in values.items()
           if not minimum <= value < float("inf")]
    if low:
        raise ValueError(f"{', '.join(low)} out of range: must be finite and >= {minimum}")


@dataclass
class WorkflowBenchmark:
    """One benchmark of the suite: definition, functions, data, and parameters."""

    name: str
    definition: WorkflowDefinition
    functions: Dict[str, FunctionSpec]
    memory_mb: int
    prepare: Optional[PrepareFn] = None
    make_input: Optional[InputFn] = None
    #: Concrete lengths of map/loop arrays for transcription and Table 4 statistics.
    array_sizes: Dict[str, int] = field(default_factory=dict)
    #: Declared data behaviour per function, used for Table 4 and model analysis.
    data_spec: Dict[str, FunctionDataSpec] = field(default_factory=dict)
    description: str = ""
    category: str = "application"

    def __post_init__(self) -> None:
        problems = self.definition.validate(known_functions=self.functions)
        if problems:
            raise ValueError(
                f"benchmark {self.name!r} has an invalid workflow definition: {problems}"
            )

    def input_payload(self, invocation_index: int = 0) -> Dict[str, object]:
        if self.make_input is None:
            return {}
        return self.make_input(invocation_index)

    def prepare_platform(self, platform: Platform) -> None:
        if self.prepare is not None:
            self.prepare(platform)

    def model_builder(self) -> ModelBuilder:
        return ModelBuilder(self.definition, self.data_spec, self.array_sizes)

    def statistics(self) -> WorkflowStatistics:
        """The benchmark's Table 4 row (functions, parallelism, data volume)."""
        return self.model_builder().statistics()

    def function_names(self) -> List[str]:
        return sorted(self.functions)
