"""Registry of all SeBS-Flow benchmarks.

Provides a single lookup point for the six application benchmarks and the four
microbenchmarks, so the experiment harness, the examples, and the figure
benches can construct benchmarks by name with optional parameter overrides.

Benchmarks are addressable by *spec strings* mirroring the platform and
workload spec grammars: a bare registered name (``"mapreduce"``) or a name
with factory parameters (``"storage_io:download_bytes=4096,num_functions=20"``).
The parameterised form is what lets campaign cells -- which identify their
benchmark by a single string -- cover every figure of the paper, including the
microbenchmark sweeps (Figures 9/10) and the 1000Genome strong-scaling variant
(Figure 14b, ``"genome_individuals:individuals_jobs=10"``).
"""

from __future__ import annotations

import inspect
from functools import lru_cache
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from ..faas.benchmark import WorkflowBenchmark
from . import excamera, genome, mapreduce, ml, trip_booking, video_analysis
from .micro import function_chain, parallel_sleep, selfish_detour, storage_io

BenchmarkFactory = Callable[..., WorkflowBenchmark]

APPLICATION_BENCHMARKS: Dict[str, BenchmarkFactory] = {
    "video_analysis": video_analysis.create_benchmark,
    "trip_booking": trip_booking.create_benchmark,
    "mapreduce": mapreduce.create_benchmark,
    "excamera": excamera.create_benchmark,
    "ml": ml.create_benchmark,
    "genome_1000": genome.create_benchmark,
}

MICRO_BENCHMARKS: Dict[str, BenchmarkFactory] = {
    "function_chain": function_chain.create_benchmark,
    "storage_io": storage_io.create_benchmark,
    "parallel_sleep": parallel_sleep.create_benchmark,
    "selfish_detour": selfish_detour.create_benchmark,
}

def _genome_individuals(individuals_jobs: int = 10, **params: object) -> WorkflowBenchmark:
    """Figure 14b strong-scaling variant, with a default job count so the
    bare name stays constructible (self-validation sweeps every registered
    name)."""
    return genome.create_individuals_scaling_benchmark(
        int(individuals_jobs), **params  # type: ignore[arg-type]
    )


#: Parameterised variants of the application benchmarks (not part of the E1
#: sweep, so deliberately kept out of APPLICATION_BENCHMARKS).
VARIANT_BENCHMARKS: Dict[str, BenchmarkFactory] = {
    "genome_individuals": _genome_individuals,
}

#: Factories that forward ``**params`` to an inner factory, which the
#: parameter names are validated against.
_FORWARDS_PARAMS_TO: Dict[BenchmarkFactory, BenchmarkFactory] = {
    _genome_individuals: genome.create_individuals_scaling_benchmark,
}

ALL_BENCHMARKS: Dict[str, BenchmarkFactory] = {
    **APPLICATION_BENCHMARKS,
    **MICRO_BENCHMARKS,
    **VARIANT_BENCHMARKS,
}

#: Memory configuration the paper uses for each application benchmark (Figure 7).
PAPER_MEMORY_MB: Dict[str, int] = {
    "video_analysis": 2048,
    "excamera": 256,
    "mapreduce": 256,
    "trip_booking": 128,
    "ml": 1024,
    "genome_1000": 2048,
}


def benchmark_names(category: str = "all") -> List[str]:
    """Names of the registered benchmarks (``all``, ``application``, or ``micro``)."""
    if category == "application":
        return sorted(APPLICATION_BENCHMARKS)
    if category == "micro":
        return sorted(MICRO_BENCHMARKS)
    if category == "all":
        return sorted(ALL_BENCHMARKS)
    raise KeyError(f"unknown benchmark category {category!r}")


def _coerce_param(value: str) -> object:
    """Spec-string parameter values: int where possible, then float, else string."""
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        return value


@lru_cache(maxsize=None)
def _factory_params(factory: BenchmarkFactory) -> Optional[FrozenSet[str]]:
    """Keyword parameter names ``factory`` accepts (None: any name)."""
    signature = inspect.signature(_FORWARDS_PARAMS_TO.get(factory, factory))
    params = signature.parameters.values()
    if any(param.kind is param.VAR_KEYWORD for param in params):
        return None
    return frozenset(param.name for param in params
                     if param.kind in (param.POSITIONAL_OR_KEYWORD, param.KEYWORD_ONLY))


def _check_params(name: str, params: Dict[str, object]) -> None:
    """Reject parameter names the benchmark's factory does not take."""
    valid = _factory_params(ALL_BENCHMARKS[name])
    if valid is None:
        return
    unknown = sorted(set(params) - valid)
    if unknown:
        raise ValueError(
            f"unknown parameter(s) {', '.join(map(repr, unknown))} for benchmark "
            f"{name!r}; valid parameters: {sorted(valid)}"
        )


def parse_benchmark_spec(text: str) -> Tuple[str, Dict[str, object]]:
    """Split a benchmark spec string into ``(name, factory_params)``.

    Accepts ``"mapreduce"`` or ``"storage_io:num_functions=20,memory_mb=512"``.
    The name is validated against the registry (``KeyError``) and the
    parameter names against the factory's signature (``ValueError``), so a
    misspelt spec fails here rather than when a worker builds the benchmark.
    """
    text = text.strip()
    name, _, rest = text.partition(":")
    name = name.strip()
    if name not in ALL_BENCHMARKS:
        raise KeyError(f"unknown benchmark {name!r}; available: {sorted(ALL_BENCHMARKS)}")
    params: Dict[str, object] = {}
    if rest.strip():
        for assignment in rest.split(","):
            key, sep, value = assignment.partition("=")
            if not sep or not key.strip():
                raise ValueError(f"malformed benchmark parameter {assignment!r}")
            params[key.strip()] = _coerce_param(value.strip())
    _check_params(name, params)
    return name, params


def canonical_benchmark_spec(name: str, **params: object) -> str:
    """The stable spec-string form of ``(name, params)``.

    Parameters are sorted by key, so two spec strings naming the same
    benchmark configuration canonicalise identically -- campaign cell keys
    and fingerprints rely on this.  ``name`` itself may already be a spec
    string; its parameters are merged (explicit ``params`` win).
    """
    base, parsed = parse_benchmark_spec(name)
    merged = {**parsed, **params}
    if not merged:
        return base
    rendered = ",".join(f"{key}={value}" for key, value in sorted(merged.items()))
    return f"{base}:{rendered}"


def get_benchmark(name: str, **params: object) -> WorkflowBenchmark:
    """Construct a benchmark by name or spec string.

    Parameter overrides from a spec string (``"storage_io:download_bytes=4096"``)
    and explicit keyword arguments are merged (keywords win) and forwarded to
    the benchmark's factory.
    """
    base, parsed = parse_benchmark_spec(name)
    merged = {**parsed, **params}
    _check_params(base, params)
    return ALL_BENCHMARKS[base](**merged)
