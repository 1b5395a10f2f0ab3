"""Tests for the per-process memoized kernels of the application handlers.

The MapReduce corpus, the ML training accuracy and the 1000Genome variant
reductions are pure functions of a few payload integers and are cached with
``functools.lru_cache``.  These tests pin that each cached kernel equals its
uncached body (``__wrapped__``) and the handlers' original inline code, that
handlers still hand out fresh mutable payloads, and that the genome handlers
no longer depend on the process's string-hash seed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.benchmarks import genome, mapreduce, ml

SRC = Path(__file__).resolve().parents[2] / "src"


class RecordingContext:
    """The slice of ``InvocationContext`` the handlers use, logging each call."""

    def __init__(self, invocation_id="inv-0", objects=()):
        self.invocation_id = invocation_id
        self.objects = set(objects)
        self.calls = []

    def object_exists(self, key):
        return key in self.objects

    def download(self, key):
        self.calls.append(("download", key))

    def compute(self, seconds):
        self.calls.append(("compute", seconds))

    def upload(self, key, size):
        self.calls.append(("upload", key, size))


def _reference_corpus(total_words, num_chunks, seed):
    """The corpus generator as it was before memoization (lists)."""
    words = []
    state = seed * 2654435761 % (2**32) or 1
    for _ in range(total_words):
        state = (1103515245 * state + 12345) % (2**31)
        words.append(mapreduce.WORDS[state % len(mapreduce.WORDS)])
    chunk_size = max(1, (len(words) + num_chunks - 1) // num_chunks)
    return [words[i : i + chunk_size] for i in range(0, len(words), chunk_size)]


def _reference_counts(words):
    """``map_handler``'s counting loop as it was before ``Counter``."""
    counts = {}
    for word in words:
        counts[word] = counts.get(word, 0) + 1
    return counts


class TestMapReduceKernel:
    @pytest.mark.parametrize("total_words,num_chunks", [(1, 1), (7, 3), (300, 4), (5000, 3)])
    def test_cached_corpus_equals_uncached_and_reference(self, total_words, num_chunks):
        for seed in range(0, 40, 3):
            cached = mapreduce._make_corpus(total_words, num_chunks, seed)
            assert cached == mapreduce._make_corpus.__wrapped__(total_words, num_chunks, seed)
            chunks, sizes = cached
            reference = _reference_corpus(total_words, num_chunks, seed)
            assert [list(chunk) for chunk in chunks] == reference
            assert list(sizes) == [sum(len(w) + 1 for w in chunk) for chunk in reference]

    def test_cached_values_are_immutable(self):
        chunks, sizes = mapreduce._make_corpus(60, 3, 5)
        assert isinstance(chunks, tuple) and isinstance(sizes, tuple)
        assert all(isinstance(chunk, tuple) for chunk in chunks)

    def test_split_uploads_reference_sizes_in_order(self):
        ctx = RecordingContext()
        mapreduce.split_handler(ctx, {"total_words": 301, "num_mappers": 3, "seed": 4})
        uploads = [call for call in ctx.calls if call[0] == "upload"]
        reference = _reference_corpus(301, 3, 4)
        assert uploads == [
            ("upload", f"mapreduce/chunk-inv-0-{index}", sum(len(w) + 1 for w in chunk))
            for index, chunk in enumerate(reference)
        ]
        assert ctx.calls[0] == ("compute", mapreduce._WORK_PER_WORD * 301)

    def test_mutating_a_payload_does_not_leak_into_the_next_call(self):
        payload = {"total_words": 90, "num_mappers": 3, "seed": 11}
        first = mapreduce.split_handler(RecordingContext(), payload)
        pristine = json.loads(json.dumps(first))
        first["chunks"][0]["words"].append("poisoned")
        first["chunks"][1]["words"].clear()
        second = mapreduce.split_handler(RecordingContext(), payload)
        assert second == pristine
        assert second["chunks"][0]["words"] is not first["chunks"][0]["words"]
        assert all(isinstance(chunk["words"], list) for chunk in second["chunks"])

    @pytest.mark.parametrize("seed", [1, 2, 17])
    def test_map_counts_keep_the_loop_key_order(self, seed):
        for chunk in _reference_corpus(500, 3, seed):
            out = mapreduce.map_handler(RecordingContext(), {"chunk_id": 0, "words": chunk})
            expected = _reference_counts(chunk)
            assert out["counts"] == expected
            assert list(out["counts"]) == list(expected)
        out = mapreduce.map_handler(RecordingContext(), {"words": ["b", "a", "b", "c", "a"]})
        assert list(out["counts"].items()) == [("b", 2), ("a", 2), ("c", 1)]


class TestMlKernel:
    @pytest.mark.parametrize("kind", ["svm", "forest"])
    def test_cached_accuracy_equals_uncached(self, kind):
        for seed in (0, 7, 8, 23):
            assert ml._accuracy(kind, seed) == ml._accuracy.__wrapped__(kind, seed)

    def test_accuracy_matches_the_inline_training(self):
        import numpy as np

        seed = 9
        features, labels = ml._make_dataset(seed)
        weights = ml._train_svm(features, labels)
        predictions = np.sign(features @ weights)
        predictions[predictions == 0] = 1.0
        assert ml._accuracy("svm", seed) == float((predictions == labels).mean())
        forest = ml._train_forest(features, labels, seed=seed)
        votes = np.array([sum(ml._tree_predict(t, row) for t in forest) for row in features])
        predictions = np.sign(votes)
        predictions[predictions == 0] = 1.0
        assert ml._accuracy("forest", seed) == float((predictions == labels).mean())

    def test_train_handler_calls_context_in_order(self):
        ctx = RecordingContext(objects={"ml/data.npy"})
        task = {"kind": "svm", "samples": 500, "features": 1024, "seed": 7,
                "dataset_key": "ml/data.npy"}
        out = ml.train_handler(ctx, task)
        assert ctx.calls == [
            ("download", "ml/data.npy"),
            ("compute", ml._SVM_WORK_PER_CELL * 500 * 1024),
            ("upload", "ml/model-svm-inv-0.bin", 1024 * 8),
        ]
        assert out == {"kind": "svm", "accuracy": ml._accuracy("svm", 7),
                       "model_key": "ml/model-svm-inv-0.bin"}


class TestGenomeKernels:
    def test_cached_reductions_equal_uncached_and_reference(self):
        for chunk_id in range(0, 100, 7):
            for lines in (1, 50, 200):
                counts = genome._variant_counts(chunk_id, lines)
                assert counts == genome._variant_counts.__wrapped__(chunk_id, lines)
                variants = genome._synthetic_variants(chunk_id, lines)
                assert counts == (len(variants), len([v for v in variants if v["af"] < 0.05]))
            variants = genome._synthetic_variants(chunk_id, 150)
            overlap = genome._overlap_count(chunk_id)
            assert overlap == genome._overlap_count.__wrapped__(chunk_id)
            assert overlap == sum(1 for v in variants if v["ref"] != v["alt"] and v["af"] > 0.1)
            frequency = genome._mean_frequency(chunk_id)
            assert frequency == genome._mean_frequency.__wrapped__(chunk_id)
            assert frequency == sum(v["af"] for v in variants) / len(variants)

    def test_individuals_payload_is_fresh_per_call(self):
        chunk = {"chunk_id": 3, "lines": 250}
        first = genome.individuals_handler(RecordingContext(), chunk)
        first["variant_count"] = -1
        second = genome.individuals_handler(RecordingContext(), chunk)
        assert second["variant_count"] == 200
        assert second["rare_variant_count"] == genome._variant_counts(3, 200)[1]


#: Runs both population handlers for every population and prints the outputs.
_POPULATION_PROBE = """
import json
from repro.benchmarks import genome

class Ctx:
    invocation_id = "inv"
    def object_exists(self, key): return False
    def compute(self, seconds): pass
    def upload(self, key, size): pass

out = {}
for population in genome.POPULATIONS:
    item = {"population": population, "merged_key": ""}
    out[population] = [genome.mutation_overlap_handler(Ctx(), item),
                       genome.frequency_handler(Ctx(), item)]
print(json.dumps(out, sort_keys=True))
"""


def test_population_handlers_ignore_the_string_hash_seed():
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC))
        completed = subprocess.run(
            [sys.executable, "-c", _POPULATION_PROBE], env=env,
            capture_output=True, text=True, check=True, timeout=60,
        )
        outputs.append(json.loads(completed.stdout))
    assert outputs[0] == outputs[1]
    assert set(outputs[0]) == set(genome.POPULATIONS)
