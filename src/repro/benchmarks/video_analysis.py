"""Video Analysis benchmark: object detection on decoded video frames (paper Section 5).

Workflow structure (Figure 6 of the paper)::

    decode --> detect (N parallel) --> acc

``decode`` downloads the input video, decodes ``F`` frames, and uploads
``N = ceil(F / B)`` frame batches of size ``B`` to object storage; ``N``
parallel ``detect`` functions run the object-detection model (a Faster-R-CNN
stand-in) on their batch and return all detections with confidence above 0.5;
``acc`` accumulates the detections into the final result.

Defaults follow the paper: ``F = 10`` frames, batch size ``B = 5``, yielding
two parallel detect functions, a ~239 MB video download, and ~7.5 MB of
uploads.  Frames are synthesised deterministically; "inference" is a small
deterministic convolution-like kernel whose paper-scale cost is charged via
``ctx.compute``.
"""

from __future__ import annotations

import math
from typing import Dict, List

import numpy as np

from ..core.builder import DataItem, FunctionDataSpec
from ..core.definition import WorkflowDefinition
from ..core.wfdnet import ResourceAnnotation
from ..faas.benchmark import WorkflowBenchmark, require_at_least
from ..sim.invocation import FunctionSpec, InvocationContext
from ..sim.rng import named_stream

#: Size of the input video staged in object storage (paper Table 4: 238.83 MB).
VIDEO_BYTES = 232_000_000
#: Size of one uploaded frame batch (decode uploads ~7.5 MB in total for 2 batches).
BATCH_BYTES = 3_600_000

#: Abstract compute cost of decoding one frame and of one model inference pass.
_DECODE_WORK_PER_FRAME = 0.55
_DETECT_WORK_PER_FRAME = 1.45
_ACC_WORK = 0.3

#: Object classes the stand-in detector can report.
_CLASSES = ("person", "car", "bicycle", "dog", "traffic light")


def _synthesize_frame(seed: int, size: int = 24) -> np.ndarray:
    rng = named_stream(seed, "video.frame")
    return rng.random((size, size))


def _detect_objects(frame: np.ndarray, frame_id: int) -> List[Dict[str, object]]:
    """Deterministic stand-in for Faster R-CNN: scores derived from frame statistics."""
    kernel = np.outer(np.hanning(5), np.hanning(5))
    response = np.convolve(frame.ravel(), kernel.ravel(), mode="same")
    detections: List[Dict[str, object]] = []
    for index, cls in enumerate(_CLASSES):
        score = float(abs(math.sin(response[(index * 37) % len(response)] * 10 + frame_id)))
        if score > 0.5:
            detections.append({"frame": frame_id, "class": cls, "confidence": round(score, 3)})
    return detections


# --------------------------------------------------------------------- handlers
def decode_handler(ctx: InvocationContext, payload: Dict[str, object]) -> Dict[str, object]:
    """Download the video, decode frames, upload frame batches."""
    frames = int(payload.get("frames", 10))
    batch_size = int(payload.get("batch_size", 5))
    video_key = str(payload.get("video_key", "video/input.mp4"))

    ctx.download(video_key)
    ctx.compute(_DECODE_WORK_PER_FRAME * frames)

    num_batches = math.ceil(frames / batch_size)
    batches = []
    for batch_index in range(num_batches):
        first = batch_index * batch_size
        count = min(batch_size, frames - first)
        batch_key = f"video/batch-{ctx.invocation_id}-{batch_index}.npz"
        ctx.upload(batch_key, BATCH_BYTES)
        batches.append(
            {"batch_key": batch_key, "first_frame": first, "frame_count": count}
        )
    return {"batches": batches}


def detect_handler(ctx: InvocationContext, batch: Dict[str, object]) -> Dict[str, object]:
    """Run object detection on one frame batch."""
    batch_key = str(batch.get("batch_key", ""))
    first_frame = int(batch.get("first_frame", 0))
    frame_count = int(batch.get("frame_count", 5))

    if batch_key and ctx.object_exists(batch_key):
        ctx.download(batch_key)
    detections: List[Dict[str, object]] = []
    for offset in range(frame_count):
        frame_id = first_frame + offset
        frame = _synthesize_frame(frame_id)
        detections.extend(_detect_objects(frame, frame_id))
    ctx.compute(_DETECT_WORK_PER_FRAME * frame_count)
    return {"batch_key": batch_key, "detections": detections}


def acc_handler(ctx: InvocationContext, results: List[Dict[str, object]]) -> Dict[str, object]:
    """Accumulate per-batch detections into the final payload."""
    all_detections: List[Dict[str, object]] = []
    for entry in results:
        all_detections.extend(list(entry.get("detections", [])))
    by_class: Dict[str, int] = {}
    for detection in all_detections:
        cls = str(detection["class"])
        by_class[cls] = by_class.get(cls, 0) + 1
    ctx.compute(_ACC_WORK)
    ctx.upload(f"video/result-{ctx.invocation_id}.json", 200_000)
    return {"detections": all_detections, "counts_by_class": by_class}


def _prepare(platform) -> None:
    platform.object_storage.put_object("video/input.mp4", VIDEO_BYTES)


def build_definition() -> WorkflowDefinition:
    return WorkflowDefinition.from_dict(
        {
            "root": "decode_phase",
            "states": {
                "decode_phase": {"type": "task", "func_name": "decode", "next": "detect_phase"},
                "detect_phase": {
                    "type": "map",
                    "array": "batches",
                    "root": "detect",
                    "next": "acc_phase",
                    "states": {"detect": {"type": "task", "func_name": "detect"}},
                },
                "acc_phase": {"type": "task", "func_name": "acc"},
            },
        },
        name="video_analysis",
    )


def create_benchmark(
    frames: int = 10,
    batch_size: int = 5,
    memory_mb: int = 2048,
) -> WorkflowBenchmark:
    """The Video Analysis benchmark with the paper's default parameters."""
    require_at_least(1, frames=frames, batch_size=batch_size, memory_mb=memory_mb)
    definition = build_definition()
    num_batches = math.ceil(frames / batch_size)
    functions = {
        "decode": FunctionSpec("decode", decode_handler, cold_init_s=1.2),
        "detect": FunctionSpec("detect", detect_handler, cold_init_s=2.2),
        "acc": FunctionSpec("acc", acc_handler, cold_init_s=0.3),
    }
    data_spec = {
        "decode": FunctionDataSpec(
            reads=[DataItem("video", ResourceAnnotation.OBJECT_STORAGE, VIDEO_BYTES)],
            writes=[DataItem("batches", ResourceAnnotation.OBJECT_STORAGE, BATCH_BYTES * num_batches)],
        ),
        "detect": FunctionDataSpec(
            reads=[DataItem("batches", ResourceAnnotation.OBJECT_STORAGE, BATCH_BYTES * num_batches)],
            writes=[DataItem("detections", ResourceAnnotation.TRANSPARENT, 50_000)],
        ),
        "acc": FunctionDataSpec(
            reads=[DataItem("detections", ResourceAnnotation.TRANSPARENT, 50_000)],
            writes=[DataItem("result", ResourceAnnotation.OBJECT_STORAGE, 200_000)],
        ),
    }

    def make_input(index: int) -> Dict[str, object]:
        return {"frames": frames, "batch_size": batch_size, "video_key": "video/input.mp4"}

    return WorkflowBenchmark(
        name="video_analysis",
        definition=definition,
        functions=functions,
        memory_mb=memory_mb,
        prepare=_prepare,
        make_input=make_input,
        array_sizes={"batches": num_batches},
        data_spec=data_spec,
        description="Video decoding followed by parallel object detection",
        category="application",
    )
