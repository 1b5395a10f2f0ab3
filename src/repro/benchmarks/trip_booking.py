"""Trip Booking benchmark: a sequential web-application workflow (paper Section 5).

The workflow mocks a travel-reservation system that books a hotel, a car
rental, and a flight, storing every reservation in a shared NoSQL database.
It implements the SAGA pattern of long-running transactions: when the final
confirmation fails, three compensation functions reverse the bookings in the
opposite order.  As in the paper, the experiment *simulates a failure in the
confirm step*, so every invocation exercises the full compensation path.

Workflow structure::

    book_hotel -> book_car -> book_flight -> confirm -> [switch]
        success   -> complete
        failure   -> cancel_flight -> cancel_car -> cancel_hotel
"""

from __future__ import annotations

import hashlib
from typing import Dict

from ..core.builder import DataItem, FunctionDataSpec
from ..core.definition import WorkflowDefinition
from ..core.wfdnet import ResourceAnnotation
from ..faas.benchmark import WorkflowBenchmark, require_at_least
from ..sim.invocation import FunctionSpec, InvocationContext

_TABLE = "trip_bookings"
#: Abstract compute cost of one booking step (request validation, id generation).
_STEP_WORK = 0.03


def _booking_id(ctx: InvocationContext, kind: str) -> str:
    digest = hashlib.sha256(f"{ctx.invocation_id}:{kind}".encode()).hexdigest()
    return digest[:16]


def _book(ctx: InvocationContext, payload: Dict[str, object], kind: str) -> Dict[str, object]:
    """Create one reservation of ``kind`` and record it in the NoSQL table."""
    trip_id = str(payload.get("trip_id", ctx.invocation_id))
    booking = {
        "trip_id": trip_id,
        "kind": kind,
        "booking_id": _booking_id(ctx, kind),
        "status": "reserved",
    }
    ctx.compute(_STEP_WORK)
    ctx.nosql_put(_TABLE, trip_id, booking, sort_key=kind)
    bookings = dict(payload.get("bookings", {}))
    bookings[kind] = booking["booking_id"]
    result = dict(payload)
    result["trip_id"] = trip_id
    result["bookings"] = bookings
    return result


def book_hotel(ctx: InvocationContext, payload: Dict[str, object]) -> Dict[str, object]:
    return _book(ctx, payload, "hotel")


def book_car(ctx: InvocationContext, payload: Dict[str, object]) -> Dict[str, object]:
    return _book(ctx, payload, "car")


def book_flight(ctx: InvocationContext, payload: Dict[str, object]) -> Dict[str, object]:
    return _book(ctx, payload, "flight")


def confirm(ctx: InvocationContext, payload: Dict[str, object]) -> Dict[str, object]:
    """Confirm the trip; the benchmark configuration forces a failure here."""
    trip_id = str(payload.get("trip_id", ctx.invocation_id))
    reservations = ctx.nosql_query(_TABLE, trip_id)
    ctx.compute(_STEP_WORK)
    force_failure = bool(payload.get("force_failure", True))
    success = 0 if force_failure or len(reservations) < 3 else 1
    result = dict(payload)
    result["success"] = success
    result["reservations_found"] = len(reservations)
    return result


def _cancel(ctx: InvocationContext, payload: Dict[str, object], kind: str) -> Dict[str, object]:
    """Compensation step of the SAGA: remove one reservation."""
    trip_id = str(payload.get("trip_id", ctx.invocation_id))
    ctx.compute(_STEP_WORK)
    ctx.nosql_delete(_TABLE, trip_id, sort_key=kind)
    cancelled = list(payload.get("cancelled", []))
    cancelled.append(kind)
    result = dict(payload)
    result["cancelled"] = cancelled
    return result


def cancel_flight(ctx: InvocationContext, payload: Dict[str, object]) -> Dict[str, object]:
    return _cancel(ctx, payload, "flight")


def cancel_car(ctx: InvocationContext, payload: Dict[str, object]) -> Dict[str, object]:
    return _cancel(ctx, payload, "car")


def cancel_hotel(ctx: InvocationContext, payload: Dict[str, object]) -> Dict[str, object]:
    return _cancel(ctx, payload, "hotel")


def complete(ctx: InvocationContext, payload: Dict[str, object]) -> Dict[str, object]:
    ctx.compute(_STEP_WORK)
    result = dict(payload)
    result["status"] = "confirmed"
    return result


def _prepare(platform) -> None:
    platform.nosql.create_table(_TABLE)


def build_definition() -> WorkflowDefinition:
    return WorkflowDefinition.from_dict(
        {
            "root": "book_hotel_phase",
            "states": {
                "book_hotel_phase": {"type": "task", "func_name": "book_hotel", "next": "book_car_phase"},
                "book_car_phase": {"type": "task", "func_name": "book_car", "next": "book_flight_phase"},
                "book_flight_phase": {"type": "task", "func_name": "book_flight", "next": "confirm_phase"},
                "confirm_phase": {"type": "task", "func_name": "confirm", "next": "outcome_switch"},
                "outcome_switch": {
                    "type": "switch",
                    "cases": [
                        {"variable": "success", "operator": "==", "value": 0, "next": "cancel_flight_phase"}
                    ],
                    "default": "complete_phase",
                },
                "cancel_flight_phase": {"type": "task", "func_name": "cancel_flight", "next": "cancel_car_phase"},
                "cancel_car_phase": {"type": "task", "func_name": "cancel_car", "next": "cancel_hotel_phase"},
                "cancel_hotel_phase": {"type": "task", "func_name": "cancel_hotel"},
                "complete_phase": {"type": "task", "func_name": "complete"},
            },
        },
        name="trip_booking",
    )


def create_benchmark(memory_mb: int = 128, force_failure: bool = True) -> WorkflowBenchmark:
    """The Trip Booking (SAGA) benchmark with the paper's forced failure."""
    require_at_least(1, memory_mb=memory_mb)
    definition = build_definition()
    functions = {
        "book_hotel": FunctionSpec("book_hotel", book_hotel, cold_init_s=0.12),
        "book_car": FunctionSpec("book_car", book_car, cold_init_s=0.12),
        "book_flight": FunctionSpec("book_flight", book_flight, cold_init_s=0.12),
        "confirm": FunctionSpec("confirm", confirm, cold_init_s=0.12),
        "cancel_flight": FunctionSpec("cancel_flight", cancel_flight, cold_init_s=0.12),
        "cancel_car": FunctionSpec("cancel_car", cancel_car, cold_init_s=0.12),
        "cancel_hotel": FunctionSpec("cancel_hotel", cancel_hotel, cold_init_s=0.12),
        "complete": FunctionSpec("complete", complete, cold_init_s=0.12),
    }
    nosql_item = [DataItem("booking", ResourceAnnotation.NOSQL, 256)]
    data_spec = {
        name: FunctionDataSpec(reads=list(nosql_item), writes=list(nosql_item))
        for name in functions
    }

    def make_input(index: int) -> Dict[str, object]:
        return {"trip_id": f"trip-{index}", "force_failure": force_failure}

    return WorkflowBenchmark(
        name="trip_booking",
        definition=definition,
        functions=functions,
        memory_mb=memory_mb,
        prepare=_prepare,
        make_input=make_input,
        array_sizes={},
        data_spec=data_spec,
        description="Sequential SAGA-pattern reservation pipeline over NoSQL storage",
        category="application",
    )
