"""Domain model for quantized rectilinear floor plans.

A plan is a boundary loop, a front-door segment, and an ordered list of
typed room polygons, all on an integer cell grid of the given resolution.
Values are immutable; validation is explicit (`validate_plan`) so that
loosely parsed plans (e.g. decoded from generated token streams) can be
represented and then checked.
"""

import enum
import json
from dataclasses import dataclass, field

from . import geometry
from .errors import (
    DegenerateArea,
    InvariantViolation,
    NotRectilinear,
    PlanSyntaxError,
    SelfIntersecting,
)

Point = tuple  # (x, y) integer cell indices

DEFAULT_METERS_PER_CELL = 18.0 / 256.0


class RoomType(enum.IntEnum):
    """Closed set of room categories; ordinals are part of the token vocabulary."""

    LivingRoom = 0
    MasterRoom = 1
    Kitchen = 2
    Bathroom = 3
    DiningRoom = 4
    ChildRoom = 5
    StudyRoom = 6
    SecondRoom = 7
    GuestRoom = 8
    Balcony = 9
    Entrance = 10
    Storage = 11
    WallIn = 12


@dataclass(frozen=True)
class ScaleConfig:
    """Physical scale of the cell grid."""

    meters_per_cell: float = DEFAULT_METERS_PER_CELL

    def __post_init__(self):
        if not self.meters_per_cell > 0:
            raise InvariantViolation("scale.meters_per_cell", "must be positive")


@dataclass(frozen=True)
class RoomPolygon:
    """A typed rectilinear vertex loop (closing edge implicit)."""

    kind: RoomType
    vertices: tuple

    def __post_init__(self):
        object.__setattr__(self, "kind", RoomType(self.kind))
        object.__setattr__(
            self, "vertices", tuple((int(x), int(y)) for x, y in self.vertices)
        )


@dataclass(frozen=True)
class DoorSegment:
    """Front-door location as an axis-aligned segment on the boundary."""

    a: Point
    b: Point

    def __post_init__(self):
        object.__setattr__(self, "a", (int(self.a[0]), int(self.a[1])))
        object.__setattr__(self, "b", (int(self.b[0]), int(self.b[1])))


@dataclass(frozen=True)
class FloorPlan:
    """Boundary loop + door + ordered typed rooms on a cell grid."""

    resolution: int
    boundary: tuple
    door: DoorSegment
    rooms: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(
            self, "boundary", tuple((int(x), int(y)) for x, y in self.boundary)
        )
        object.__setattr__(self, "rooms", tuple(self.rooms))


def normalize_polygon(poly):
    """RoomPolygon in canonical form: CCW, no collinear midpoints, start at
    the lexicographically smallest vertex."""
    return RoomPolygon(poly.kind, geometry.normalize_loop(poly.vertices))


def normalize_plan(plan):
    """Plan with boundary and every room normalized (geometry unchanged)."""
    return FloorPlan(
        resolution=plan.resolution,
        boundary=geometry.normalize_loop(plan.boundary),
        door=plan.door,
        rooms=tuple(normalize_polygon(r) for r in plan.rooms),
    )


def _check_loop(path, loop, resolution):
    for i, (x, y) in enumerate(loop):
        if not (0 <= x < resolution and 0 <= y < resolution):
            raise InvariantViolation(f"{path}[{i}]", f"coordinate {(x, y)} outside [0, {resolution})")
    try:
        geometry.normalize_loop(loop)
    except (NotRectilinear, SelfIntersecting, DegenerateArea) as exc:
        raise InvariantViolation(path, str(exc)) from exc


def validate_plan(plan):
    """Raise InvariantViolation (with a field path) on the first failed
    structural invariant; return the plan unchanged otherwise."""
    if plan.resolution <= 0:
        raise InvariantViolation("resolution", "must be positive")
    _check_loop("boundary", plan.boundary, plan.resolution)
    door = plan.door
    for name, (x, y) in (("door.a", door.a), ("door.b", door.b)):
        if not (0 <= x < plan.resolution and 0 <= y < plan.resolution):
            raise InvariantViolation(name, f"coordinate {(x, y)} outside [0, {plan.resolution})")
    if door.a == door.b:
        raise InvariantViolation("door", "endpoints coincide")
    if door.a[0] != door.b[0] and door.a[1] != door.b[1]:
        raise InvariantViolation("door", "segment is not axis-aligned")
    # each endpoint must sit on the boundary, with one cell of quantization slack
    boundary_edges = [
        (plan.boundary[i], plan.boundary[(i + 1) % len(plan.boundary)])
        for i in range(len(plan.boundary))
    ]
    for name, pt in (("door.a", door.a), ("door.b", door.b)):
        d = min(geometry._point_segment_distance(pt, a, b) for a, b in boundary_edges)
        if d > 1.0:
            raise InvariantViolation(name, f"endpoint {pt} lies {d:.2f} cells off the boundary")
    for i, room in enumerate(plan.rooms):
        if not isinstance(room.kind, RoomType):
            raise InvariantViolation(f"rooms[{i}].type", f"unknown room type {room.kind!r}")
        _check_loop(f"rooms[{i}].polygon", room.vertices, plan.resolution)
    return plan


def serialize_plan(plan):
    """Plan as a UTF-8 JSON string (lossless, see deserialize_plan)."""
    payload = {
        "resolution": plan.resolution,
        "boundary": [[x, y] for x, y in plan.boundary],
        "door": [[plan.door.a[0], plan.door.a[1]], [plan.door.b[0], plan.door.b[1]]],
        "rooms": [
            {"type": room.kind.name, "polygon": [[x, y] for x, y in room.vertices]}
            for room in plan.rooms
        ],
    }
    return json.dumps(payload, indent=2)


def deserialize_plan(text):
    """Parse and validate a plan from its JSON form.

    Raises PlanSyntaxError on malformed JSON or wrong overall shape, and
    InvariantViolation (with field path) on structural violations.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PlanSyntaxError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise PlanSyntaxError("top-level value must be an object")
    try:
        resolution = int(payload["resolution"])
        boundary = tuple((int(x), int(y)) for x, y in payload["boundary"])
        (ax, ay), (bx, by) = payload["door"]
        rooms = []
        for i, room in enumerate(payload.get("rooms", [])):
            type_name = room["type"]
            if type_name not in RoomType.__members__:
                raise InvariantViolation(f"rooms[{i}].type", f"unknown room type {type_name!r}")
            rooms.append(
                RoomPolygon(
                    RoomType[type_name],
                    tuple((int(x), int(y)) for x, y in room["polygon"]),
                )
            )
    except InvariantViolation:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise PlanSyntaxError(f"malformed plan object: {exc!r}") from exc
    plan = FloorPlan(
        resolution=resolution,
        boundary=boundary,
        door=DoorSegment((int(ax), int(ay)), (int(bx), int(by))),
        rooms=tuple(rooms),
    )
    return validate_plan(plan)
