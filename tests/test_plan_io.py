import json

import pytest

from conftest import make_plan, rect

from ergoplan.dataset import synth_plan
from ergoplan.errors import InvariantViolation, PlanSyntaxError
from ergoplan.plan import (
    RoomType,
    deserialize_plan,
    normalize_plan,
    serialize_plan,
    validate_plan,
)


def test_round_trip_identity(tiling_plan, spread_plan):
    for plan in (tiling_plan, spread_plan):
        assert deserialize_plan(serialize_plan(plan)) == plan


def test_round_trip_on_synthetic_plans():
    for seed in range(30):
        plan = synth_plan(seed)
        assert deserialize_plan(serialize_plan(plan)) == plan


def test_serialized_schema_shape(tiling_plan):
    payload = json.loads(serialize_plan(tiling_plan))
    assert set(payload) == {"resolution", "boundary", "door", "rooms"}
    assert payload["resolution"] == 256
    assert payload["rooms"][0]["type"] == "Entrance"
    assert payload["door"] == [[0, 4], [0, 8]]
    assert all(len(p) == 2 for p in payload["boundary"])


def test_door_off_boundary_rejected():
    plan = make_plan(rect(0, 0, 32, 32), ((10, 10), (10, 14)), [])
    text = serialize_plan(plan)
    with pytest.raises(InvariantViolation) as err:
        deserialize_plan(text)
    assert "door" in err.value.path


def test_coordinate_at_resolution_rejected():
    plan = make_plan(rect(0, 0, 256, 256), ((0, 4), (0, 8)), [], resolution=256)
    with pytest.raises(InvariantViolation) as err:
        deserialize_plan(serialize_plan(plan))
    assert "boundary" in err.value.path


def test_room_field_path_in_error(tiling_plan):
    payload = json.loads(serialize_plan(tiling_plan))
    payload["rooms"][1]["polygon"][1] = [300, 0]
    with pytest.raises(InvariantViolation) as err:
        deserialize_plan(json.dumps(payload))
    assert err.value.path.startswith("rooms[1]")


def test_unknown_room_type_rejected(tiling_plan):
    payload = json.loads(serialize_plan(tiling_plan))
    payload["rooms"][0]["type"] = "Garage"
    with pytest.raises(InvariantViolation):
        deserialize_plan(json.dumps(payload))


def test_malformed_json_is_syntax_error():
    with pytest.raises(PlanSyntaxError):
        deserialize_plan("{not json")
    with pytest.raises(PlanSyntaxError):
        deserialize_plan('["a", "list"]')
    with pytest.raises(PlanSyntaxError):
        deserialize_plan('{"resolution": 256}')


@pytest.mark.parametrize("field", ["boundary", "door", "rooms"])
@pytest.mark.parametrize("bad", [None, "x", [1]])
def test_non_numeric_coordinate_is_syntax_error(tiling_plan, field, bad):
    payload = json.loads(serialize_plan(tiling_plan))
    points = payload["rooms"][0]["polygon"] if field == "rooms" else payload[field]
    points[0][0] = bad
    with pytest.raises(PlanSyntaxError):
        deserialize_plan(json.dumps(payload))


def test_validate_accepts_valid(tiling_plan, spread_plan):
    validate_plan(tiling_plan)
    validate_plan(spread_plan)


def test_normalize_plan_preserves_costs(spread_plan):
    normalized = normalize_plan(spread_plan)
    assert [r.kind for r in normalized.rooms] == [r.kind for r in spread_plan.rooms]
    for room in normalized.rooms:
        assert room.vertices[0] == min(room.vertices)


def test_room_type_ordinals_frozen():
    expected = [
        "LivingRoom",
        "MasterRoom",
        "Kitchen",
        "Bathroom",
        "DiningRoom",
        "ChildRoom",
        "StudyRoom",
        "SecondRoom",
        "GuestRoom",
        "Balcony",
        "Entrance",
        "Storage",
        "WallIn",
    ]
    assert [t.name for t in sorted(RoomType, key=int)] == expected
    assert [int(t) for t in sorted(RoomType, key=int)] == list(range(13))
