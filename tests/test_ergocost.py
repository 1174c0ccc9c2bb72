import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SPREAD_PLAN_COST_CELLS, histogram_polygon, make_plan, rect
from oracles import naive_ergonomic_cost

from ergoplan import ergocost, ergoloss
from ergoplan.dataset import mirror_plan, rotate_plan, synth_plan, SynthConfig
from ergoplan.geometry import min_distance
from ergoplan.plan import DoorSegment, FloorPlan, RoomPolygon, RoomType, ScaleConfig

CELLS = ScaleConfig(1.0)


def charges(plan, kind):
    """[(room index, cost)] of the rooms of one kind that ergonomic_cost
    charges, in report order."""
    return [(i, cost) for i, k, cost in ergocost.ergonomic_cost(plan, CELLS).entries if k == kind]


def test_each_charged_kind_belongs_to_one_rule():
    charged = [
        kinds if side == ergocost.CLIENT else targets
        for _, kinds, targets, side in ergocost.RULES
    ]
    assert charged == [
        (RoomType.Entrance,),
        (RoomType.Kitchen,),
        (RoomType.Bathroom,),
        (RoomType.Balcony,),
    ]


def test_rule_rooms_lists_members_in_plan_order_and_the_door_last():
    kinds = [
        RoomType.Kitchen,
        RoomType.Entrance,
        RoomType.Storage,
        RoomType.Entrance,
        RoomType.LivingRoom,
    ]
    assert ergocost.rule_rooms(kinds) == [
        ("entrances", [1, 3], [5], ergocost.CLIENT),
        ("kitchens", [1, 3], [0], ergocost.TARGET),
        ("bathrooms", [1, 3, 4], [], ergocost.TARGET),
        ("balconies", [], [0, 4], ergocost.CLIENT),
    ]
    assert ergocost.rule_rooms([]) == [
        ("entrances", [], [0], ergocost.CLIENT),
        ("kitchens", [], [], ergocost.TARGET),
        ("bathrooms", [], [], ergocost.TARGET),
        ("balconies", [], [], ergocost.CLIENT),
    ]


def test_entrance_touching_door_is_zero(tiling_plan):
    costs = charges(tiling_plan, RoomType.Entrance)
    assert costs == [(0, 0.0)]


def test_entrance_two_cells_from_door():
    plan = make_plan(
        rect(0, 0, 32, 32),
        ((0, 4), (0, 8)),
        [(RoomType.Entrance, rect(2, 0, 10, 10))],
    )
    assert charges(plan, RoomType.Entrance) == [(0, 2.0)]


def test_two_entrances_independent_entries():
    plan = make_plan(
        rect(0, 0, 32, 32),
        ((0, 4), (0, 8)),
        [
            (RoomType.Entrance, rect(0, 0, 8, 8)),
            (RoomType.Entrance, rect(8, 16, 16, 24)),
        ],
    )
    costs = dict(charges(plan, RoomType.Entrance))
    assert costs[0] == 0.0
    assert costs[1] == min_distance(plan.rooms[1], plan.door, CELLS)
    assert costs[1] > 0.0


def test_kitchen_adjacent_entrance_no_dining(tiling_plan):
    assert charges(tiling_plan, RoomType.Kitchen) == [(1, 0.0)]


def test_kitchen_mean_of_two_clients():
    plan = make_plan(
        rect(0, 0, 40, 40),
        ((0, 2), (0, 6)),
        [
            (RoomType.Kitchen, rect(16, 0, 20, 4)),
            (RoomType.Entrance, rect(10, 0, 14, 4)),  # gap 2
            (RoomType.DiningRoom, rect(24, 0, 28, 4)),  # gap 4
        ],
    )
    assert charges(plan, RoomType.Kitchen) == [(0, pytest.approx(3.0))]


def test_two_kitchens_match_nearest_assignment_enumeration(rng):
    for _ in range(20):
        def r(x, y):
            return rect(x, y, x + 3, y + 3)

        spots = rng.choice(30, size=(5, 2), replace=False) * 1
        plan = make_plan(
            rect(0, 0, 128, 128),
            ((0, 2), (0, 6)),
            [
                (RoomType.Kitchen, r(int(spots[0][0]), int(spots[0][1]))),
                (RoomType.Kitchen, r(int(spots[1][0]) + 40, int(spots[1][1]))),
                (RoomType.Entrance, r(int(spots[2][0]), int(spots[2][1]) + 40)),
                (RoomType.DiningRoom, r(int(spots[3][0]) + 40, int(spots[3][1]) + 40)),
                (RoomType.DiningRoom, r(int(spots[4][0]) + 80, int(spots[4][1]) + 80)),
            ],
        )
        got = dict(charges(plan, RoomType.Kitchen))
        # exhaustive nearest assignment
        kitchens = [0, 1]
        clients = [2, 3, 4]
        assigned = {k: [] for k in kitchens}
        for c in clients:
            best = min(kitchens, key=lambda k: (min_distance(plan.rooms[c], plan.rooms[k], CELLS), k))
            assigned[best].append(c)
        for k in kitchens:
            if assigned[k]:
                expected = sum(
                    min_distance(plan.rooms[k], plan.rooms[c], CELLS) for c in assigned[k]
                ) / len(assigned[k])
                assert got[k] == pytest.approx(expected, abs=1e-12)
            else:
                assert k not in got


def test_bathroom_adjacent_to_all_clients_is_zero(tiling_plan):
    assert charges(tiling_plan, RoomType.Bathroom) == [(3, 0.0)]


def test_two_bathrooms_match_nearest_assignment_enumeration(rng):
    for _ in range(15):
        def r(x, y):
            return rect(x, y, x + 3, y + 3)

        spots = rng.integers(0, 40, size=(6, 2))
        plan = make_plan(
            rect(0, 0, 128, 128),
            ((0, 2), (0, 6)),
            [
                (RoomType.Bathroom, r(int(spots[0][0]), int(spots[0][1]))),
                (RoomType.Bathroom, r(int(spots[1][0]) + 60, int(spots[1][1]) + 60)),
                (RoomType.Entrance, r(int(spots[2][0]), int(spots[2][1]) + 60)),
                (RoomType.LivingRoom, r(int(spots[3][0]) + 60, int(spots[3][1]))),
                (RoomType.MasterRoom, r(int(spots[4][0]) + 30, int(spots[4][1]) + 30)),
                (RoomType.SecondRoom, r(int(spots[5][0]), int(spots[5][1]))),
            ],
        )
        got = dict(charges(plan, RoomType.Bathroom))
        baths = [0, 1]
        clients = [2, 3, 4, 5]
        assigned = {b: [] for b in baths}
        for c in clients:
            best = min(baths, key=lambda b: (min_distance(plan.rooms[c], plan.rooms[b], CELLS), b))
            assigned[best].append(c)
        for b in baths:
            if assigned[b]:
                expected = sum(
                    min_distance(plan.rooms[b], plan.rooms[c], CELLS) for c in assigned[b]
                ) / len(assigned[b])
                assert got[b] == pytest.approx(expected, abs=1e-12)
            else:
                assert b not in got


def test_bathroom_mean_of_client_distances():
    plan = make_plan(
        rect(0, 0, 64, 64),
        ((0, 2), (0, 6)),
        [
            (RoomType.Bathroom, rect(0, 0, 4, 4)),
            (RoomType.Entrance, rect(5, 0, 9, 4)),  # 1
            (RoomType.LivingRoom, rect(6, 0, 10, 4)),  # 2
            (RoomType.MasterRoom, rect(7, 0, 11, 4)),  # 3
            (RoomType.SecondRoom, rect(8, 0, 12, 4)),  # 4
        ],
    )
    assert charges(plan, RoomType.Bathroom) == [(0, pytest.approx(2.5))]


def test_balcony_adjacent_to_living_room_is_zero():
    plan = make_plan(
        rect(0, 0, 32, 32),
        ((0, 2), (0, 6)),
        [
            (RoomType.LivingRoom, rect(0, 0, 16, 16)),
            (RoomType.Balcony, rect(16, 0, 24, 8)),
        ],
    )
    assert charges(plan, RoomType.Balcony) == [(1, 0.0)]


def test_balcony_takes_minimum_over_neighbors(spread_plan):
    assert charges(spread_plan, RoomType.Balcony) == [(5, pytest.approx(8.0))]


def test_balcony_omitted_without_neighbor_types():
    plan = make_plan(
        rect(0, 0, 32, 32),
        ((0, 2), (0, 6)),
        [
            (RoomType.Balcony, rect(0, 0, 8, 8)),
            (RoomType.Bathroom, rect(8, 0, 16, 8)),
        ],
    )
    assert charges(plan, RoomType.Balcony) == []
    report = ergocost.ergonomic_cost(plan, CELLS)
    assert report.applicable_terms["balconies"] is False


def test_total_zero_and_perfect(tiling_plan):
    report = ergocost.ergonomic_cost(tiling_plan, CELLS)
    assert report.total == 0.0
    assert report.perfect is True
    assert report.applicable_terms == {
        "entrances": True,
        "kitchens": True,
        "bathrooms": True,
        "balconies": False,
    }


def test_single_entrance_total_is_its_distance():
    plan = make_plan(
        rect(0, 0, 32, 32),
        ((0, 4), (0, 8)),
        [(RoomType.Entrance, rect(3, 0, 10, 10))],
    )
    report = ergocost.ergonomic_cost(plan, CELLS)
    assert report.total == pytest.approx(3.0)
    assert report.perfect is False


def test_not_applicable_when_no_charged_rooms():
    plan = make_plan(
        rect(0, 0, 32, 32),
        ((0, 4), (0, 8)),
        [(RoomType.Storage, rect(0, 0, 8, 8))],
    )
    report = ergocost.ergonomic_cost(plan, CELLS)
    assert report.total is None
    assert report.perfect is False
    assert not report.applicable


def test_spread_plan_hand_value(spread_plan):
    report = ergocost.ergonomic_cost(spread_plan, CELLS)
    assert report.total == pytest.approx(SPREAD_PLAN_COST_CELLS, abs=1e-12)


def test_matches_naive_oracle_on_synthetic_plans():
    cfg = SynthConfig(de_ergonomize_fraction=0.5)
    scale = ScaleConfig()
    for seed in range(50):
        plan = synth_plan(seed, cfg)
        expected = naive_ergonomic_cost(plan, scale.meters_per_cell)
        report = ergocost.ergonomic_cost(plan, scale)
        if expected is None:
            assert report.total is None
        else:
            assert report.total == pytest.approx(expected, abs=1e-9)


def test_translation_invariance(spread_plan):
    shifted = FloorPlan(
        resolution=spread_plan.resolution,
        boundary=tuple((x + 13, y + 7) for x, y in spread_plan.boundary),
        door=type(spread_plan.door)(
            (spread_plan.door.a[0] + 13, spread_plan.door.a[1] + 7),
            (spread_plan.door.b[0] + 13, spread_plan.door.b[1] + 7),
        ),
        rooms=tuple(
            type(r)(r.kind, tuple((x + 13, y + 7) for x, y in r.vertices))
            for r in spread_plan.rooms
        ),
    )
    a = ergocost.ergonomic_cost(spread_plan, CELLS)
    b = ergocost.ergonomic_cost(shifted, CELLS)
    assert a.total == b.total


def test_isometry_invariance_exact(spread_plan):
    base = ergocost.ergonomic_cost(spread_plan, CELLS).total
    for turns in (1, 2, 3):
        assert ergocost.ergonomic_cost(rotate_plan(spread_plan, turns), CELLS).total == base
    assert ergocost.ergonomic_cost(mirror_plan(spread_plan), CELLS).total == base


def test_scale_doubling_doubles_exactly(spread_plan):
    base = ergocost.ergonomic_cost(spread_plan, ScaleConfig(0.25)).total
    doubled = ergocost.ergonomic_cost(spread_plan, ScaleConfig(0.5)).total
    assert doubled == 2.0 * base


def test_perfect_iff_all_contact(tiling_plan, spread_plan):
    assert ergocost.ergonomic_cost(tiling_plan, CELLS).perfect
    assert not ergocost.ergonomic_cost(spread_plan, CELLS).perfect


@settings(max_examples=40)
@given(st.integers(0, 2**31 - 1))
def test_isometry_invariance_on_synthetic_plans(seed):
    plan = synth_plan(seed, SynthConfig(de_ergonomize_fraction=0.5))
    base = ergocost.ergonomic_cost(plan, CELLS).total
    for turns in range(4):
        rotated = rotate_plan(plan, turns)
        for variant in (rotated, mirror_plan(rotated)):
            assert ergocost.ergonomic_cost(variant, CELLS).total == base


def earlier_cost(plan, scale):
    """ergonomic_cost with the earlier distance memo: raw shapes, every edge
    pair through the general segment test."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ergocost, "_distance_memo", oracles._distance_memo)
        return ergocost.ergonomic_cost(plan, scale)


def random_plan(seed, skylines):
    """Rooms of every charged kind scattered over a 64-cell square: apart,
    touching, overlapping and nested. Without skylines every room is a
    rectangle loop, from a random start in either orientation, and the door
    axis-aligned or a point, so every pair is two boxes. With skylines most
    rooms are histogram polygons and the door may be diagonal."""
    rng = np.random.default_rng(seed)
    kinds = (
        RoomType.Entrance,
        RoomType.Kitchen,
        RoomType.DiningRoom,
        RoomType.Bathroom,
        RoomType.LivingRoom,
        RoomType.MasterRoom,
        RoomType.SecondRoom,
        RoomType.StudyRoom,
        RoomType.Balcony,
    )  # every kind a rule names
    rooms = []
    for _ in range(int(rng.integers(3, 9))):
        x0, y0 = (int(v) for v in rng.integers(0, 40, 2))
        if skylines and rng.random() < 0.7:
            verts = histogram_polygon(rng, columns=int(rng.integers(1, 5)), base=(x0, y0))
        else:
            verts = rect(x0, y0, x0 + int(rng.integers(1, 16)), y0 + int(rng.integers(1, 16)))
            k = int(rng.integers(4))
            verts = verts[k:] + verts[:k]
            verts = verts[::-1] if rng.random() < 0.5 else verts
        rooms.append(RoomPolygon(kinds[int(rng.integers(len(kinds)))], verts))
    x, y = (int(v) for v in rng.integers(0, 56, 2))
    dx, dy = (int(v) for v in rng.integers(1, 8, 2))
    ends = [(x + dx, y), (x, y + dy), (x, y)] + ([(x + dx, y + dy)] if skylines else [])
    door = DoorSegment((x, y), ends[int(rng.integers(len(ends)))])
    return FloorPlan(resolution=256, boundary=rect(0, 0, 64, 64), door=door, rooms=tuple(rooms))


@settings(max_examples=150)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_reports_same_as_with_raw_shape_distances(seed, skylines):
    """Per-plan outlines and box gaps leave every ErgoReport, entries
    included, as the earlier raw-shape distances made it."""
    plan = random_plan(seed, skylines)
    for scale in (ScaleConfig(), CELLS):
        assert ergocost.ergonomic_cost(plan, scale) == earlier_cost(plan, scale)


@settings(max_examples=100)
@given(st.integers(0, 2**32 - 1))
def test_distance_memo_is_min_distance_bit_for_bit(seed):
    """Each memo distance equals min_distance between the raw shapes and the
    earlier raw-shape memo's distance, bit for bit: rectangle loops from any
    start in either orientation, skylines, and doors that are axis-aligned,
    diagonal or zero-length, with no scale (as the synthesizer calls it), a
    bare factor and a ScaleConfig."""
    rng = np.random.default_rng(seed)
    shapes = []
    for _ in range(4):
        x0, y0 = (int(v) for v in rng.integers(0, 30, 2))
        loop = rect(x0, y0, x0 + int(rng.integers(1, 10)), y0 + int(rng.integers(1, 10)))
        k = int(rng.integers(4))
        loop = loop[k:] + loop[:k]
        shapes.append(loop[::-1] if rng.random() < 0.5 else loop)
        base = (int(v) for v in rng.integers(0, 30, 2))
        shapes.append(histogram_polygon(rng, columns=int(rng.integers(1, 4)), base=tuple(base)))
    x, y = (int(v) for v in rng.integers(0, 30, 2))
    dx, dy = (int(v) for v in rng.integers(1, 8, 2))
    shapes += [DoorSegment((x, y), end) for end in ((x + dx, y), (x, y + dy), (x + dx, y + dy), (x, y))]
    for scale in (None, 0.3, ScaleConfig()):
        distance = ergocost._distance_memo(shapes, scale)
        earlier = oracles._distance_memo(shapes, scale)
        for i in range(len(shapes)):
            for j in range(len(shapes)):
                expected = min_distance(shapes[i], shapes[j], scale).hex()
                assert distance(i, j).hex() == expected == earlier(i, j).hex()


def test_synthesis_same_as_with_raw_shape_distances():
    cfg = SynthConfig(de_ergonomize_fraction=0.5)
    plans = [synth_plan(seed, cfg) for seed in range(60)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ergocost, "_distance_memo", oracles._distance_memo)
        assert [synth_plan(seed, cfg) for seed in range(60)] == plans


@settings(max_examples=150)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_cost_and_loss_apply_and_charge_the_same_rule_rooms(seed, skylines):
    """The hard cost and the soft loss agree on which terms apply, and every
    room the cost charges is on the charged side of the loss's rule."""
    plan = random_plan(seed, skylines)
    report = ergocost.ergonomic_cost(plan)
    table = ergoloss.PairTable(plan)
    assert report.applicable_terms == ergoloss.ergonomic_loss(plan).applicable_terms
    loss_sides = {
        term: {
            ergocost.CLIENT: set(clients),
            ergocost.TARGET: {table.pairs[k][1] for k in cols.ravel()},
        }
        for term, clients, cols in table.rules
    }
    charging_rule = {
        kind: (term, side)
        for term, clients, targets, side in ergocost.RULES
        for kind in (clients if side == ergocost.CLIENT else targets)
    }
    for index, kind, _ in report.entries:
        term, side = charging_rule[kind]
        assert index in loss_sides[term][side]
