"""Hard (non-differentiable) ergonomic cost of a floor plan.

Four distance-based terms, all in meters, declared once in RULES:
  * each entrance room is charged its distance to the front door;
  * each entrance/dining room is assigned to its nearest kitchen, and each
    kitchen is charged the mean distance to its assigned rooms;
  * bathrooms likewise, with entrance/living/master/second rooms as clients;
  * each balcony is charged its minimum distance to any preferred neighbor.
The total is the mean charge over all charged rooms; zero means every
desired adjacency is satisfied exactly.
"""

import json
from dataclasses import dataclass

from .geometry import Outline, _box_gap, _factor, min_distance
from .plan import RoomType, ScaleConfig

KITCHEN_CLIENTS = (RoomType.Entrance, RoomType.DiningRoom)
BATHROOM_CLIENTS = (
    RoomType.Entrance,
    RoomType.LivingRoom,
    RoomType.MasterRoom,
    RoomType.SecondRoom,
)
BALCONY_NEIGHBORS = (
    RoomType.Kitchen,
    RoomType.DiningRoom,
    RoomType.LivingRoom,
    RoomType.MasterRoom,
    RoomType.SecondRoom,
    RoomType.StudyRoom,
)

DOOR = "door"  # a rule target: the plan's front-door segment
CLIENT, TARGET = "client", "target"  # the charged side of a rule

# The adjacency rules, each (term, client kinds, target kinds or DOOR,
# charged side). A CLIENT-charged rule charges each client its distance to
# the nearest target; a TARGET-charged rule assigns each client to its
# nearest target and charges each assigned target the mean distance to its
# clients. rule_rooms reads this table for the hard cost here and for the
# soft loss in ergoloss alike.
RULES = (
    ("entrances", (RoomType.Entrance,), DOOR, CLIENT),
    ("kitchens", KITCHEN_CLIENTS, (RoomType.Kitchen,), TARGET),
    ("bathrooms", BATHROOM_CLIENTS, (RoomType.Bathroom,), TARGET),
    ("balconies", (RoomType.Balcony,), BALCONY_NEIGHBORS, CLIENT),
)
TERMS = tuple(rule[0] for rule in RULES)


@dataclass(frozen=True)
class ErgoReport:
    """Per-room cost entries plus the plan-level mean."""

    entries: tuple  # of (room_index, RoomType, cost_meters)
    applicable_terms: dict  # term name -> bool
    total: float | None  # None when no term applies
    perfect: bool

    @property
    def applicable(self):
        return self.total is not None

    def to_dict(self):
        return {
            "rooms": [
                {"index": i, "type": kind.name, "cost": cost}
                for i, kind, cost in self.entries
            ],
            "applicable_terms": dict(self.applicable_terms),
            "total": self.total,
            "perfect": self.perfect,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2)


def _distance_memo(shapes, scale=None):
    """distance(i, j): min_distance between shapes[i] and shapes[j],
    computed at most once per unordered pair (min_distance is symmetric),
    from outlines built at most once per shape. Two single boxes are
    measured here, as min_distance would measure them."""
    factor = _factor(scale)
    outlines = {}
    memo = {}

    def shape(i):
        if i not in outlines:
            outlines[i] = Outline(shapes[i])
        return outlines[i]

    def distance(i, j):
        key = (i, j) if i <= j else (j, i)
        if key not in memo:
            a, b = shape(i), shape(j)
            if a.box is not None and b.box is not None:
                memo[key] = _box_gap(a.box, b.box) * factor
            else:
                memo[key] = min_distance(a, b, factor)
        return memo[key]

    return distance


def _plan_distance(plan, scale):
    """Distance memo over the plan's rooms, with the door at index len(rooms)."""
    return _distance_memo(plan.rooms + (plan.door,), scale or ScaleConfig())


def rule_rooms(kinds):
    """(term, client indices, target indices, charged side) of each rule
    over a plan's room kinds, in RULES order. Rooms are listed in plan
    order; the door is index len(kinds). The hard cost and the soft loss
    both take their rule pairs from here."""

    def members(wanted):
        return [i for i, kind in enumerate(kinds) if kind in wanted]

    return [
        (term, members(clients), [len(kinds)] if targets == DOOR else members(targets), charged)
        for term, clients, targets, charged in RULES
    ]


def _charges(clients, targets, charged, distance):
    """[(charged room index, meters)] of one rule, in plan order; targets
    that no client is assigned to carry no charge and are omitted. Targets
    ascend, so `min` breaks distance ties toward the lowest index."""
    if not targets:
        return []
    nearest = [(c, min(targets, key=lambda t: distance(c, t))) for c in clients]
    if charged == CLIENT:
        return [(c, distance(c, t)) for c, t in nearest]
    per_target = {}
    for c, t in nearest:
        per_target.setdefault(t, []).append(distance(c, t))
    return [(t, sum(dists) / len(dists)) for t, dists in sorted(per_target.items())]


def ergonomic_cost(plan, scale=None):
    """Full ErgoReport: the mean per-room charge over all four terms."""
    distance = _plan_distance(plan, scale)
    per_term = {
        term: _charges(clients, targets, charged, distance)
        for term, clients, targets, charged in rule_rooms([room.kind for room in plan.rooms])
    }
    entries = [
        (i, plan.rooms[i].kind, cost) for charges in per_term.values() for i, cost in charges
    ]
    applicable = {term: bool(charges) for term, charges in per_term.items()}
    if entries:
        total = sum(cost for _, _, cost in entries) / len(entries)
    else:
        total = None
    return ErgoReport(
        entries=tuple(entries),
        applicable_terms=applicable,
        total=total,
        perfect=(total == 0.0),
    )
