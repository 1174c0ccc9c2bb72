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

from .geometry import min_distance
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
# clients. The soft loss in ergoloss relaxes the same table.
RULES = (
    ("entrances", (RoomType.Entrance,), DOOR, CLIENT),
    ("kitchens", KITCHEN_CLIENTS, (RoomType.Kitchen,), TARGET),
    ("bathrooms", BATHROOM_CLIENTS, (RoomType.Bathroom,), TARGET),
    ("balconies", (RoomType.Balcony,), BALCONY_NEIGHBORS, CLIENT),
)
TERMS = tuple(rule[0] for rule in RULES)
_RULE = dict(zip(TERMS, RULES))


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
    computed at most once per unordered pair (min_distance is symmetric)."""
    memo = {}

    def distance(i, j):
        key = (i, j) if i <= j else (j, i)
        if key not in memo:
            memo[key] = min_distance(shapes[i], shapes[j], scale)
        return memo[key]

    return distance


def _plan_distance(plan, scale):
    """Distance memo over the plan's rooms, with the door at index len(rooms)."""
    return _distance_memo(plan.rooms + (plan.door,), scale or ScaleConfig())


def _indices(plan, kinds):
    if kinds == DOOR:
        return [len(plan.rooms)]
    return [i for i, room in enumerate(plan.rooms) if room.kind in kinds]


def _nearest(plan, clients, targets, distance):
    targets = _indices(plan, targets)
    if not targets:
        return {}
    return {
        c: min(targets, key=lambda t: (distance(c, t), t)) for c in _indices(plan, clients)
    }


def _charges(plan, rule, distance):
    """[(charged room index, meters)] of one rule, in plan order; targets
    that no client is assigned to carry no charge and are omitted."""
    _, clients, targets, charged = rule
    nearest = _nearest(plan, clients, targets, distance)
    if charged == CLIENT:
        return [(c, distance(c, t)) for c, t in nearest.items()]
    per_target = {}
    for c, t in nearest.items():
        per_target.setdefault(t, []).append(distance(c, t))
    return [(t, sum(dists) / len(dists)) for t, dists in sorted(per_target.items())]


def nearest_assignment(plan, client_types, target_type, scale):
    """Map each client room index to its nearest target room index.

    Ties break toward the lowest target index in plan order, which keeps the
    assignment deterministic.
    """
    return _nearest(plan, client_types, (target_type,), _plan_distance(plan, scale))


def entrance_cost(plan, scale=None):
    """[(entrance_index, meters to the front door)] for every entrance room."""
    return _charges(plan, _RULE["entrances"], _plan_distance(plan, scale))


def kitchen_cost(plan, scale=None):
    """[(kitchen_index, mean meters to its assigned entrance/dining rooms)]."""
    return _charges(plan, _RULE["kitchens"], _plan_distance(plan, scale))


def bathroom_cost(plan, scale=None):
    """[(bathroom_index, mean meters to its assigned client rooms)]."""
    return _charges(plan, _RULE["bathrooms"], _plan_distance(plan, scale))


def balcony_cost(plan, scale=None):
    """[(balcony_index, meters to the nearest preferred neighbor room)].

    Empty when the plan has no room of a preferred neighbor type.
    """
    return _charges(plan, _RULE["balconies"], _plan_distance(plan, scale))


def ergonomic_cost(plan, scale=None):
    """Full ErgoReport: the mean per-room charge over all four terms."""
    distance = _plan_distance(plan, scale)
    per_term = {term: _charges(plan, rule, distance) for term, rule in _RULE.items()}
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
