"""Differentiable ergonomic loss over room polygon vertices.

The hard cost's min-distances are relaxed with a softmin: the distance
between two rooms is the softmin-weighted average of all pairwise vertex
distances, and "nearest room" selections become softmin combinations of
those soft distances. Every operation here also has a closed-form reverse
pass, so the loss is exactly differentiable w.r.t. vertex coordinates.

Evaluation is batched over "variants" of one plan (coordinate arrays that
differ in a few entries), which keeps teacher-forced per-position loss
evaluation and finite-difference checking cheap.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput
from .ergocost import DOOR, RULES, TERMS
from .plan import DEFAULT_METERS_PER_CELL, RoomType

_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class SoftParams:
    """Softmin temperature and the unit space the loss is reported in."""

    beta: float = 10.0
    coordinate_space: str = "meters"  # "cells" | "normalized" | "meters"
    meters_per_cell: float = DEFAULT_METERS_PER_CELL

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError("beta must be positive")
        if self.coordinate_space not in ("cells", "normalized", "meters"):
            raise ValueError(f"unknown coordinate space {self.coordinate_space!r}")

    def unit_factor(self, resolution):
        """Multiplier taking cell coordinates into the loss unit space."""
        if self.coordinate_space == "cells":
            return 1.0
        if self.coordinate_space == "normalized":
            return 1.0 / resolution
        return self.meters_per_cell


@dataclass(frozen=True)
class LossBreakdown:
    """Per-term soft losses (None when a term does not apply) and their mean."""

    entrances: float | None
    kitchens: float | None
    bathrooms: float | None
    balconies: float | None
    total: float | None
    space: str = "meters"

    @property
    def applicable_terms(self):
        return {term: getattr(self, term) is not None for term in TERMS}

    @property
    def applicable(self):
        return self.total is not None

    def to_dict(self):
        return {
            "entrances": self.entrances,
            "kitchens": self.kitchens,
            "bathrooms": self.bathrooms,
            "balconies": self.balconies,
            "total": self.total,
            "space": self.space,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2)


class VertexPlan:
    """Float-coordinate view of a plan: room kinds, per-room (n, 2) vertex
    arrays, and the door as a 2-point array, all in cell units."""

    def __init__(self, kinds, room_coords, door, resolution):
        self.kinds = tuple(RoomType(k) for k in kinds)
        self.room_coords = [np.asarray(c, dtype=float).reshape(-1, 2) for c in room_coords]
        self.door = np.asarray(door, dtype=float).reshape(2, 2)
        self.resolution = int(resolution)

    @classmethod
    def from_plan(cls, plan):
        return cls(
            kinds=[room.kind for room in plan.rooms],
            room_coords=[np.array(room.vertices, dtype=float) for room in plan.rooms],
            door=np.array([plan.door.a, plan.door.b], dtype=float),
            resolution=plan.resolution,
        )

    def indices(self, kinds):
        wanted = set(kinds) if isinstance(kinds, (tuple, list, set)) else {kinds}
        return [i for i, k in enumerate(self.kinds) if k in wanted]


def _as_vertex_plan(plan_like):
    if isinstance(plan_like, VertexPlan):
        return plan_like
    return VertexPlan.from_plan(plan_like)


def softmin_weights(e, beta=10.0):
    """Softmax of the negated, temperature-scaled values; sums to 1 over all
    elements of `e` (matrices are weighted as a whole)."""
    arr = np.asarray(e, dtype=float)
    if arr.size == 0:
        raise EmptyInput("softmin over an empty value set")
    z = -beta * arr
    z = z - z.max()
    w = np.exp(z)
    return w / w.sum()


def _soft_combine(values, beta):
    """Softmin-weighted average per row of `values` (V, k), with derivative.

    Returns (out (V,), dout/dvalues (V, k)); out lies in [min, max] of each
    row and approaches the row minimum as beta grows.
    """
    z = -beta * values
    z = z - z.max(axis=1, keepdims=True)
    w = np.exp(z)
    w /= w.sum(axis=1, keepdims=True)
    out = (w * values).sum(axis=1)
    dvalues = w * (1.0 + beta * (out[:, None] - values))
    return out, dvalues


def _pair_soft_distance(p, q, beta):
    """Soft distance between vertex sets p (V, n, 2) and q (V, m, 2).

    Returns (d (V,), dp (V, n, 2), dq (V, m, 2)). Coincident vertex pairs get
    a zero direction subgradient; their softmin weight still participates.
    """
    diff = p[:, :, None, :] - q[:, None, :, :]
    e = np.sqrt((diff**2).sum(-1))
    v = e.shape[0]
    d, dflat = _soft_combine(e.reshape(v, -1), beta)
    de = dflat.reshape(e.shape)
    unit = diff / np.maximum(e, _TINY)[..., None]
    unit[e == 0.0] = 0.0
    dp = (de[..., None] * unit).sum(axis=2)
    dq = -(de[..., None] * unit).sum(axis=1)
    return d, dp, dq


def soft_distance(a, b, params=None, resolution=None):
    """Softmin-weighted average of all pairwise vertex distances between two
    vertex sets (polygons, door segments, or bare (n, 2) arrays)."""
    params = params or SoftParams()

    def coords(obj):
        if hasattr(obj, "vertices"):
            return np.asarray(obj.vertices, dtype=float)
        if hasattr(obj, "a") and hasattr(obj, "b"):
            return np.array([obj.a, obj.b], dtype=float)
        return np.asarray(obj, dtype=float).reshape(-1, 2)

    ca, cb = coords(a), coords(b)
    if ca.size == 0 or cb.size == 0:
        raise EmptyInput("soft_distance needs non-empty vertex sets")
    factor = params.unit_factor(resolution) if resolution else params.unit_factor(1)
    if params.coordinate_space == "normalized" and resolution is None:
        raise ValueError("normalized space needs the grid resolution")
    d, _, _ = _pair_soft_distance(
        ca[None] * factor, cb[None] * factor, params.beta
    )
    return float(d[0])


def _term_values_and_grads(vplan, room_coords, door, beta):
    """Evaluate every rule's soft loss term on variant coordinate arrays.

    A term is the mean, over its client rooms, of the softmin combination of
    the client's soft distances to the rule's targets; the door is a single
    target. room_coords: list of (V, n_i, 2) arrays in unit space; door:
    (V, 2, 2). Returns ({term: (V,) or None}, {term: {room_index: (V, n_i, 2)}}).
    """
    door_index = len(room_coords)
    coords = room_coords + [door]
    values = {}
    grads = {}
    for term, client_kinds, target_kinds, _charged in RULES:
        clients = vplan.indices(client_kinds)
        targets = [door_index] if target_kinds == DOOR else vplan.indices(target_kinds)
        if not clients or not targets:
            values[term] = None
            continue
        acc = {}
        client_vals = []
        scale = 1.0 / len(clients)
        for ci in clients:
            pairs = [_pair_soft_distance(coords[ci], coords[ti], beta) for ti in targets]
            combined, dstack = _soft_combine(np.stack([d for d, _, _ in pairs], axis=1), beta)
            client_vals.append(combined)
            for j, (ti, (_, dc, dt)) in enumerate(zip(targets, pairs)):
                w = dstack[:, j, None, None] * scale
                acc[ci] = acc.get(ci, 0.0) + w * dc
                if ti != door_index:
                    acc[ti] = acc.get(ti, 0.0) + w * dt
        values[term] = np.mean(client_vals, axis=0)
        grads[term] = acc
    return values, grads


def _evaluate(vplan, params, variants=None):
    """Shared core: loss values (V,) per term and total, plus gradients in
    cell units as a list of (V, n_i, 2) arrays.

    `variants` is an optional list of (room_index, vertex_index, axis, value)
    single-coordinate substitutions, one per variant row.
    """
    factor = params.unit_factor(vplan.resolution)
    n_variants = 1 if variants is None else len(variants)
    room_coords = []
    for coords in vplan.room_coords:
        tiled = np.repeat(coords[None] * factor, n_variants, axis=0)
        room_coords.append(tiled)
    if variants is not None:
        for v, (ri, vi, axis, value) in enumerate(variants):
            room_coords[ri][v, vi, axis] = value * factor
    door = np.repeat(vplan.door[None] * factor, n_variants, axis=0)

    values, term_grads = _term_values_and_grads(vplan, room_coords, door, params.beta)
    applicable = [t for t in TERMS if values[t] is not None]
    if not applicable:
        return values, None, None
    total = sum(values[t] for t in applicable) / len(applicable)
    grads = [np.zeros((n_variants,) + c.shape, dtype=float) for c in vplan.room_coords]
    for term in applicable:
        for ri, g in term_grads[term].items():
            grads[ri] += g / len(applicable)
    # chain back to cell units: d(unit coord)/d(cell coord) = factor
    grads = [g * factor for g in grads]
    return values, total, grads


def _scalar(value):
    return None if value is None else float(value[0])


def loss_entrances(plan, params=None):
    """Mean soft distance from each entrance room to the door; None if the
    plan has no entrance."""
    return _term_scalar(plan, params, "entrances")


def loss_kitchens(plan, params=None):
    """Mean, over entrance/dining rooms, of the soft minimum of their soft
    distances to the kitchens; None unless both sides exist."""
    return _term_scalar(plan, params, "kitchens")


def loss_bathrooms(plan, params=None):
    """As loss_kitchens, with entrance/living/master/second rooms as clients
    and bathrooms as targets."""
    return _term_scalar(plan, params, "bathrooms")


def loss_balconies(plan, params=None):
    """Mean, over balconies, of the soft minimum of soft distances to the
    preferred neighbor rooms; None unless both sides exist."""
    return _term_scalar(plan, params, "balconies")


def _term_scalar(plan, params, term):
    params = params or SoftParams()
    vplan = _as_vertex_plan(plan)
    values, _, _ = _evaluate(vplan, params)
    return _scalar(values[term])


def ergonomic_loss(plan, params=None):
    """LossBreakdown over the four terms; total is the mean of the applicable
    ones (None when none applies)."""
    params = params or SoftParams()
    vplan = _as_vertex_plan(plan)
    values, total, _ = _evaluate(vplan, params)
    return LossBreakdown(
        entrances=_scalar(values["entrances"]),
        kitchens=_scalar(values["kitchens"]),
        bathrooms=_scalar(values["bathrooms"]),
        balconies=_scalar(values["balconies"]),
        total=_scalar(total) if total is not None else None,
        space=params.coordinate_space,
    )


def ergonomic_loss_grad(plan, params=None):
    """(LossBreakdown, per-room gradient arrays).

    Gradients are d(total)/d(vertex coordinate in cells), shaped like each
    room's vertex array; rooms outside every applicable term get zeros.
    Exactly coincident vertex pairs use a zero direction subgradient.
    """
    params = params or SoftParams()
    vplan = _as_vertex_plan(plan)
    values, total, grads = _evaluate(vplan, params)
    breakdown = LossBreakdown(
        entrances=_scalar(values["entrances"]),
        kitchens=_scalar(values["kitchens"]),
        bathrooms=_scalar(values["bathrooms"]),
        balconies=_scalar(values["balconies"]),
        total=_scalar(total) if total is not None else None,
        space=params.coordinate_space,
    )
    if grads is None:
        vertex_grads = [np.zeros_like(c) for c in vplan.room_coords]
    else:
        vertex_grads = [g[0] for g in grads]
    return breakdown, vertex_grads


def substituted_losses(plan, substitutions, params=None):
    """Loss of the plan with one vertex coordinate replaced, for a batch of
    substitutions (room_index, vertex_index, axis, cell_value).

    Returns (losses (V,), dloss/dvalue (V,)); both None-free only when some
    term applies. The derivative is taken w.r.t. the substituted cell value.
    """
    params = params or SoftParams()
    vplan = _as_vertex_plan(plan)
    if not substitutions:
        raise EmptyInput("no substitutions given")
    values, total, grads = _evaluate(vplan, params, variants=list(substitutions))
    if total is None:
        return None, None
    dvalue = np.empty(len(substitutions), dtype=float)
    for v, (ri, vi, axis, _value) in enumerate(substitutions):
        dvalue[v] = grads[ri][v, vi, axis]
    return np.asarray(total, dtype=float), dvalue
