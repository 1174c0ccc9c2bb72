"""Differentiable ergonomic loss over room polygon vertices.

The hard cost's min-distances are relaxed with a softmin: the distance
between two rooms is the softmin-weighted average of all pairwise vertex
distances, and "nearest room" selections become softmin combinations of
those soft distances. Every operation here also has a closed-form reverse
pass, so the loss is exactly differentiable w.r.t. vertex coordinates.

A PairTable scores every rule pair of a plan once. Teacher-forced
guidance then asks for many "variants" of that plan, each with one vertex
coordinate replaced; substituted_losses re-scores only the pairs that
involve the replaced room, batched across variants by vertex-count shape,
and redoes the cheap softmin combines.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput
from .ergocost import TERMS, rule_rooms
from .plan import DEFAULT_METERS_PER_CELL, RoomType

_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class SoftParams:
    """Softmin temperature and the loss unit: the loss is reported in
    meters_per_cell times cell units (1.0 gives cells)."""

    beta: float = 10.0
    meters_per_cell: float = DEFAULT_METERS_PER_CELL

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError("beta must be positive")
        if not self.meters_per_cell > 0:
            raise ValueError("meters_per_cell must be positive")


@dataclass(frozen=True)
class LossBreakdown:
    """Per-term soft losses in TERMS order (None when a term does not
    apply) and their mean."""

    terms: dict  # term name -> float | None
    total: float | None

    @property
    def applicable_terms(self):
        return {term: value is not None for term, value in self.terms.items()}

    @property
    def applicable(self):
        return self.total is not None

    def to_dict(self):
        return {**self.terms, "total": self.total}

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2)


class VertexPlan:
    """Float-coordinate view of a plan: room kinds, per-room (n, 2) vertex
    arrays, and the door as a 2-point array, all in cell units."""

    def __init__(self, kinds, room_coords, door):
        self.kinds = tuple(RoomType(k) for k in kinds)
        self.room_coords = [np.asarray(c, dtype=float).reshape(-1, 2) for c in room_coords]
        self.door = np.asarray(door, dtype=float).reshape(2, 2)

    @classmethod
    def from_plan(cls, plan):
        return cls(
            kinds=[room.kind for room in plan.rooms],
            room_coords=[np.array(room.vertices, dtype=float) for room in plan.rooms],
            door=np.array([plan.door.a, plan.door.b], dtype=float),
        )


def _as_vertex_plan(plan_like):
    if isinstance(plan_like, VertexPlan):
        return plan_like
    return VertexPlan.from_plan(plan_like)


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


def soft_distance(a, b, params=None):
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
    factor = params.meters_per_cell
    d, _, _ = _pair_soft_distance(ca[None] * factor, cb[None] * factor, params.beta)
    return float(d[0])


class PairTable:
    """One plan's rule pairs and their soft distances at its own coordinates.

    Built once per (plan, SoftParams). pairs lists every (client, target)
    pair in rule-loop order, the target len(rooms) being the door; base
    holds their soft distances; values and total are the per-term losses
    and their mean (None when nothing applies). Pairs are grouped by their
    (client, target) vertex counts, so that one kernel call scores a group.
    """

    def __init__(self, plan, params=None):
        self.params = params or SoftParams()
        vplan = _as_vertex_plan(plan)
        self.factor = self.params.meters_per_cell
        rooms = len(vplan.room_coords)
        # rooms, then the door, in the loss unit space
        self.coords = [c * self.factor for c in vplan.room_coords] + [vplan.door * self.factor]
        # (term, clients, (clients, targets) pair indices) per applicable rule
        self.rules = []
        self.pairs = []
        for term, clients, targets, _charged in rule_rooms(vplan.kinds):
            if not clients or not targets:
                continue
            cols = len(self.pairs) + np.arange(len(clients) * len(targets))
            self.rules.append((term, clients, cols.reshape(len(clients), len(targets))))
            self.pairs.extend((ci, ti) for ci in clients for ti in targets)
        # side[r, k]: 1 when room r is pair k's client, 2 when its target
        self.side = np.zeros((rooms, len(self.pairs)), dtype=np.int8)
        shapes = {}
        for k, (ci, ti) in enumerate(self.pairs):
            self.side[ci, k] = 1
            if ti < rooms:
                self.side[ti, k] = 2
            shapes.setdefault((len(self.coords[ci]), len(self.coords[ti])), []).append(k)
        self.groups = [
            (
                np.array(ks),
                np.stack([self.coords[self.pairs[k][0]] for k in ks]),
                np.stack([self.coords[self.pairs[k][1]] for k in ks]),
            )
            for ks in shapes.values()
        ]
        self.base = np.empty(len(self.pairs))
        for ks, p, q in self.groups:
            self.base[ks] = _pair_soft_distance(p, q, self.params.beta)[0]
        values, total, _ = self._combine(self.base[None])
        self.values = {t: None if v is None else float(v[0]) for t, v in values.items()}
        self.total = None if total is None else float(total[0])

    def _combine(self, dist):
        """Per-term values (V,) and their mean over pair distances dist
        (V, pairs), plus each term's softmin derivatives (clients, V,
        targets). All clients of a rule share its targets, so one softmin
        call combines every client's row of every variant."""
        values = dict.fromkeys(TERMS)
        weights = {}
        n_variants = len(dist)
        for term, clients, cols in self.rules:
            rows = dist[:, cols].swapaxes(0, 1).reshape(-1, cols.shape[1])
            combined, dstack = _soft_combine(rows, self.params.beta)
            values[term] = np.mean(combined.reshape(len(clients), n_variants), axis=0)
            weights[term] = dstack.reshape(len(clients), n_variants, -1)
        if not self.rules:
            return values, None, weights
        total = sum(values[t] for t, _, _ in self.rules) / len(self.rules)
        return values, total, weights


def _as_table(plan, params):
    if isinstance(plan, PairTable):
        if params is not None and params != plan.params:
            raise ValueError("the pair table was built with other soft parameters")
        return plan
    return PairTable(plan, params)


def ergonomic_loss(plan, params=None):
    """LossBreakdown over the four terms; total is the mean of the applicable
    ones (None when none applies)."""
    table = _as_table(plan, params)
    return LossBreakdown(dict(table.values), table.total)


def ergonomic_loss_grad(plan, params=None):
    """(LossBreakdown, per-room gradient arrays).

    Gradients are d(total)/d(vertex coordinate in cells), shaped like each
    room's vertex array; rooms outside every applicable term get zeros.
    Exactly coincident vertex pairs use a zero direction subgradient.
    """
    vplan = _as_vertex_plan(plan)
    table = PairTable(vplan, params)
    grads = [np.zeros_like(c) for c in vplan.room_coords]
    if table.total is not None:
        # each coordinate substituted by itself: d total / d that coordinate
        where = [(ri, vi, axis) for ri, c in enumerate(grads) for vi, axis in np.ndindex(c.shape)]
        subs = [(ri, vi, axis, vplan.room_coords[ri][vi, axis]) for ri, vi, axis in where]
        for (ri, vi, axis), d in zip(where, substituted_losses(table, subs)[1]):
            grads[ri][vi, axis] = d
    return ergonomic_loss(table), grads


def substituted_losses(plan, substitutions, params=None):
    """Loss of the plan with one vertex coordinate replaced, for a batch of
    substitutions (room_index, vertex_index, axis, cell_value).

    `plan` may be a PairTable, which then carries the soft parameters. Only
    the pairs that involve a substitution's room are re-scored: one kernel
    call per vertex-count group, over every substitution at once.

    Returns (losses (V,), dloss/dvalue (V,)); both None when no term
    applies. The derivative is taken w.r.t. the substituted cell value.
    """
    table = _as_table(plan, params)
    if not len(substitutions):
        raise EmptyInput("no substitutions given")
    if table.total is None:
        return None, None
    subs = np.asarray(substitutions, dtype=float)
    rooms, verts, axes = subs[:, :3].astype(np.intp).T
    values = subs[:, 3] * table.factor
    n_variants = len(subs)
    dist = np.repeat(table.base[None], n_variants, axis=0)
    # d pair distance / d substituted coordinate; zero for untouched pairs
    deriv = np.zeros_like(dist)
    side = table.side[rooms]
    for ks, p_base, q_base in table.groups:
        var, local = np.nonzero(side[:, ks])
        if not len(var):
            continue
        touched = ks[local]
        client = side[var, touched] == 1
        p, q = p_base[local], q_base[local]
        c, t = np.nonzero(client)[0], np.nonzero(~client)[0]
        vc, vt = var[c], var[t]
        p[c, verts[vc], axes[vc]] = values[vc]
        q[t, verts[vt], axes[vt]] = values[vt]
        d, dp, dq = _pair_soft_distance(p, q, table.params.beta)
        dist[var, touched] = d
        deriv[vc, touched[c]] = dp[c, verts[vc], axes[vc]]
        deriv[vt, touched[t]] = dq[t, verts[vt], axes[vt]]
    _, total, weights = table._combine(dist)
    grad = np.zeros(n_variants)
    for term, clients, cols in table.rules:
        acc = 0.0
        scale = 1.0 / len(clients)
        for client_cols, dstack in zip(cols, weights[term]):
            for j, k in enumerate(client_cols):
                acc = acc + dstack[:, j] * scale * deriv[:, k]
        grad += acc / len(table.rules)
    return total, grad * table.factor
