"""Differentiable ergonomic loss over room polygon vertices.

The hard cost's min-distances are relaxed with a softmin: the distance
between two rooms is the softmin-weighted average of all pairwise vertex
distances, and "nearest room" selections become softmin combinations of
those soft distances. Every operation here also has a closed-form reverse
pass, so the loss is exactly differentiable w.r.t. vertex coordinates.

A PairTable scores every rule pair of a plan once. Teacher-forced
guidance then asks for many "variants" of that plan, each with one vertex
coordinate replaced; batch_substituted_losses re-scores only the pairs
that involve the replaced room and redoes the cheap softmin combines, for
the variants of many plans at once, and pair_tables builds many plans'
tables at once: one kernel call per vertex-count shape and one softmin call
per target count, with every sum in the order of one plan at a time, so
the results are those of per-plan calls bit for bit.
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
    The elementwise work runs on (n, m, V) planes, one per axis, so that its
    inner loops run over all V pairs; the vertex sums run in order from 0.0.
    """
    n, m, count = p.shape[1], q.shape[1], len(p)
    px, py = p.T
    qx, qy = q.T
    dx = px[:, None] - qx[None]
    dy = py[:, None] - qy[None]
    e = np.sqrt(dx * dx + dy * dy)
    # the softmin runs over each pair's n * m distances as a contiguous row
    d, dflat = _soft_combine(np.ascontiguousarray(e.reshape(n * m, count).T), beta)
    de = dflat.T.reshape(n, m, count)
    coincident = e == 0.0
    e = np.maximum(e, _TINY)
    dp = np.zeros((2, n, count))
    dq = np.zeros((2, m, count))
    for axis, delta in enumerate((dx, dy)):
        term = delta / e
        term[coincident] = 0.0
        term *= de
        for j in range(m):
            dp[axis] += term[:, j]
        for i in range(n):
            dq[axis] += term[i]
    return d, dp.T, -dq.T


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

    Built once per (plan, SoftParams); pair_tables builds several at once.
    pairs lists every (client, target) pair in rule-loop order, the target
    len(rooms) being the door; base holds their soft distances; values and
    total are the per-term losses and their mean (None when nothing
    applies). Pairs are grouped by their (client, target) vertex counts, so
    that one kernel call scores a group.
    """

    def __init__(self, plan, params=None):
        self._lay_out(plan, params)
        _score([self])

    def _lay_out(self, plan, params):
        self.params = params or SoftParams()
        vplan = _as_vertex_plan(plan)
        factor = self.params.meters_per_cell
        rooms = len(vplan.room_coords)
        # rooms, then the door, in the loss unit space
        self.coords = [c * factor for c in vplan.room_coords] + [vplan.door * factor]
        # (term, clients, (clients, targets) pair indices) per applicable rule
        self.rules = []
        self.pairs = []
        # per target count: each client's pair indices, term index, client
        # position and the rule's client count, for the batched combine
        rows = {}
        for term, clients, targets, _charged in rule_rooms(vplan.kinds):
            if not clients or not targets:
                continue
            cols = len(self.pairs) + np.arange(len(clients) * len(targets))
            cols = cols.reshape(len(clients), len(targets))
            self.rules.append((term, clients, cols))
            self.pairs.extend((ci, ti) for ci in clients for ti in targets)
            for c, client_cols in enumerate(cols):
                row = (client_cols, TERMS.index(term), c, len(clients))
                rows.setdefault(len(targets), []).append(row)
        self.rule_rows = {
            width: tuple(np.array(column) for column in zip(*group))
            for width, group in rows.items()
        }
        # side[r, k]: 1 when room r is pair k's client, 2 when its target
        self.side = np.zeros((rooms, len(self.pairs)), dtype=np.int8)
        shapes = {}
        for k, (ci, ti) in enumerate(self.pairs):
            self.side[ci, k] = 1
            if ti < rooms:
                self.side[ti, k] = 2
            shapes.setdefault((len(self.coords[ci]), len(self.coords[ti])), []).append(k)
        # (shape, pair indices, client stack, target stack) per shape
        self.groups = [
            (
                shape,
                np.array(ks),
                np.stack([self.coords[self.pairs[k][0]] for k in ks]),
                np.stack([self.coords[self.pairs[k][1]] for k in ks]),
            )
            for shape, ks in shapes.items()
        ]


def pair_tables(plans, params=None):
    """The PairTables of several plans, scored together: one kernel call per
    vertex-count shape over every plan's pairs, then one combine."""
    if not plans:
        return []
    tables = [PairTable.__new__(PairTable) for _ in plans]
    for table, plan in zip(tables, plans):
        table._lay_out(plan, params)
    _score(tables)
    return tables


def _shared_params(tables):
    params = tables[0].params
    if any(table.params != params for table in tables):
        raise ValueError("the pair tables were built with different soft parameters")
    return params


def _starts(counts):
    """Where each of several runs of `counts` items starts when they are
    laid end to end."""
    return np.cumsum(counts) - counts


def _spread(counts, owner):
    """(variant, item) pairs that list every item of each variant's table:
    variant e belongs to table owner[e], table i has counts[i] items, and
    item indexes all tables' items laid end to end. Variant by variant, in
    item order."""
    per_variant = counts[owner]
    variant = np.repeat(np.arange(len(owner)), per_variant)
    within = np.arange(len(variant)) - _starts(per_variant)[variant]
    return variant, _starts(counts)[owner][variant] + within


def _shape_stacks(tables):
    """All tables' pairs grouped by vertex-count shape. Returns the client
    and target vertex stacks of each shape and, for the tables' pairs laid
    end to end, each pair's shape index and row in that shape's stacks."""
    sizes = np.array([len(table.pairs) for table in tables])
    shape_of = np.empty(sizes.sum(), dtype=np.intp)
    row_of = np.empty(sizes.sum(), dtype=np.intp)
    by_shape = {}
    for first, table in zip(_starts(sizes), tables):
        for shape, ks, p, q in table.groups:
            parts = by_shape.setdefault(shape, [])
            shape_of[first + ks] = list(by_shape).index(shape)
            row_of[first + ks] = sum(len(part) for part, _ in parts) + np.arange(len(ks))
            parts.append((p, q))
    stacks = [
        (np.concatenate([p for p, _ in parts]), np.concatenate([q for _, q in parts]))
        for parts in by_shape.values()
    ]
    return stacks, shape_of, row_of


def _score(tables):
    """Fill in each table's base, values and total."""
    beta = _shared_params(tables).beta
    stacks, shape_of, row_of = _shape_stacks(tables)
    base = np.empty(len(shape_of))
    for s, (p, q) in enumerate(stacks):
        at = shape_of == s
        base[at] = _pair_soft_distance(p, q, beta)[0][row_of[at]]
    sizes = np.array([len(table.pairs) for table in tables])
    values, total, _ = _combine(tables, np.arange(len(tables)), _starts(sizes), base)
    for table, first, table_values, table_total in zip(
        tables, _starts(sizes), values.tolist(), total.tolist()
    ):
        table.base = base[first : first + len(table.pairs)].copy()
        applicable = {term for term, _, _ in table.rules}
        table.values = {
            term: value if term in applicable else None
            for term, value in zip(TERMS, table_values)
        }
        table.total = table_total if table.rules else None


def _running_sum(x):
    """Sum over the last axis from left to right: (((x0 + x1) + x2) + ...),
    the order of a Python accumulation loop, whatever the array's shape."""
    return np.add.accumulate(x, axis=-1)[..., -1]


def _combine(tables, owner, offsets, dist, deriv=None):
    """Per-term values (E, terms), totals (E,) and, given deriv, d total / d
    substituted coordinate (E,) for E variants.

    Variant e belongs to tables[owner[e]]; the distances of that table's
    pairs sit at dist[offsets[e]:], and deriv holds their derivatives by
    the substituted coordinate. All clients of a rule share its targets, so
    one softmin call combines the rows of every rule, client, variant and
    table that have the same number of targets.

    Every sum keeps one order whatever the batch, so that a batch equals
    its tables scored one at a time bit for bit. numpy sums a contiguous
    row pairwise, which agrees with adding one by one below 8 terms. So
    terms, and each term's clients, add up one by one from 0.0, except that
    a table's lone variant sums 8 or more clients pairwise; a softmin row
    sums its targets pairwise.
    """
    beta = _shared_params(tables).beta
    n_variants = len(owner)
    n_terms = len(TERMS)
    # a table without rules gets a meaningless total, which its caller drops
    rule_counts = np.array([max(len(t.rules), 1) for t in tables])[owner]
    widest = max((len(clients) for t in tables for _, clients, _ in t.rules), default=0)
    longest = max((cols.size for t in tables for _, _, cols in t.rules), default=0)
    # variants that are their table's only one
    lone = np.bincount(owner, minlength=len(tables))[owner] == 1
    # column 0 stays zero: each running sum starts from 0.0
    client_values = np.zeros((n_variants, n_terms, widest + 1))
    client_counts = np.ones((n_variants, n_terms), dtype=np.intp)
    if deriv is not None:
        grad_terms = np.zeros((n_variants, n_terms, longest + 1))
    for width in sorted({w for t in tables for w in t.rule_rows}):
        parts = [t.rule_rows.get(width) for t in tables]
        per_table = np.array([0 if part is None else len(part[0]) for part in parts])
        cols, term, client, count = (
            np.concatenate([part[k] for part in parts if part is not None]) for k in range(4)
        )
        # every variant takes every row of its table
        variant, row = _spread(per_table, owner)
        slots = offsets[variant][:, None] + cols[row]
        term, client, count = term[row], client[row], count[row]
        combined, weights = _soft_combine(dist[slots], beta)
        client_values[variant, term, 1 + client] = combined
        client_counts[variant, term] = count
        if deriv is not None:
            at = 1 + client[:, None] * width + np.arange(width)
            grad_terms[variant[:, None], term[:, None], at] = (
                weights * (1.0 / count)[:, None]
            ) * deriv[slots]
    sums = _running_sum(client_values)
    for e, k in zip(*np.nonzero(lone[:, None] & (client_counts >= 8))):
        sums[e, k] = client_values[e, k, 1 : 1 + client_counts[e, k]].sum()
    values = sums / client_counts
    padded = np.zeros((n_variants, n_terms + 1))
    padded[:, 1:] = values
    total = _running_sum(padded) / rule_counts
    if deriv is None:
        return values, total, None
    padded[:, 1:] = _running_sum(grad_terms) / rule_counts[:, None]
    return values, total, _running_sum(padded)


def ergonomic_loss(plan, params=None):
    """LossBreakdown over the four terms; total is the mean of the applicable
    ones (None when none applies)."""
    table = PairTable(plan, params)
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
        _, dvalues = batch_substituted_losses([table], np.zeros(len(subs), dtype=np.intp), subs)
        for (ri, vi, axis), d in zip(where, dvalues):
            grads[ri][vi, axis] = d
    return LossBreakdown(dict(table.values), table.total), grads


def batch_substituted_losses(tables, owner, substitutions):
    """Loss of a plan with one vertex coordinate replaced, for a batch of
    substitutions over several plans: substitution e (room_index,
    vertex_index, axis, cell_value) replaces a coordinate of
    tables[owner[e]]. The tables share one SoftParams (ValueError
    otherwise) and each has an applicable term.

    Only the pairs that involve a substitution's room are re-scored: one
    kernel call per vertex-count shape over every substitution of every
    table, then one combine. Returns (losses (E,), dloss/dvalue (E,)), the
    derivative taken w.r.t. the substituted cell value.
    """
    params = _shared_params(tables)
    owner = np.asarray(owner, dtype=np.intp)
    subs = np.asarray(substitutions, dtype=float)
    rooms, verts, axes = subs[:, :3].astype(np.intp).T
    room_counts = np.array([len(table.side) for table in tables])[owner]
    if ((rooms < 0) | (rooms >= room_counts)).any():
        raise IndexError("substituted room index out of range")
    values = subs[:, 3] * params.meters_per_cell
    # every variant's pair distances end to end: variant e's pair k sits
    # at offsets[e] + k, and pairs[offsets[e] + k] indexes all tables' pairs
    sizes = np.array([len(table.pairs) for table in tables])
    offsets = _starts(sizes[owner])
    variant, pairs = _spread(sizes, owner)
    local = pairs - _starts(sizes)[owner][variant]
    dist = np.concatenate([table.base for table in tables])[pairs]
    # d pair distance / d substituted coordinate; zero for untouched pairs
    deriv = np.zeros(len(variant))
    # the substituted room's side of each pair: 1 client, 2 target, 0 neither
    side_sizes = np.array([table.side.size for table in tables])
    side_at = _starts(side_sizes)[owner] + rooms * sizes[owner]
    side = np.concatenate([table.side.ravel() for table in tables])[side_at[variant] + local]
    stacks, shape_of, row_of = _shape_stacks(tables)
    touched = np.flatnonzero(side)
    touched_shape = shape_of[pairs[touched]]
    for s, (p_all, q_all) in enumerate(stacks):
        slot = touched[touched_shape == s]
        if not len(slot):
            continue
        rows = row_of[pairs[slot]]
        p, q = p_all[rows], q_all[rows]
        client = side[slot] == 1
        c, t = np.nonzero(client)[0], np.nonzero(~client)[0]
        vc, vt = variant[slot[c]], variant[slot[t]]
        p[c, verts[vc], axes[vc]] = values[vc]
        q[t, verts[vt], axes[vt]] = values[vt]
        d, dp, dq = _pair_soft_distance(p, q, params.beta)
        dist[slot] = d
        deriv[slot[c]] = dp[c, verts[vc], axes[vc]]
        deriv[slot[t]] = dq[t, verts[vt], axes[vt]]
    _, total, grad = _combine(tables, owner, offsets, dist, deriv)
    return total, grad * params.meters_per_cell
