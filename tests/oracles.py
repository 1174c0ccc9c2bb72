"""Oracles the tests check the package against.

Most of them deliberately take a different route than the package:
distances via bounding-gap formulas over every edge pair (numpy, no
enclosure rule), areas via unit-cell rasterization instead of sweeps,
assignments via exhaustive enumeration, gradients via central differences.

The code at the end is the exception. `_term_values_and_grads` is the
package's earlier soft-loss evaluation with one block per term;
`evaluate` is the later tiled evaluation that re-scores every rule pair
for every substitution, with `expected_token_grad`, `positional_ergo_loss`
and `batch_loss_and_grads` its per-row guidance; the transformer kernels
are the earlier allocate-per-operation forward, backward and AdamW code.
All are kept unchanged. The package now does the same floating-point
operations in the same order (one loop over the rule table; a per-plan
pair table with only the touched pairs re-scored; all rows collapsed at
once; buffers it owns), so its results must equal these bit for bit, not
merely to a tolerance. `generate_batch` is the package's earlier greedy
decoder, which re-runs the full forward pass for every token; the
key/value-cached decoder must choose the same tokens. Last, `min_distance`
projects points onto segments for every edge pair, `union_area`
rasterizes onto a numpy grid, and `plan_is_valid`, `plan_coverage` and
`metrics_tally` normalize each polygon up to four times: the package's
earlier evaluation geometry. The package measures axis-aligned edge pairs
as box gaps and normalizes each polygon once; its distances, areas and
reports must equal these exactly.
"""

import math

import numpy as np

from ergoplan import ergocost, geometry, guidance, model, tokenizer
from ergoplan.ergocost import DOOR, RULES, TERMS
from ergoplan.ergoloss import (
    SoftParams,
    VertexPlan,
    _pair_soft_distance,
    _soft_combine,
    ergonomic_loss,
)
from ergoplan.errors import (
    ArgmaxNotCoordinate,
    ContextOverflow,
    EmptyInput,
    ErgoplanError,
    NoEligiblePositions,
    NonFiniteLoss,
    OutOfRange,
)
from ergoplan.plan import RoomType

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


def _loop_edges(vertices):
    pts = list(vertices)
    return [(pts[i], pts[(i + 1) % len(pts)]) for i in range(len(pts))]


def _edge_aabb_gap(e1, e2):
    """Distance between two axis-aligned segments as the hypot of the
    positive coordinate gaps of their bounding boxes. Valid only for
    axis-aligned inputs, which is all this corpus contains."""
    (ax0, ay0), (ax1, ay1) = e1
    (bx0, by0), (bx1, by1) = e2
    aminx, amaxx = min(ax0, ax1), max(ax0, ax1)
    aminy, amaxy = min(ay0, ay1), max(ay0, ay1)
    bminx, bmaxx = min(bx0, bx1), max(bx0, bx1)
    bminy, bmaxy = min(by0, by1), max(by0, by1)
    gx = max(bminx - amaxx, aminx - bmaxx, 0)
    gy = max(bminy - amaxy, aminy - bmaxy, 0)
    return float(np.hypot(gx, gy))


def naive_distance(shape_a, shape_b, meters_per_cell=1.0):
    """Min distance between two vertex loops / 2-point segments, in meters."""
    ea = _loop_edges(shape_a) if len(shape_a) > 2 else [tuple(shape_a)]
    eb = _loop_edges(shape_b) if len(shape_b) > 2 else [tuple(shape_b)]
    best = min(_edge_aabb_gap(x, y) for x in ea for y in eb)
    return best * meters_per_cell


def naive_ergonomic_cost(plan, meters_per_cell):
    """Straight-line reimplementation of the four cost terms and their mean.

    Assumes rooms do not enclose one another (true for every corpus this
    oracle is used on).
    """

    def rooms(kind):
        return [i for i, r in enumerate(plan.rooms) if r.kind == kind]

    def dist_rooms(i, j):
        return naive_distance(plan.rooms[i].vertices, plan.rooms[j].vertices, meters_per_cell)

    charges = []
    door = (plan.door.a, plan.door.b)
    for i in rooms(RoomType.Entrance):
        charges.append(naive_distance(plan.rooms[i].vertices, door, meters_per_cell))

    for clients, target_kind in (
        (KITCHEN_CLIENTS, RoomType.Kitchen),
        (BATHROOM_CLIENTS, RoomType.Bathroom),
    ):
        targets = rooms(target_kind)
        client_ids = sorted(i for kind in clients for i in rooms(kind))
        if not targets:
            continue
        assigned = {t: [] for t in targets}
        for ci in client_ids:
            # exhaustive nearest search, ties to the lowest index
            dists = [(dist_rooms(ci, ti), ti) for ti in targets]
            assigned[min(dists)[1]].append(ci)
        for ti in targets:
            if assigned[ti]:
                ds = [dist_rooms(ti, ci) for ci in assigned[ti]]
                charges.append(sum(ds) / len(ds))

    neighbor_ids = [i for kind in BALCONY_NEIGHBORS for i in rooms(kind)]
    if neighbor_ids:
        for bi in rooms(RoomType.Balcony):
            charges.append(min(dist_rooms(bi, ni) for ni in neighbor_ids))

    if not charges:
        return None
    return sum(charges) / len(charges)


def raster_covered_cells(polygons, bbox):
    """Boolean (nx, ny) occupancy grids per polygon over unit cells, decided
    by the cell-center even-odd rule."""
    x0, y0, x1, y1 = bbox
    grids = []
    for poly in polygons:
        verts = list(getattr(poly, "vertices", poly))
        grid = np.zeros((x1 - x0, y1 - y0), dtype=bool)
        for i in range(x1 - x0):
            for j in range(y1 - y0):
                cx, cy = x0 + i + 0.5, y0 + j + 0.5
                crossings = 0
                for (px, py), (qx, qy) in _loop_edges(verts):
                    if px != qx:
                        continue
                    lo, hi = min(py, qy), max(py, qy)
                    if lo <= cy < hi and px > cx:
                        crossings += 1
                grid[i, j] = crossings % 2 == 1
        grids.append(grid)
    return grids


def raster_union_and_overlap(polygons):
    """(union_area, multiplicity_overlap_area) by unit-cell rasterization."""
    all_pts = [p for poly in polygons for p in getattr(poly, "vertices", poly)]
    xs = [p[0] for p in all_pts]
    ys = [p[1] for p in all_pts]
    bbox = (min(xs), min(ys), max(xs), max(ys))
    grids = raster_covered_cells(polygons, bbox)
    stack = np.stack(grids)
    union = int(stack.any(axis=0).sum())
    total = int(stack.sum())
    return union, total - union


def loss_finite_difference(vplan, params=None, h=1e-4):
    """Central-difference gradient of the soft loss w.r.t. every room
    vertex coordinate, in cell units; shaped like vplan.room_coords."""
    params = params or SoftParams()

    def loss_of(coords):
        probe = VertexPlan(vplan.kinds, coords, vplan.door, vplan.resolution)
        return ergonomic_loss(probe, params).total

    grads = []
    for ri, base in enumerate(vplan.room_coords):
        g = np.zeros_like(base)
        for vi in range(base.shape[0]):
            for axis in range(2):
                plus = [c.copy() for c in vplan.room_coords]
                minus = [c.copy() for c in vplan.room_coords]
                plus[ri][vi, axis] += h
                minus[ri][vi, axis] -= h
                g[vi, axis] = (loss_of(plus) - loss_of(minus)) / (2 * h)
        grads.append(g)
    return grads


# --- earlier soft-loss term evaluation: the bit-identity reference ------


def _term_values_and_grads(vplan, room_coords, door, beta):
    """Evaluate all four soft loss terms on variant coordinate arrays.

    room_coords: list of (V, n_i, 2) arrays in unit space; door: (V, 2, 2).
    Returns ({term: (V,) or None}, {term: {room_index: (V, n_i, 2)}}).
    """
    values = {}
    grads = {}

    def pair(i, j):
        return _pair_soft_distance(room_coords[i], room_coords[j], beta)

    entrances = vplan.indices(RoomType.Entrance)
    if entrances:
        acc = {}
        vals = []
        for ei in entrances:
            d, dr, _ = _pair_soft_distance(room_coords[ei], door, beta)
            vals.append(d)
            acc[ei] = acc.get(ei, 0.0) + dr / len(entrances)
        values["entrances"] = np.mean(vals, axis=0)
        grads["entrances"] = acc
    else:
        values["entrances"] = None

    def assigned_term(name, client_kinds, target_kind):
        clients = vplan.indices(client_kinds)
        targets = vplan.indices(target_kind)
        if not clients or not targets:
            values[name] = None
            return
        acc = {}
        client_vals = []
        for ci in clients:
            dists = []
            pair_grads = []
            for ti in targets:
                d, dc, dt = pair(ci, ti)
                dists.append(d)
                pair_grads.append((dc, dt))
            stacked = np.stack(dists, axis=1)  # (V, targets)
            combined, dstack = _soft_combine(stacked, beta)
            client_vals.append(combined)
            scale = 1.0 / len(clients)
            for j, ti in enumerate(targets):
                w = dstack[:, j, None, None] * scale
                dc, dt = pair_grads[j]
                acc[ci] = acc.get(ci, 0.0) + w * dc
                acc[ti] = acc.get(ti, 0.0) + w * dt
        values[name] = np.mean(client_vals, axis=0)
        grads[name] = acc

    assigned_term("kitchens", KITCHEN_CLIENTS, RoomType.Kitchen)
    assigned_term("bathrooms", BATHROOM_CLIENTS, RoomType.Bathroom)

    balconies = vplan.indices(RoomType.Balcony)
    neighbors = vplan.indices(BALCONY_NEIGHBORS)
    if balconies and neighbors:
        acc = {}
        balcony_vals = []
        for bi in balconies:
            dists = []
            pair_grads = []
            for ni in neighbors:
                d, db, dn = pair(bi, ni)
                dists.append(d)
                pair_grads.append((db, dn))
            stacked = np.stack(dists, axis=1)
            combined, dstack = _soft_combine(stacked, beta)
            balcony_vals.append(combined)
            scale = 1.0 / len(balconies)
            for j, ni in enumerate(neighbors):
                w = dstack[:, j, None, None] * scale
                db, dn = pair_grads[j]
                acc[bi] = acc.get(bi, 0.0) + w * db
                acc[ni] = acc.get(ni, 0.0) + w * dn
        values["balconies"] = np.mean(balcony_vals, axis=0)
        grads["balconies"] = acc
    else:
        values["balconies"] = None

    return values, grads


# --- earlier tiled soft-loss evaluation and per-row guidance --------------
#
# The package's soft loss once tiled every room V times and re-scored every
# rule pair for every variant; guidance collapsed one row at a time and
# chained each row back to the logits in its own step. The incremental,
# batched path must give the same floats.


def _rule_term_values_and_grads(vplan, room_coords, door, beta):
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


def evaluate(vplan, params, variants=None, terms=_rule_term_values_and_grads):
    """Shared core: loss values (V,) per term and total, plus gradients in
    cell units as a list of (V, n_i, 2) arrays.

    `variants` is an optional list of (room_index, vertex_index, axis, value)
    single-coordinate substitutions, one per variant row. `terms` is the
    term evaluation: the rule-table loop or the per-term blocks above.
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

    values, term_grads = terms(vplan, room_coords, door, params.beta)
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


def substituted_losses(plan, substitutions, params=None):
    """Loss of the plan with one vertex coordinate replaced, for a batch of
    substitutions (room_index, vertex_index, axis, cell_value)."""
    params = params or SoftParams()
    vplan = plan if isinstance(plan, VertexPlan) else VertexPlan.from_plan(plan)
    if not substitutions:
        raise EmptyInput("no substitutions given")
    values, total, grads = evaluate(vplan, params, variants=list(substitutions))
    if total is None:
        return None, None
    dvalue = np.empty(len(substitutions), dtype=float)
    for v, (ri, vi, axis, _value) in enumerate(substitutions):
        dvalue[v] = grads[ri][v, vi, axis]
    return np.asarray(total, dtype=float), dvalue


def _coordinate_weights(row, cfg):
    """Gaussian window around the argmax over coordinate ids only."""
    row = np.asarray(row, dtype=float)
    top = int(np.argmax(row))  # ties resolve to the lowest id
    if top >= cfg.resolution:
        raise ArgmaxNotCoordinate(f"argmax id {top} is not a coordinate token")
    values = np.arange(cfg.resolution) / cfg.resolution
    center = top / cfg.resolution
    sigma = cfg.effective_sigma
    weights = np.exp(-0.5 * ((values - center) / sigma) ** 2)
    if cfg.window is not None:
        ids = np.arange(cfg.resolution)
        weights = np.where(np.abs(ids - top) <= cfg.window, weights, 0.0)
    return top, values, weights


def expected_token_grad(row, cfg):
    """(v_bar, d v_bar / d row) with the gradient zero outside coordinate ids."""
    row = np.asarray(row, dtype=float)
    _, values, weights = _coordinate_weights(row, cfg)
    probs = row[: cfg.resolution]
    mass = weights * probs
    denom = mass.sum()
    v_bar = float((mass * values).sum() / denom)
    grad = np.zeros_like(row)
    grad[: cfg.resolution] = weights * (values - v_bar) / denom
    return v_bar, grad


def positional_ergo_loss(gt_plan, gt_seq, prob_rows, cfg, params=None, rng=None):
    """Per-row expected-token substitution; returns (mean loss, {position:
    d loss / d row}, eligible positions)."""
    params = params or SoftParams()
    vocab = tokenizer.Vocabulary(cfg.resolution)
    eligible = []
    for pos, room_idx, vert_idx, axis in tokenizer.room_coordinate_positions(gt_seq, vocab):
        if pos < len(prob_rows) and int(np.argmax(prob_rows[pos])) < cfg.resolution:
            eligible.append((pos, room_idx, vert_idx, axis))
    if not eligible:
        raise NoEligiblePositions("no substitutable coordinate positions")
    if not cfg.substitute_all:
        rng = rng or np.random.default_rng()
        eligible = [eligible[int(rng.integers(len(eligible)))]]

    vplan = VertexPlan.from_plan(gt_plan)
    substitutions = []
    v_grads = []
    for pos, room_idx, vert_idx, axis in eligible:
        v_bar, dv_bar = expected_token_grad(prob_rows[pos], cfg)
        substitutions.append((room_idx, vert_idx, axis, v_bar * cfg.resolution))
        v_grads.append(dv_bar)
    losses, dvalues = substituted_losses(vplan, substitutions, params)
    if losses is None:
        raise NoEligiblePositions("no applicable loss term for this plan")
    n = len(eligible)
    row_grads = {}
    for i, (pos, *_rest) in enumerate(eligible):
        # chain: mean over positions, cell value = v_bar * resolution
        row_grads[pos] = (dvalues[i] / n) * cfg.resolution * v_grads[i]
    return float(losses.mean()), row_grads, eligible


def batch_loss_and_grads(
    batch, params, model_cfg, train_cfg, guidance_cfg=None, soft_params=None, rng=None
):
    """The earlier mixed loss and gradient: alpha from a full soft-loss
    evaluation per plan, guidance on a zero-padded copy of each sample's
    rows, and one chain-rule step per eligible row."""
    guidance_cfg = guidance_cfg or guidance.GuidanceConfig()
    soft_params = soft_params or SoftParams()
    vocab = tokenizer.Vocabulary(guidance_cfg.resolution)
    tokens, xy, vert = model._pad_batch(batch, vocab, model_cfg.max_vertex_index)
    b, t = tokens.shape

    logits, cache = model.forward_logits(params, model_cfg, tokens, xy, vert, need_cache=True)
    probs = model._softmax(logits.astype(np.float64))
    targets = tokens[:, 1:]
    valid = targets != vocab.pad

    dlogits = np.zeros_like(probs)
    ce_per_sample = np.zeros(b)
    ergo_per_sample = np.full(b, np.nan)
    alphas = np.zeros(b)
    for i, (seq, plan) in enumerate(batch):
        n_valid = int(valid[i].sum())
        pos_idx = np.nonzero(valid[i])[0]
        p = probs[i, pos_idx]
        tgt = targets[i, pos_idx]
        ce_per_sample[i] = -np.log(np.maximum(p[np.arange(len(tgt)), tgt], 1e-300)).mean()

        a = 0.0
        if train_cfg.guided:
            _, total, _ = evaluate(VertexPlan.from_plan(plan), soft_params)
            a = 0.0 if total is None else guidance.alpha(float(total[0]), guidance_cfg)
            a = a if a >= train_cfg.alpha_floor else 0.0
        alphas[i] = a

        dce = p.copy()
        dce[np.arange(len(tgt)), tgt] -= 1.0
        dlogits[i, pos_idx] = (1.0 - a) / (b * n_valid) * dce

        if a > 0.0:
            rows = np.zeros((len(seq), model_cfg.vocab_size))
            rows[1 : len(seq)] = probs[i, : len(seq) - 1]
            try:
                loss_i, row_grads, _ = positional_ergo_loss(
                    plan, seq, rows, guidance_cfg, soft_params, rng=rng
                )
            except NoEligiblePositions:
                alphas[i] = 0.0
                dlogits[i, pos_idx] = 1.0 / (b * n_valid) * dce
                continue
            ergo_per_sample[i] = loss_i
            for pos, g_row in row_grads.items():
                row = probs[i, pos - 1]
                dz = row * (g_row - (g_row * row).sum())
                dlogits[i, pos - 1] += (a / b) * dz

    have_ergo = ~np.isnan(ergo_per_sample)
    ergo_mean = float(ergo_per_sample[have_ergo].mean()) if have_ergo.any() else 0.0
    per_sample_total = (1.0 - alphas) * ce_per_sample + alphas * np.where(
        have_ergo, ergo_per_sample, 0.0
    )
    loss = guidance.MixedLoss(
        cross_entropy=float(ce_per_sample.mean()),
        ergo=ergo_mean,
        alpha=float(alphas.mean()),
        total=float(per_sample_total.mean()),
    )
    dlogits = dlogits.astype(params["tok_emb"].dtype)
    grads = model.backward_logits(params, model_cfg, cache, dlogits)
    return loss, grads


# --- earlier transformer kernels: the bit-identity reference -------------

# python-float constants keep float32 pipelines in float32
_GELU_C = float(np.sqrt(2.0 / np.pi))
_GELU_A = 0.044715


def _gelu(x):
    """tanh-form GELU; returns (value, tanh cache for the backward pass)."""
    t = np.tanh(_GELU_C * (x + _GELU_A * (x * x * x)))
    return 0.5 * x * (1.0 + t), t


def _gelu_grad(x, t):
    du = _GELU_C * (1.0 + (3.0 * _GELU_A) * (x * x))
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du


_LN_EPS = 1e-5


def _layernorm(x, g, b):
    mu = x.mean(-1, keepdims=True)
    xc = x - mu
    var = (xc**2).mean(-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = xc * inv
    return xhat * g + b, (xhat, inv)


def _layernorm_backward(dy, g, cache):
    xhat, inv = cache
    dg = (dy * xhat).sum(axis=tuple(range(dy.ndim - 1)))
    db = dy.sum(axis=tuple(range(dy.ndim - 1)))
    dxhat = dy * g
    dx = inv * (
        dxhat
        - dxhat.mean(-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(-1, keepdims=True)
    )
    return dx, dg, db


def _softmax(z):
    z = z - z.max(-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(-1, keepdims=True)


def forward_logits(params, cfg, tokens, xy, vert, need_cache=False, workspace=None):
    """Next-token logits for an integer batch (B, T); rows at position t are
    the prediction for token t+1. `workspace` is ignored: every array is
    fresh, which is what the package's kernels are compared against."""
    tokens = np.asarray(tokens)
    xy = np.asarray(xy)
    vert = np.asarray(vert)
    if tokens.ndim == 1:
        tokens, xy, vert = tokens[None], xy[None], vert[None]
    b, t = tokens.shape
    if t > cfg.context_len:
        raise ContextOverflow(f"sequence length {t} exceeds context {cfg.context_len}")
    if tokens.min() < 0 or tokens.max() >= cfg.vocab_size:
        raise OutOfRange("token id outside vocabulary")
    if vert.max() > cfg.max_vertex_index:
        raise OutOfRange(
            f"vertex index {int(vert.max())} exceeds table size {cfg.max_vertex_index}"
        )

    x = (
        params["tok_emb"][tokens]
        + params["pos_emb"][:t][None]
        + params["xy_emb"][xy]
        + params["vert_emb"][vert]
    )
    mask = np.triu(np.full((t, t), -1e9, dtype=x.dtype), k=1)
    h = cfg.heads
    hd = cfg.embed_dim // h
    scale = float(1.0 / np.sqrt(hd))
    cache = {"tokens": tokens, "xy": xy, "vert": vert, "layers": []}

    for i in range(cfg.layers):
        a, ln1_cache = _layernorm(x, params[f"h{i}.ln1.g"], params[f"h{i}.ln1.b"])
        qkv = a @ params[f"h{i}.attn.wqkv"] + params[f"h{i}.attn.bqkv"]
        q, k, v = np.split(qkv, 3, axis=-1)
        q = q.reshape(b, t, h, hd).transpose(0, 2, 1, 3)
        k = k.reshape(b, t, h, hd).transpose(0, 2, 1, 3)
        v = v.reshape(b, t, h, hd).transpose(0, 2, 1, 3)
        scores = q @ k.transpose(0, 1, 3, 2) * scale + mask
        probs = _softmax(scores)
        ctx = (probs @ v).transpose(0, 2, 1, 3).reshape(b, t, cfg.embed_dim)
        attn_out = ctx @ params[f"h{i}.attn.wproj"] + params[f"h{i}.attn.bproj"]
        x1 = x + attn_out

        m, ln2_cache = _layernorm(x1, params[f"h{i}.ln2.g"], params[f"h{i}.ln2.b"])
        fc = m @ params[f"h{i}.mlp.wfc"] + params[f"h{i}.mlp.bfc"]
        act, tanh_cache = _gelu(fc)
        mlp_out = act @ params[f"h{i}.mlp.wproj"] + params[f"h{i}.mlp.bproj"]
        x = x1 + mlp_out
        if need_cache:
            cache["layers"].append(
                {
                    "a": a,
                    "ln1": ln1_cache,
                    "q": q,
                    "k": k,
                    "v": v,
                    "probs": probs,
                    "ctx": ctx,
                    "m": m,
                    "ln2": ln2_cache,
                    "fc": fc,
                    "tanh": tanh_cache,
                    "act": act,
                }
            )

    hfinal, lnf_cache = _layernorm(x, params["lnf.g"], params["lnf.b"])
    logits = hfinal @ params["tok_emb"].T
    if need_cache:
        cache["hfinal"] = hfinal
        cache["lnf"] = lnf_cache
        return logits, cache
    return logits


def backward_logits(params, cfg, cache, dlogits, workspace=None):
    """Gradients of a scalar loss given d loss / d logits; mirrors
    forward_logits step by step. `workspace` is ignored."""
    grads = {name: np.zeros_like(arr) for name, arr in params.items()}
    b, t, _ = dlogits.shape
    h = cfg.heads
    hd = cfg.embed_dim // h
    scale = float(1.0 / np.sqrt(hd))
    d = cfg.embed_dim

    hfinal = cache["hfinal"]
    grads["tok_emb"] += dlogits.reshape(-1, cfg.vocab_size).T @ hfinal.reshape(-1, d)
    dh = dlogits @ params["tok_emb"]
    dx, dg, db = _layernorm_backward(dh, params["lnf.g"], cache["lnf"])
    grads["lnf.g"] += dg
    grads["lnf.b"] += db

    for i in reversed(range(cfg.layers)):
        lc = cache["layers"][i]
        # MLP branch
        dmlp_out = dx
        grads[f"h{i}.mlp.bproj"] += dmlp_out.sum((0, 1))
        grads[f"h{i}.mlp.wproj"] += lc["act"].reshape(-1, 4 * d).T @ dmlp_out.reshape(-1, d)
        dact = dmlp_out @ params[f"h{i}.mlp.wproj"].T
        dfc = dact * _gelu_grad(lc["fc"], lc["tanh"])
        grads[f"h{i}.mlp.bfc"] += dfc.sum((0, 1))
        grads[f"h{i}.mlp.wfc"] += lc["m"].reshape(-1, d).T @ dfc.reshape(-1, 4 * d)
        dm = dfc @ params[f"h{i}.mlp.wfc"].T
        dx1, dg, db = _layernorm_backward(dm, params[f"h{i}.ln2.g"], lc["ln2"])
        grads[f"h{i}.ln2.g"] += dg
        grads[f"h{i}.ln2.b"] += db
        dx1 = dx1 + dx  # residual

        # attention branch
        dattn_out = dx1
        grads[f"h{i}.attn.bproj"] += dattn_out.sum((0, 1))
        grads[f"h{i}.attn.wproj"] += lc["ctx"].reshape(-1, d).T @ dattn_out.reshape(-1, d)
        dctx = (dattn_out @ params[f"h{i}.attn.wproj"].T).reshape(b, t, h, hd).transpose(
            0, 2, 1, 3
        )
        probs, v = lc["probs"], lc["v"]
        dprobs = dctx @ v.transpose(0, 1, 3, 2)
        dv = probs.transpose(0, 1, 3, 2) @ dctx
        dscores = probs * (dprobs - (dprobs * probs).sum(-1, keepdims=True))
        dq = dscores @ lc["k"] * scale
        dk = dscores.transpose(0, 1, 3, 2) @ lc["q"] * scale
        dqkv = np.concatenate(
            [
                g.transpose(0, 2, 1, 3).reshape(b, t, d)
                for g in (dq, dk, dv)
            ],
            axis=-1,
        )
        grads[f"h{i}.attn.bqkv"] += dqkv.sum((0, 1))
        grads[f"h{i}.attn.wqkv"] += lc["a"].reshape(-1, d).T @ dqkv.reshape(-1, 3 * d)
        da = dqkv @ params[f"h{i}.attn.wqkv"].T
        dxa, dg, db = _layernorm_backward(da, params[f"h{i}.ln1.g"], lc["ln1"])
        grads[f"h{i}.ln1.g"] += dg
        grads[f"h{i}.ln1.b"] += db
        dx = dx1 + dxa  # residual

    tokens, xy, vert = cache["tokens"], cache["xy"], cache["vert"]
    flat = dx.reshape(-1, d)
    np.add.at(grads["tok_emb"], tokens.ravel(), flat)
    pos = np.broadcast_to(np.arange(t), tokens.shape).ravel()
    np.add.at(grads["pos_emb"], pos, flat)
    np.add.at(grads["xy_emb"], xy.ravel(), flat)
    np.add.at(grads["vert_emb"], vert.ravel(), flat)
    return grads


def train_step(batch, state, model_cfg, train_cfg, guidance_cfg=None, soft_params=None):
    """The earlier optimizer update, with its AdamW loop. The loss and
    gradients come from model.batch_loss_and_grads, which looks up
    forward_logits, backward_logits and _softmax on the model module; a test
    that wants the whole earlier path patches those to the functions above."""
    loss, grads = model.batch_loss_and_grads(
        batch,
        state.params,
        model_cfg,
        train_cfg,
        guidance_cfg,
        soft_params,
        alpha_cache=state.alpha_cache,
        rng=state.rng,
    )
    if not np.isfinite(loss.total):
        raise NonFiniteLoss(
            f"non-finite loss at step {state.step + 1}",
            diagnostics={"loss": loss.to_dict()},
        )
    gnorm = np.sqrt(sum(float((g.astype(np.float64) ** 2).sum()) for g in grads.values()))
    if not np.isfinite(gnorm):
        raise NonFiniteLoss(
            f"non-finite gradient at step {state.step + 1}",
            diagnostics={"loss": loss.to_dict(), "grad_norm": gnorm},
        )
    if train_cfg.grad_clip and gnorm > train_cfg.grad_clip:
        scale = train_cfg.grad_clip / gnorm
        for g in grads.values():
            g *= scale

    state.step += 1
    lr = train_cfg.lr * min(1.0, state.step / max(1, train_cfg.warmup_steps))
    b1, b2 = train_cfg.beta1, train_cfg.beta2
    bias1 = 1.0 - b1**state.step
    bias2 = 1.0 - b2**state.step
    for name, p in state.params.items():
        g = grads[name]
        m = state.adam_m[name]
        v = state.adam_v[name]
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        update = (m / bias1) / (np.sqrt(v / bias2) + train_cfg.eps)
        if train_cfg.weight_decay and p.ndim >= 2:
            update = update + train_cfg.weight_decay * p
        p -= (lr * update).astype(p.dtype)

    return state, loss


def generate_batch(net, prefixes, max_len=None):
    """The package's earlier greedy decoder: one full forward pass over every
    active row's whole prefix per generated token."""
    vocab = net.vocab
    limit = min(max_len or net.cfg.context_len, net.cfg.context_len)
    seqs = [list(p) for p in prefixes]
    for s in seqs:
        if len(s) > limit:
            raise ContextOverflow(f"prefix length {len(s)} exceeds {limit}")
    done = [s[-1] == vocab.eos if s else False for s in seqs]
    while True:
        active = [i for i in range(len(seqs)) if not done[i] and len(seqs[i]) < limit]
        if not active:
            break
        t_max = max(len(seqs[i]) for i in active)
        batch_tokens = np.full((len(active), t_max), vocab.pad, dtype=np.int64)
        batch_xy = np.zeros((len(active), t_max), dtype=np.int64)
        batch_vert = np.zeros((len(active), t_max), dtype=np.int64)
        for row, i in enumerate(active):
            s = seqs[i]
            batch_tokens[row, : len(s)] = s
            xy, vert = tokenizer.indices_for_tokens(s, vocab)
            batch_xy[row, : len(s)] = xy
            batch_vert[row, : len(s)] = np.minimum(vert, net.cfg.max_vertex_index)
        logits = forward_logits(net.params, net.cfg, batch_tokens, batch_xy, batch_vert)
        for row, i in enumerate(active):
            s = seqs[i]
            nxt = int(np.argmax(logits[row, len(s) - 1]))
            s.append(nxt)
            if nxt == vocab.eos:
                done[i] = True
    return [(tuple(s), not d) for s, d in zip(seqs, done)]


# --- earlier evaluation geometry: the bit-identity reference --------------
#
# min_distance ran the general segment test for every edge pair; coverage
# normalized each polygon in plan_is_valid, polygon_area and inside both
# union_area calls, and union_area painted a numpy grid. `metrics_tally` is
# the per-chunk tally of metrics.evaluate that called them.


def _edges_of(obj):
    """Edge list of a polygon loop, a segment object, or a bare sequence.

    Bare 2-point sequences are treated as a single open segment; longer
    sequences as closed loops.
    """
    if hasattr(obj, "vertices"):
        pts = geometry._loop(obj.vertices)
        return [(pts[i], pts[(i + 1) % len(pts)]) for i in range(len(pts))]
    if hasattr(obj, "a") and hasattr(obj, "b"):
        a, b = obj.a, obj.b
        return [((int(a[0]), int(a[1])), (int(b[0]), int(b[1])))]
    pts = geometry._loop(obj)
    if len(pts) == 2:
        return [(pts[0], pts[1])]
    return [(pts[i], pts[(i + 1) % len(pts)]) for i in range(len(pts))]


def min_distance(a, b, scale=None):
    """Minimum distance between the boundary point sets of two operands
    (polygons, door segments, or bare loops), converted to meters.

    Zero whenever the operands touch, cross, or one encloses the other.
    `scale` is a ScaleConfig (or bare meters-per-cell factor); omit it for
    plain cell units.
    """
    edges_a = _edges_of(a)
    edges_b = _edges_of(b)
    best = math.inf
    for pa, pb in edges_a:
        for qa, qb in edges_b:
            d = geometry.segment_distance(pa, pb, qa, qb)
            if d < best:
                best = d
            if best == 0.0:
                break
        if best == 0.0:
            break
    if best > 0.0:
        # no boundary contact: one operand may still lie entirely inside
        # the other, which counts as overlap
        if _encloses(a, edges_b) or _encloses(b, edges_a):
            best = 0.0
    factor = getattr(scale, "meters_per_cell", scale)
    if factor is None:
        factor = 1.0
    return best * float(factor)


def _encloses(container, edges_inner):
    if not hasattr(container, "vertices") and (
        hasattr(container, "a") or len(geometry._loop(container)) == 2
    ):
        return False
    loop = container.vertices if hasattr(container, "vertices") else container
    return geometry.point_strictly_inside(edges_inner[0][0], loop)


def union_area(rooms):
    """Exact area in cells^2 covered by at least one room polygon."""
    rects = []
    for room in rooms:
        rects.extend(geometry.rect_decompose(room))
    if not rects:
        return 0
    xs = np.array(sorted({r[0] for r in rects} | {r[2] for r in rects}), dtype=np.int64)
    ys = np.array(sorted({r[1] for r in rects} | {r[3] for r in rects}), dtype=np.int64)
    covered = np.zeros((len(xs) - 1, len(ys) - 1), dtype=bool)
    for x0, y0, x1, y1 in rects:
        i0, i1 = np.searchsorted(xs, (x0, x1))
        j0, j1 = np.searchsorted(ys, (y0, y1))
        covered[i0:i1, j0:j1] = True
    cell = np.outer(np.diff(xs), np.diff(ys))
    return int(cell[covered].sum())


def plan_is_valid(plan):
    """All polygons (boundary and rooms) rectilinear, simple, nonzero area."""
    try:
        geometry.normalize_loop(plan.boundary)
        for room in plan.rooms:
            geometry.normalize_loop(room.vertices)
    except ErgoplanError:
        return False
    return True


def plan_coverage(plan):
    """(covered_fraction, overlap_fraction) of the boundary area.

    Covered area is the rooms' union intersected with the boundary, by
    inclusion-exclusion, so room area outside the boundary covers nothing.
    """
    boundary_area = geometry.polygon_area(plan.boundary)
    union = union_area(plan.rooms)
    covered = union + boundary_area - union_area(plan.rooms + (plan.boundary,))
    overlap = sum(geometry.polygon_area(r) for r in plan.rooms) - union
    return covered / boundary_area, overlap / boundary_area


def metrics_tally(sequences, cfg):
    """Per-chunk metric counters; merging tallies is order-independent
    except for the cost sums, which we keep in chunk order.

    Costs go through ergocost.ergonomic_cost, whose distances come from
    ergocost.min_distance; patch that to this module's min_distance for the
    earlier evaluation as a whole.
    """
    vocab = tokenizer.Vocabulary(cfg.resolution)
    tally = {
        "n": len(sequences),
        "parsed": 0,
        "valid": 0,
        "covered": 0,
        "no_overlap": 0,
        "costs": [],
        "perfect": 0,
    }
    for seq in sequences:
        outcome = tokenizer.decode(seq, vocab)
        if not outcome.ok:
            continue
        plan = outcome.plan
        tally["parsed"] += 1
        if not plan_is_valid(plan):
            # geometric checks cannot be computed; they count as failed
            continue
        tally["valid"] += 1
        covered, overlap = plan_coverage(plan)
        tally["covered"] += covered >= 1.0 - cfg.coverage_tolerance
        tally["no_overlap"] += overlap <= cfg.overlap_tolerance
        report = ergocost.ergonomic_cost(plan, cfg.scale)
        if report.total is not None:
            tally["costs"].append(report.total)
            tally["perfect"] += report.perfect
    return tally
