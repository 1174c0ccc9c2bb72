"""Oracles the tests check the package against.

Most of them deliberately take a different route than the package:
distances via axis-aligned bounding-gap formulas instead of general
segment projection, areas via unit-cell rasterization instead of sweeps,
assignments via exhaustive enumeration, gradients via central differences.

The code at the end is the exception. `_term_values_and_grads` is the
package's earlier soft-loss evaluation with one block per term, and the
transformer kernels are its earlier allocate-per-operation forward,
backward and AdamW code, both kept unchanged. The package now does the
same floating-point operations in the same order (one loop over the rule
table; buffers it owns), so its results must equal these bit for bit, not
merely to a tolerance.
"""

import numpy as np

from ergoplan import model
from ergoplan.ergoloss import (
    SoftParams,
    VertexPlan,
    _pair_soft_distance,
    _soft_combine,
    ergonomic_loss,
)
from ergoplan.errors import ContextOverflow, NonFiniteLoss, OutOfRange
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


def forward_logits(params, cfg, tokens, xy, vert, need_cache=False):
    """Next-token logits for an integer batch (B, T); rows at position t are
    the prediction for token t+1."""
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


def backward_logits(params, cfg, cache, dlogits):
    """Gradients of a scalar loss given d loss / d logits; mirrors
    forward_logits step by step."""
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
