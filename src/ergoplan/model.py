"""Decoder-only autoregressive transformer over plan token sequences.

Pure numpy, CPU-sized, fully deterministic given a seed. The input
representation is the sum of four learned embeddings (token, position,
xy-index, vertex-index); blocks are pre-norm self-attention + GELU MLP with
a weight-tied output head. Forward and reverse passes are written out by
hand so training needs no autodiff framework and gradients can be checked
against finite differences.
"""

import functools
import hashlib
import json
import math
import os
import queue
import threading
from dataclasses import dataclass, field

import numpy as np

from . import ergoloss, guidance, tokenizer
from .errors import (
    CheckpointError,
    ContextOverflow,
    EmptyInput,
    NonFiniteLoss,
    OutOfRange,
)

CHECKPOINT_VERSION = 1


def _require_positive(cfg, *names):
    for name in names:
        if not getattr(cfg, name) > 0:
            raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class ModelConfig:
    layers: int = 4
    heads: int = 4
    embed_dim: int = 64
    context_len: int = tokenizer.DEFAULT_CONTEXT
    vocab_size: int = tokenizer.Vocabulary().size
    max_vertex_index: int = 32
    seed: int = 0
    dtype: str = "float32"

    def __post_init__(self):
        _require_positive(self, "layers", "heads", "embed_dim", "context_len")
        if self.embed_dim % self.heads != 0:
            raise ValueError("embed_dim must be divisible by heads")

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64


# the optimizer is decoupled-weight-decay Adam (AdamW) with a linear warmup
# of the learning rate; decay applies to matrix-shaped parameters, and the
# gradient's global norm is clipped before the update
WARMUP_STEPS = 100
WEIGHT_DECAY = 0.01
BETA1, BETA2 = 0.9, 0.999
EPS = 1e-8
GRAD_CLIP = 1.0


@dataclass
class TrainConfig:
    """Training-loop settings; the optimizer's are the constants above."""

    steps: int = 1000
    batch_size: int = 16
    lr: float = 3e-4
    guided: bool = True
    seed: int = 0

    def __post_init__(self):
        _require_positive(self, "batch_size", "lr")
        if self.steps < 0:
            raise ValueError("steps must be non-negative")


def init_params(cfg):
    """Seeded parameter dictionary; residual projections are scaled down by
    1/sqrt(2*layers) so depth does not blow up activations."""
    rng = np.random.default_rng(cfg.seed)
    dtype = cfg.np_dtype
    std = 0.02
    res_std = std / np.sqrt(2.0 * cfg.layers)
    d = cfg.embed_dim

    def normal(shape, scale=std):
        return (rng.standard_normal(shape) * scale).astype(dtype)

    params = {
        "tok_emb": normal((cfg.vocab_size, d)),
        "pos_emb": normal((cfg.context_len, d)),
        "xy_emb": normal((3, d)),
        "vert_emb": normal((cfg.max_vertex_index + 1, d)),
        "lnf.g": np.ones(d, dtype=dtype),
        "lnf.b": np.zeros(d, dtype=dtype),
    }
    for i in range(cfg.layers):
        params[f"h{i}.ln1.g"] = np.ones(d, dtype=dtype)
        params[f"h{i}.ln1.b"] = np.zeros(d, dtype=dtype)
        params[f"h{i}.attn.wqkv"] = normal((d, 3 * d))
        params[f"h{i}.attn.bqkv"] = np.zeros(3 * d, dtype=dtype)
        params[f"h{i}.attn.wproj"] = normal((d, d), res_std)
        params[f"h{i}.attn.bproj"] = np.zeros(d, dtype=dtype)
        params[f"h{i}.ln2.g"] = np.ones(d, dtype=dtype)
        params[f"h{i}.ln2.b"] = np.zeros(d, dtype=dtype)
        params[f"h{i}.mlp.wfc"] = normal((d, 4 * d))
        params[f"h{i}.mlp.bfc"] = np.zeros(4 * d, dtype=dtype)
        params[f"h{i}.mlp.wproj"] = normal((4 * d, d), res_std)
        params[f"h{i}.mlp.bproj"] = np.zeros(d, dtype=dtype)
    return params


def parameter_checksum(params):
    """Stable SHA-256 over parameter names, shapes, and raw bytes."""
    digest = hashlib.sha256()
    for name in sorted(params):
        arr = np.ascontiguousarray(params[name])
        digest.update(name.encode())
        digest.update(str(arr.shape).encode())
        digest.update(str(arr.dtype).encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


# python-float constants keep float32 pipelines in float32
_GELU_C = float(np.sqrt(2.0 / np.pi))
_GELU_A = 0.044715

# The kernels below write into workspace buffers but keep every
# floating-point operation and its operand grouping: results are
# bit-identical to the allocate-per-operation form kept in tests/oracles.py.
# Only commutation (a*b == b*a, a+b == b+a) and exact scaling by 0.5 are
# used to reorder.


class _Workspace:
    """Grow-only flat buffers, one per name. take() returns a contiguous
    leading view of the requested shape, so every batch up to the largest
    seen reuses the same memory and only touched pages become resident. A
    view is valid until its name is taken again."""

    def __init__(self):
        self.buffers = {}
        self._views = {}  # name -> the view last taken, reused for its shape

    def take(self, name, shape, dtype):
        view = self._views.get(name)
        if view is not None and view.shape == shape and view.dtype == dtype:
            return view
        size = math.prod(shape)
        buf = self.buffers.get(name)
        if buf is None or buf.dtype != dtype or buf.size < size:
            buf = self.buffers[name] = np.empty(size, dtype)
        view = self._views[name] = buf[:size].reshape(shape)
        return view


class _Rows:
    """The take() of forward_logits' row halves: the rows `rows` of the
    whole-batch views `views`, which the calling thread took beforehand. It
    only slices, so it is safe on any thread."""

    def __init__(self, views, rows):
        self.views = views
        self.rows = rows

    def take(self, name, shape, dtype):
        view = self.views[name][self.rows]
        assert view.shape == shape and view.dtype == dtype, name
        return view


# forward_logits and backward_logits split a batch into the row halves
# [0:b//2] and [b//2:b], which run at the same time: the calling thread
# takes the first and one worker thread the second. Every operation of a
# half acts on its own rows, every sum over rows runs whole once both halves
# have written its operand, and numpy issues the same per-sample BLAS calls
# for half a batch, so the results are bit-identical to one thread's. A
# process limited to one CPU (taskset -c 0) runs the halves in turn.
_jobs = None  # the worker's queue, created on first use
_jobs_lock = threading.Lock()


def _forget_worker():
    global _jobs, _jobs_lock
    _jobs, _jobs_lock = None, threading.Lock()  # a forked child has no worker


if hasattr(os, "register_at_fork"):  # elsewhere nothing forks
    os.register_at_fork(after_in_child=_forget_worker)


def _cpus():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _worker():
    global _jobs
    with _jobs_lock:
        if _jobs is None:
            _jobs = queue.SimpleQueue()
            threading.Thread(target=_serve, args=(_jobs,), daemon=True, name="ergoplan").start()
        return _jobs


def _serve(jobs):
    while True:
        jobs.get()()  # holds no reference to a job once it has run


def _drain(pending, errors):
    for job in pending:  # a shared iterator: each job runs on one thread
        try:
            job()
        except BaseException as exc:  # raised again by _run
            errors.append(exc)


def _run(first, second=None, *rest):
    """Runs every job once: first on the calling thread, second on the
    worker, and the rest on whichever of the two is free first. The jobs
    must not depend on one another or call _run. Returns when all have
    ended and raises the first exception any of them raised."""
    if second is None or _cpus() < 2:
        for job in (first, second, *rest):
            if job is not None:
                job()
        return
    pending, errors, done = iter(rest), [], threading.Lock()
    done.acquire()

    def work():
        try:
            _drain((second,), errors)
            _drain(pending, errors)
        finally:
            done.release()

    _worker().put(work)
    _drain((first,), errors)
    _drain(pending, errors)
    done.acquire()  # the worker has ended its jobs
    if errors:
        raise errors[0]


def _halves(b, half):
    """Jobs running half(rows) over the two row halves of a batch of b."""
    mid = b // 2
    if mid == 0:
        return [functools.partial(half, slice(0, b))]
    return [functools.partial(half, slice(0, mid)), functools.partial(half, slice(mid, b))]


def _gelu(x, t, out):
    """tanh-form GELU of x into out, which is returned; t receives the tanh
    cache for the backward pass."""
    np.multiply(x, x, out=t)
    t *= x
    t *= _GELU_A
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    np.add(t, 1.0, out=out)
    out *= x
    out *= 0.5
    return out


def _gelu_grad(x, t, du, rest):
    """GELU derivative at x, given its tanh cache t; du and rest are
    scratch, and the result is written into du."""
    np.multiply(x, x, out=du)
    du *= 3.0 * _GELU_A
    du += 1.0
    du *= _GELU_C
    np.multiply(t, t, out=rest)
    np.subtract(1.0, rest, out=rest)
    rest *= x
    rest *= 0.5
    rest *= du
    grad = np.add(t, 1.0, out=du)
    grad *= 0.5
    grad += rest
    return grad


_LN_EPS = 1e-5


def _mean_last(x):
    """x.mean(-1, keepdims=True), the same sum and division without numpy's
    Python-level wrapper, which costs more than the arithmetic on a few
    rows."""
    total = np.add.reduce(x, axis=-1, keepdims=True)
    total /= x.shape[-1]
    return total


def _layernorm(x, g, b, ws, name):
    """Layer norm of x into the buffer `name`; the backward pass reads xhat
    and inv from the buffers `name`.xhat and `name`.inv."""
    mu = _mean_last(x)
    xhat = np.subtract(x, mu, out=ws.take(name + ".xhat", x.shape, x.dtype))
    out = np.square(xhat, out=ws.take(name, x.shape, x.dtype))
    var = _mean_last(out)
    inv = np.divide(1.0, np.sqrt(var + _LN_EPS), out=ws.take(name + ".inv", var.shape, var.dtype))
    xhat *= inv
    np.multiply(xhat, g, out=out)
    out += b
    return out


def _layernorm_backward(dy, g, cache, scratch):
    """Overwrites dy with the input gradient and returns it. The gain and
    bias gradients are the sums over rows of dy * xhat and of dy, which the
    caller takes beforehand."""
    xhat, inv = cache
    dxhat = dy
    dxhat *= g
    np.multiply(dxhat, xhat, out=scratch)
    proj = _mean_last(scratch)
    dxhat -= _mean_last(dxhat)
    np.multiply(xhat, proj, out=scratch)
    dxhat -= scratch
    dxhat *= inv
    return dxhat


def _softmax(z):
    """Softmax over the last axis, computed in place in z; returns z."""
    z -= z.max(-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(-1, keepdims=True)
    return z


@functools.cache
def _causal_mask(t, dtype):
    """Read-only additive (t, t) mask; one per length and dtype, so at most
    context_len entries per dtype."""
    mask = np.triu(np.full((t, t), -1e9, dtype=dtype), k=1)
    mask.flags.writeable = False
    return mask


def _embed(params, tokens, positions, xy, vert, ws):
    """Sum of the four input embeddings into the buffer "x"; `positions`
    indexes pos_emb. np.take clips, so the indices must be in range."""
    table = params["tok_emb"]
    shape = (*tokens.shape, table.shape[1])
    x = np.take(table, tokens, axis=0, out=ws.take("x", shape, table.dtype), mode="clip")
    row = ws.take("emb", shape, table.dtype)
    x += params["pos_emb"][positions]
    x += np.take(params["xy_emb"], xy, axis=0, out=row, mode="clip")
    x += np.take(params["vert_emb"], vert, axis=0, out=row, mode="clip")
    return x


def _attention_inputs(params, i, x, ws, tag):
    """Layer i's pre-norm and qkv projection of x (..., D); returns q, k
    and v as (..., D) views. Buffer names start with tag."""
    a = _layernorm(x, params[f"h{i}.ln1.g"], params[f"h{i}.ln1.b"], ws, tag + "ln1")
    w = params[f"h{i}.attn.wqkv"]
    qkv = np.matmul(a, w, out=ws.take(tag + "qkv", (*x.shape[:-1], w.shape[1]), x.dtype))
    qkv += params[f"h{i}.attn.bqkv"]
    return np.split(qkv, 3, axis=-1)


def _attention_probs(q, k, mask, scale, out):
    """Masked, scaled softmax of q against the keys k, into out."""
    probs = np.matmul(q, k.transpose(0, 1, 3, 2), out=out)
    probs *= scale
    probs += mask
    return _softmax(probs)


def _attention_output(params, i, ctx, x, ws):
    """Layer i's output projection of the merged heads ctx, plus the
    residual x, into the buffer "x1"."""
    x1 = np.matmul(ctx, params[f"h{i}.attn.wproj"], out=ws.take("x1", x.shape, x.dtype))
    x1 += params[f"h{i}.attn.bproj"]
    x1 += x
    return x1


def _mlp_block(params, i, x1, ws, tag):
    """Layer i's pre-norm GELU MLP and residual. The output goes to the
    buffer "x", so the block's input must not be there; the names of the
    buffers the backward pass reads start with tag."""
    m = _layernorm(x1, params[f"h{i}.ln2.g"], params[f"h{i}.ln2.b"], ws, tag + "ln2")
    w = params[f"h{i}.mlp.wfc"]
    shape = (*x1.shape[:-1], w.shape[1])
    fc = np.matmul(m, w, out=ws.take(tag + "fc", shape, x1.dtype))
    fc += params[f"h{i}.mlp.bfc"]
    act = _gelu(fc, ws.take(tag + "tanh", shape, x1.dtype), ws.take(tag + "act", shape, x1.dtype))
    x = np.matmul(act, params[f"h{i}.mlp.wproj"], out=ws.take("x", x1.shape, x1.dtype))
    x += params[f"h{i}.mlp.bproj"]
    x += x1
    return x


def _split_heads(u, heads):
    """(B, T, D) -> (B, H, T, D/H) view."""
    b, t, d = u.shape
    return u.reshape(b, t, heads, d // heads).transpose(0, 2, 1, 3)


def _forward_buffers(cfg, b, t, vocab, dtype, tags, ws):
    """Every whole-batch buffer the layer stack writes, by name; layer i's
    names start with tags[i]."""
    d, h = cfg.embed_dim, cfg.heads
    row, wide, norm = (b, t, d), (b, t, 4 * d), (b, t, 1)
    shapes = {"x": row, "x1": row, "lnf": row, "lnf.xhat": row, "lnf.inv": norm}
    shapes["logits"] = (b, t, vocab)
    for tag in set(tags):
        for ln in ("ln1", "ln2"):
            shapes.update({tag + ln: row, tag + ln + ".xhat": row, tag + ln + ".inv": norm})
        shapes.update({tag + "qkv": (b, t, 3 * d), tag + "probs": (b, h, t, t), tag + "ctx": row})
        shapes.update({tag + "fc": wide, tag + "tanh": wide, tag + "act": wide})
    views = {name: ws.take(name, shape, dtype) for name, shape in shapes.items()}
    # the embedding rows and each layer's heads go through x1's buffer, which
    # is spent from the MLP residual until the attention output
    views["emb"] = views["x1"]
    views["heads"] = ws.take("x1", (b, h, t, d // h), dtype)
    return views


def _forward_rows(params, cfg, batch, mask, tags, kv, views, rows):
    """The layer stack over the rows `rows` of batch = (tokens, xy, vert),
    into those rows of `views`. With kv = (keys, values), each layer's k and
    v also go to the same rows of keys[i] and values[i]."""
    tokens, xy, vert = (a[rows] for a in batch)
    b, t = tokens.shape
    ws = _Rows(views, rows)
    h = cfg.heads
    hd = cfg.embed_dim // h
    scale = float(1.0 / np.sqrt(hd))
    x = _embed(params, tokens, slice(t), xy, vert, ws)
    dtype = x.dtype
    for i, tag in enumerate(tags):
        q, k, v = _attention_inputs(params, i, x, ws, tag)
        q, k, v = (_split_heads(u, h) for u in (q, k, v))
        if kv is not None:
            kv[0][i][rows, :, :t] = k
            kv[1][i][rows, :, :t] = v
        probs = _attention_probs(q, k, mask, scale, ws.take(tag + "probs", (b, h, t, t), dtype))
        heads = np.matmul(probs, v, out=ws.take("heads", (b, h, t, hd), dtype))
        ctx = ws.take(tag + "ctx", (b, t, cfg.embed_dim), dtype)
        ctx.reshape(b, t, h, hd)[...] = heads.transpose(0, 2, 1, 3)
        x1 = _attention_output(params, i, ctx, x, ws)
        x = _mlp_block(params, i, x1, ws, tag)
    hfinal = _layernorm(x, params["lnf.g"], params["lnf.b"], ws, "lnf")
    table = params["tok_emb"]
    np.matmul(hfinal, table.T, out=ws.take("logits", (b, t, len(table)), dtype))


def forward_logits(params, cfg, tokens, xy, vert, need_cache=False, workspace=None, kv=None):
    """Next-token logits for an integer batch (B, T); rows at position t are
    the prediction for token t+1.

    The logits and the cache are views into `workspace` (a fresh one when
    None) and stay valid until it is used again. With need_cache every
    layer keeps its own buffers; without, the layers share one set. With
    kv = (keys, values), one (B, H, >= T, head_dim) array per layer each,
    every layer's k and v are also written to their first T positions.
    The two row halves of the batch run at the same time (see _run)."""
    tokens = np.asarray(tokens)
    xy = np.asarray(xy)
    vert = np.asarray(vert)
    if tokens.ndim == 1:
        tokens, xy, vert = tokens[None], xy[None], vert[None]
    b, t = tokens.shape
    if t > cfg.context_len:
        raise ContextOverflow(f"sequence length {t} exceeds context {cfg.context_len}")
    # _embed clips indices, so every one is checked here
    if tokens.min() < 0 or tokens.max() >= cfg.vocab_size:
        raise OutOfRange("token id outside vocabulary")
    if xy.min() < 0 or xy.max() >= len(params["xy_emb"]):
        raise OutOfRange("xy index outside its table")
    if vert.min() < 0 or vert.max() > cfg.max_vertex_index:
        raise OutOfRange(f"vertex index outside 0..{cfg.max_vertex_index}")
    ws = workspace if workspace is not None else _Workspace()

    table = params["tok_emb"]
    tags = [f"h{i}." if need_cache else "" for i in range(cfg.layers)]
    # the halves only slice these: _Workspace.take is for this thread alone
    views = _forward_buffers(cfg, b, t, len(table), table.dtype, tags, ws)
    mask = _causal_mask(t, table.dtype)
    half = functools.partial(_forward_rows, params, cfg, (tokens, xy, vert), mask, tags, kv, views)
    _run(*_halves(b, half))
    logits = views["logits"]
    if not need_cache:
        return logits
    cache = {"tokens": tokens, "xy": xy, "vert": vert, "layers": []}
    for tag in tags:
        q, k, v = (_split_heads(u, cfg.heads) for u in np.split(views[tag + "qkv"], 3, axis=-1))
        layer = {key: views[tag + key] for key in ("probs", "ctx", "fc", "tanh", "act")}
        layer.update(a=views[tag + "ln1"], m=views[tag + "ln2"], q=q, k=k, v=v)
        for ln in ("ln1", "ln2"):
            layer[ln] = (views[tag + ln + ".xhat"], views[tag + ln + ".inv"])
        cache["layers"].append(layer)
    cache["hfinal"] = views["lnf"]
    cache["lnf"] = (views["lnf.xhat"], views["lnf.inv"])
    return logits, cache


def _decode_step(params, cfg, keys, values, tokens, positions, xy, vert, workspace=None):
    """Logits (rows, vocab) for one new position per row, attending over the
    cached keys and values up to each row's own position. Writes the new
    position's k and v into keys[i] and values[i] (rows, heads, limit,
    head_dim) in place; cached positions past a row's own are masked.
    Rows stay a flat (rows, D) batch outside attention, so every projection
    is one matrix product. The logits are a view into `workspace` (a fresh
    one when None)."""
    ws = workspace if workspace is not None else _Workspace()
    b = len(tokens)
    h = cfg.heads
    hd = cfg.embed_dim // h
    n = int(positions.max()) + 1
    x = _embed(params, tokens, positions, xy, vert, ws)
    dtype = x.dtype
    mask = np.where(np.arange(n) > positions[:, None], -1e9, 0.0).astype(dtype)
    mask = mask[:, None, None, :]
    scale = float(1.0 / np.sqrt(hd))
    rows = np.arange(b)
    for i in range(cfg.layers):
        q, k, v = _attention_inputs(params, i, x, ws, "")
        keys[i][rows, :, positions] = k.reshape(b, h, hd)
        values[i][rows, :, positions] = v.reshape(b, h, hd)
        out = ws.take("probs", (b, h, 1, n), dtype)
        probs = _attention_probs(q.reshape(b, h, 1, hd), keys[i][:b, :, :n], mask, scale, out)
        heads = np.matmul(probs, values[i][:b, :, :n], out=ws.take("heads", (b, h, 1, hd), dtype))
        x1 = _attention_output(params, i, heads.reshape(b, cfg.embed_dim), x, ws)
        x = _mlp_block(params, i, x1, ws, "")
    hfinal = _layernorm(x, params["lnf.g"], params["lnf.b"], ws, "lnf")
    table = params["tok_emb"]
    return np.matmul(hfinal, table.T, out=ws.take("logits", (b, len(table)), dtype))


def _add_rows(table, ids, rows):
    """np.add.at(table, ids, rows) for a zeroed table, one sum per id that
    occurs: a sum over axis 0 adds the rows in order onto 0.0, as add.at
    adds them onto the zero row."""
    for i in np.unique(ids):
        table[i] += rows[ids == i].sum(axis=0)


def backward_logits(params, cfg, cache, dlogits, workspace=None):
    """Gradients of a scalar loss given d loss / d logits; mirrors
    forward_logits step by step. Reads cache and dlogits without changing
    them. The gradients and every temporary are views into `workspace` (a
    fresh one when None); its names must not be the cache's.

    The row-local chain runs as row halves (see _run); each sum over rows
    runs whole, beside a later row region or between two."""
    ws = workspace if workspace is not None else _Workspace()
    grads = {}
    for name, arr in params.items():
        # zeroed, then accumulated with +=, exactly as np.zeros then +=
        grads[name] = ws.take("d." + name, arr.shape, arr.dtype)
        grads[name].fill(0)
    b, t, _ = dlogits.shape
    h = cfg.heads
    hd = cfg.embed_dim // h
    scale = float(1.0 / np.sqrt(hd))
    d = cfg.embed_dim
    dtype = dlogits.dtype

    def take(name, *shapes):
        # whole-batch views at the front of one buffer, taken on this thread
        # only; the halves slice them
        ws.take(name, (max(map(math.prod, shapes)),), dtype)
        return [ws.take(name, shape, dtype) for shape in shapes]

    def summed(name, x):
        def job():
            grads[name] += x.sum((0, 1))

        return job

    def product(name, inputs, dout):
        def job():
            # straight into the zeroed gradient; adding 0.0 turns -0.0 into
            # 0.0, exactly as adding the product to zeros did
            g = np.matmul(inputs, dout, out=grads[name])
            g += 0.0

        return job

    # the MLP branch's (B, T, 4D) scratch and the attention branch's
    # (B, H, T, T) scratch are never live together, so they share "s0"-"s2".
    # The residual stream alternates between "dx0" and "dx1"; (B, T, D)
    # buffers double as (B, H, T, D/H) ones once spent: dv goes to the
    # layer's input stream after the residual, dq to dctx after dv and the
    # scores, dk to dln after the layer norm, and da to dctx after the merge
    row, wide, square, split = (b, t, d), (b, t, 4 * d), (b, h, t, t), (b, h, t, hd)
    dfc, dscores = take("s0", wide, square)
    gelu_scratch, pscratch = take("s1", wide, square)
    rest, dqkv = take("s2", wide, (b, t, 3 * d))
    dln, dk = take("dln", row, split)
    dctx, dq = take("dctx", row, split)
    streams = [take(name, row, split) for name in ("dx0", "dx1")]

    table = params["tok_emb"]
    dx, dv = streams[cfg.layers % 2]
    xhat, inv = cache["lnf"]

    def head(r):
        np.matmul(dlogits[r], table, out=dx[r])
        np.multiply(dx[r], xhat[r], out=dln[r])

    _run(
        *_halves(b, head),
        product("tok_emb", dlogits.reshape(-1, len(table)).T, cache["hfinal"].reshape(-1, d)),
    )
    grads["lnf.g"] += dln.sum((0, 1))
    grads["lnf.b"] += dx.sum((0, 1))

    def finish(r, dx=dx):  # the final layer norm's input gradient
        _layernorm_backward(dx[r], params["lnf.g"], (xhat[r], inv[r]), dln[r])

    # four row regions per layer; each sum over rows runs beside the first
    # region that starts once its operand is complete, or between regions
    # when that one would overwrite the operand (the layer norms' sums)
    for i in reversed(range(cfg.layers)):
        lc = cache["layers"][i]
        p = f"h{i}."
        dm, next_dv = streams[i % 2]

        def mlp_in(r):  # the previous layer norm ends, the MLP branch starts
            finish(r)
            out = np.matmul(dx[r], params[p + "mlp.wproj"].T, out=dfc[r])
            out *= _gelu_grad(lc["fc"][r], lc["tanh"][r], gelu_scratch[r], rest[r])

        def mlp_out(r):
            np.matmul(dfc[r], params[p + "mlp.wfc"].T, out=dm[r])
            np.multiply(dm[r], lc["ln2"][0][r], out=dln[r])

        def attention(r):
            xhat2, inv2 = lc["ln2"]
            dx1 = _layernorm_backward(dm[r], params[p + "ln2.g"], (xhat2[r], inv2[r]), dln[r])
            dx1 += dx[r]  # residual
            heads = _split_heads(np.matmul(dx1, params[p + "attn.wproj"].T, out=dctx[r]), h)
            probs, v = lc["probs"][r], lc["v"][r]
            scores = np.matmul(heads, v.transpose(0, 1, 3, 2), out=dscores[r])
            np.matmul(probs.transpose(0, 1, 3, 2), heads, out=dv[r])
            scores -= np.multiply(scores, probs, out=pscratch[r]).sum(-1, keepdims=True)
            scores *= probs
            q = np.matmul(scores, lc["k"][r], out=dq[r])
            q *= scale
            k = np.matmul(scores.transpose(0, 1, 3, 2), lc["q"][r], out=dk[r])
            k *= scale
            merged = dqkv[r].reshape(len(q), t, 3, h, hd)
            for j, g in enumerate((q, k, dv[r])):
                merged[:, :, j] = g.transpose(0, 2, 1, 3)

        def attention_in(r):
            np.matmul(dqkv[r], params[p + "attn.wqkv"].T, out=dctx[r])
            np.multiply(dctx[r], lc["ln1"][0][r], out=dln[r])

        _run(*_halves(b, mlp_in))
        _run(
            *_halves(b, mlp_out),
            summed(p + "mlp.bproj", dx),
            product(p + "mlp.wproj", lc["act"].reshape(-1, 4 * d).T, dx.reshape(-1, d)),
            summed(p + "mlp.bfc", dfc),
            product(p + "mlp.wfc", lc["m"].reshape(-1, d).T, dfc.reshape(-1, 4 * d)),
        )
        grads[p + "ln2.g"] += dln.sum((0, 1))
        grads[p + "ln2.b"] += dm.sum((0, 1))
        _run(*_halves(b, attention))
        _run(
            *_halves(b, attention_in),
            summed(p + "attn.bproj", dm),
            product(p + "attn.wproj", lc["ctx"].reshape(-1, d).T, dm.reshape(-1, d)),
            summed(p + "attn.bqkv", dqkv),
            product(p + "attn.wqkv", lc["a"].reshape(-1, d).T, dqkv.reshape(-1, 3 * d)),
        )
        grads[p + "ln1.g"] += dln.sum((0, 1))
        grads[p + "ln1.b"] += dctx.sum((0, 1))

        def finish(r, g=params[p + "ln1.g"], ln1=lc["ln1"], dx1=dm):  # with the residual
            out = dx1[r]
            out += _layernorm_backward(dctx[r], g, (ln1[0][r], ln1[1][r]), dln[r])

        dx, dv = dm, next_dv

    _run(*_halves(b, finish))
    tokens, xy, vert = cache["tokens"], cache["xy"], cache["vert"]
    flat = dx.reshape(-1, d)

    def positions():
        at = grads["pos_emb"][:t]
        for sample in dx:  # in sample order, as add.at adds them
            at += sample

    _run(
        lambda: np.add.at(grads["tok_emb"], tokens.ravel(), flat),
        positions,
        lambda: _add_rows(grads["xy_emb"], xy.ravel(), flat),
        lambda: _add_rows(grads["vert_emb"], vert.ravel(), flat),
    )
    return grads


class Model:
    """Parameters plus config, with the sequence-level conveniences."""

    def __init__(self, cfg, params=None, vocab=None):
        self.cfg = cfg
        self.params = params if params is not None else init_params(cfg)
        self.vocab = vocab or tokenizer.Vocabulary.for_size(cfg.vocab_size)

    def forward(self, seq):
        """Next-token probability rows for one TokenSequence: row t is the
        distribution over the token following position t; rows sum to 1."""
        logits = forward_logits(
            self.params,
            self.cfg,
            np.array(seq.tokens),
            np.array(seq.xy_index),
            np.array(seq.vertex_index),
        )
        return _softmax(logits.astype(np.float64))[0]

    def prob_rows(self, seq):
        """(T, vocab) rows aligned so that row t is the model's distribution
        for the token at position t (row 0 has no prediction and is zero)."""
        probs = self.forward(seq)
        rows = np.zeros_like(probs)
        rows[1:] = probs[:-1]
        return rows

    def generate_batch(self, prefixes, max_len=None):
        """Greedy-decode many prefixes in lockstep: one forward pass over the
        right-padded prefixes fills a per-layer key/value cache, then each
        step feeds one new position per unfinished row. Returns one
        (tokens, truncated_flag) pair per prefix."""
        vocab, cfg = self.vocab, self.cfg
        limit = cfg.context_len if max_len is None else min(max_len, cfg.context_len)
        seqs = [list(p) for p in prefixes]
        for s in seqs:
            if not s:
                raise EmptyInput("generation needs a non-empty prefix")
            if len(s) > limit:
                raise ContextOverflow(f"prefix length {len(s)} exceeds {limit}")
        done = [s[-1] == vocab.eos for s in seqs]
        live = [i for i, s in enumerate(seqs) if not done[i] and len(s) < limit]
        if live:
            self._decode_live(seqs, done, live, limit)
        return [(tuple(s), not d) for s, d in zip(seqs, done)]

    def _decode_live(self, seqs, done, live, limit):
        """Extend seqs[i] for every i in live until EOS (marked in done) or
        the limit. Cache slot r holds row live[r]; a finished row's slot is
        refilled with the last live one, so live rows stay in front."""
        vocab, cfg, params = self.vocab, self.cfg, self.params
        prefill = [
            (tokenizer.TokenSequence(tuple(s), *tokenizer.indices_for_tokens(s, vocab)), None)
            for s in (seqs[i] for i in live)
        ]
        # the (xy, vertex) indices of each row's last token
        last = [(seq.xy_index[-1], seq.vertex_index[-1]) for seq, _ in prefill]
        tokens, xy, vert = _pad_batch(prefill, vocab, cfg.max_vertex_index)
        shape = (len(live), cfg.heads, limit, cfg.embed_dim // cfg.heads)
        dtype = params["tok_emb"].dtype
        keys = [np.zeros(shape, dtype=dtype) for _ in range(cfg.layers)]
        values = [np.zeros(shape, dtype=dtype) for _ in range(cfg.layers)]
        logits = forward_logits(params, cfg, tokens, xy, vert, kv=(keys, values))
        ends = np.array([len(seqs[i]) - 1 for i in live])
        choices = logits[np.arange(len(live)), ends].argmax(-1)
        ws = _Workspace()

        while True:
            for r in reversed(range(len(live))):
                s = seqs[live[r]]
                s.append(int(choices[r]))
                last[r] = tokenizer.next_indices(s[-1], last[r], vocab)
                done[live[r]] = s[-1] == vocab.eos
                if done[live[r]] or len(s) == limit:
                    end = len(live) - 1
                    if r < end:
                        for k, v in zip(keys, values):
                            k[r] = k[end]
                            v[r] = v[end]
                        live[r], last[r] = live[end], last[end]
                    live.pop()
                    last.pop()
            if not live:
                return
            logits = _decode_step(
                params,
                cfg,
                keys,
                values,
                np.array([seqs[i][-1] for i in live]),
                np.array([len(seqs[i]) - 1 for i in live]),
                np.array([xy for xy, _ in last]),
                np.minimum([vertex for _, vertex in last], cfg.max_vertex_index),
                ws,
            )
            choices = logits.argmax(-1)


@dataclass
class TrainState:
    """Everything needed to resume training bit-identically."""

    params: dict
    adam_m: dict
    adam_v: dict
    step: int
    rng: np.random.Generator
    alpha_cache: dict = field(default_factory=dict)  # (plan, SoftParams) -> PairTable
    # every per-step array of train_step; never saved, compared or printed
    workspace: _Workspace = field(default_factory=_Workspace, repr=False, compare=False)


def init_train_state(model_cfg, train_cfg):
    params = init_params(model_cfg)
    return TrainState(
        params=params,
        adam_m={k: np.zeros_like(v) for k, v in params.items()},
        adam_v={k: np.zeros_like(v) for k, v in params.items()},
        step=0,
        rng=np.random.default_rng(train_cfg.seed),
    )


def _pad_batch(batch, vocab, max_vertex_index):
    t_max = max(len(seq) for seq, _ in batch)
    b = len(batch)
    tokens = np.full((b, t_max), vocab.pad, dtype=np.int64)
    xy = np.zeros((b, t_max), dtype=np.int64)
    vert = np.zeros((b, t_max), dtype=np.int64)
    for i, (seq, _) in enumerate(batch):
        n = len(seq)
        tokens[i, :n] = seq.tokens
        xy[i, :n] = seq.xy_index
        vert[i, :n] = np.minimum(seq.vertex_index, max_vertex_index)
    return tokens, xy, vert


def _plan_tables(plans, soft_params, cache):
    """Each plan's PairTable from the cache; the missing ones are built
    together, one per distinct plan."""
    # keyed on the plan's value (FloorPlan is frozen and hashable) and the
    # soft parameters the table was scored with: the cache outlives the
    # sample list, an id() could be recycled by another plan, and one state
    # may be stepped under several configurations
    keys = [(plan, soft_params) for plan in plans]
    missing = list(dict.fromkeys(key for key in keys if key not in cache))
    if missing:
        built = ergoloss.pair_tables([plan for plan, _ in missing], soft_params)
        cache.update(zip(missing, built))
    return [cache[key] for key in keys]


# mixing weights below this are treated as zero; they only arise as the
# softmin residual of plans whose charged rooms share vertices with their
# targets (~1e-6), not from any real vertex separation
ALPHA_FLOOR = 1e-5


def _sample_alpha(table, guidance_cfg):
    if table.total is None:
        return 0.0  # no applicable term: fall back to cross-entropy
    value = guidance.alpha(table.total, guidance_cfg)
    return value if value >= ALPHA_FLOOR else 0.0


# eligible rows per pass of the softmax chain rule's row sums
_CHAIN_ROWS = 128


def batch_loss_and_grads(
    batch,
    params,
    model_cfg,
    train_cfg,
    guidance_cfg=None,
    soft_params=None,
    alpha_cache=None,
    workspace=None,
):
    """Mixed loss over a batch of (TokenSequence, FloorPlan) samples and its
    exact gradient w.r.t. every parameter.

    Per sample: cross-entropy over next-token predictions and, when guided
    and the sample's ground-truth plan loss is positive, the expected-token
    plan loss; the two are mixed by the sample's alpha and averaged over the
    batch. Both are assembled for the whole batch at once: the cache's
    missing pair tables are built together, guidance.positional_losses
    scores every guided sample in one pass, and the softmax chain rule runs
    over all eligible rows in one array operation. Only the reductions
    along each sample's rows stay per sample. The gradients are views into
    `workspace` (a fresh one when None) and stay valid until it is used
    again. Guided training needs the guidance resolution to be the model
    vocabulary's (ValueError).
    """
    guidance_cfg = guidance_cfg or guidance.GuidanceConfig()
    soft_params = soft_params or ergoloss.SoftParams()
    alpha_cache = alpha_cache if alpha_cache is not None else {}
    ws = workspace if workspace is not None else _Workspace()
    vocab = tokenizer.Vocabulary.for_size(model_cfg.vocab_size)
    if train_cfg.guided and guidance_cfg.resolution != vocab.resolution:
        raise ValueError(
            f"guidance resolution {guidance_cfg.resolution} does not match the "
            f"model vocabulary's resolution {vocab.resolution}"
        )
    tokens, xy, vert = _pad_batch(batch, vocab, model_cfg.max_vertex_index)
    b, t = tokens.shape

    logits, cache = forward_logits(
        params, model_cfg, tokens, xy, vert, need_cache=True, workspace=ws
    )
    # rows[i, t] is the distribution for token t, the layout guidance reads
    # (row 0 has no prediction and stays zero); probs[i, t] predicts t + 1
    rows = ws.take("rows", (b, t + 1, logits.shape[-1]), np.float64)
    rows[:, 0] = 0.0
    rows[:, 1:] = logits
    rows[:, 1:] = _softmax(rows[:, 1:])  # no copy: _softmax works in place
    probs = rows[:, 1:]
    targets = tokens[:, 1:]
    valid = targets != vocab.pad

    # cross-entropy per sample over its valid positions, in sample order
    at_sample, at_pos = np.nonzero(valid)
    picked = targets[at_sample, at_pos]
    n_valid = valid.sum(axis=1)
    ends = np.cumsum(n_valid)
    nll = -np.log(np.maximum(probs[at_sample, at_pos, picked], 1e-300))
    ce_per_sample = np.array([nll[end - n : end].mean() for n, end in zip(n_valid, ends)])

    ergo_per_sample = np.full(b, np.nan)
    alphas = np.zeros(b)
    if train_cfg.guided:
        tables = _plan_tables([plan for _, plan in batch], soft_params, alpha_cache)
        alphas = np.array([_sample_alpha(t, guidance_cfg) for t in tables])
        guided = guidance.positional_losses(
            [table if a > 0.0 else None for table, a in zip(tables, alphas)],
            tokens,
            rows,
            guidance_cfg,
            ws,
        )
        # a sample without an eligible position falls back to cross-entropy
        alphas[guided.counts == 0] = 0.0
        ergo_per_sample = guided.losses

    # d loss / d logits, assembled in float64 over the spent probabilities
    # and cast to the logits' array, which is spent once copied into rows
    dl = probs
    dl[:, -1] = 0.0  # the last position predicts no target
    dl[:, :-1][~valid] = 0.0
    dl[at_sample, at_pos, picked] -= 1.0
    dl *= np.divide(1.0 - alphas, b * n_valid, out=np.zeros(b), where=n_valid > 0)[:, None, None]
    if train_cfg.guided and len(guided.samples):
        # softmax chain rule for every eligible row at once; the row of the
        # token at position t is rows[i, t], whose logits sit at dl[i, t - 1]
        p_rows, g = guided.rows, guided.grads
        scratch = ws.take("chain", (min(len(g), _CHAIN_ROWS), g.shape[1]), np.float64)
        for start in range(0, len(g), _CHAIN_ROWS):
            at = slice(start, start + _CHAIN_ROWS)
            product = np.multiply(g[at], p_rows[at], out=scratch[: len(g[at])])
            g[at] -= product.sum(axis=1, keepdims=True)
        g *= p_rows
        g *= (alphas[guided.samples] / b)[:, None]
        # the spent probability rows receive the rows of dl they add to
        at = guided.eligible[:, 0]
        flat_at = guided.samples * (t + 1) + at
        np.take(rows.reshape(-1, rows.shape[-1]), flat_at, axis=0, out=p_rows)
        p_rows += g
        dl[guided.samples, at - 1] = p_rows
    dlogits = logits
    dlogits[...] = dl

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
    grads = backward_logits(params, model_cfg, cache, dlogits, workspace=ws)
    return loss, grads


def _squared_norm(g, ws):
    """float((g.astype(np.float64) ** 2).sum()), in a workspace buffer."""
    g64 = ws.take("g64", g.shape, np.float64)
    g64[...] = g
    return float(np.square(g64, out=g64).sum())


def train_step(batch, state, model_cfg, train_cfg, guidance_cfg=None, soft_params=None):
    """One optimizer update; returns (state, batch MixedLoss). Aborts with
    NonFiniteLoss before touching the parameters if the loss or gradient
    degenerates. Every per-step array lives in state.workspace."""
    ws = state.workspace
    loss, grads = batch_loss_and_grads(
        batch,
        state.params,
        model_cfg,
        train_cfg,
        guidance_cfg,
        soft_params,
        alpha_cache=state.alpha_cache,
        workspace=ws,
    )
    if not np.isfinite(loss.total):
        raise NonFiniteLoss(
            f"non-finite loss at step {state.step + 1}",
            diagnostics={"loss": loss.to_dict()},
        )
    gnorm = np.sqrt(sum(_squared_norm(g, ws) for g in grads.values()))
    if not np.isfinite(gnorm):
        raise NonFiniteLoss(
            f"non-finite gradient at step {state.step + 1}",
            diagnostics={"loss": loss.to_dict(), "grad_norm": gnorm},
        )
    if gnorm > GRAD_CLIP:
        scale = GRAD_CLIP / gnorm
        for g in grads.values():
            g *= scale

    state.step += 1
    lr = train_cfg.lr * min(1.0, state.step / WARMUP_STEPS)
    bias1 = 1.0 - BETA1**state.step
    bias2 = 1.0 - BETA2**state.step
    for name, p in state.params.items():
        # g is spent once m and v hold it, so it becomes the update; scratch
        # holds each other operand in turn
        g = grads[name]
        m = state.adam_m[name]
        v = state.adam_v[name]
        scratch = np.multiply(g, 1 - BETA1, out=ws.take("adam", g.shape, g.dtype))
        m *= BETA1
        m += scratch
        np.multiply(g, 1 - BETA2, out=scratch)
        scratch *= g
        v *= BETA2
        v += scratch
        np.divide(v, bias2, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += EPS
        update = np.divide(m, bias1, out=g)
        update /= scratch
        if p.ndim >= 2:
            update += np.multiply(p, WEIGHT_DECAY, out=scratch)
        update *= lr
        p -= update

    return state, loss


def train(
    samples,
    model_cfg,
    train_cfg,
    guidance_cfg=None,
    soft_params=None,
    log_every=0,
    state=None,
):
    """Run optimizer updates over (TokenSequence, FloorPlan) samples drawn
    iid per step, until state.step reaches train_cfg.steps; returns the
    final TrainState and loss log. Passing a loaded state resumes the exact
    trajectory (parameters, moments, and RNG stream all round-trip through
    checkpoints)."""
    state = state if state is not None else init_train_state(model_cfg, train_cfg)
    log = []
    while state.step < train_cfg.steps:
        idx = state.rng.integers(0, len(samples), size=train_cfg.batch_size)
        batch = [samples[int(i)] for i in idx]
        state, loss = train_step(
            batch, state, model_cfg, train_cfg, guidance_cfg, soft_params
        )
        log.append(loss)
        if log_every and state.step % log_every == 0:
            print(
                f"step {state.step}: total {loss.total:.4f} "
                f"ce {loss.cross_entropy:.4f} ergo {loss.ergo:.4f} alpha {loss.alpha:.3f}"
            )
    return state, log


def save_checkpoint(path, state, model_cfg, train_cfg=None):
    """Single-file npz container: parameters, optimizer moments, configs,
    RNG state, and a parameter checksum for quick identity checks."""
    meta = {
        "version": CHECKPOINT_VERSION,
        "step": state.step,
        "model_config": vars(model_cfg),
        "train_config": None if train_cfg is None else vars(train_cfg),
        "rng_state": state.rng.bit_generator.state,
        "checksum": parameter_checksum(state.params),
    }
    arrays = {f"p.{k}": v for k, v in state.params.items()}
    arrays.update({f"m.{k}": v for k, v in state.adam_m.items()})
    arrays.update({f"v.{k}": v for k, v in state.adam_v.items()})
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(path, **arrays)


def load_checkpoint(path):
    """Returns (TrainState, ModelConfig, train_config_dict | None)."""
    data = np.load(path, allow_pickle=False)
    meta = json.loads(bytes(data["__meta__"]).decode())
    if meta["version"] != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {meta['version']}")
    model_cfg = ModelConfig(**meta["model_config"])
    params = {k[2:]: data[k].copy() for k in data.files if k.startswith("p.")}
    adam_m = {k[2:]: data[k].copy() for k in data.files if k.startswith("m.")}
    adam_v = {k[2:]: data[k].copy() for k in data.files if k.startswith("v.")}
    if parameter_checksum(params) != meta["checksum"]:
        raise CheckpointError("checkpoint parameter checksum mismatch")
    rng = np.random.default_rng()
    rng.bit_generator.state = meta["rng_state"]
    state = TrainState(
        params=params, adam_m=adam_m, adam_v=adam_v, step=meta["step"], rng=rng
    )
    return state, model_cfg, meta.get("train_config")
