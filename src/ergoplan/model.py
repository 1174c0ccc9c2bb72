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
from dataclasses import dataclass, field

import numpy as np

from . import ergoloss, guidance, tokenizer
from .errors import ContextOverflow, NoEligiblePositions, NonFiniteLoss, OutOfRange

CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    layers: int = 4
    heads: int = 4
    embed_dim: int = 64
    context_len: int = 320
    vocab_size: int = tokenizer.Vocabulary().size
    max_vertex_index: int = 32
    seed: int = 0
    dtype: str = "float32"

    def __post_init__(self):
        if self.embed_dim % self.heads != 0:
            raise ValueError("embed_dim must be divisible by heads")

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64


@dataclass
class TrainConfig:
    """Optimizer and loop settings. The optimizer is decoupled-weight-decay
    Adam with linear warmup; decay applies to matrix-shaped parameters."""

    steps: int = 1000
    batch_size: int = 16
    lr: float = 3e-4
    warmup_steps: int = 100
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    grad_clip: float = 1.0
    guided: bool = True
    # mixing weights below this are treated as zero; they only arise as the
    # softmin residual of plans whose charged rooms share vertices with
    # their targets (~1e-6), not from any real vertex separation
    alpha_floor: float = 1e-5
    seed: int = 0


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

# The kernels below work in buffers they own but keep every floating-point
# operation and its operand grouping: results are bit-identical to the
# allocate-per-operation form kept in tests/oracles.py. Only commutation
# (a*b == b*a, a+b == b+a) and exact scaling by 0.5 are used to reorder.


def _gelu(x):
    """tanh-form GELU; returns (value, tanh cache for the backward pass)."""
    t = np.multiply(x, x)
    t *= x
    t *= _GELU_A
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    out = np.add(t, 1.0)
    out *= x
    out *= 0.5
    return out, t


def _gelu_grad(x, t):
    du = np.multiply(x, x)
    du *= 3.0 * _GELU_A
    du += 1.0
    du *= _GELU_C
    rest = np.multiply(t, t)
    np.subtract(1.0, rest, out=rest)
    rest *= x
    rest *= 0.5
    rest *= du
    grad = np.add(t, 1.0, out=du)
    grad *= 0.5
    grad += rest
    return grad


_LN_EPS = 1e-5


def _layernorm(x, g, b):
    mu = x.mean(-1, keepdims=True)
    xhat = x - mu
    out = np.square(xhat)
    var = out.mean(-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat *= inv
    np.multiply(xhat, g, out=out)
    out += b
    return out, (xhat, inv)


def _layernorm_backward(dy, g, cache):
    """Overwrites dy with the input gradient; returns (dx, dg, db)."""
    xhat, inv = cache
    axes = tuple(range(dy.ndim - 1))
    scratch = np.multiply(dy, xhat)
    dg = scratch.sum(axis=axes)
    db = dy.sum(axis=axes)
    dxhat = dy
    dxhat *= g
    np.multiply(dxhat, xhat, out=scratch)
    proj = scratch.mean(-1, keepdims=True)
    dxhat -= dxhat.mean(-1, keepdims=True)
    np.multiply(xhat, proj, out=scratch)
    dxhat -= scratch
    dxhat *= inv
    return dxhat, dg, db


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

    x = params["tok_emb"][tokens]
    x += params["pos_emb"][:t]
    x += params["xy_emb"][xy]
    x += params["vert_emb"][vert]
    mask = _causal_mask(t, x.dtype)
    h = cfg.heads
    hd = cfg.embed_dim // h
    scale = float(1.0 / np.sqrt(hd))
    cache = {"tokens": tokens, "xy": xy, "vert": vert, "layers": []}

    for i in range(cfg.layers):
        a, ln1_cache = _layernorm(x, params[f"h{i}.ln1.g"], params[f"h{i}.ln1.b"])
        qkv = a @ params[f"h{i}.attn.wqkv"]
        qkv += params[f"h{i}.attn.bqkv"]
        q, k, v = np.split(qkv, 3, axis=-1)
        q = q.reshape(b, t, h, hd).transpose(0, 2, 1, 3)
        k = k.reshape(b, t, h, hd).transpose(0, 2, 1, 3)
        v = v.reshape(b, t, h, hd).transpose(0, 2, 1, 3)
        probs = q @ k.transpose(0, 1, 3, 2)
        probs *= scale
        probs += mask
        _softmax(probs)
        ctx = (probs @ v).transpose(0, 2, 1, 3).reshape(b, t, cfg.embed_dim)
        x1 = ctx @ params[f"h{i}.attn.wproj"]
        x1 += params[f"h{i}.attn.bproj"]
        x1 += x

        m, ln2_cache = _layernorm(x1, params[f"h{i}.ln2.g"], params[f"h{i}.ln2.b"])
        fc = m @ params[f"h{i}.mlp.wfc"]
        fc += params[f"h{i}.mlp.bfc"]
        act, tanh_cache = _gelu(fc)
        x = act @ params[f"h{i}.mlp.wproj"]
        x += params[f"h{i}.mlp.bproj"]
        x += x1
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
    forward_logits step by step. Reads cache and dlogits without changing
    them."""
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
        grads[f"h{i}.mlp.bproj"] += dx.sum((0, 1))
        grads[f"h{i}.mlp.wproj"] += lc["act"].reshape(-1, 4 * d).T @ dx.reshape(-1, d)
        dfc = dx @ params[f"h{i}.mlp.wproj"].T
        dfc *= _gelu_grad(lc["fc"], lc["tanh"])
        grads[f"h{i}.mlp.bfc"] += dfc.sum((0, 1))
        grads[f"h{i}.mlp.wfc"] += lc["m"].reshape(-1, d).T @ dfc.reshape(-1, 4 * d)
        dm = dfc @ params[f"h{i}.mlp.wfc"].T
        dx1, dg, db = _layernorm_backward(dm, params[f"h{i}.ln2.g"], lc["ln2"])
        grads[f"h{i}.ln2.g"] += dg
        grads[f"h{i}.ln2.b"] += db
        dx1 += dx  # residual

        # attention branch
        grads[f"h{i}.attn.bproj"] += dx1.sum((0, 1))
        grads[f"h{i}.attn.wproj"] += lc["ctx"].reshape(-1, d).T @ dx1.reshape(-1, d)
        dctx = (dx1 @ params[f"h{i}.attn.wproj"].T).reshape(b, t, h, hd).transpose(
            0, 2, 1, 3
        )
        probs, v = lc["probs"], lc["v"]
        dscores = dctx @ v.transpose(0, 1, 3, 2)
        dv = probs.transpose(0, 1, 3, 2) @ dctx
        dscores -= (dscores * probs).sum(-1, keepdims=True)
        dscores *= probs
        dq = dscores @ lc["k"]
        dq *= scale
        dk = dscores.transpose(0, 1, 3, 2) @ lc["q"]
        dk *= scale
        dqkv = np.empty((b, t, 3 * d), dtype=dx.dtype)
        heads = dqkv.reshape(b, t, 3, h, hd)
        for j, g in enumerate((dq, dk, dv)):
            heads[:, :, j] = g.transpose(0, 2, 1, 3)
        grads[f"h{i}.attn.bqkv"] += dqkv.sum((0, 1))
        grads[f"h{i}.attn.wqkv"] += lc["a"].reshape(-1, d).T @ dqkv.reshape(-1, 3 * d)
        da = dqkv @ params[f"h{i}.attn.wqkv"].T
        dxa, dg, db = _layernorm_backward(da, params[f"h{i}.ln1.g"], lc["ln1"])
        grads[f"h{i}.ln1.g"] += dg
        grads[f"h{i}.ln1.b"] += db
        dx1 += dxa  # residual
        dx = dx1

    tokens, xy, vert = cache["tokens"], cache["xy"], cache["vert"]
    flat = dx.reshape(-1, d)
    np.add.at(grads["tok_emb"], tokens.ravel(), flat)
    pos = np.broadcast_to(np.arange(t), tokens.shape).ravel()
    np.add.at(grads["pos_emb"], pos, flat)
    np.add.at(grads["xy_emb"], xy.ravel(), flat)
    np.add.at(grads["vert_emb"], vert.ravel(), flat)
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

    def generate(self, prefix_tokens, max_len=None):
        """Greedy continuation of a token prefix until EOS or the context
        limit; returns (tokens, truncated_flag)."""
        out = self.generate_batch([prefix_tokens], max_len=max_len)
        return out[0]

    def generate_batch(self, prefixes, max_len=None):
        """Greedy-decode many prefixes in lockstep (right-padded batch)."""
        vocab = self.vocab
        limit = min(max_len or self.cfg.context_len, self.cfg.context_len)
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
                batch_vert[row, : len(s)] = np.minimum(vert, self.cfg.max_vertex_index)
            logits = forward_logits(self.params, self.cfg, batch_tokens, batch_xy, batch_vert)
            for row, i in enumerate(active):
                s = seqs[i]
                nxt = int(np.argmax(logits[row, len(s) - 1]))
                s.append(nxt)
                if nxt == vocab.eos:
                    done[i] = True
        return [(tuple(s), not d) for s, d in zip(seqs, done)]


@dataclass
class TrainState:
    """Everything needed to resume training bit-identically."""

    params: dict
    adam_m: dict
    adam_v: dict
    step: int
    rng: np.random.Generator
    alpha_cache: dict = field(default_factory=dict)


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


def _sample_alpha(plan, soft_params, guidance_cfg, cache, floor=0.0):
    # keyed on the plan's value (FloorPlan is frozen and hashable): the cache
    # outlives the sample list, and an id() could be recycled by another plan
    if plan not in cache:
        breakdown = ergoloss.ergonomic_loss(plan, soft_params)
        if breakdown.total is None:
            cache[plan] = 0.0  # no applicable term: fall back to cross-entropy
        else:
            cache[plan] = guidance.alpha(breakdown.total, guidance_cfg)
    value = cache[plan]
    return value if value >= floor else 0.0


def batch_loss_and_grads(
    batch,
    params,
    model_cfg,
    train_cfg,
    guidance_cfg=None,
    soft_params=None,
    alpha_cache=None,
    rng=None,
):
    """Mixed loss over a batch of (TokenSequence, FloorPlan) samples and its
    exact gradient w.r.t. every parameter.

    Per sample: cross-entropy over next-token predictions and, when guided
    and the sample's ground-truth plan loss is positive, the expected-token
    plan loss; the two are mixed by the sample's alpha and averaged over the
    batch.
    """
    guidance_cfg = guidance_cfg or guidance.GuidanceConfig()
    soft_params = soft_params or ergoloss.SoftParams()
    alpha_cache = alpha_cache if alpha_cache is not None else {}
    vocab = tokenizer.Vocabulary(guidance_cfg.resolution)
    tokens, xy, vert = _pad_batch(batch, vocab, model_cfg.max_vertex_index)
    b, t = tokens.shape

    logits, cache = forward_logits(params, model_cfg, tokens, xy, vert, need_cache=True)
    probs = _softmax(logits.astype(np.float64))
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
            a = _sample_alpha(
                plan, soft_params, guidance_cfg, alpha_cache, train_cfg.alpha_floor
            )
        alphas[i] = a

        dce = p.copy()
        dce[np.arange(len(tgt)), tgt] -= 1.0
        dlogits[i, pos_idx] = (1.0 - a) / (b * n_valid) * dce

        if a > 0.0:
            rows = np.zeros((len(seq), model_cfg.vocab_size))
            rows[1 : len(seq)] = probs[i, : len(seq) - 1]
            try:
                result = guidance.positional_ergo_loss(
                    plan, seq, rows, guidance_cfg, soft_params, rng=rng
                )
            except NoEligiblePositions:
                alphas[i] = 0.0
                dlogits[i, pos_idx] = 1.0 / (b * n_valid) * dce
                continue
            ergo_per_sample[i] = result.loss
            for pos, g_row in result.row_grads.items():
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
    grads = backward_logits(params, model_cfg, cache, dlogits)
    return loss, grads


def train_step(batch, state, model_cfg, train_cfg, guidance_cfg=None, soft_params=None):
    """One optimizer update; returns (state, batch MixedLoss). Aborts with
    NonFiniteLoss before touching the parameters if the loss or gradient
    degenerates."""
    loss, grads = batch_loss_and_grads(
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
        # g is spent once m and v hold it, so it becomes the update; scratch
        # holds each other operand in turn
        g = grads[name]
        m = state.adam_m[name]
        v = state.adam_v[name]
        scratch = np.multiply(g, 1 - b1)
        m *= b1
        m += scratch
        np.multiply(g, 1 - b2, out=scratch)
        scratch *= g
        v *= b2
        v += scratch
        np.divide(v, bias2, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += train_cfg.eps
        update = np.divide(m, bias1, out=g)
        update /= scratch
        if train_cfg.weight_decay and p.ndim >= 2:
            update += np.multiply(p, train_cfg.weight_decay, out=scratch)
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
        "model_config": {
            k: getattr(model_cfg, k)
            for k in (
                "layers",
                "heads",
                "embed_dim",
                "context_len",
                "vocab_size",
                "max_vertex_index",
                "seed",
                "dtype",
            )
        },
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
        raise ValueError(f"unsupported checkpoint version {meta['version']}")
    model_cfg = ModelConfig(**meta["model_config"])
    params = {k[2:]: data[k].copy() for k in data.files if k.startswith("p.")}
    adam_m = {k[2:]: data[k].copy() for k in data.files if k.startswith("m.")}
    adam_v = {k[2:]: data[k].copy() for k in data.files if k.startswith("v.")}
    if parameter_checksum(params) != meta["checksum"]:
        raise ValueError("checkpoint parameter checksum mismatch")
    rng = np.random.default_rng()
    rng.bit_generator.state = meta["rng_state"]
    state = TrainState(
        params=params, adam_m=adam_m, adam_v=adam_v, step=meta["step"], rng=rng
    )
    return state, model_cfg, meta.get("train_config")
