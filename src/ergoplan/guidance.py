"""Expected-token guidance: differentiable plan loss through model outputs.

For teacher-forced positions whose ground-truth token is a room vertex
coordinate and whose predicted argmax is a coordinate token, the predicted
distribution is collapsed to a continuous expected value (a Gaussian window
around the argmax), substituted into the ground-truth plan, and scored with
the differentiable ergonomic loss. The resulting per-position losses are
averaged per sample and chained back to the probability rows, giving the
model a geometric training signal alongside cross-entropy. A whole batch is
scored at once: all eligible rows of all samples collapse in one array
operation, and their substitutions are scored together.
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import ergoloss, tokenizer
from .errors import ArgmaxNotCoordinate, NoEligiblePositions


@dataclass(frozen=True)
class GuidanceConfig:
    """Expected-token window, loss mixing scale, and grid resolution.

    sigma is the Gaussian window width in normalized [0, 1) coordinate
    units (defaults to one quantization step, 1/resolution). gamma converts
    a ground-truth plan loss into the mixing weight alpha.
    """

    resolution: int = 256
    sigma: float | None = None
    gamma: float = 30.0

    def __post_init__(self):
        if self.sigma is not None and not self.sigma > 0:
            raise ValueError("sigma must be positive")
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")

    @property
    def effective_sigma(self):
        return self.sigma if self.sigma is not None else 1.0 / self.resolution


@functools.cache
def _gaussian_windows(cfg):
    """Read-only (resolution, resolution) table: row c is the Gaussian
    window over coordinate ids centred on id c."""
    values = np.arange(cfg.resolution) / cfg.resolution
    center = values[:, None]
    weights = np.exp(-0.5 * ((values - center) / cfg.effective_sigma) ** 2)
    weights.flags.writeable = False
    return weights


def _take(workspace, name, shape):
    """A float64 array for `name`: from the workspace (any object with the
    model workspace's take method) when given, else a new one."""
    if workspace is None:
        return np.empty(shape)
    return workspace.take(name, shape, np.float64)


# rows per pass of collapse: each pass's arrays stay in the CPU cache
_PASS_ROWS = 128


def collapse(rows, cfg, workspace=None):
    """Expected coordinates of many probability rows at once.

    rows: (E, vocab). Each row's distribution is collapsed to the
    probability- and Gaussian-weighted mean of the coordinate values around
    its argmax (ties resolve to the lowest id). Returns (v_bar (E,) in
    [0, 1), d v_bar / d row (E, vocab), zero outside coordinate ids).
    Raises ArgmaxNotCoordinate when some row's argmax is not a coordinate.
    With a workspace, the gradient is a view into it.
    """
    rows = np.asarray(rows, dtype=float)
    top = rows.argmax(axis=1)
    if (top >= cfg.resolution).any():
        bad = int(top[top >= cfg.resolution][0])
        raise ArgmaxNotCoordinate(f"argmax id {bad} is not a coordinate token")
    values = np.arange(cfg.resolution) / cfg.resolution
    windows = _gaussian_windows(cfg)
    grad = _take(workspace, "collapse.grad", rows.shape)
    grad[:, cfg.resolution :] = 0.0
    v_bar = np.empty(len(rows))
    buffer = _take(workspace, "collapse.weights", (min(len(rows), _PASS_ROWS), cfg.resolution))
    for start in range(0, len(rows), _PASS_ROWS):
        at = slice(start, start + _PASS_ROWS)
        weights = np.take(windows, top[at], axis=0, out=buffer[: len(top[at])])
        # the coordinate columns hold the mass, then the gradient window
        mass = np.multiply(weights, rows[at, : cfg.resolution], out=grad[at, : cfg.resolution])
        denom = mass.sum(axis=1)
        mass *= values
        v_bar[at] = mass.sum(axis=1) / denom
        window = np.subtract(values, v_bar[at, None], out=mass)
        window *= weights
        window /= denom[:, None]
    return v_bar, grad


def expected_token(row, cfg):
    """Continuous expected coordinate in [0, 1): the probability- and
    Gaussian-weighted mean of coordinate values around the argmax."""
    return float(collapse(np.asarray(row)[None], cfg)[0][0])


@dataclass
class PositionalLoss:
    """Mean substituted plan loss and its gradient per eligible row."""

    loss: float
    grads: np.ndarray  # (E, vocab): d loss / d row, one per eligible position
    eligible_positions: list  # E of (position, room, vertex, axis)


@dataclass
class BatchPositionalLoss:
    """Expected-token losses of a batch. Per sample: the number of eligible
    rows scored (0 when skipped) and their mean substituted plan loss (NaN
    when none); per scored row: its sample, its (position, room, vertex,
    axis), the probability row and d loss / d row."""

    counts: np.ndarray  # (n,)
    losses: np.ndarray  # (n,)
    samples: np.ndarray  # (E,)
    eligible: np.ndarray  # (E, 4)
    rows: np.ndarray  # (E, vocab)
    grads: np.ndarray  # (E, vocab)


def _eligible(tokens, rows, vocab, cfg):
    """(sample, position, room, vertex, axis) arrays of the positions whose
    ground truth is a room vertex coordinate and whose prediction's argmax
    is a coordinate token."""
    sample, pos, *target = tokenizer.room_coordinates(tokens, vocab)
    keep = pos < rows.shape[1]
    keep[keep] = rows.argmax(axis=-1)[sample[keep], pos[keep]] < cfg.resolution
    return (sample[keep], pos[keep], *(column[keep] for column in target))


def eligible_positions(gt_seq, prob_rows, vocab, cfg):
    """Positions where the ground truth is a room vertex coordinate and the
    prediction's argmax is a coordinate token."""
    tokens = np.asarray(gt_seq.tokens, dtype=np.int64).reshape(1, -1)
    _, *columns = _eligible(tokens, np.asarray(prob_rows)[None], vocab, cfg)
    return list(zip(*(column.tolist() for column in columns)))


def positional_losses(tables, tokens, rows, cfg, workspace=None):
    """Teacher-forced ergonomic losses of a batch through expected-token
    substitution.

    tables[i] is sample i's ergoloss.PairTable, or None to skip the sample;
    the tables share one SoftParams, and a table with no applicable term
    is skipped too. tokens (n, t) holds the ground-truth sequences, padded
    with tokens that are not coordinates; rows[i, t] must be the model's
    distribution for token t of sample i (predicted from the prefix before
    t). Each eligible position is substituted independently and each
    sample's losses averaged. All eligible rows of the batch collapse in one
    array operation, and one ergoloss.batch_substituted_losses call scores
    their substitutions. With a workspace, the eligible rows and their
    gradients are views into it.
    """
    rows = np.asarray(rows, dtype=float)
    scored = np.array([table is not None and table.total is not None for table in tables])
    sample, *target = _eligible(tokens, rows, tokenizer.Vocabulary(cfg.resolution), cfg)
    keep = scored[sample]
    sample = sample[keep]
    eligible = np.column_stack([column[keep] for column in target]).reshape(-1, 4)
    counts = np.bincount(sample, minlength=len(tables))
    losses = np.full(len(tables), np.nan)
    at = sample * rows.shape[1] + eligible[:, 0]
    picked = _take(workspace, "guidance.rows", (len(at), rows.shape[-1]))
    np.take(rows.reshape(-1, rows.shape[-1]), at, axis=0, out=picked)
    if not len(sample):
        return BatchPositionalLoss(counts, losses, sample, eligible, picked, np.zeros_like(picked))
    v_bar, dv_bar = collapse(picked, cfg, workspace)
    substitutions = np.column_stack([eligible[:, 1:], v_bar * cfg.resolution])
    used = np.flatnonzero(counts)
    row_losses, dvalues = ergoloss.batch_substituted_losses(
        [tables[i] for i in used], np.searchsorted(used, sample), substitutions
    )
    ends = np.cumsum(counts)
    for i in used:
        losses[i] = row_losses[ends[i] - counts[i] : ends[i]].mean()
    # chain: mean over positions, cell value = v_bar * resolution
    dv_bar *= ((dvalues / counts[sample]) * cfg.resolution)[:, None]
    return BatchPositionalLoss(counts, losses, sample, eligible, picked, dv_bar)


def positional_ergo_loss(gt_plan, gt_seq, prob_rows, cfg, params=None):
    """Teacher-forced ergonomic loss of one sample: positional_losses over
    a batch of one.

    gt_plan is a FloorPlan, a VertexPlan or an ergoloss.PairTable (built
    with `params`, when given). Raises NoEligiblePositions when no position
    qualifies or no loss term applies to the plan.
    """
    table = ergoloss.as_pair_table(gt_plan, params)
    tokens = np.asarray(gt_seq.tokens, dtype=np.int64).reshape(1, -1)
    result = positional_losses([table], tokens, np.asarray(prob_rows)[None], cfg)
    if not result.counts[0]:
        raise NoEligiblePositions("no substitutable coordinate position or no applicable term")
    return PositionalLoss(
        loss=float(result.losses[0]),
        grads=result.grads,
        eligible_positions=[tuple(row) for row in result.eligible.tolist()],
    )


def alpha(gt_loss, cfg):
    """Mixing weight: the ground-truth plan loss over gamma, clamped to [0, 1]."""
    if gt_loss < 0:
        raise ValueError("ground-truth loss must be non-negative")
    return min(max(gt_loss / cfg.gamma, 0.0), 1.0)


@dataclass(frozen=True)
class MixedLoss:
    """Cross-entropy and plan-loss mix: total = (1 - alpha) * ce + alpha * ergo."""

    cross_entropy: float
    ergo: float
    alpha: float
    total: float

    def to_dict(self):
        return {
            "cross_entropy": self.cross_entropy,
            "ergo": self.ergo,
            "alpha": self.alpha,
            "total": self.total,
        }

