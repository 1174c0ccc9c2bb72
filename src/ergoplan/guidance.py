"""Expected-token guidance: differentiable plan loss through model outputs.

For teacher-forced positions whose ground-truth token is a room vertex
coordinate and whose predicted argmax is a coordinate token, the predicted
distribution is collapsed to a continuous expected value (a Gaussian window
around the argmax), substituted into the ground-truth plan, and scored with
the differentiable ergonomic loss. All eligible rows of a sample collapse
in one array operation. The resulting per-position losses are averaged and
chained back to the probability rows, giving the model a geometric training
signal alongside cross-entropy.
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


def collapse(rows, cfg):
    """Expected coordinates of many probability rows at once.

    rows: (E, vocab). Each row's distribution is collapsed to the
    probability- and Gaussian-weighted mean of the coordinate values around
    its argmax (ties resolve to the lowest id). Returns (v_bar (E,) in
    [0, 1), d v_bar / d row (E, vocab), zero outside coordinate ids).
    Raises ArgmaxNotCoordinate when some row's argmax is not a coordinate.
    """
    rows = np.asarray(rows, dtype=float)
    top = rows.argmax(axis=1)
    if (top >= cfg.resolution).any():
        bad = int(top[top >= cfg.resolution][0])
        raise ArgmaxNotCoordinate(f"argmax id {bad} is not a coordinate token")
    values = np.arange(cfg.resolution) / cfg.resolution
    weights = _gaussian_windows(cfg)[top]
    mass = weights * rows[:, : cfg.resolution]
    denom = mass.sum(axis=1)
    v_bar = (mass * values).sum(axis=1) / denom
    grad = np.zeros_like(rows)
    grad[:, : cfg.resolution] = weights * (values - v_bar[:, None]) / denom[:, None]
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

    @property
    def positions(self):
        return np.array([pos for pos, *_ in self.eligible_positions])


def eligible_positions(gt_seq, prob_rows, vocab, cfg):
    """Positions where the ground truth is a room vertex coordinate and the
    prediction's argmax is a coordinate token."""
    top = np.argmax(prob_rows, axis=-1)
    return [
        (pos, room_idx, vert_idx, axis)
        for pos, room_idx, vert_idx, axis in tokenizer.room_coordinate_positions(gt_seq, vocab)
        if pos < len(top) and top[pos] < cfg.resolution
    ]


def positional_ergo_loss(gt_plan, gt_seq, prob_rows, cfg, params=None):
    """Teacher-forced ergonomic loss through expected-token substitution.

    gt_plan is a FloorPlan, a VertexPlan or an ergoloss.PairTable (built
    with `params`, when given). prob_rows[t] must be the model's
    distribution for the token at position t (predicted from the prefix
    before t). Each eligible position is substituted independently and the
    losses averaged. Raises NoEligiblePositions when no position qualifies
    or no loss term applies to the plan.
    """
    vocab = tokenizer.Vocabulary(cfg.resolution)
    eligible = eligible_positions(gt_seq, prob_rows, vocab, cfg)
    if not eligible:
        raise NoEligiblePositions("no substitutable coordinate positions")

    positions, rooms, verts, axes = np.array(eligible).T
    v_bar, dv_bar = collapse(np.asarray(prob_rows)[positions], cfg)
    substitutions = np.column_stack([rooms, verts, axes, v_bar * cfg.resolution])
    losses, dvalues = ergoloss.substituted_losses(gt_plan, substitutions, params)
    if losses is None:
        raise NoEligiblePositions("no applicable loss term for this plan")
    # chain: mean over positions, cell value = v_bar * resolution
    scale = (dvalues / len(eligible)) * cfg.resolution
    return PositionalLoss(
        loss=float(losses.mean()), grads=scale[:, None] * dv_bar, eligible_positions=eligible
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

