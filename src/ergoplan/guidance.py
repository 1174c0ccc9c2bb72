"""Expected-token guidance: differentiable plan loss through model outputs.

For teacher-forced positions whose ground-truth token is a room vertex
coordinate and whose predicted argmax is a coordinate token, the predicted
distribution is collapsed to a continuous expected value (a Gaussian window
around the argmax), substituted into the ground-truth plan, and scored with
the differentiable ergonomic loss. The resulting per-position losses are
averaged and chained back to the probability rows, giving the model a
geometric training signal alongside cross-entropy.
"""

from dataclasses import dataclass

import numpy as np

from . import ergoloss, tokenizer
from .errors import ArgmaxNotCoordinate, NoEligiblePositions


@dataclass(frozen=True)
class GuidanceConfig:
    """Expected-token window, loss mixing scale, and grid resolution.

    sigma is the Gaussian window width in normalized [0, 1) coordinate
    units (defaults to one quantization step, 1/resolution). gamma converts
    a ground-truth plan loss into the mixing weight alpha. window optionally
    truncates the Gaussian to +-window token ids around the argmax.
    """

    resolution: int = 256
    sigma: float | None = None
    gamma: float = 30.0
    window: int | None = None
    substitute_all: bool = True

    def __post_init__(self):
        if self.sigma is not None and not self.sigma > 0:
            raise ValueError("sigma must be positive")
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")

    @property
    def effective_sigma(self):
        return self.sigma if self.sigma is not None else 1.0 / self.resolution


def _coordinate_weights(row, cfg):
    """Gaussian window around the argmax over coordinate ids only.

    Returns (argmax_id, weights over ids 0..resolution-1). Raises
    ArgmaxNotCoordinate when the row's argmax is not a coordinate token.
    """
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


def expected_token(row, cfg):
    """Continuous expected coordinate in [0, 1): the probability- and
    Gaussian-weighted mean of coordinate values around the argmax."""
    return expected_token_grad(row, cfg)[0]


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


@dataclass
class PositionalLoss:
    """Mean substituted plan loss and its gradient per eligible row."""

    loss: float
    row_grads: dict  # position -> (vocab,) array, d loss / d row
    eligible_positions: list


def eligible_positions(gt_seq, prob_rows, vocab, cfg):
    """Positions where the ground truth is a room vertex coordinate and the
    prediction's argmax is a coordinate token."""
    out = []
    coords = tokenizer.room_coordinate_positions(gt_seq, vocab)
    for pos, room_idx, vert_idx, axis in coords:
        if pos >= len(prob_rows):
            continue
        row = prob_rows[pos]
        if int(np.argmax(row)) < cfg.resolution:
            out.append((pos, room_idx, vert_idx, axis))
    return out


def positional_ergo_loss(gt_plan, gt_seq, prob_rows, cfg, params=None, rng=None):
    """Teacher-forced ergonomic loss through expected-token substitution.

    prob_rows[t] must be the model's distribution for the token at position
    t (predicted from the prefix before t). Each eligible position is
    substituted independently and the losses averaged; with
    cfg.substitute_all false, a single random eligible position is used
    instead (cheaper, noisier). Raises NoEligiblePositions when no position
    qualifies or no loss term applies to the plan.
    """
    params = params or ergoloss.SoftParams()
    vocab = tokenizer.Vocabulary(cfg.resolution)
    eligible = eligible_positions(gt_seq, prob_rows, vocab, cfg)
    if not eligible:
        raise NoEligiblePositions("no substitutable coordinate positions")
    if not cfg.substitute_all:
        rng = rng or np.random.default_rng()
        eligible = [eligible[int(rng.integers(len(eligible)))]]

    vplan = ergoloss.VertexPlan.from_plan(gt_plan)
    substitutions = []
    v_grads = []
    for pos, room_idx, vert_idx, axis in eligible:
        v_bar, dv_bar = expected_token_grad(prob_rows[pos], cfg)
        substitutions.append((room_idx, vert_idx, axis, v_bar * cfg.resolution))
        v_grads.append(dv_bar)
    losses, dvalues = ergoloss.substituted_losses(vplan, substitutions, params)
    if losses is None:
        raise NoEligiblePositions("no applicable loss term for this plan")
    n = len(eligible)
    row_grads = {}
    for i, (pos, *_rest) in enumerate(eligible):
        # chain: mean over positions, cell value = v_bar * resolution
        row_grads[pos] = (dvalues[i] / n) * cfg.resolution * v_grads[i]
    return PositionalLoss(
        loss=float(losses.mean()),
        row_grads=row_grads,
        eligible_positions=eligible,
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


def combined_loss(cross_entropy, ergo, alpha_value):
    """Linear mix of the two losses with the data-dependent weight."""
    if not 0.0 <= alpha_value <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    total = (1.0 - alpha_value) * cross_entropy + alpha_value * ergo
    return MixedLoss(
        cross_entropy=float(cross_entropy),
        ergo=float(ergo),
        alpha=float(alpha_value),
        total=float(total),
    )
