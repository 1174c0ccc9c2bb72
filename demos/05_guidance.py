"""Expected-token substitution: a geometric loss for a token model.

A categorical distribution over coordinate tokens cannot be pushed around
by a geometric gradient directly. The bridge: collapse the distribution to
its expected value inside a small Gaussian window around the argmax. That
value is continuous in the probabilities, so substituting it into the
ground-truth plan makes the plan loss differentiable end to end.

The mixing weight alpha scales with how badly the ground-truth plan itself
scores: clean training samples train almost purely on cross-entropy, while
poorly laid-out samples lean on the geometric prior.

Training scores a whole batch at once, and so does this demo: `collapse`
takes a (rows, vocab) array and `positional_losses` a batch of plans, here
a batch of one.
"""

import numpy as np

from ergoplan import tokenizer
from ergoplan.dataset import SynthConfig, synth_plan
from ergoplan.ergoloss import PairTable, SoftParams, ergonomic_loss
from ergoplan.guidance import GuidanceConfig, alpha, collapse, positional_losses

vocab = tokenizer.Vocabulary(256)
cfg = GuidanceConfig(resolution=256)

# The expected token: a one-hot row stays put; spreading mass to a neighbor
# drags the value continuously toward it. One collapse call takes all rows.
rows = np.zeros((4, vocab.size))
rows[0, 100] = 1.0
for row, p in zip(rows[1:], (0.1, 0.3, 0.49)):
    row[100], row[101] = 1.0 - p, p
v_bar, _ = collapse(rows, cfg)
print(f"one-hot at 100          -> v = {v_bar[0] * 256:.4f} cells")
for p, v in zip((0.1, 0.3, 0.49), v_bar[1:]):
    print(f"P(101) = {p:.2f}            -> v = {v * 256:.4f} cells")

# alpha turns the ground-truth plan's own loss into the mixing weight.
print("\nalpha(loss) with gamma = 30 m:")
for loss in (0.0, 3.0, 15.0, 30.0, 60.0):
    print(f"  loss {loss:5.1f} m -> alpha {alpha(loss, cfg):.3f}")

# Per-position substitution on a real plan, with softened predictions.
plan = synth_plan(3, SynthConfig(de_ergonomize_fraction=1.0))
seq = tokenizer.encode(plan, vocab)
rows = np.zeros((len(seq), vocab.size))
rows[np.arange(len(seq)), np.array(seq.tokens)] = 0.7  # mostly right...
rows[np.arange(len(seq)), np.minimum(np.array(seq.tokens) + 2, vocab.size - 1)] += 0.3

tokens = np.array(seq.tokens).reshape(1, -1)
result = positional_losses([PairTable(plan, SoftParams())], tokens, rows[None], cfg)
gt_loss = ergonomic_loss(plan).total
print(f"\nplan with {len(plan.rooms)} rooms: {result.counts[0]} eligible positions")
print(f"ground-truth loss {gt_loss:.3f} m -> alpha {alpha(gt_loss, cfg):.3f}")
print(f"substituted loss (mean over positions): {result.losses[0]:.3f} m")
some_pos = result.eligible[0, 0]
grad = result.grads[0]  # d loss / d row of the first eligible position
top = np.argsort(np.abs(grad))[::-1][:3]
print(f"strongest gradient entries at position {some_pos}: ids {top.tolist()}")
