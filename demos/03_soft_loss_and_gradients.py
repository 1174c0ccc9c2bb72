"""The differentiable surrogate of the adjacency cost, and its gradients.

Hard minima (nearest room, closest points) are replaced by softmin-weighted
averages over polygon vertex pairs, so the whole score is differentiable in
every vertex coordinate. The temperature beta controls how hard the softmin
is; as beta grows the soft distance approaches the true vertex-set minimum.

The payoff: gradient descent on the raw vertex coordinates can actively
drag a misplaced room toward its targets.
"""

import numpy as np

from ergoplan.dataset import SynthConfig, synth_plan
from ergoplan.ergoloss import SoftParams, VertexPlan, ergonomic_loss, ergonomic_loss_grad, soft_distance
from ergoplan.plan import RoomType

# Soft distance vs beta: two unit squares 4 cells apart.
a = [[0, 0], [1, 0], [1, 1], [0, 1]]
b = [[5, 0], [6, 0], [6, 1], [5, 1]]
print("soft distance between squares 4 cells apart (true vertex min = 4):")
for beta in (1.0, 5.0, 10.0, 50.0):
    d = soft_distance(a, b, SoftParams(beta=beta, meters_per_cell=1.0))
    print(f"  beta {beta:5.1f} -> {d:.6f}")

# A de-ergonomized plan: the kitchen sits far from the entrance.
plan = synth_plan(12, SynthConfig(de_ergonomize_fraction=1.0))
params = SoftParams(meters_per_cell=1.0)
vplan = VertexPlan.from_plan(plan)
kitchen = vplan.kinds.index(RoomType.Kitchen)
print(f"\ninitial loss {ergonomic_loss(vplan, params).total:.3f} cells")

# Plain gradient descent on the kitchen's vertices only. The other rooms
# stay put; the loss pulls the kitchen toward the entrance/dining side.
step = 2.0
for it in range(60):
    breakdown, grads = ergonomic_loss_grad(vplan, params)
    vplan.room_coords[kitchen] -= step * grads[kitchen] / (np.abs(grads[kitchen]).max() + 1e-12)
print(f"after 60 descent steps on the kitchen: {ergonomic_loss(vplan, params).total:.3f} cells")
print("kitchen moved to:", np.round(vplan.room_coords[kitchen], 1).tolist())

# Gradients are exact: compare one vertex against central finite differences.
vplan2 = VertexPlan.from_plan(plan)
_, grads = ergonomic_loss_grad(vplan2, params)
h = 1e-4
coords_plus = [c.copy() for c in vplan2.room_coords]
coords_minus = [c.copy() for c in vplan2.room_coords]
coords_plus[kitchen][0, 0] += h
coords_minus[kitchen][0, 0] -= h
fd = (
    ergonomic_loss(VertexPlan(vplan2.kinds, coords_plus, vplan2.door), params).total
    - ergonomic_loss(VertexPlan(vplan2.kinds, coords_minus, vplan2.door), params).total
) / (2 * h)
print(f"\nanalytic d loss/dx of kitchen vertex 0: {grads[kitchen][0, 0]:+.8f}")
print(f"central finite difference:              {fd:+.8f}")
