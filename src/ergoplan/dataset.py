"""Corpus ingestion, deterministic splits, plan augmentation, and a
synthetic plan generator.

Synthetic plans are built by recursively splitting a rectangular boundary
into axis-aligned leaf rooms on a coarse lattice, so every generated plan
tiles its boundary exactly (full coverage, no overlap). Room types are
placed ergonomically by default; a configurable fraction of plans instead
gets its kitchen/bathroom relocated to the farthest leaves, emulating
layouts that are geometrically fine but ergonomically poor.
"""

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import ergocost
from .errors import InvariantViolation, PlanSyntaxError
from .plan import (
    DoorSegment,
    FloorPlan,
    RoomPolygon,
    RoomType,
    deserialize_plan,
    normalize_plan,
    serialize_plan,
)

SPLITS = ("train", "val", "test")


@dataclass
class Corpus:
    """Plans with stable ids, split assignment, and provenance."""

    plans: list
    ids: list
    split: dict = field(default_factory=dict)  # id -> "train" | "val" | "test"
    provenance: str = ""
    skipped: list = field(default_factory=list)  # (filename, reason) pairs

    def __len__(self):
        return len(self.plans)

    def subset(self, name):
        return [p for p, i in zip(self.plans, self.ids) if self.split.get(i) == name]


def split(corpus, fractions=(0.9, 0.05, 0.05), seed=0):
    """Assign plans to train/val/test deterministically.

    Ids are ordered by a salted hash, so the assignment is reproducible
    across machines and independent of file enumeration order; counts are
    exact (floor for train and val, remainder test).
    """
    if len(fractions) != 3 or min(fractions) < 0 or not abs(sum(fractions) - 1.0) <= 1e-9:
        raise ValueError("fractions must be three non-negative values summing to 1")
    ordered = sorted(
        corpus.ids,
        key=lambda i: hashlib.sha256(f"{seed}:{i}".encode()).hexdigest(),
    )
    n = len(ordered)
    n_train = int(fractions[0] * n)
    n_val = int(fractions[1] * n)
    assignment = {}
    for rank, plan_id in enumerate(ordered):
        if rank < n_train:
            assignment[plan_id] = "train"
        elif rank < n_train + n_val:
            assignment[plan_id] = "val"
        else:
            assignment[plan_id] = "test"
    return Corpus(
        plans=list(corpus.plans),
        ids=list(corpus.ids),
        split=assignment,
        provenance=corpus.provenance,
        skipped=list(corpus.skipped),
    )


def load_corpus(path):
    """Read plans/*.json under `path`; invalid files are skipped and
    reported in corpus.skipped. Reads splits.json when present."""
    root = Path(path)
    plan_dir = root / "plans" if (root / "plans").is_dir() else root
    plans, ids, skipped = [], [], []
    for file in sorted(plan_dir.glob("*.json")):
        try:
            plans.append(deserialize_plan(file.read_text()))
            ids.append(file.stem)
        except (InvariantViolation, PlanSyntaxError) as exc:
            skipped.append((file.name, str(exc)))
    assignment = {}
    splits_file = root / "splits.json"
    if splits_file.exists():
        assignment = json.loads(splits_file.read_text())
    return Corpus(
        plans=plans, ids=ids, split=assignment, provenance=str(root), skipped=skipped
    )


def save_corpus(corpus, path):
    root = Path(path)
    (root / "plans").mkdir(parents=True, exist_ok=True)
    for plan, plan_id in zip(corpus.plans, corpus.ids):
        (root / "plans" / f"{plan_id}.json").write_text(serialize_plan(plan))
    if corpus.split:
        (root / "splits.json").write_text(json.dumps(corpus.split, indent=2, sort_keys=True))


@dataclass(frozen=True)
class AugmentSpec:
    """Which isometries and reorderings to apply; identity always included."""

    rotations: tuple = (0, 90, 180, 270)
    mirror: bool = False
    permute_rooms: bool = False
    seed: int = 0

    def __post_init__(self):
        if any(r not in (0, 90, 180, 270) for r in self.rotations):
            raise ValueError("rotations must be multiples of 90 degrees")
        if 0 not in self.rotations:
            object.__setattr__(self, "rotations", (0,) + tuple(self.rotations))


def _rotate_point(p, resolution):
    x, y = p
    return (resolution - 1 - y, x)


def _mirror_point(p, resolution):
    x, y = p
    return (resolution - 1 - x, y)


def _transform_plan(plan, fn):
    return normalize_plan(
        FloorPlan(
            resolution=plan.resolution,
            boundary=tuple(fn(p) for p in plan.boundary),
            door=DoorSegment(fn(plan.door.a), fn(plan.door.b)),
            rooms=tuple(
                RoomPolygon(r.kind, tuple(fn(p) for p in r.vertices)) for r in plan.rooms
            ),
        )
    )


def rotate_plan(plan, quarter_turns):
    """Rotate a plan by 90-degree steps within the same grid."""
    out = plan
    for _ in range(quarter_turns % 4):
        out = _transform_plan(out, lambda p: _rotate_point(p, plan.resolution))
    return out


def mirror_plan(plan):
    """Mirror a plan across the vertical axis of the grid."""
    return _transform_plan(plan, lambda p: _mirror_point(p, plan.resolution))


def permute_rooms(plan, rng):
    order = rng.permutation(len(plan.rooms))
    return FloorPlan(
        resolution=plan.resolution,
        boundary=plan.boundary,
        door=plan.door,
        rooms=tuple(plan.rooms[int(i)] for i in order),
    )


def augment(plan, spec):
    """All isometry variants selected by the AugmentSpec, optionally each with an
    extra room-order permutation; geometry (and thus every adjacency cost)
    is preserved by construction."""
    rng = np.random.default_rng(spec.seed)
    variants = []
    for degrees in spec.rotations:
        base = rotate_plan(plan, degrees // 90)
        variants.append(base)
        if spec.mirror:
            variants.append(mirror_plan(base))
    if spec.permute_rooms:
        variants += [permute_rooms(v, rng) for v in variants]
    return variants


@dataclass(frozen=True)
class SynthConfig:
    resolution: int = 256
    lattice_step: int = 16  # all coordinates snap to this sub-grid
    rooms_min: int = 5
    rooms_max: int = 8
    boundary_min_steps: int = 10  # boundary side lengths, in lattice steps
    boundary_max_steps: int = 14
    min_room_steps: int = 2
    de_ergonomize_fraction: float = 0.0

    def __post_init__(self):
        if self.lattice_step * (self.boundary_max_steps + 1) > self.resolution:
            raise ValueError("boundary does not fit the grid")


# chance that a synthetic plan has each room; every plan draws all four
# numbers, even for a certain room, so the random stream's layout is fixed
P_KITCHEN = 1.0
P_BATHROOM = 1.0
P_DINING = 0.5
P_BALCONY = 0.5

# every filler is a preferred balcony neighbor, so balconies placed next to
# fillers carry no charge in the ergonomic corpus; kitchens and dining rooms
# are placed by their own rules
_FILLER_TYPES = tuple(
    kind
    for kind in ergocost.BALCONY_NEIGHBORS
    if kind not in (RoomType.Kitchen, RoomType.DiningRoom)
)


def _bsp_split(rects, n_rooms, min_size, rng):
    """Grow a list of axis-aligned rects to n_rooms by splitting the largest
    splittable leaf at a lattice-aligned position."""
    rects = list(rects)
    while len(rects) < n_rooms:
        order = sorted(
            range(len(rects)),
            key=lambda i: -(rects[i][2] - rects[i][0]) * (rects[i][3] - rects[i][1]),
        )
        for idx in order:
            x0, y0, x1, y1 = rects[idx]
            w, h = x1 - x0, y1 - y0
            horizontal = w >= h
            length = w if horizontal else h
            if length < 2 * min_size:
                continue
            cut = int(rng.integers(min_size, length - min_size + 1))
            if horizontal:
                a, b = (x0, y0, x0 + cut, y1), (x0 + cut, y0, x1, y1)
            else:
                a, b = (x0, y0, x1, y0 + cut), (x0, y0 + cut, x1, y1)
            rects[idx : idx + 1] = [a, b]
            break
        else:
            break  # nothing splittable left
    return rects


def _rect_polygon(rect, step):
    x0, y0, x1, y1 = (v * step for v in rect)
    return ((x0, y0), (x1, y0), (x1, y1), (x0, y1))


def synth_plan(seed, cfg=None):
    """One synthetic plan: rectangular boundary tiled by BSP leaf rooms."""
    cfg = cfg or SynthConfig()
    rng = np.random.default_rng(seed)
    step = cfg.lattice_step

    w = int(rng.integers(cfg.boundary_min_steps, cfg.boundary_max_steps + 1))
    h = int(rng.integers(cfg.boundary_min_steps, cfg.boundary_max_steps + 1))
    max_x0 = cfg.resolution // step - w - 1
    max_y0 = cfg.resolution // step - h - 1
    x0 = int(rng.integers(0, max(1, max_x0 + 1)))
    y0 = int(rng.integers(0, max(1, max_y0 + 1)))
    outer = (x0, y0, x0 + w, y0 + h)

    n_rooms = int(rng.integers(cfg.rooms_min, cfg.rooms_max + 1))
    leaves = _bsp_split([outer], n_rooms, cfg.min_room_steps, rng)

    # door: a one-step segment on the outer boundary, on a random leaf's edge
    edge_leaves = [
        i
        for i, (lx0, ly0, lx1, ly1) in enumerate(leaves)
        if lx0 == x0 or lx1 == x0 + w or ly0 == y0 or ly1 == y0 + h
    ]
    entrance_idx = int(edge_leaves[rng.integers(len(edge_leaves))])
    lx0, ly0, lx1, ly1 = leaves[entrance_idx]
    sides = []
    if lx0 == x0:
        sides.append(("v", lx0, ly0, ly1))
    if lx1 == x0 + w:
        sides.append(("v", lx1, ly0, ly1))
    if ly0 == y0:
        sides.append(("h", ly0, lx0, lx1))
    if ly1 == y0 + h:
        sides.append(("h", ly1, lx0, lx1))
    axis, fixed, lo, hi = sides[int(rng.integers(len(sides)))]
    start = int(rng.integers(lo, hi))
    if axis == "v":
        door = DoorSegment((fixed * step, start * step), (fixed * step, (start + 1) * step))
    else:
        door = DoorSegment((start * step, fixed * step), ((start + 1) * step, fixed * step))

    plan_no_types = [
        _rect_polygon(leaves[i], step) for i in range(len(leaves))
    ]

    leaf_distance = ergocost._distance_memo(plan_no_types)

    kinds = [None] * len(leaves)
    kinds[entrance_idx] = RoomType.Entrance
    remaining = [i for i in range(len(leaves)) if i != entrance_idx]

    def take_nearest(anchor):
        remaining.sort(key=lambda i: (leaf_distance(anchor, i), i))
        return remaining.pop(0)

    def take_farthest(anchor):
        remaining.sort(key=lambda i: (-leaf_distance(anchor, i), i))
        return remaining.pop(0)

    # nearest-first placement keeps the default corpus ergonomic: kitchen
    # and bathroom hug the entrance, dining hugs the kitchen, the balcony
    # goes to the far side where its neighbors are filler rooms (all of
    # which are preferred balcony neighbors)
    kitchen_idx = bathroom_idx = None
    if rng.random() < P_KITCHEN and remaining:
        kitchen_idx = take_nearest(entrance_idx)
        kinds[kitchen_idx] = RoomType.Kitchen
    if rng.random() < P_BATHROOM and remaining:
        bathroom_idx = take_nearest(entrance_idx)
        kinds[bathroom_idx] = RoomType.Bathroom
    if rng.random() < P_DINING and remaining:
        kinds[take_nearest(kitchen_idx if kitchen_idx is not None else entrance_idx)] = (
            RoomType.DiningRoom
        )
    if rng.random() < P_BALCONY and remaining:
        kinds[take_farthest(entrance_idx)] = RoomType.Balcony
    for i in remaining:
        kinds[i] = _FILLER_TYPES[int(rng.integers(len(_FILLER_TYPES)))]

    if rng.random() < cfg.de_ergonomize_fraction:
        # relocate the kitchen and bathroom type labels to the leaves
        # farthest from the entrance; geometry stays a perfect tiling
        candidates = sorted(
            (i for i in range(len(leaves)) if i != entrance_idx),
            key=lambda i: (-leaf_distance(entrance_idx, i), i),
        )
        taken = set()
        for kind in (RoomType.Kitchen, RoomType.Bathroom):
            if kind not in kinds:
                continue
            src = kinds.index(kind)
            for dst in candidates:
                if dst not in taken and kinds[dst] != kind:
                    kinds[src], kinds[dst] = kinds[dst], kinds[src]
                    taken.add(dst)
                    break

    # the memo's outlines go before the plan's long-lived objects are made,
    # which then reuse their memory instead of being scattered around it
    del leaf_distance
    rooms = tuple(
        RoomPolygon(kind, poly) for kind, poly in zip(kinds, plan_no_types)
    )
    boundary = _rect_polygon(outer, step)
    return normalize_plan(
        FloorPlan(resolution=cfg.resolution, boundary=boundary, door=door, rooms=rooms)
    )


def synth_generate(n, seed=0, cfg=None):
    """Corpus of n synthetic plans; fixed seed gives an identical corpus."""
    if n < 0:
        raise ValueError("n must be non-negative")
    cfg = cfg or SynthConfig()
    plans = [synth_plan(np.random.SeedSequence([seed, i]), cfg) for i in range(n)]
    ids = [f"synth-{seed}-{i:05d}" for i in range(n)]
    return Corpus(plans=plans, ids=ids, provenance=f"synth(seed={seed}, n={n})")

