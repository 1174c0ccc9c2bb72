import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from ergoplan.plan import DoorSegment, FloorPlan, RoomPolygon, RoomType

# property tests draw the same examples on every run, have no per-example
# time limit, and write no example database
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
# even without a database, hypothesis caches the constants it reads from the
# package source once collection ends; keep that cache in a directory that
# is removed when the session exits
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


def rect(x0, y0, x1, y1):
    return ((x0, y0), (x1, y0), (x1, y1), (x0, y1))


def make_plan(boundary, door, rooms, resolution=256):
    return FloorPlan(
        resolution=resolution,
        boundary=boundary,
        door=DoorSegment(*door),
        rooms=tuple(RoomPolygon(kind, verts) for kind, verts in rooms),
    )


@pytest.fixture
def tiling_plan():
    """Four rooms tiling a 32x32 boundary; every adjacency satisfied."""
    return make_plan(
        boundary=rect(0, 0, 32, 32),
        door=((0, 4), (0, 8)),
        rooms=[
            (RoomType.Entrance, rect(0, 0, 16, 16)),
            (RoomType.Kitchen, rect(16, 0, 32, 16)),
            (RoomType.LivingRoom, rect(0, 16, 16, 32)),
            (RoomType.Bathroom, rect(16, 16, 32, 32)),
        ],
    )


@pytest.fixture
def spread_plan():
    """Hand-measured plan: total cost 7.5 m at 1 m/cell.

    Charges: entrance 0 (door on its edge), kitchen mean(16, 4) = 10,
    bathroom mean(16, 8) = 12, balcony min(24, 24, 8) = 8.
    """
    return make_plan(
        boundary=rect(0, 0, 40, 40),
        door=((0, 2), (0, 6)),
        rooms=[
            (RoomType.Entrance, rect(0, 0, 8, 8)),
            (RoomType.Kitchen, rect(24, 0, 32, 8)),
            (RoomType.DiningRoom, rect(36, 0, 40, 8)),
            (RoomType.Bathroom, rect(0, 24, 8, 32)),
            (RoomType.LivingRoom, rect(16, 24, 24, 32)),
            (RoomType.Balcony, rect(32, 32, 40, 40)),
        ],
    )


SPREAD_PLAN_COST_CELLS = 7.5


def histogram_polygon(rng, columns=4, max_height=12, base=(0, 0)):
    """Random simple rectilinear polygon: a skyline over a flat base."""
    bx, by = base
    widths = rng.integers(1, 5, size=columns)
    heights = rng.integers(1, max_height, size=columns)
    verts = [(bx, by)]
    x = bx
    verts.append((x, by + int(heights[0])))
    for i in range(columns):
        x += int(widths[i])
        verts.append((x, by + int(heights[i])))
        if i + 1 < columns:
            verts.append((x, by + int(heights[i + 1])))
    verts.append((x, by))
    # drop duplicate corners created by equal adjacent heights
    out = [verts[0]]
    for v in verts[1:]:
        if v != out[-1]:
            out.append(v)
    return tuple(out)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
