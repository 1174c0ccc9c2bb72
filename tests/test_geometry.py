import itertools
import math

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import histogram_polygon, rect
from oracles import naive_distance, raster_union_and_overlap

from ergoplan import geometry
from ergoplan.errors import (
    DegenerateArea,
    EmptyInput,
    ErgoplanError,
    NotRectilinear,
    SelfIntersecting,
)
from ergoplan.plan import DoorSegment, RoomPolygon, RoomType, ScaleConfig


def same_bits(x, y):
    return x.hex() == y.hex()


def distance_operands(seed):
    """A skyline polygon based at (40, 40) and operands around it: skylines
    apart from it, touching its right side and nested in a rectangle around
    it, and doors from one point that are horizontal, vertical, diagonal or
    zero-length, as DoorSegments and as bare point pairs."""
    rng = np.random.default_rng(seed)
    a = histogram_polygon(rng, columns=int(rng.integers(1, 6)), base=(40, 40))
    width = max(x for x, _ in a) - 40
    others = [
        histogram_polygon(rng, base=(int(rng.integers(0, 90)), int(rng.integers(0, 90)))),
        histogram_polygon(rng, base=(40 + width, int(rng.integers(36, 44)))),
        histogram_polygon(rng, columns=2, max_height=4, base=(41, 41)),
        rect(30, 30, 70, 70),
    ]
    x, y = int(rng.integers(30, 70)), int(rng.integers(30, 70))
    dx, dy = int(rng.integers(1, 6)), int(rng.integers(-5, 6))
    for b in ((x + dx, y), (x, y + dy), (x + dx, y + dy), (x, y)):
        others += [DoorSegment((x, y), b), ((x, y), b)]
    return a, others


def outcome(fn, *args):
    """fn's result, or the class and message of the package error it raised."""
    try:
        return fn(*args)
    except ErgoplanError as exc:
        return type(exc), str(exc)


def walk_loop(rng):
    """A short random walk: steps of length 0 to 3 along x or along y, now
    and then along both; half the walks end with a step back onto the
    start's x, so that the closing edge is vertical."""
    x, y = (int(v) for v in rng.integers(0, 8, 2))
    pts = [(x, y)]
    for _ in range(int(rng.integers(2, 10))):
        dx, dy = (int(v) for v in rng.integers(-3, 4, 2))
        r = rng.random()
        if r < 0.45:
            dy = 0
        elif r < 0.9:
            dx = 0
        x, y = x + dx, y + dy
        pts.append((x, y))
    if rng.random() < 0.5:
        pts.append((pts[0][0], y))
    return tuple(pts)


def loop_cases(seed):
    """A skyline polygon and edits of it: reversed, restarted, with a
    repeated vertex, a spur, a vertex moved off its axes, and pinched to its
    point reflection at a shared corner; plus random walks."""
    rng = np.random.default_rng(seed)
    bx, by = (int(v) for v in rng.integers(0, 20, 2))
    sky = histogram_polygon(rng, columns=int(rng.integers(1, 6)), base=(bx, by))
    k = int(rng.integers(len(sky)))
    x, y = sky[k]
    step = int(rng.integers(1, 4))
    reflected = tuple((2 * bx - px, 2 * by - py) for px, py in sky)
    return [
        sky,
        sky[::-1],
        sky[k:] + sky[:k],
        sky[: k + 1] + sky[k:],
        sky[: k + 1] + ((x + step, y), (x, y)) + sky[k + 1 :],
        sky[:k] + ((x + step, y + step),) + sky[k + 1 :],
        sky + reflected,
        *(walk_loop(rng) for _ in range(8)),
    ]


def skyline_variants(seed):
    """A skyline polygon and loops of the same region: reversed, started at
    another vertex, and with a collinear midpoint on its base."""
    rng = np.random.default_rng(seed)
    base = (int(rng.integers(0, 50)), int(rng.integers(0, 50)))
    loop = histogram_polygon(rng, columns=int(rng.integers(1, 7)), base=base)
    k = int(rng.integers(len(loop)))
    (x0, y0), (x1, _) = loop[-1], loop[0]  # the base runs from the last vertex back to the first
    with_midpoint = loop + (((x0 + x1) // 2, y0),) if abs(x0 - x1) > 1 else loop
    return loop, (loop[::-1], loop[k:] + loop[:k], with_midpoint)


class TestNormalize:
    def test_clockwise_square_flipped_to_ccw(self):
        cw = ((0, 0), (0, 4), (4, 4), (4, 0))
        assert geometry.normalize_loop(cw) == ((0, 0), (4, 0), (4, 4), (0, 4))

    def test_redundant_midpoint_removed(self):
        loop = ((0, 0), (2, 0), (4, 0), (4, 4), (0, 4))
        assert geometry.normalize_loop(loop) == ((0, 0), (4, 0), (4, 4), (0, 4))

    def test_bowtie_rejected(self):
        # rectilinear "bowtie": two squares pinched at a shared corner
        pinched = ((0, 0), (2, 0), (2, 2), (4, 2), (4, 4), (2, 4), (2, 2), (0, 2))
        with pytest.raises(SelfIntersecting):
            geometry.normalize_loop(pinched)

    def test_diagonal_edge_rejected(self):
        with pytest.raises(NotRectilinear):
            geometry.normalize_loop(((0, 0), (4, 0), (4, 4), (2, 2)))

    def test_zero_area_rejected(self):
        with pytest.raises((DegenerateArea, SelfIntersecting)):
            geometry.normalize_loop(((0, 0), (4, 0), (4, 0), (0, 0)))

    def test_spur_rejected(self):
        with pytest.raises(SelfIntersecting):
            geometry.normalize_loop(((0, 0), (6, 0), (4, 0), (4, 4), (0, 4)))

    def test_crossing_edges_rejected(self):
        crossing = ((0, 0), (4, 0), (4, 3), (2, 3), (2, 1), (6, 1), (6, 4), (0, 4))
        with pytest.raises(SelfIntersecting):
            geometry.normalize_loop(crossing)

    @settings(max_examples=100)
    @given(st.integers(0, 2**32 - 1))
    def test_idempotent_on_random_polygons(self, seed):
        loop, variants = skyline_variants(seed)
        once = geometry.normalize_loop(loop)
        assert geometry.normalize_loop(once) == once
        assert geometry.signed_area2(once) > 0  # counter-clockwise
        for variant in variants:
            assert geometry.normalize_loop(variant) == once

    @settings(max_examples=100)
    @given(st.integers(0, 2**32 - 1))
    def test_canonical_start_is_lexicographic_min(self, seed):
        out = geometry.normalize_loop(skyline_variants(seed)[0])
        assert out[0] == min(out)

    @settings(max_examples=300)
    @given(st.integers(0, 2**32 - 1))
    def test_same_as_earlier_normalization(self, seed):
        """The one-sweep normalization returns the earlier restart loop's
        tuple, or raises its exception class with its message."""
        for loop in loop_cases(seed):
            assert outcome(geometry.normalize_loop, loop) == outcome(oracles.normalize_loop, loop)
            assert outcome(geometry.rect_decompose, loop) == outcome(oracles.rect_decompose, loop)

    @settings(max_examples=100)
    @given(st.integers(0, 2**32 - 1))
    def test_converts_every_loop_form(self, seed):
        """A loop given as lists, numpy int64 or integral floats (all of
        them, or all but the first vertex), or held by a RoomPolygon, gives
        the int-tuple loop's results, and every vertex and area that comes
        back is made of Python ints."""
        other = rect(2, 3, 9, 7)
        for loop in loop_cases(seed):
            forms = (
                [list(p) for p in loop],
                np.array(loop, dtype=np.int64),
                tuple((float(x), float(y)) for x, y in loop),
                (loop[0], *((float(x), y) for x, y in loop[1:])),
                RoomPolygon(RoomType.Kitchen, loop).vertices,
            )
            for fn in (geometry.normalize_loop, geometry.rect_decompose):
                expected = outcome(fn, loop)
                for form in forms:
                    got = outcome(fn, form)
                    assert got == expected
                    if not isinstance(got[0], type):  # a loop or rectangles
                        assert all(type(c) is int for item in got for c in item)
            area = geometry.signed_area2(loop)
            distance = geometry.min_distance(loop, other)
            for form in forms:
                got = geometry.signed_area2(form)
                assert type(got) is int and got == area
                assert same_bits(geometry.min_distance(form, other), distance)

    def test_every_four_vertex_loop_on_a_small_lattice(self):
        """All 65,536 four-vertex loops with coordinates in 0..3 (duplicates,
        flat and diagonal loops, both orientations, every start) normalize
        and split as the earlier restart loop does. A loop that normalizes
        to 4 corners is a rectangle whose Outline box is that loop's box, so
        the rectangle path covers exactly those."""
        points = list(itertools.product(range(4), repeat=2))
        for loop in itertools.product(points, repeat=4):
            got = outcome(geometry.normalize_loop, loop)
            assert got == outcome(oracles.normalize_loop, loop)
            assert outcome(geometry.rect_decompose, loop) == outcome(oracles.rect_decompose, loop)
            if not isinstance(got[0], type):
                (x0, y0), _, (x1, y1), _ = got
                assert geometry.Outline(loop).box == (x0, y0, x1, y1)

    def test_cases_reach_every_outcome(self):
        outcomes = [
            outcome(geometry.normalize_loop, loop) for seed in range(40) for loop in loop_cases(seed)
        ]
        kinds = {got[0] if isinstance(got[0], type) else tuple for got in outcomes}
        assert kinds == {tuple, NotRectilinear, SelfIntersecting, DegenerateArea}


class TestArea:
    def test_unit_square(self):
        assert geometry.polygon_area(rect(0, 0, 1, 1)) == 1

    def test_16_square(self):
        assert geometry.polygon_area(rect(0, 0, 16, 16)) == 256

    def test_l_shape(self):
        # 2x1 rectangle plus a 1x1 on top of its left half
        l_shape = ((0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2))
        assert geometry.polygon_area(l_shape) == 3


class TestRectDecompose:
    def test_rectangle_is_itself(self):
        assert geometry.rect_decompose(rect(3, 4, 7, 9)) == [(3, 4, 7, 9)]

    def test_l_shape_two_rects(self):
        l_shape = ((0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2))
        rects = geometry.rect_decompose(l_shape)
        assert len(rects) == 2
        assert sum((x1 - x0) * (y1 - y0) for x0, y0, x1, y1 in rects) == 3

    def test_u_shape_three_rects(self):
        u_shape = ((0, 0), (3, 0), (3, 2), (2, 2), (2, 1), (1, 1), (1, 2), (0, 2))
        rects = geometry.rect_decompose(u_shape)
        assert len(rects) == 3
        total = sum((x1 - x0) * (y1 - y0) for x0, y0, x1, y1 in rects)
        assert total == geometry.polygon_area(u_shape)

    @settings(max_examples=100)
    @given(st.integers(0, 2**32 - 1))
    def test_disjoint_cover_on_random_polygons(self, seed):
        loop = skyline_variants(seed)[0]
        rects = geometry.rect_decompose(loop)
        total = sum((x1 - x0) * (y1 - y0) for x0, y0, x1, y1 in rects)
        assert total == geometry.polygon_area(loop) == abs(geometry.signed_area2(loop)) // 2
        # nonempty, with pairwise disjoint interiors
        for i, (ax0, ay0, ax1, ay1) in enumerate(rects):
            assert ax0 < ax1 and ay0 < ay1
            for bx0, by0, bx1, by1 in rects[i + 1 :]:
                assert min(ax1, bx1) <= max(ax0, bx0) or min(ay1, by1) <= max(ay0, by0)


class TestMinDistance:
    def test_shared_edge_is_zero(self):
        assert geometry.min_distance(rect(0, 0, 1, 1), rect(1, 0, 2, 1)) == 0.0

    def test_axis_gap(self):
        assert geometry.min_distance(rect(0, 0, 1, 1), rect(3, 0, 4, 1)) == 2.0

    def test_diagonal_gap_matches_brute_force(self):
        a, b = rect(0, 0, 1, 1), rect(3, 3, 4, 4)
        d = geometry.min_distance(a, b)
        assert d == pytest.approx(math.sqrt(8), abs=1e-12)
        # brute force: densely sampled boundary points
        def samples(r):
            pts = []
            edges = list(zip(r, r[1:] + r[:1]))
            for (x0, y0), (x1, y1) in edges:
                for t in np.linspace(0, 1, 201):
                    pts.append((x0 + t * (x1 - x0), y0 + t * (y1 - y0)))
            return np.array(pts)

        sa, sb = samples(a), samples(b)
        brute = np.min(np.hypot(*(sa[:, None] - sb[None]).transpose(2, 0, 1)))
        assert d == pytest.approx(float(brute), abs=1e-9)

    @settings(max_examples=100)
    @given(st.integers(0, 2**32 - 1))
    def test_symmetry_and_self_distance(self, seed):
        """Symmetric, zero to itself, and the brute-force minimum of
        segment_distance over every edge pair, or zero when one operand
        lies strictly inside the other."""
        a, others = distance_operands(seed)
        assert geometry.min_distance(a, a) == 0.0
        edges_a = list(zip(a, a[1:] + a[:1]))
        for b in others:
            d = geometry.min_distance(a, b)
            assert d == geometry.min_distance(b, a)
            if isinstance(b, DoorSegment) or len(b) == 2:
                edges_b = [(b.a, b.b) if isinstance(b, DoorSegment) else tuple(b)]
            else:
                edges_b = list(zip(b, b[1:] + b[:1]))
            brute = min(geometry.segment_distance(*e, *f) for e in edges_a for f in edges_b)
            if geometry.point_strictly_inside(edges_b[0][0], a) or (
                len(edges_b) > 1 and geometry.point_strictly_inside(a[0], b)
            ):
                brute = 0.0
            assert d == pytest.approx(brute, abs=1e-12)

    def test_exactly_symmetric_on_touching_nested_and_door_pairs(self, rng):
        # ergocost memoizes one distance per unordered pair, so the operand
        # order must not change a single bit
        scale = ScaleConfig()
        for _ in range(150):
            a = histogram_polygon(rng, base=(40, 40))
            width = max(x for x, _ in a) - 40
            apart = (int(rng.integers(0, 90)), int(rng.integers(0, 90)))
            touching = (40 + width, int(rng.integers(36, 44)))
            pairs = [
                (a, histogram_polygon(rng, base=apart)),
                (a, histogram_polygon(rng, base=touching)),
                (rect(30, 30, 70, 70), a),  # nested
            ]
            x, y = int(rng.integers(30, 70)), int(rng.integers(30, 70))
            length = int(rng.integers(1, 6))
            on_base = int(rng.integers(40, 40 + width))
            for door in (
                DoorSegment((x, y), (x + length, y)),
                DoorSegment((x, y), (x, y + length)),
                DoorSegment((on_base, 40), (on_base + 1, 40)),  # on the polygon's edge
            ):
                pairs.append((a, door))
            for p, q in pairs:
                assert geometry.min_distance(p, q, scale) == geometry.min_distance(q, p, scale)

    def test_matches_aabb_oracle(self, rng):
        for _ in range(30):
            a = histogram_polygon(rng, base=(0, 0))
            b = histogram_polygon(rng, base=(int(rng.integers(0, 40)), int(rng.integers(0, 40))))
            assert geometry.min_distance(a, b) == pytest.approx(
                naive_distance(a, b), abs=1e-12
            )

    def test_contained_polygon_is_zero(self):
        assert geometry.min_distance(rect(0, 0, 10, 10), rect(4, 4, 6, 6)) == 0.0
        assert geometry.min_distance(rect(4, 4, 6, 6), rect(0, 0, 10, 10)) == 0.0

    def test_door_segment_operand(self):
        door = DoorSegment((0, 4), (0, 8))
        assert geometry.min_distance(rect(0, 0, 4, 8), door) == 0.0
        assert geometry.min_distance(rect(2, 4, 4, 8), door) == 2.0

    def test_operand_without_vertices_raises_empty_input(self):
        for empty in ([], (), RoomPolygon(RoomType.Kitchen, ())):
            with pytest.raises(EmptyInput):
                geometry.min_distance(rect(0, 0, 4, 4), empty)
            with pytest.raises(EmptyInput):
                geometry.min_distance(empty, rect(0, 0, 4, 4))

    def test_outline_operands_give_the_raw_operands_distance(self):
        a, others = distance_operands(7)
        for b in others:
            for p, q in ((a, b), (b, a)):
                expected = geometry.min_distance(p, q)
                assert geometry.min_distance(geometry.Outline(p), geometry.Outline(q)) == expected
                assert geometry.min_distance(geometry.Outline(p), q) == expected

    def test_scale_factor_applied(self):
        d = geometry.min_distance(rect(0, 0, 1, 1), rect(3, 0, 4, 1), scale=0.5)
        assert d == 1.0


class TestUnionOverlap:
    def test_disjoint_unit_squares(self):
        rooms = [rect(0, 0, 1, 1), rect(2, 0, 3, 1)]
        assert geometry.union_area(rooms) == 2
        assert geometry.pairwise_overlap_area(rooms) == 0

    def test_identical_squares(self):
        rooms = [rect(0, 0, 1, 1), rect(0, 0, 1, 1)]
        assert geometry.union_area(rooms) == 1
        assert geometry.pairwise_overlap_area(rooms) == 1

    def test_offset_two_by_two(self):
        rooms = [rect(0, 0, 2, 2), rect(1, 1, 3, 3)]
        assert geometry.union_area(rooms) == 7
        assert geometry.pairwise_overlap_area(rooms) == 1

    def test_matches_rasterization_oracle(self, rng):
        for _ in range(25):
            rooms = [
                histogram_polygon(
                    rng,
                    columns=int(rng.integers(2, 5)),
                    base=(int(rng.integers(0, 12)), int(rng.integers(0, 12))),
                )
                for _ in range(int(rng.integers(2, 5)))
            ]
            union, overlap = raster_union_and_overlap(rooms)
            assert geometry.union_area(rooms) == union
            assert geometry.pairwise_overlap_area(rooms) == overlap

    def test_union_bounded_by_sum(self, rng):
        for _ in range(20):
            rooms = [
                histogram_polygon(rng, base=(int(rng.integers(0, 10)), 0))
                for _ in range(3)
            ]
            total = sum(geometry.polygon_area(r) for r in rooms)
            union = geometry.union_area(rooms)
            assert union <= total
            assert (union == total) == (geometry.pairwise_overlap_area(rooms) == 0)


class TestOracleIdentity:
    """Box gaps and the union sweep against the earlier projection-form
    distance and numpy-grid union, bit for bit."""

    @settings(max_examples=150)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_min_distance(self, seed, scaled):
        scale = ScaleConfig() if scaled else None
        a, others = distance_operands(seed)
        for b in others:
            for p, q in ((a, b), (b, a)):
                assert same_bits(geometry.min_distance(p, q, scale), oracles.min_distance(p, q, scale))

    @settings(max_examples=150)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_min_distance_between_boxes(self, seed, scaled):
        """Rectangle loops in either orientation and from any start, and
        axis-aligned, zero-length or diagonal segments: apart, touching,
        crossing and nested; flat four-vertex loops, which are their own
        boxes too; and four-vertex loops that are not rectangles (the corners
        out of order, one corner moved), which take the edge path."""
        rng = np.random.default_rng(seed)
        scale = ScaleConfig() if scaled else None
        shapes = []
        for _ in range(6):
            x0, y0 = (int(v) for v in rng.integers(0, 20, 2))
            x1, y1 = x0 + int(rng.integers(1, 12)), y0 + int(rng.integers(1, 12))
            loop = rect(x0, y0, x1, y1)
            k = int(rng.integers(4))
            loop = loop[k:] + loop[:k]
            shapes.append(loop[::-1] if rng.random() < 0.5 else loop)
            dx, dy = (int(v) for v in rng.integers(-6, 7, 2))
            end = [(x0 + dx, y0), (x0, y0 + dy), (x0 + dx, y0 + dy)][int(rng.integers(3))]
            shapes.append(DoorSegment((x0, y0), end))
        shapes.append(((x0, y0), (x1, y0), (x1, y0), (x0, y0)))
        shapes.append(((x0, y0), (x1, y1), (x1, y0), (x0, y1)))
        shapes.append(((x0, y0), (x1, y0), (x1, y1), (x0, y1 + int(rng.integers(1, 4)))))
        for p in shapes:
            for q in shapes:
                assert same_bits(geometry.min_distance(p, q, scale), oracles.min_distance(p, q, scale))

    @settings(max_examples=100)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5))
    def test_union_area(self, seed, n):
        rng = np.random.default_rng(seed)
        rooms = [
            histogram_polygon(rng, columns=int(rng.integers(1, 5)), base=tuple(map(int, rng.integers(0, 16, 2))))
            for _ in range(n)
        ]
        assert geometry.union_area(rooms) == oracles.union_area(rooms)
