"""Exact geometry kernels for quantized rectilinear floor plans.

All predicates (intersection, containment, area) run in integer arithmetic;
floating point only appears in distance outputs. Vertex loops are sequences
of (x, y) integer tuples; the closing edge is implicit.
"""

import math
from functools import cached_property

from .errors import DegenerateArea, EmptyInput, NotRectilinear, SelfIntersecting


class _IntLoop(tuple):
    """A vertex loop known to hold (int, int) tuples. Plan types store their
    loops as these and normalize_loop returns one, so nothing converts them
    again; slicing or concatenating gives a plain tuple."""

    __slots__ = ()


def _loop(obj):
    """The vertex loop of a polygon-like object or bare sequence as an
    _IntLoop of (int, int) tuples; an _IntLoop is returned as it is."""
    verts = getattr(obj, "vertices", obj)
    if isinstance(verts, _IntLoop):
        return verts
    return _IntLoop([(int(x), int(y)) for x, y in verts])


def signed_area2(loop):
    """Twice the signed shoelace area (positive for CCW), exact integer."""
    pts = _loop(loop)
    total = 0
    for i in range(len(pts)):
        x0, y0 = pts[i]
        x1, y1 = pts[(i + 1) % len(pts)]
        total += x0 * y1 - x1 * y0
    return total


def _segments_intersect(p1, p2, q1, q2):
    """Exact closed-segment intersection test (integer cross products)."""

    def orient(a, b, c):
        v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        return (v > 0) - (v < 0)

    def on_segment(a, b, c):
        return (
            min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= c[1] <= max(a[1], b[1])
        )

    o1 = orient(p1, p2, q1)
    o2 = orient(p1, p2, q2)
    o3 = orient(q1, q2, p1)
    o4 = orient(q1, q2, p2)
    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and on_segment(p1, p2, q1):
        return True
    if o2 == 0 and on_segment(p1, p2, q2):
        return True
    if o3 == 0 and on_segment(q1, q2, p1):
        return True
    if o4 == 0 and on_segment(q1, q2, p2):
        return True
    return False


def normalize_loop(loop):
    """Canonical form of a rectilinear simple loop.

    Returns the loop CCW-oriented, with collinear midpoints removed, starting
    at the lexicographically smallest vertex. Raises NotRectilinear,
    SelfIntersecting, or DegenerateArea.

    One sweep over the edge directions drops every straight-run midpoint:
    dropping one merges two edges of the same direction, so no other
    vertex's turn changes. A 180-degree reversal is a spur and raises at the
    first such vertex. Two closed axis-aligned edges meet exactly when their
    boxes overlap, which decides simplicity. A rectangle with non-zero width
    and height skips the sweep: its box gives the canonical corners.
    """
    pts = _loop(loop)
    box = _rectangle(pts)
    if box is not None and box[0] != box[2] and box[1] != box[3]:
        x0, y0, x1, y1 = box
        return _IntLoop(((x0, y0), (x1, y0), (x1, y1), (x0, y1)))
    # drop consecutive duplicates (including the wraparound)
    dedup = [p for p, q in zip(pts, (None, *pts)) if p != q]
    if len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    if len(dedup) < 4:
        raise DegenerateArea(f"loop collapses to {len(dedup)} vertices")

    # direction of the edge leaving each vertex: +-1 along x, +-2 along y;
    # collinear midpoints add nothing to the shoelace sum
    directions = []
    area2 = 0
    for (x0, y0), (x1, y1) in zip(dedup, dedup[1:] + dedup[:1]):
        area2 += x0 * y1 - x1 * y0
        if y0 == y1:
            directions.append(1 if x1 > x0 else -1)
        elif x0 == x1:
            directions.append(2 if y1 > y0 else -2)
        else:
            raise NotRectilinear(f"loop has a non-axis-aligned edge: {dedup}")
    corners = []
    for p, d_in, d_out in zip(dedup, directions[-1:] + directions[:-1], directions):
        if d_in == -d_out:
            raise SelfIntersecting(f"boundary reverses onto itself at {p}")
        if d_in != d_out:
            corners.append(p)
    n = len(corners)
    if n < 4:
        raise DegenerateArea("loop collapses below 4 vertices")

    if n > 4:  # four corners that alternate between the axes make a rectangle
        _check_simple(corners)
    if area2 == 0:
        raise DegenerateArea("loop encloses zero area")
    if area2 < 0:
        corners.reverse()

    start = corners.index(min(corners))
    return _IntLoop(corners[start:] + corners[:start])


def _check_simple(corners):
    """Raise SelfIntersecting when two non-adjacent edges of a rectilinear
    loop meet; closed axis-aligned edges meet exactly when their boxes
    overlap."""
    boxes = [
        (min(x0, x1), max(x0, x1), min(y0, y1), max(y0, y1))
        for (x0, y0), (x1, y1) in zip(corners, corners[1:] + corners[:1])
    ]
    n = len(boxes)
    for i in range(n - 2):
        ax0, ax1, ay0, ay1 = boxes[i]
        for bx0, bx1, by0, by1 in boxes[i + 2 : n - (i == 0)]:  # the non-adjacent edges
            if ax0 <= bx1 and bx0 <= ax1 and ay0 <= by1 and by0 <= ay1:
                raise SelfIntersecting("non-adjacent edges touch or cross")


def polygon_area(poly):
    """Exact enclosed area in cells^2 of a simple rectilinear loop."""
    pts = normalize_loop(poly)
    return abs(signed_area2(pts)) // 2


def rect_decompose(poly):
    """Split a simple rectilinear polygon into disjoint axis-aligned
    rectangles (x0, y0, x1, y1) whose union is exactly its interior.

    Horizontal slab sweep: cut at every distinct vertex y; inside each slab
    the interior is bounded by vertical edges spanning the slab, paired left
    to right.
    """
    pts = normalize_loop(poly)
    n = len(pts)
    if n == 4:  # a normalized rectangle starts at its lower-left corner
        (x0, y0), _, (x1, y1), _ = pts
        return [(x0, y0, x1, y1)]
    verticals = []
    for i in range(n):
        x0, y0 = pts[i]
        x1, y1 = pts[(i + 1) % n]
        if x0 == x1:
            verticals.append((x0, min(y0, y1), max(y0, y1)))
    ys = sorted({p[1] for p in pts})
    rects = []
    for y0, y1 in zip(ys, ys[1:]):
        xs = sorted(x for x, lo, hi in verticals if lo <= y0 and hi >= y1)
        for xa, xb in zip(xs[0::2], xs[1::2]):
            rects.append((xa, y0, xb, y1))
    return rects


def _merged_length(spans):
    """Total length of the union of (lo, hi) spans."""
    length, top = 0, -math.inf
    for lo, hi in sorted(spans):
        if hi > top:
            length += hi - max(lo, top)
            top = hi
    return length


def union_areas(rects, clip=()):
    """Exact areas (union of rects, its part inside the union of clip) of
    rectangles (x0, y0, x1, y1): one sweep over x that merges each slab's y
    spans; the part inside clip follows by inclusion-exclusion."""
    xs = sorted({x for r in (*rects, *clip) for x in (r[0], r[2])})
    union = inside = 0
    for xa, xb in zip(xs, xs[1:]):
        spans = [(y0, y1) for x0, y0, x1, y1 in rects if x0 <= xa and x1 >= xb]
        clipped = [(y0, y1) for x0, y0, x1, y1 in clip if x0 <= xa and x1 >= xb]
        length = _merged_length(spans)
        union += (xb - xa) * length
        inside += (xb - xa) * (length + _merged_length(clipped) - _merged_length(spans + clipped))
    return union, inside


def union_area(rooms):
    """Exact area in cells^2 covered by at least one room polygon."""
    return union_areas([r for room in rooms for r in rect_decompose(room)])[0]


def pairwise_overlap_area(rooms):
    """Total multiplicity-counted overlap: sum of areas minus union area."""
    total = sum(polygon_area(r) for r in rooms)
    return total - union_area(rooms)


def point_strictly_inside(point, loop):
    """Strict interior test for a rectilinear loop (half-open crossing rule).

    Indeterminate for points exactly on the boundary; callers resolve that
    case through edge distances first.
    """
    px, py = point
    pts = _loop(loop)
    crossings = 0
    for i in range(len(pts)):
        x0, y0 = pts[i]
        x1, y1 = pts[(i + 1) % len(pts)]
        if x0 != x1:
            continue
        lo, hi = (y0, y1) if y0 < y1 else (y1, y0)
        if lo <= py < hi and x0 > px:
            crossings += 1
    return crossings % 2 == 1


def _point_segment_distance(p, a, b):
    abx, aby = b[0] - a[0], b[1] - a[1]
    apx, apy = p[0] - a[0], p[1] - a[1]
    denom = abx * abx + aby * aby
    if denom == 0:
        return math.hypot(apx, apy)
    t = (apx * abx + apy * aby) / denom
    t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
    return math.hypot(apx - t * abx, apy - t * aby)


def segment_distance(p1, p2, q1, q2):
    """Minimum Euclidean distance between two closed segments, in cells."""
    if _segments_intersect(p1, p2, q1, q2):
        return 0.0
    return min(
        _point_segment_distance(q1, p1, p2),
        _point_segment_distance(q2, p1, p2),
        _point_segment_distance(p1, q1, q2),
        _point_segment_distance(p2, q1, q2),
    )


def _box(p, q):
    """Box (x0, y0, x1, y1) of an axis-aligned edge (the edge itself), else None."""
    if p[0] != q[0] and p[1] != q[1]:
        return None
    return (*p, *q) if p <= q else (*q, *p)


def _rectangle(pts):
    """Box of a 4-vertex loop around an axis-aligned rectangle, in either
    orientation and from any start; else None. A flat loop's boundary is
    its box."""
    if len(pts) != 4:
        return None
    (ax, ay), (bx, by), (cx, cy), (dx, dy) = pts
    if (ay == by and bx == cx and cy == dy and dx == ax) or (
        ax == bx and by == cy and cx == dx and dy == ay
    ):
        return (*min(pts), *max(pts))
    return None


class Outline:
    """A distance operand prepared once: a polygon, a door segment, or a
    bare sequence (2 points are an open segment, more a closed loop).

    `box` is the operand's own box when it is a single box, a rectangle
    loop or an axis-aligned (or zero-length) segment, else None. Raises
    EmptyInput for an operand without vertices.
    """

    def __init__(self, obj):
        if hasattr(obj, "vertices"):
            self.points, self.segment = _loop(obj.vertices), False
        elif hasattr(obj, "a") and hasattr(obj, "b"):
            self.points, self.segment = _loop((obj.a, obj.b)), True
        else:
            self.points = _loop(obj)
            self.segment = len(self.points) == 2
        if not self.points:
            raise EmptyInput("min_distance needs operands with at least one vertex")
        self.box = _box(*self.points) if self.segment else _rectangle(self.points)

    @cached_property
    def edges(self):
        """[(p, q, the edge's box or None when it is diagonal)], built on
        first use: two single boxes never need them."""
        pts = self.points
        pairs = [pts] if self.segment else zip(pts, pts[1:] + pts[:1])
        return [(p, q, _box(p, q)) for p, q in pairs]


def _box_gap(a, b):
    """Euclidean gap between two boxes (x0, y0, x1, y1); 0 when they meet."""
    ax0, ay0, ax1, ay1 = a
    bx0, by0, bx1, by1 = b
    gx = bx0 - ax1 if bx0 > ax1 else (ax0 - bx1 if ax0 > bx1 else 0)
    gy = by0 - ay1 if by0 > ay1 else (ay0 - by1 if ay0 > by1 else 0)
    return math.hypot(gx, gy)


def min_distance(a, b, scale=None):
    """Minimum distance between the boundary point sets of two operands
    (polygons, door segments, bare loops, or their Outlines), converted to
    meters.

    Zero whenever the operands touch, cross, or one encloses the other.
    `scale` is a ScaleConfig (or bare meters-per-cell factor); omit it for
    plain cell units.

    Two single boxes are as far apart as the boxes: contact, crossing and
    strict enclosure all leave no gap. Otherwise the minimum runs over edge
    pairs, where an axis-aligned (or zero-length) edge is its own box and a
    pair with a diagonal edge (a decoded door may be one) takes
    segment_distance.
    """
    a = a if isinstance(a, Outline) else Outline(a)
    b = b if isinstance(b, Outline) else Outline(b)
    if a.box is not None and b.box is not None:
        best = _box_gap(a.box, b.box)
    else:
        best = _edge_distance(a.edges, b.edges)
    return best * _factor(scale)


def _factor(scale):
    """Meters per cell of a ScaleConfig or bare factor, as a float; 1.0 for None."""
    factor = getattr(scale, "meters_per_cell", scale)
    return float(1.0 if factor is None else factor)


def _edge_distance(edges_a, edges_b):
    """Minimum distance over the pairs of two Outlines' edges, in cells."""
    best = math.inf
    for p1, p2, box in edges_a:
        for q1, q2, other in edges_b:
            if box is None or other is None:
                d = segment_distance(p1, p2, q1, q2)
            else:
                d = _box_gap(box, other)
            if d < best:
                best = d
            if best == 0.0:
                return best
    # no boundary contact: one operand may still lie entirely inside the
    # other, which counts as overlap
    if _encloses(edges_a, edges_b[0][0]) or _encloses(edges_b, edges_a[0][0]):
        return 0.0
    return best


def _encloses(edges, point):
    """Whether a closed loop of these edges strictly encloses point."""
    return len(edges) > 1 and point_strictly_inside(point, [p for p, _, _ in edges])
