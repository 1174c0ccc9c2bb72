"""Exact geometry kernels for quantized rectilinear floor plans.

All predicates (intersection, containment, area) run in integer arithmetic;
floating point only appears in distance outputs. Vertex loops are sequences
of (x, y) integer tuples; the closing edge is implicit.
"""

import math

from .errors import DegenerateArea, NotRectilinear, SelfIntersecting


def _loop(obj):
    """Extract a vertex loop from a polygon-like object or bare sequence."""
    verts = getattr(obj, "vertices", obj)
    return [(int(x), int(y)) for x, y in verts]


def _edges_of(obj):
    """Edge list of a polygon loop, a segment object, or a bare sequence.

    Bare 2-point sequences are treated as a single open segment; longer
    sequences as closed loops.
    """
    if hasattr(obj, "vertices"):
        pts = _loop(obj.vertices)
        return [(pts[i], pts[(i + 1) % len(pts)]) for i in range(len(pts))]
    if hasattr(obj, "a") and hasattr(obj, "b"):
        a, b = obj.a, obj.b
        return [((int(a[0]), int(a[1])), (int(b[0]), int(b[1])))]
    pts = _loop(obj)
    if len(pts) == 2:
        return [(pts[0], pts[1])]
    return [(pts[i], pts[(i + 1) % len(pts)]) for i in range(len(pts))]


def signed_area2(loop):
    """Twice the signed shoelace area (positive for CCW), exact integer."""
    pts = _loop(loop)
    total = 0
    for i in range(len(pts)):
        x0, y0 = pts[i]
        x1, y1 = pts[(i + 1) % len(pts)]
        total += x0 * y1 - x1 * y0
    return total


def _is_rectilinear(pts):
    for i in range(len(pts)):
        x0, y0 = pts[i]
        x1, y1 = pts[(i + 1) % len(pts)]
        if (x0 == x1) == (y0 == y1):  # both equal: zero edge; both differ: diagonal
            return False
    return True


def _direction(p, q):
    return ((q[0] > p[0]) - (q[0] < p[0]), (q[1] > p[1]) - (q[1] < p[1]))


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


def is_simple_loop(loop):
    """True if the closed loop has no repeated vertices and no two
    non-adjacent edges touch or cross."""
    pts = _loop(loop)
    n = len(pts)
    if n < 3 or len(set(pts)) != n:
        return False
    for i in range(n):
        for j in range(i + 1, n):
            if j == i + 1 or (i == 0 and j == n - 1):
                continue
            if _segments_intersect(pts[i], pts[(i + 1) % n], pts[j], pts[(j + 1) % n]):
                return False
    return True


def normalize_loop(loop):
    """Canonical form of a rectilinear simple loop.

    Returns the loop CCW-oriented, with collinear midpoints removed, starting
    at the lexicographically smallest vertex. Raises NotRectilinear,
    SelfIntersecting, or DegenerateArea.
    """
    pts = _loop(loop)
    # drop consecutive duplicates (including the wraparound)
    dedup = []
    for p in pts:
        if not dedup or p != dedup[-1]:
            dedup.append(p)
    if len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    if len(dedup) < 4:
        raise DegenerateArea(f"loop collapses to {len(dedup)} vertices")
    if not _is_rectilinear(dedup):
        raise NotRectilinear(f"loop has a non-axis-aligned edge: {dedup}")

    # remove midpoints of straight runs; a 180-degree reversal is a spur
    changed = True
    while changed:
        changed = False
        n = len(dedup)
        for i in range(n):
            d_in = _direction(dedup[(i - 1) % n], dedup[i])
            d_out = _direction(dedup[i], dedup[(i + 1) % n])
            if d_in == d_out:
                dedup.pop(i)
                changed = True
                break
            if d_in == (-d_out[0], -d_out[1]):
                raise SelfIntersecting(f"boundary reverses onto itself at {dedup[i]}")
    if len(dedup) < 4:
        raise DegenerateArea("loop collapses below 4 vertices")

    if not is_simple_loop(dedup):
        raise SelfIntersecting("non-adjacent edges touch or cross")

    area2 = signed_area2(dedup)
    if area2 == 0:
        raise DegenerateArea("loop encloses zero area")
    if area2 < 0:
        dedup.reverse()

    start = min(range(len(dedup)), key=lambda i: dedup[i])
    return tuple(dedup[start:] + dedup[:start])


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


def min_distance(a, b, scale=None):
    """Minimum distance between the boundary point sets of two operands
    (polygons, door segments, or bare loops), converted to meters.

    Zero whenever the operands touch, cross, or one encloses the other.
    `scale` is a ScaleConfig (or bare meters-per-cell factor); omit it for
    plain cell units.

    An axis-aligned (or zero-length) edge is its own box, so two of them are
    as far apart as their boxes; a pair with a diagonal edge (a decoded door
    may be one) takes segment_distance.
    """
    edges_a = _edges_of(a)
    edges_b = _edges_of(b)
    boxes_b = [_box(q1, q2) for q1, q2 in edges_b]
    best = math.inf
    for p1, p2 in edges_a:
        box = _box(p1, p2)
        for (q1, q2), other in zip(edges_b, boxes_b):
            if box is None or other is None:
                d = segment_distance(p1, p2, q1, q2)
            else:
                ax0, ay0, ax1, ay1 = box
                bx0, by0, bx1, by1 = other
                gx = bx0 - ax1 if bx0 > ax1 else (ax0 - bx1 if ax0 > bx1 else 0)
                gy = by0 - ay1 if by0 > ay1 else (ay0 - by1 if ay0 > by1 else 0)
                d = math.hypot(gx, gy)
            if d < best:
                best = d
            if best == 0.0:
                break
        if best == 0.0:
            break
    if best > 0.0:
        # no boundary contact: one operand may still lie entirely inside
        # the other, which counts as overlap
        if _encloses(edges_a, edges_b[0][0]) or _encloses(edges_b, edges_a[0][0]):
            best = 0.0
    factor = getattr(scale, "meters_per_cell", scale)
    return best * float(1.0 if factor is None else factor)


def _encloses(edges, point):
    """Whether a closed loop of these edges strictly encloses point."""
    return len(edges) > 1 and point_strictly_inside(point, [p for p, _ in edges])
