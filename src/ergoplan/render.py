"""SVG rendering of floor plans for visual inspection."""

from .plan import RoomType

DEFAULT_COLORS = {
    RoomType.LivingRoom: "#A6C8E0",
    RoomType.MasterRoom: "#F4B6A6",
    RoomType.Kitchen: "#B8D8BA",
    RoomType.Bathroom: "#F2C1C1",
    RoomType.DiningRoom: "#C6B7E2",
    RoomType.ChildRoom: "#D3B8AE",
    RoomType.StudyRoom: "#F0CDE3",
    RoomType.SecondRoom: "#CFCFCF",
    RoomType.GuestRoom: "#D8E2A8",
    RoomType.Balcony: "#BFE4E8",
    RoomType.Entrance: "#E1ECF7",
    RoomType.Storage: "#FFE0B5",
    RoomType.WallIn: "#CFEBC7",
}

STROKE = "#333333"
STROKE_WIDTH = 1.0  # rooms; the boundary is drawn twice as wide
DOOR_COLOR = "#CC3333"
DOOR_WIDTH = 3.0


def _path_d(vertices):
    head = f"M {vertices[0][0]},{vertices[0][1]}"
    tail = " ".join(f"L {x},{y}" for x, y in vertices[1:])
    return f"{head} {tail} Z"


def render_svg(plan):
    """Deterministic SVG 1.1 document: one filled path per room, the
    boundary outline, and the door as a thick segment. Grid y grows
    downward, matching SVG's native orientation."""
    r = plan.resolution
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="0 0 {r} {r}">',
        f'<rect width="{r}" height="{r}" fill="#FFFFFF"/>',
    ]
    for room in plan.rooms:
        color = DEFAULT_COLORS[room.kind]
        lines.append(
            f'<path d="{_path_d(room.vertices)}" fill="{color}" '
            f'stroke="{STROKE}" stroke-width="{STROKE_WIDTH}">'
            f"<title>{room.kind.name}</title></path>"
        )
    lines.append(
        f'<path d="{_path_d(plan.boundary)}" fill="none" '
        f'stroke="{STROKE}" stroke-width="{2 * STROKE_WIDTH}"/>'
    )
    (ax, ay), (bx, by) = plan.door.a, plan.door.b
    lines.append(
        f'<line x1="{ax}" y1="{ay}" x2="{bx}" y2="{by}" '
        f'stroke="{DOOR_COLOR}" stroke-width="{DOOR_WIDTH}"/>'
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
