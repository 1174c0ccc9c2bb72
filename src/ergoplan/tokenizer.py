"""Bidirectional codec between floor plans and flat token sequences.

A plan serializes as BOS, a boundary segment, a door segment, one segment
per room in plan order, then EOS. Each segment is a start token followed by
interleaved x/y coordinate tokens. Two parallel index streams accompany the
tokens: the xy-index (1 for x, 2 for y, 0 otherwise) and the vertex-index
(0 for start tokens, otherwise the 1-based vertex ordinal, repeated for the
pair). Decoding is total: any integer sequence yields either a plan or a
positioned failure, never an exception.
"""

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import ContextOverflow
from .plan import DoorSegment, FloorPlan, RoomPolygon, RoomType

DEFAULT_CONTEXT = 320
N_ROOM_TYPES = len(RoomType)


class Vocabulary:
    """Token id layout for a given grid resolution.

    ids 0..resolution-1 are coordinates; then the boundary and door start
    tokens, one start token per room type, and BOS/EOS/PAD.
    """

    def __init__(self, resolution=256):
        self.resolution = int(resolution)
        self.boundary_token = self.resolution
        self.door_token = self.resolution + 1
        self.room_token_base = self.resolution + 2
        self.bos = self.room_token_base + N_ROOM_TYPES
        self.eos = self.bos + 1
        self.pad = self.bos + 2
        self.size = self.pad + 1

    @classmethod
    def for_size(cls, size):
        """The vocabulary with `size` token ids (the inverse of `.size`)."""
        return cls(size - cls(0).size)

    def room_token(self, kind):
        return self.room_token_base + int(RoomType(kind))

    def room_type_of(self, token):
        if self.room_token_base <= token < self.room_token_base + N_ROOM_TYPES:
            return RoomType(token - self.room_token_base)
        return None

    def is_coordinate(self, token):
        return 0 <= token < self.resolution

    def describe(self, token):
        if self.is_coordinate(token):
            return str(token)
        if token == self.boundary_token:
            return "<boundary>"
        if token == self.door_token:
            return "<door>"
        kind = self.room_type_of(token)
        if kind is not None:
            return f"<{kind.name}>"
        return {self.bos: "<bos>", self.eos: "<eos>", self.pad: "<pad>"}.get(
            token, f"<invalid:{token}>"
        )


@dataclass(frozen=True)
class TokenSequence:
    """Token ids plus the two auxiliary index streams (equal lengths)."""

    tokens: tuple
    xy_index: tuple
    vertex_index: tuple

    def __post_init__(self):
        if not (len(self.tokens) == len(self.xy_index) == len(self.vertex_index)):
            raise ValueError("token and index streams must have equal length")

    def __len__(self):
        return len(self.tokens)


@dataclass(frozen=True)
class ParseOutcome:
    """Either a decoded plan or the first offending position and reason."""

    plan: FloorPlan | None = None
    position: int | None = None
    reason: str | None = None

    @property
    def ok(self):
        return self.plan is not None


def next_indices(token, previous, vocab):
    """The (xy, vertex) indices of `token` given those of the token before
    it, (0, 0) at the start. A non-coordinate token resets the pair counter;
    coordinate tokens alternate x/y and count vertex pairs from 1."""
    if not vocab.is_coordinate(token):
        return 0, 0
    xy, vertex = previous
    return (2, vertex) if xy == 1 else (1, vertex + 1)


def indices_for_tokens(tokens, vocab):
    """Rebuild the xy/vertex index streams for a raw token list."""
    xy = []
    vertex = []
    previous = (0, 0)
    for t in tokens:
        previous = next_indices(t, previous, vocab)
        xy.append(previous[0])
        vertex.append(previous[1])
    return tuple(xy), tuple(vertex)


def _segment_tokens(start, points):
    out = [start]
    for x, y in points:
        out.extend((int(x), int(y)))
    return out


def encode(plan, vocab=None, max_len=DEFAULT_CONTEXT):
    """Plan -> TokenSequence; raises ContextOverflow past `max_len` tokens."""
    vocab = vocab or Vocabulary(plan.resolution)
    tokens = [vocab.bos]
    tokens += _segment_tokens(vocab.boundary_token, plan.boundary)
    tokens += _segment_tokens(vocab.door_token, (plan.door.a, plan.door.b))
    for room in plan.rooms:
        tokens += _segment_tokens(vocab.room_token(room.kind), room.vertices)
    tokens.append(vocab.eos)
    if max_len is not None and len(tokens) > max_len:
        raise ContextOverflow(f"sequence length {len(tokens)} exceeds {max_len}")
    xy, vertex = indices_for_tokens(tokens, vocab)
    return TokenSequence(tuple(tokens), xy, vertex)


def decode(tokens, vocab):
    """Parse a raw token stream back into a plan.

    This checks the sequence grammar only (segment order, arity, pairing);
    geometric invariants of the decoded polygons are a separate concern,
    checked by plan validation and the evaluation metrics.
    """
    tokens = [int(t) for t in getattr(tokens, "tokens", tokens)]
    # a coordinate run ends at the first token outside [0, resolution)
    stops = [i for i, t in enumerate(tokens) if not 0 <= t < vocab.resolution]
    stops.append(len(tokens))

    def coordinate_run(pos):
        """(coordinates, (x, y) pairs, next position) of the run at pos."""
        end = stops[bisect_left(stops, pos)]
        coords = tokens[pos:end]
        return coords, list(zip(coords[::2], coords[1::2])), end

    def fail(position, reason):
        return ParseOutcome(position=position, reason=reason)

    pos = 0
    if pos >= len(tokens) or tokens[pos] != vocab.bos:
        return fail(pos, "expected BOS")
    pos += 1
    if pos >= len(tokens) or tokens[pos] != vocab.boundary_token:
        return fail(pos, "expected boundary start token")
    pos += 1
    coords, boundary, pos = coordinate_run(pos)
    if len(coords) % 2 == 1:
        return fail(pos, "unpaired coordinate in boundary")
    if len(coords) < 8:
        return fail(pos, "boundary needs at least 4 vertices")
    if pos >= len(tokens) or tokens[pos] != vocab.door_token:
        return fail(pos, "expected door start token")
    pos += 1
    coords, door_points, pos = coordinate_run(pos)
    if len(coords) != 4:
        return fail(pos, "door needs exactly 2 vertices")
    rooms = []
    while pos < len(tokens):
        kind = vocab.room_type_of(tokens[pos])
        if kind is None:
            break
        pos += 1
        coords, points, pos = coordinate_run(pos)
        if len(coords) % 2 == 1:
            return fail(pos, "unpaired coordinate in room")
        if len(coords) < 8:
            return fail(pos, "room needs at least 4 vertices")
        rooms.append(RoomPolygon(kind, tuple(points)))
    if pos >= len(tokens) or tokens[pos] != vocab.eos:
        return fail(pos, "expected EOS or a segment start token")
    pos += 1
    while pos < len(tokens):
        if tokens[pos] != vocab.pad:
            return fail(pos, "unexpected token after EOS")
        pos += 1
    plan = FloorPlan(
        resolution=vocab.resolution,
        boundary=tuple(boundary),
        door=DoorSegment(door_points[0], door_points[1]),
        rooms=tuple(rooms),
    )
    return ParseOutcome(plan=plan)


def room_coordinates(tokens, vocab):
    """Every room-segment coordinate token of a (rows, length) token array,
    as int arrays (row, position, room_index, vertex_index, axis) in
    row-major order; axis 0 is x, 1 is y. Rows may end in any padding that
    is not a coordinate token."""
    tokens = np.asarray(tokens)
    coordinate = (tokens >= 0) & (tokens < vocab.resolution)
    room = (tokens >= vocab.room_token_base) & (tokens < vocab.room_token_base + N_ROOM_TYPES)
    # the latest segment start at or before each position (-1 before any):
    # coordinates after it alternate x, y and count vertices from 0
    start = np.maximum.accumulate(np.where(coordinate, -1, np.arange(tokens.shape[1])), axis=1)
    in_room = np.take_along_axis(room, np.maximum(start, 0), axis=1) & (start >= 0)
    row, pos = np.nonzero(coordinate & in_room)
    k = pos - start[row, pos] - 1
    room_index = np.cumsum(room, axis=1)[row, pos] - 1
    return row, pos, room_index, k // 2, k % 2


def room_coordinate_positions(seq, vocab):
    """All positions of room-segment coordinate tokens, with their target:
    [(position, room_index, vertex_index, axis)] where axis 0 is x, 1 is y."""
    tokens = np.asarray(seq.tokens, dtype=np.int64).reshape(1, -1)
    _, *columns = room_coordinates(tokens, vocab)
    return list(zip(*(column.tolist() for column in columns)))


def boundary_door_prefix(seq, vocab):
    """Tokens up to the end of the door segment (BOS, boundary, door); the
    natural conditioning prefix for generation."""
    toks = getattr(seq, "tokens", seq)
    for i, t in enumerate(toks):
        if vocab.room_type_of(t) is not None or t == vocab.eos:
            return tuple(toks[:i])
    return tuple(toks)


def format_token_line(tokens):
    """One whitespace-separated line of token ids."""
    return " ".join(str(int(t)) for t in getattr(tokens, "tokens", tokens))


def parse_token_lines(text):
    """Inverse of format_token_line over multiple lines; skips blank lines."""
    sequences = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            sequences.append([int(tok) for tok in line.split()])
    return sequences
