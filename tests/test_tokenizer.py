import dataclasses

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_plan, rect

from ergoplan import tokenizer
from ergoplan.dataset import SynthConfig, synth_plan
from ergoplan.errors import ContextOverflow
from ergoplan.plan import DoorSegment, FloorPlan, RoomPolygon, RoomType
from ergoplan.tokenizer import TokenSequence, Vocabulary, decode, encode

V = Vocabulary(256)


def test_vocabulary_layout_frozen():
    assert V.boundary_token == 256
    assert V.door_token == 257
    assert V.room_token(RoomType.LivingRoom) == 258
    assert V.room_token(RoomType.WallIn) == 270
    assert V.bos == 271
    assert V.eos == 272
    assert V.pad == 273
    assert V.size == 274


def test_encode_boundary_door_only():
    plan = make_plan(
        boundary=((0, 0), (16, 0), (16, 16), (0, 16)),
        door=((0, 4), (0, 8)),
        rooms=[],
        resolution=256,
    )
    seq = encode(plan, V)
    s_b, s_d, bos, eos = V.boundary_token, V.door_token, V.bos, V.eos
    assert seq.tokens == (bos, s_b, 0, 0, 16, 0, 16, 16, 0, 16, s_d, 0, 4, 0, 8, eos)
    assert seq.xy_index == (0, 0, 1, 2, 1, 2, 1, 2, 1, 2, 0, 1, 2, 1, 2, 0)
    assert seq.vertex_index == (0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 0, 1, 1, 2, 2, 0)


def test_encode_kitchen_segment():
    plan = make_plan(
        boundary=((0, 0), (16, 0), (16, 16), (0, 16)),
        door=((0, 4), (0, 8)),
        rooms=[(RoomType.Kitchen, rect(0, 0, 8, 8))],
    )
    seq = encode(plan, V)
    start = seq.tokens.index(V.room_token(RoomType.Kitchen))
    assert seq.tokens[start + 1 : start + 9] == (0, 0, 8, 0, 8, 8, 0, 8)
    assert seq.xy_index[start : start + 9] == (0, 1, 2, 1, 2, 1, 2, 1, 2)
    assert seq.vertex_index[start : start + 9] == (0, 1, 1, 2, 2, 3, 3, 4, 4)
    assert seq.tokens[start + 9] == V.eos


def test_encode_context_overflow():
    plan = synth_plan(0)
    with pytest.raises(ContextOverflow):
        encode(plan, V, max_len=10)


def test_round_trip(tiling_plan, spread_plan):
    for plan in (tiling_plan, spread_plan):
        out = decode(encode(plan, V), V)
        assert out.ok and out.plan == plan


def test_round_trip_synthetic():
    cfg = SynthConfig(de_ergonomize_fraction=0.3)
    for seed in range(50):
        plan = synth_plan(seed, cfg)
        out = decode(encode(plan, V), V)
        assert out.ok and out.plan == plan


def test_missing_door_fails_at_room_start(tiling_plan):
    seq = list(encode(tiling_plan, V).tokens)
    door_at = seq.index(V.door_token)
    del seq[door_at : door_at + 5]
    out = decode(seq, V)
    assert not out.ok
    assert out.position == door_at
    assert "door" in out.reason


def test_odd_room_coordinates_fail(tiling_plan):
    seq = list(encode(tiling_plan, V).tokens)
    del seq[-2]  # drop one coordinate of the last room
    out = decode(seq, V)
    assert not out.ok
    assert "unpaired" in out.reason


def test_short_room_fails():
    s_r = V.room_token(RoomType.Kitchen)
    seq = (
        [V.bos, V.boundary_token, 0, 0, 16, 0, 16, 16, 0, 16]
        + [V.door_token, 0, 4, 0, 8]
        + [s_r, 1, 2, 3, 4]
        + [V.eos]
    )
    out = decode(seq, V)
    assert not out.ok
    assert "at least 4 vertices" in out.reason


def test_decode_reports_first_bad_position():
    out = decode([V.eos], V)
    assert not out.ok and out.position == 0
    out = decode([V.bos, V.bos], V)
    assert not out.ok and out.position == 1


def test_trailing_pad_allowed(tiling_plan):
    seq = list(encode(tiling_plan, V).tokens) + [V.pad, V.pad]
    assert decode(seq, V).ok
    seq.append(5)
    assert not decode(seq, V).ok


def test_decode_is_total_on_fuzz(rng):
    for _ in range(500):
        n = int(rng.integers(0, 60))
        seq = rng.integers(0, V.size, size=n).tolist()
        out = decode(seq, V)
        assert out.ok or (out.position is not None and out.reason)


def mutated_encoding(seed):
    """A synthetic plan's tokens after a few random replacements, insertions
    and deletions, with out-of-range ids and trailing pads among them."""
    rng = np.random.default_rng(seed)
    tokens = list(encode(synth_plan(seed % 50), V).tokens) + [V.pad] * int(rng.integers(0, 3))
    for _ in range(int(rng.integers(0, 4))):
        at = int(rng.integers(len(tokens) + 1))
        token = int(rng.integers(-2, V.size + 2)) if rng.random() < 0.5 else int(rng.integers(0, 256))
        op = rng.random()
        if op < 0.4:
            tokens.insert(at, token)
        elif at < len(tokens):
            if op < 0.7:
                del tokens[at]
            else:
                tokens[at] = token
    return tokens


def typed(value):
    """value as nested (type, parts) pairs, so that == also tells
    2 from RoomType.Kitchen and 3 from 3.0."""
    if dataclasses.is_dataclass(value):
        parts = tuple(typed(getattr(value, f.name)) for f in dataclasses.fields(value))
    elif isinstance(value, tuple):
        parts = tuple(typed(v) for v in value)
    else:
        parts = value
    return type(value), parts


@settings(max_examples=300)
@given(st.integers(0, 2**32 - 1), st.lists(st.integers(-2, V.size + 1), max_size=40))
def test_decode_same_as_earlier_decoder(seed, stream):
    """Reading each coordinate run as one slice gives the earlier
    per-token decoder's outcome, types included, from lists and numpy
    arrays alike: the same plan, or the same failure position and reason.
    A decoded plan, built without the public constructors, has RoomType
    kinds and Python int coordinates, and equals, hashes like and has the
    types of the plan the constructors build from loose values."""
    for tokens in (mutated_encoding(seed), stream, [V.bos, V.boundary_token, *stream]):
        expected = typed(oracles.decode(tokens, V))
        assert typed(decode(tokens, V)) == expected
        assert typed(decode(np.array(tokens, dtype=np.int64), V)) == expected
        plan = decode(tokens, V).plan
        if plan is None:
            continue
        assert all(type(room.kind) is RoomType for room in plan.rooms)
        rooms = [room.vertices for room in plan.rooms]
        points = [*plan.boundary, plan.door.a, plan.door.b, *(p for loop in rooms for p in loop)]
        assert all(type(p) is tuple and [type(c) for c in p] == [int, int] for p in points)
        rebuilt = FloorPlan(
            resolution=plan.resolution,
            boundary=[[float(x), y] for x, y in plan.boundary],
            door=DoorSegment(np.array(plan.door.a), list(plan.door.b)),
            rooms=[RoomPolygon(int(room.kind), [list(p) for p in room.vertices]) for room in plan.rooms],
        )
        assert plan == rebuilt and hash(plan) == hash(rebuilt)
        assert typed(rebuilt) == typed(plan)


def room_coordinate_positions(seq):
    """room_coordinates of one sequence, as lists (row, position, room,
    vertex, axis)."""
    return [column.tolist() for column in tokenizer.room_coordinates(np.array([seq.tokens]), V)]


def test_room_vertex_coordinate_classification(tiling_plan):
    seq = encode(tiling_plan, V)
    toks = seq.tokens
    room_coords = set(room_coordinate_positions(seq)[1])
    # boundary coordinate
    assert 2 not in room_coords
    # door coordinate
    door_at = toks.index(V.door_token)
    assert door_at + 1 not in room_coords
    # kitchen's 3rd coordinate
    kitchen_at = toks.index(V.room_token(RoomType.Kitchen))
    assert kitchen_at + 3 in room_coords
    # start tokens are not coordinates
    assert kitchen_at not in room_coords
    # exactly the coordinates from the first room segment on, all in range
    first_room = min(i for i, t in enumerate(toks) if V.room_type_of(t) is not None)
    assert room_coords == {i for i in range(first_room, len(toks)) if V.is_coordinate(toks[i])}


def test_room_coordinate_positions_cover_all_rooms(spread_plan):
    seq = encode(spread_plan, V)
    rows, *positions = room_coordinate_positions(seq)
    # 6 rectangle rooms, 4 vertices, 2 coordinates each
    assert rows == [0] * (6 * 4 * 2)
    for pos, room_idx, vert_idx, axis in zip(*positions, strict=True):
        token = seq.tokens[pos]
        expected = spread_plan.rooms[room_idx].vertices[vert_idx][axis]
        assert token == expected
        assert seq.xy_index[pos] == axis + 1
        assert seq.vertex_index[pos] == vert_idx + 1


def test_index_streams_pattern(rng):
    for seed in range(20):
        seq = encode(synth_plan(seed), V)
        assert len(seq.tokens) == len(seq.xy_index) == len(seq.vertex_index)
        xy, vert = tokenizer.indices_for_tokens(seq.tokens, V)
        assert xy == seq.xy_index and vert == seq.vertex_index
        # within every segment: xy pattern 0,(1,2)*; vertex 0,(k,k)*
        for i, t in enumerate(seq.tokens):
            if not V.is_coordinate(t):
                assert seq.xy_index[i] == 0 and seq.vertex_index[i] == 0


def test_boundary_door_prefix(tiling_plan):
    seq = encode(tiling_plan, V)
    prefix = tokenizer.boundary_door_prefix(seq, V)
    assert prefix[0] == V.bos
    assert prefix[-1] == 8  # last door coordinate
    assert V.room_type_of(seq.tokens[len(prefix)]) is not None


def test_token_line_round_trip(tiling_plan):
    seq = encode(tiling_plan, V)
    line = tokenizer.format_token_line(seq)
    parsed = tokenizer.parse_token_lines(line + "\n\n")
    assert parsed == [list(seq.tokens)]


def test_equal_length_streams_enforced():
    with pytest.raises(ValueError):
        TokenSequence((1, 2), (0,), (0, 0))
