import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import histogram_polygon, make_plan, rect
import oracles

from ergoplan import dataset, ergocost, geometry, metrics, tokenizer
from ergoplan.errors import ProtocolMismatch, SelfIntersecting
from ergoplan.metrics import EvalConfig, compare, evaluate
from ergoplan.plan import DoorSegment, RoomPolygon, RoomType, ScaleConfig

V = tokenizer.Vocabulary(256)
CFG = EvalConfig(scale=ScaleConfig(1.0))


def encoded_corpus(n=20, seed=0, de_ergo=0.5):
    corpus = dataset.synth_generate(n, seed=seed, cfg=dataset.SynthConfig(de_ergonomize_fraction=de_ergo))
    return corpus, [list(tokenizer.encode(p, V).tokens) for p in corpus.plans]


def test_round_trip_corpus_scores_perfectly():
    corpus, seqs = encoded_corpus()
    report = evaluate(seqs, CFG)
    assert report.parsability == 1.0
    assert report.validity == 1.0
    assert report.fully_covered == 1.0
    assert report.no_room_overlapping == 1.0
    assert report.n_sequences == report.n_parsed == report.n_valid == len(seqs)


def test_report_matches_per_plan_oracle():
    corpus, seqs = encoded_corpus(n=30, seed=3)
    report = evaluate(seqs, CFG)
    costs = []
    perfect = 0
    for plan in corpus.plans:
        r = ergocost.ergonomic_cost(plan, CFG.scale)
        if r.total is not None:
            costs.append(r.total)
            perfect += r.perfect
    assert report.n_cost_applicable == len(costs)
    assert report.ergonomic_cost == pytest.approx(np.mean(costs))
    assert report.perfect_ergonomic == pytest.approx(perfect / len(costs))


def test_unparseable_sequences_lower_parsability():
    _, seqs = encoded_corpus(n=10, seed=1)
    seqs[0] = seqs[0][:-3]  # truncated: no EOS
    seqs[1] = [5, 5, 5]
    report = evaluate(seqs, CFG)
    assert report.parsability == pytest.approx(0.8)
    assert report.n_parsed == 8
    # downstream metrics use the parsed denominator
    assert report.validity == 1.0


def test_self_intersecting_room_counts_against_validity():
    _, seqs = encoded_corpus(n=5, seed=2)
    seq = seqs[0]
    # rewrite the first room's polygon into a pinched (bowtie-like) loop
    plan = tokenizer.decode(seq, V).plan
    from conftest import make_plan
    from ergoplan.plan import RoomPolygon

    bad_room = RoomPolygon(
        plan.rooms[0].kind, ((0, 0), (8, 0), (8, 8), (16, 8), (16, 16), (8, 16), (8, 8), (0, 8))
    )
    bad_plan = type(plan)(
        resolution=plan.resolution,
        boundary=plan.boundary,
        door=plan.door,
        rooms=(bad_room,) + plan.rooms[1:],
    )
    seqs[0] = list(tokenizer.encode(bad_plan, V).tokens)
    report = evaluate(seqs, CFG)
    assert report.parsability == 1.0
    assert report.validity == pytest.approx(0.8)
    assert report.fully_covered <= 0.8
    assert report.no_room_overlapping <= 0.8


def test_coverage_tolerance():
    corpus, _ = encoded_corpus(n=1, seed=4, de_ergo=0.0)
    plan = corpus.plans[0]
    # drop one room: coverage falls below 1, overlap stays 0
    smaller = type(plan)(
        resolution=plan.resolution,
        boundary=plan.boundary,
        door=plan.door,
        rooms=plan.rooms[:-1],
    )
    seqs = [list(tokenizer.encode(smaller, V).tokens)]
    report = evaluate(seqs, CFG)
    assert report.fully_covered == 0.0
    assert report.no_room_overlapping == 1.0
    lost = geometry.polygon_area(plan.rooms[-1].vertices)
    total = geometry.polygon_area(plan.boundary)
    loose = evaluate(seqs, EvalConfig(scale=CFG.scale, coverage_tolerance=lost / total + 0.01))
    assert loose.fully_covered == 1.0


def test_coverage_ignores_room_area_outside_the_boundary():
    # half of the room lies outside the 32x32 boundary
    half_out = make_plan(
        rect(0, 0, 32, 32), ((0, 4), (0, 8)), [(RoomType.LivingRoom, rect(16, 0, 48, 32))]
    )
    assert metrics.plan_coverage(half_out) == (0.5, 0.0)
    # one room enclosing the whole boundary covers it exactly once
    enclosing = make_plan(
        rect(0, 0, 32, 32), ((0, 4), (0, 8)), [(RoomType.LivingRoom, rect(0, 0, 200, 200))]
    )
    assert metrics.plan_coverage(enclosing) == (1.0, 0.0)


def test_threads_give_identical_report():
    _, seqs = encoded_corpus(n=16, seed=5)
    serial = evaluate(seqs, CFG, threads=1)
    parallel = evaluate(seqs, CFG, threads=2)
    assert serial == parallel


def test_compare_identical_reports_zero_delta():
    _, seqs = encoded_corpus(n=8, seed=6)
    report = evaluate(seqs, CFG)
    deltas = compare(report, report)
    assert all(v == 0 for v in deltas.values() if v is not None)


def test_compare_sign_convention():
    _, seqs_a = encoded_corpus(n=10, seed=7, de_ergo=1.0)
    _, seqs_b = encoded_corpus(n=10, seed=7, de_ergo=0.0)
    worse = evaluate(seqs_a, CFG)
    better = evaluate(seqs_b, CFG)
    deltas = compare(worse, better)
    assert deltas["ergonomic_cost_improvement"] > 0  # b improves on a


def test_compare_mismatched_corpora_rejected():
    _, seqs_a = encoded_corpus(n=4, seed=8)
    _, seqs_b = encoded_corpus(n=6, seed=8)
    with pytest.raises(ProtocolMismatch):
        compare(evaluate(seqs_a, CFG), evaluate(seqs_b, CFG))


def test_reference_boundaries_protocol_check():
    _, seqs = encoded_corpus(n=4, seed=9)
    with pytest.raises(ProtocolMismatch):
        evaluate(seqs, CFG, reference_boundaries=[None] * 3)


def test_order_independence():
    _, seqs = encoded_corpus(n=12, seed=10)
    a = evaluate(seqs, CFG)
    b = evaluate(list(reversed(seqs)), CFG)
    assert a == b


def test_markdown_table_lists_denominators():
    _, seqs = encoded_corpus(n=5, seed=11)
    table = evaluate(seqs, CFG).to_markdown()
    assert "over 5 sequences" in table
    assert "| Parsability |" in table


def test_report_dict_round_trip():
    _, seqs = encoded_corpus(n=12, seed=5)
    seqs[0] = seqs[0][:-3]  # one unparsable sequence: ratios below 1
    for report in (evaluate(seqs, CFG), evaluate([], CFG)):
        assert metrics.EvalReport.from_dict(json.loads(report.to_json())) == report


def moved_edge_plan(seed, room, axis, upper, outward):
    """A synthetic tiling with one room's edge moved by one lattice step:
    the room's low or high x or y edge, outward (overlapping a neighbour or
    leaving the boundary) or inward (leaving a gap). Synthetic rooms are
    rectangles at least two lattice steps wide, so the room stays valid."""
    cfg = dataset.SynthConfig(de_ergonomize_fraction=0.5)
    plan = dataset.synth_plan(seed, cfg)
    index = room % len(plan.rooms)
    verts = plan.rooms[index].vertices
    edge = (max if upper else min)(v[axis] for v in verts)
    step = cfg.lattice_step if upper == outward else -cfg.lattice_step
    moved = tuple(
        tuple(c + step if k == axis and c == edge else c for k, c in enumerate(v)) for v in verts
    )
    rooms = list(plan.rooms)
    rooms[index] = RoomPolygon(rooms[index].kind, moved)
    return dataclasses.replace(plan, rooms=tuple(rooms))


def skyline_plan(seed, bases):
    """Random rectilinear skyline rooms that may overlap one another and
    cross the 64 x 64 boundary."""
    rng = np.random.default_rng(seed)
    rooms = [
        (RoomType.LivingRoom, histogram_polygon(rng, columns=int(rng.integers(1, 5)), base=base))
        for base in bases
    ]
    return make_plan(rect(0, 0, 64, 64), ((0, 4), (0, 8)), rooms)


class TestCoverageProperties:
    @settings(max_examples=60)
    @given(
        st.integers(0, 2**31 - 1),
        st.integers(0, 7),
        st.integers(0, 1),
        st.booleans(),
        st.booleans(),
    )
    def test_moved_edge(self, seed, room, axis, upper, outward):
        covered, overlap = metrics.plan_coverage(moved_edge_plan(seed, room, axis, upper, outward))
        assert 0.0 <= covered <= 1.0
        assert overlap >= 0.0
        if outward:
            assert covered == 1.0  # the other rooms still tile the boundary
        else:
            assert covered < 1.0 and overlap == 0.0

    @settings(max_examples=60)
    @given(
        st.integers(0, 2**31 - 1),
        st.lists(st.tuples(st.integers(-8, 60), st.integers(-8, 60)), min_size=1, max_size=4),
    )
    def test_skyline_rooms(self, seed, bases):
        covered, overlap = metrics.plan_coverage(skyline_plan(seed, bases))
        assert 0.0 <= covered <= 1.0
        assert overlap >= 0.0


def oracle_evaluate(seqs, cfg):
    """metrics.evaluate with the earlier per-chunk tally (validity, coverage
    and normalization as they were) and the earlier distance kernel."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metrics, "_tally", oracles.metrics_tally)
        patch.setattr(ergocost, "min_distance", oracles.min_distance)
        return metrics.evaluate(seqs, cfg)


def oracle_cost(plan, scale):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ergocost, "min_distance", oracles.min_distance)
        return ergocost.ergonomic_cost(plan, scale)


def mixed_sequences(seed):
    """Encoded plans of four kinds: clean synthetic tilings, tilings with a
    moved room edge (unparsable when the edge leaves the grid), skyline
    rooms that overlap and cross the boundary, and tilings with one room
    vertex off its axis (invalid); and one sequence with a coordinate
    dropped (unparsable)."""
    rng = np.random.default_rng(seed)
    cfg = dataset.SynthConfig(de_ergonomize_fraction=0.5)
    plans = [dataset.synth_plan(seed + i, cfg) for i in range(3)]
    plans += [
        moved_edge_plan(seed + i, int(rng.integers(8)), int(rng.integers(2)), *rng.integers(0, 2, 2) == 1)
        for i in range(3)
    ]
    plans += [skyline_plan(seed + i, [tuple(map(int, rng.integers(0, 60, 2)))]) for i in range(1, 4)]
    seqs = [list(tokenizer.encode(p, V).tokens) for p in plans]
    for i in range(3):
        bad = list(tokenizer.encode(dataset.synth_plan(seed + 10 + i, cfg), V).tokens)
        bad[bad.index(V.door_token) + 6] += 1  # the first room's first x leaves its edge
        seqs.append(bad)
    seqs.append(seqs[0][:5] + seqs[0][6:])
    return seqs


class TestOracleIdentity:
    """Coverage, costs and reports equal the earlier evaluation exactly."""

    @settings(max_examples=60)
    @given(
        st.integers(0, 2**31 - 1),
        st.integers(0, 7),
        st.integers(0, 1),
        st.booleans(),
        st.booleans(),
    )
    def test_coverage_moved_edge(self, seed, room, axis, upper, outward):
        plan = moved_edge_plan(seed, room, axis, upper, outward)
        assert metrics.plan_coverage(plan) == oracles.plan_coverage(plan)

    @settings(max_examples=60)
    @given(
        st.integers(0, 2**31 - 1),
        st.lists(st.tuples(st.integers(-8, 60), st.integers(-8, 60)), min_size=1, max_size=4),
    )
    def test_coverage_skyline_rooms(self, seed, bases):
        plan = skyline_plan(seed, bases)
        assert metrics.plan_coverage(plan) == oracles.plan_coverage(plan)

    @settings(max_examples=15)
    @given(st.integers(0, 2**31 - 1))
    def test_evaluate(self, seed):
        seqs = mixed_sequences(seed)
        report = evaluate(seqs, CFG)
        assert report.n_parsed < report.n_sequences and report.n_valid <= report.n_parsed - 3
        assert report == oracle_evaluate(seqs, CFG)

    def test_invalid_room_raises(self):
        # a pinched room: the boundary is checked first, then rooms in order
        plan = make_plan(
            rect(0, 0, 32, 32),
            ((0, 4), (0, 8)),
            [(RoomType.Kitchen, ((0, 0), (8, 0), (8, 8), (16, 8), (16, 16), (8, 16), (8, 8), (0, 8)))],
        )
        with pytest.raises(SelfIntersecting):
            metrics.plan_coverage(plan)
        assert not oracles.plan_is_valid(plan)


@pytest.mark.parametrize(
    "door",
    [
        lambda x0, y0, x1, y1: ((x0, y0), (x1, y1)),  # diagonal, across every room
        lambda x0, y0, x1, y1: ((x0 + 1, y0 + 2), (x0 + 4, y0 + 3)),  # short diagonal in a corner room
        lambda x0, y0, x1, y1: ((x1 + 3, y0), (x1 + 7, y0 + 9)),  # diagonal outside the plan
        lambda x0, y0, x1, y1: ((x0, y0 + 1), (x0, y0 + 1)),  # a == b on the boundary
        lambda x0, y0, x1, y1: (((x0 + x1) // 2 + 1, (y0 + y1) // 2), ((x0 + x1) // 2 + 1, (y0 + y1) // 2)),
    ],
    ids=["diagonal-across", "diagonal-corner", "diagonal-outside", "point-on-boundary", "point-inside"],
)
def test_degenerate_door_is_costed_as_before(door):
    """Validity ignores the door, so a generated plan whose door is diagonal
    or a single point is still costed; such door edges take the general
    segment distance (a point is its own box)."""
    for seed in range(4):
        plan = dataset.synth_plan(seed, dataset.SynthConfig(de_ergonomize_fraction=0.5))
        xs, ys = [x for x, _ in plan.boundary], [y for _, y in plan.boundary]
        a, b = door(min(xs), min(ys), max(xs), max(ys))
        seq = list(tokenizer.encode(dataclasses.replace(plan, door=DoorSegment(a, b)), V).tokens)
        decoded = tokenizer.decode(seq, V).plan
        assert (decoded.door.a, decoded.door.b) == (a, b)
        report = ergocost.ergonomic_cost(decoded, CFG.scale)
        assert report.applicable_terms["entrances"]
        assert report == oracle_cost(decoded, CFG.scale)
        evaluated = evaluate([seq], CFG)
        assert evaluated.n_valid == 1
        assert evaluated == oracle_evaluate([seq], CFG)
