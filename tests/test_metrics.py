import numpy as np
import pytest

from conftest import make_plan, rect

from ergoplan import dataset, ergocost, geometry, metrics, tokenizer
from ergoplan.errors import ProtocolMismatch
from ergoplan.metrics import EvalConfig, compare, evaluate
from ergoplan.plan import RoomType, ScaleConfig

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
