"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Criterion 8 trains two
small models and takes the bulk of the runtime (several minutes; the stated
budget is 30 CPU-minutes).
"""

import json
import math
import os
import time

import numpy as np
import pytest

from conftest import make_plan, rect
from oracles import loss_finite_difference, naive_ergonomic_cost

from ergoplan import cli, dataset, ergocost, ergoloss, guidance, metrics, model, tokenizer
from ergoplan.dataset import SynthConfig
from ergoplan.ergoloss import SoftParams, VertexPlan
from ergoplan.plan import RoomType, ScaleConfig

V = tokenizer.Vocabulary(256)

_RESULTS = []


def record(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:>2} {'PASS' if ok else 'FAIL'}: {name}" + (
        f" ({detail})" if detail else ""
    )
    _RESULTS.append(line)
    print("\n" + line)
    assert ok, line


def host():
    """What a quoted checksum or cost is tied to besides the code: the BLAS
    thread count and the CPUs training may spread its row halves over."""
    blas = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    return f"OPENBLAS_NUM_THREADS {blas}, {len(os.sched_getaffinity(0))} CPUs"


def test_criterion_01_gradient_fidelity():
    """Analytic loss gradients match central finite differences on 100
    random plans (h = 1e-4 cells, max scaled error < 1e-4, < 30 s)."""
    params = SoftParams()
    cfg = SynthConfig(de_ergonomize_fraction=0.5)
    start = time.perf_counter()
    worst = 0.0
    checked = 0
    seed = 0
    while checked < 100:
        plan = dataset.synth_plan(seed, cfg)
        seed += 1
        vplan = VertexPlan.from_plan(plan)
        breakdown, analytic = ergoloss.ergonomic_loss_grad(vplan, params)
        if breakdown.total is None:
            continue
        fd = loss_finite_difference(vplan, params, h=1e-4)
        scale = max(max(np.abs(g).max() for g in fd), 1e-8)
        err = max(np.abs(a - f).max() for a, f in zip(analytic, fd)) / scale
        worst = max(worst, err)
        checked += 1
    elapsed = time.perf_counter() - start
    record(
        1,
        "gradient fidelity",
        worst < 1e-4 and elapsed < 30.0,
        f"max scaled error {worst:.2e} over {checked} plans in {elapsed:.1f}s",
    )


def test_criterion_02_softmin_limit():
    """|soft distance - min| < 1e-6 whenever beta * gap > 40 (beta = 10)."""
    rng = np.random.default_rng(7)
    params = SoftParams(beta=10.0, meters_per_cell=1.0)
    worst = 0.0
    for _ in range(200):
        base = float(rng.random() * 40)
        n = int(rng.integers(2, 12))
        gap = 4.0 + float(rng.random() * 10)  # beta * gap > 40
        others = base + gap + rng.random(n - 1) * 30
        values = np.concatenate([[base], others])
        # collinear single-vertex sets realize exactly this distance vector
        p = np.zeros((1, 2))
        q = np.stack([values, np.zeros_like(values)], axis=1)
        d = ergoloss.soft_distance(p, q, params)
        worst = max(worst, abs(d - base))
    record(2, "softmin limit", worst < 1e-6, f"max |D - min| = {worst:.2e}")


def _hand_plans():
    plans = [
        make_plan(
            rect(0, 0, 40, 40),
            ((0, 2), (0, 6)),
            [
                (RoomType.Entrance, rect(0, 0, 8, 8)),
                (RoomType.Kitchen, rect(24, 0, 32, 8)),
                (RoomType.DiningRoom, rect(36, 0, 40, 8)),
                (RoomType.Bathroom, rect(0, 24, 8, 32)),
                (RoomType.LivingRoom, rect(16, 24, 24, 32)),
                (RoomType.Balcony, rect(32, 32, 40, 40)),
            ],
        ),
        make_plan(
            rect(0, 0, 64, 64),
            ((0, 4), (0, 12)),
            [
                (RoomType.Entrance, rect(0, 0, 16, 16)),
                (RoomType.Entrance, rect(48, 48, 64, 64)),
                (RoomType.Kitchen, rect(16, 0, 32, 16)),
                (RoomType.Kitchen, rect(32, 48, 48, 64)),
                (RoomType.DiningRoom, rect(0, 16, 16, 32)),
                (RoomType.MasterRoom, rect(32, 16, 48, 32)),
                (RoomType.Bathroom, rect(48, 0, 64, 16)),
                (RoomType.Balcony, rect(0, 48, 16, 64)),
            ],
        ),
        make_plan(
            rect(0, 0, 48, 48),
            ((20, 0), (28, 0)),
            [
                (RoomType.Entrance, rect(16, 0, 32, 16)),
                (RoomType.SecondRoom, rect(0, 0, 16, 16)),
                (RoomType.StudyRoom, rect(32, 0, 48, 16)),
                (RoomType.Bathroom, rect(0, 32, 16, 48)),
                (RoomType.Balcony, rect(32, 32, 48, 48)),
            ],
        ),
    ]
    seed = 0
    while len(plans) < 50:
        plans.append(dataset.synth_plan(seed, SynthConfig(de_ergonomize_fraction=0.5)))
        seed += 1
    return plans


def test_criterion_03_cost_oracle_equivalence():
    """Hard cost equals an independent naive reimplementation to 1e-9 m."""
    scale = ScaleConfig()
    worst = 0.0
    for plan in _hand_plans():
        expected = naive_ergonomic_cost(plan, scale.meters_per_cell)
        got = ergocost.ergonomic_cost(plan, scale).total
        if expected is None:
            assert got is None
            continue
        worst = max(worst, abs(got - expected))
    record(3, "cost oracle equivalence", worst < 1e-9, f"max |diff| = {worst:.2e} m over 50 plans")


def test_criterion_04_invariances():
    """Isometry invariance and meters-per-cell doubling hold exactly on
    1000 random plans."""
    cfg = SynthConfig(de_ergonomize_fraction=0.5)
    scale = ScaleConfig(0.25)
    double = ScaleConfig(0.5)
    failures = 0
    for seed in range(1000):
        plan = dataset.synth_plan(seed, cfg)
        base = ergocost.ergonomic_cost(plan, scale).total
        rotated = dataset.rotate_plan(plan, (seed % 3) + 1)
        mirrored = dataset.mirror_plan(plan)
        ok = (
            ergocost.ergonomic_cost(rotated, scale).total == base
            and ergocost.ergonomic_cost(mirrored, scale).total == base
            and ergocost.ergonomic_cost(plan, double).total == 2.0 * base
        )
        failures += not ok
    record(4, "cost invariances", failures == 0, f"{failures} failures over 1000 plans")


def test_criterion_05_tokenizer_round_trip_and_fuzz():
    """decode(encode(p)) == p for 10,000 plans; decode survives 10,000
    fuzzed sequences."""
    cfg = SynthConfig(de_ergonomize_fraction=0.5)
    bad_round_trips = 0
    for seed in range(10_000):
        plan = dataset.synth_plan(seed, cfg)
        out = tokenizer.decode(tokenizer.encode(plan, V), V)
        bad_round_trips += not (out.ok and out.plan == plan)

    rng = np.random.default_rng(123)
    crashes = 0
    base = list(tokenizer.encode(dataset.synth_plan(0, cfg), V).tokens)
    for i in range(10_000):
        if i % 2 == 0:
            seq = rng.integers(0, V.size, size=int(rng.integers(0, 80))).tolist()
        else:  # corrupted valid sequence: nastier structural fuzz
            seq = list(base)
            for _ in range(int(rng.integers(1, 6))):
                op = rng.integers(3)
                if op == 0 and len(seq) > 1:
                    del seq[int(rng.integers(len(seq)))]
                elif op == 1:
                    seq.insert(int(rng.integers(len(seq) + 1)), int(rng.integers(V.size)))
                else:
                    seq[int(rng.integers(len(seq)))] = int(rng.integers(V.size))
        try:
            out = tokenizer.decode(seq, V)
            assert out.ok or (out.position is not None and out.reason)
        except Exception:
            crashes += 1
    record(
        5,
        "tokenizer round trip + fuzz",
        bad_round_trips == 0 and crashes == 0,
        f"{bad_round_trips} bad round trips, {crashes} decode crashes",
    )


def test_criterion_06_expected_token_cases():
    """One-hot, symmetric-window, and two-term closed-form cases to 1e-12."""
    cfg = guidance.GuidanceConfig(resolution=256)

    def row(probs):
        out = np.zeros(V.size)
        for tok, p in probs.items():
            out[tok] = p
        return out

    rows = [row({100: 1.0}), row({99: 0.25, 100: 0.5, 101: 0.25}), row({100: 0.6, 101: 0.4})]
    v1, v2, v3 = guidance.collapse(np.array(rows), cfg)[0].tolist()
    w = math.exp(-0.5)
    expected3 = (0.6 * 100 + 0.4 * w * 101) / (0.6 + 0.4 * w) / 256
    errs = (
        abs(v1 - 100 / 256),
        abs(v2 - 100 / 256),
        abs(v3 - expected3),
    )
    record(6, "expected token cases", max(errs) < 1e-12, f"errors {[f'{e:.1e}' for e in errs]}")


def test_criterion_07_alpha_schedule():
    """alpha(0) = 0, alpha(gamma) = 1, alpha(1.5 gamma) = 1 with gamma = 30."""
    cfg = guidance.GuidanceConfig(gamma=30.0)
    ok = (
        guidance.alpha(0.0, cfg) == 0.0
        and guidance.alpha(30.0, cfg) == 1.0
        and guidance.alpha(45.0, cfg) == 1.0
    )
    record(7, "alpha schedule", ok)


# Training recipe for the directional experiment. Steps stay well inside
# the 5000-step budget; the mixing scale gamma follows the same derivation
# as the default (set from the ground-truth loss distribution): this
# corpus's losses have p95 ~3.3 m and max ~4.6 m, giving gamma = 5.
TRAIN_ARGS = [
    "--steps", "1500",
    "--batch-size", "16",
    "--lr", "0.001",
    "--gamma", "5.0",
    "--layers", "4",
    "--heads", "4",
    "--embed-dim", "64",
    "--context", "128",
    "--log-every", "0",
]


def _run_arm(tmp_path, corpus_dir, holdout_dir, guided):
    label = "guided" if guided else "baseline"
    ckpt = tmp_path / f"{label}.npz"
    tokens = tmp_path / f"{label}.tokens"
    report_file = tmp_path / f"{label}.report.json"
    assert (
        cli.main(
            ["--seed", "0", "train", "--corpus", str(corpus_dir), "--out", str(ckpt),
             "--guided", "on" if guided else "off", *TRAIN_ARGS]
        )
        == 0
    )
    assert (
        cli.main(
            ["generate", "--checkpoint", str(ckpt), "--prefixes", str(holdout_dir),
             "--out", str(tokens)]
        )
        == 0
    )
    assert (
        cli.main(
            ["--format", "json", "eval", str(tokens), "--out", str(report_file)]
        )
        == 0
    )
    return metrics.EvalReport.from_dict(json.loads(report_file.read_text()))


def test_criterion_08_guided_beats_baseline(tmp_path):
    """Toy model trained twice from one seed; guided must beat the baseline
    on mean ergonomic cost without losing more than 0.05 parsability."""
    start = time.perf_counter()
    corpus_dir = tmp_path / "train-corpus"
    holdout_dir = tmp_path / "holdout"
    assert cli.main(
        ["--seed", "100", "synth", "--n", "1000", "--out", str(corpus_dir),
         "--de-ergonomize-fraction", "0.5"]
    ) == 0
    assert cli.main(
        ["--seed", "200", "synth", "--n", "200", "--out", str(holdout_dir),
         "--de-ergonomize-fraction", "0.5"]
    ) == 0

    baseline = _run_arm(tmp_path, corpus_dir, holdout_dir, guided=False)
    guided = _run_arm(tmp_path, corpus_dir, holdout_dir, guided=True)
    elapsed = time.perf_counter() - start

    cost_ok = (
        guided.ergonomic_cost is not None
        and baseline.ergonomic_cost is not None
        and guided.ergonomic_cost < baseline.ergonomic_cost
    )
    parsability_ok = guided.parsability >= baseline.parsability - 0.05
    coverage_delta = guided.fully_covered - baseline.fully_covered  # reported, not gated
    detail = (
        f"cost {baseline.ergonomic_cost:.3f} -> {guided.ergonomic_cost:.3f} m, "
        f"parsability {baseline.parsability:.3f} -> {guided.parsability:.3f}, "
        f"coverage delta {coverage_delta:+.3f} (not gated), "
        f"{elapsed / 60:.1f} min, {host()}"
    )
    record(8, "guided beats baseline", cost_ok and parsability_ok and elapsed < 1800, detail)


def test_criterion_09_determinism(tmp_path):
    """Identical seeded runs give identical parameter checksums and
    identical evaluation reports."""
    corpus = dataset.synth_generate(40, seed=17, cfg=SynthConfig(de_ergonomize_fraction=0.5))
    samples = [(tokenizer.encode(p, V), p) for p in corpus.plans]
    holdout = dataset.synth_generate(20, seed=18, cfg=SynthConfig(de_ergonomize_fraction=0.5))
    prefixes = [
        tokenizer.boundary_door_prefix(tokenizer.encode(p, V), V) for p in holdout.plans
    ]
    mcfg = model.ModelConfig(layers=2, heads=2, embed_dim=32, context_len=128, seed=1)
    tcfg = model.TrainConfig(steps=120, batch_size=8, guided=True, seed=1, lr=1e-3)

    checksums = []
    reports = []
    for _ in range(2):
        state, _ = model.train(samples, mcfg, tcfg, guidance.GuidanceConfig())
        checksums.append(model.parameter_checksum(state.params))
        net = model.Model(mcfg, state.params)
        outs = net.generate_batch(prefixes)
        reports.append(metrics.evaluate([list(t) for t, _ in outs], metrics.EvalConfig()))
    ok = checksums[0] == checksums[1] and reports[0] == reports[1]
    record(9, "determinism", ok, f"checksum {checksums[0][:12]}, {host()}")


def test_criterion_10_metrics_sanity():
    """A corpus of encoded valid tiling plans scores 1.0 on all four
    binary metrics."""
    corpus = dataset.synth_generate(200, seed=31, cfg=SynthConfig(de_ergonomize_fraction=0.5))
    seqs = [list(tokenizer.encode(p, V).tokens) for p in corpus.plans]
    report = metrics.evaluate(seqs, metrics.EvalConfig())
    ok = (
        report.parsability == 1.0
        and report.validity == 1.0
        and report.fully_covered == 1.0
        and report.no_room_overlapping == 1.0
    )
    record(10, "metrics sanity", ok, report.to_markdown().splitlines()[-1])


def teardown_module(module):
    print("\n" + "=" * 72)
    for line in _RESULTS:
        print(line)
    print("=" * 72)
