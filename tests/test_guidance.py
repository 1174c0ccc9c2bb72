import math

import numpy as np
import oracles
import pytest

from conftest import make_plan, rect

from ergoplan import ergoloss, guidance, model, tokenizer
from ergoplan.dataset import SynthConfig, synth_plan
from ergoplan.errors import ArgmaxNotCoordinate
from ergoplan.ergoloss import SoftParams
from ergoplan.guidance import GuidanceConfig, alpha
from ergoplan.plan import RoomType

V = tokenizer.Vocabulary(256)
CFG = GuidanceConfig(resolution=256)
CELLS = SoftParams(meters_per_cell=1.0)


def expected_token(row, cfg):
    """The expected coordinate of one probability row."""
    return float(guidance.collapse(np.asarray(row)[None], cfg)[0][0])


def row_with(probs):
    row = np.zeros(V.size)
    for token, p in probs.items():
        row[token] = p
    return row


class TestExpectedToken:
    def test_one_hot(self):
        v = expected_token(row_with({100: 1.0}), CFG)
        assert v == pytest.approx(100 / 256, abs=1e-12)

    def test_symmetric_window(self):
        v = expected_token(row_with({99: 0.25, 100: 0.5, 101: 0.25}), CFG)
        assert v == pytest.approx(100 / 256, abs=1e-12)

    def test_two_term_closed_form(self):
        v = expected_token(row_with({100: 0.6, 101: 0.4}), CFG)
        w = math.exp(-0.5)
        expected = (0.6 * 100 + 0.4 * w * 101) / (0.6 + 0.4 * w) / 256
        assert v == pytest.approx(expected, abs=1e-12)

    def test_argmax_not_coordinate(self):
        with pytest.raises(ArgmaxNotCoordinate):
            expected_token(row_with({V.bos: 0.9, 100: 0.1}), CFG)

    def test_ties_resolve_to_lowest_id(self):
        v = expected_token(row_with({100: 0.5, 140: 0.5}), CFG)
        # center at 100; the 140 term is 40 sigma away and vanishes
        assert v == pytest.approx(100 / 256, abs=1e-12)

    def test_within_support_bounds(self, rng):
        for _ in range(50):
            logits = rng.standard_normal(V.size)
            logits[256:] -= 100.0  # force a coordinate argmax
            row = np.exp(logits - logits.max())
            row /= row.sum()
            v = expected_token(row, CFG)
            support = np.nonzero(row[:256] > 0)[0]
            assert support.min() / 256 <= v <= support.max() / 256

    def test_grad_matches_renormalized_fd(self, rng):
        for _ in range(10):
            logits = rng.standard_normal(V.size) * 2.0
            logits[256:] -= 100.0
            row = np.exp(logits - logits.max())
            row /= row.sum()
            (v,), (grad,) = guidance.collapse(row[None], CFG)
            top = int(np.argmax(row))
            h = 1e-7
            for j in (top - 1, top, top + 2, 30):
                if not 0 <= j < 256:
                    continue
                plus, minus = row.copy(), row.copy()
                plus[j] += h
                minus[j] -= h
                fd = (
                    expected_token(plus / plus.sum(), CFG)
                    - expected_token(minus / minus.sum(), CFG)
                ) / (2 * h)
                projected = grad[j] - float(grad @ row)
                assert fd == pytest.approx(projected, rel=1e-4, abs=1e-9)


def softened_rows(rng, n):
    """n random probability rows whose argmax is a coordinate token."""
    logits = rng.standard_normal((n, V.size)) * rng.uniform(0.5, 4.0)
    logits[:, 256:] -= 100.0
    rows = np.exp(logits - logits.max(axis=1, keepdims=True))
    return rows / rows.sum(axis=1, keepdims=True)


class TestCollapse:
    """All rows at once against the earlier per-row code in `oracles`."""

    @pytest.mark.parametrize("cfg", [CFG])
    def test_bit_identical_to_per_row(self, rng, cfg):
        rows = softened_rows(rng, 60)
        v_bar, grad = guidance.collapse(rows, cfg)
        for row, v, g in zip(rows, v_bar, grad, strict=True):
            ref_v, ref_g = oracles.expected_token_grad(row, cfg)
            assert v == ref_v
            assert np.array_equal(g, ref_g)
            assert expected_token(row, cfg) == ref_v

    def test_any_non_coordinate_argmax_raises(self, rng):
        rows = softened_rows(rng, 5)
        rows[3] = row_with({V.eos: 1.0})
        with pytest.raises(ArgmaxNotCoordinate):
            guidance.collapse(rows, CFG)

    def test_no_rows(self):
        v_bar, grad = guidance.collapse(np.zeros((0, V.size)), CFG)
        assert v_bar.shape == (0,) and grad.shape == (0, V.size)

    def test_positional_loss_bit_identical_to_per_row(self, rng):
        for seed in range(8):
            plan = synth_plan(seed, SynthConfig(de_ergonomize_fraction=1.0))
            seq = tokenizer.encode(plan, V)
            rows = softened_rows(rng, len(seq))
            # a few rows with a non-coordinate argmax are skipped by both
            rows[rng.integers(len(seq), size=3)] = row_with({V.eos: 1.0})
            for params in (SoftParams(), CELLS):
                result = positional_loss(plan, seq, rows, params)
                loss, row_grads, eligible = oracles.positional_ergo_loss(
                    plan, seq, rows, CFG, params
                )
                assert result.losses[0] == loss
                assert [tuple(e) for e in result.eligible.tolist()] == eligible
                assert result.eligible[:, 0].tolist() == list(row_grads)
                for g, ref_g in zip(result.grads, row_grads.values(), strict=True):
                    assert np.array_equal(g, ref_g)

    def test_table_with_other_params_rejected(self):
        # a batch's tables must share one SoftParams
        plan = plan_with_rooms()
        seq = tokenizer.encode(plan, V)
        tables = [ergoloss.PairTable(plan, SoftParams()), ergoloss.PairTable(plan, CELLS)]
        tokens = np.array([seq.tokens] * 2)
        rows = np.stack([one_hot_rows(seq)] * 2)
        with pytest.raises(ValueError, match="different soft parameters"):
            guidance.positional_losses(tables, tokens, rows, CFG)


def plan_with_rooms():
    return make_plan(
        rect(0, 0, 64, 64),
        ((0, 4), (0, 8)),
        [
            (RoomType.Entrance, rect(0, 0, 16, 16)),
            (RoomType.Kitchen, rect(32, 0, 48, 16)),
            (RoomType.Bathroom, rect(0, 32, 16, 48)),
        ],
    )


def one_hot_rows(seq):
    rows = np.zeros((len(seq), V.size))
    rows[np.arange(len(seq)), np.array(seq.tokens)] = 1.0
    return rows


def positional_loss(plan, seq, rows, params=CELLS):
    """positional_losses over a batch of one sample."""
    tokens = np.array(seq.tokens).reshape(1, -1)
    return guidance.positional_losses([ergoloss.PairTable(plan, params)], tokens, rows[None], CFG)


def room_positions(seq):
    """The positions of the room-vertex coordinate tokens of one sequence."""
    return tokenizer.room_coordinates(np.array(seq.tokens).reshape(1, -1), V)[1].tolist()


class TestPositionalLoss:
    def test_one_hot_prediction_recovers_gt_loss(self):
        plan = plan_with_rooms()
        seq = tokenizer.encode(plan, V)
        result = positional_loss(plan, seq, one_hot_rows(seq))
        gt = ergoloss.ergonomic_loss(plan, CELLS).total
        assert result.losses[0] == pytest.approx(gt, abs=1e-9)
        assert result.counts.tolist() == [3 * 4 * 2]
        assert len(result.eligible) == len(result.grads) == 3 * 4 * 2

    @staticmethod
    def assert_scores_nothing(result):
        assert result.counts.tolist() == [0] and np.isnan(result.losses[0])
        assert result.eligible.shape == (0, 4) and result.grads.shape == (0, V.size)

    def test_no_rooms_scores_nothing(self):
        plan = make_plan(rect(0, 0, 32, 32), ((0, 4), (0, 8)), [])
        seq = tokenizer.encode(plan, V)
        self.assert_scores_nothing(positional_loss(plan, seq, one_hot_rows(seq)))

    def test_no_applicable_terms_scores_nothing(self):
        plan = make_plan(
            rect(0, 0, 32, 32), ((0, 4), (0, 8)), [(RoomType.Storage, rect(0, 0, 8, 8))]
        )
        seq = tokenizer.encode(plan, V)
        self.assert_scores_nothing(positional_loss(plan, seq, one_hot_rows(seq)))

    def test_non_coordinate_argmax_positions_skipped(self):
        plan = plan_with_rooms()
        seq = tokenizer.encode(plan, V)
        rows = one_hot_rows(seq)
        positions = room_positions(seq)
        skipped = positions[0]
        rows[skipped] = 0.0
        rows[skipped, V.eos] = 1.0
        result = positional_loss(plan, seq, rows)
        assert result.eligible[:, 0].tolist() == positions[1:]

    def test_row_grad_matches_renormalized_fd(self, rng):
        plan = plan_with_rooms()
        seq = tokenizer.encode(plan, V)
        rows = one_hot_rows(seq)
        # soften one row so the expectation has real spread
        pos = room_positions(seq)[5]
        gt_token = seq.tokens[pos]
        rows[pos] = 0.0
        rows[pos, gt_token] = 0.55
        rows[pos, gt_token + 1] = 0.3
        rows[pos, gt_token - 1] = 0.15
        result = positional_loss(plan, seq, rows)
        g = result.grads[result.eligible[:, 0].tolist().index(pos)]
        h = 1e-6
        for j in (gt_token - 1, gt_token, gt_token + 1):
            plus, minus = rows.copy(), rows.copy()
            plus[pos, j] += h
            minus[pos, j] -= h
            plus[pos] /= plus[pos].sum()
            minus[pos] /= minus[pos].sum()
            lp = positional_loss(plan, seq, plus).losses[0]
            lm = positional_loss(plan, seq, minus).losses[0]
            fd = (lp - lm) / (2 * h)
            projected = g[j] - float(g @ rows[pos])
            assert fd == pytest.approx(projected, rel=1e-4, abs=1e-10)


MICRO = model.ModelConfig(layers=1, heads=2, embed_dim=8, context_len=96, dtype="float64", seed=3)


def mixed_batch_loss(plan, gamma, guided=True):
    """(MixedLoss, parameter gradients) that training computes for a
    one-sample batch."""
    return model.batch_loss_and_grads(
        [(tokenizer.encode(plan, V), plan)],
        model.init_params(MICRO),
        MICRO,
        model.TrainConfig(guided=guided),
        GuidanceConfig(gamma=gamma),
    )


class TestAlphaAndMix:
    def test_alpha_schedule(self):
        cfg = GuidanceConfig(gamma=30.0)
        assert alpha(0.0, cfg) == 0.0
        assert alpha(30.0, cfg) == 1.0
        assert alpha(45.0, cfg) == 1.0
        assert alpha(15.0, cfg) == pytest.approx(0.5)

    def test_alpha_monotone(self, rng):
        cfg = GuidanceConfig(gamma=30.0)
        xs = np.sort(rng.random(50) * 90)
        values = [alpha(float(x), cfg) for x in xs]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_alpha_rejects_negative(self):
        with pytest.raises(ValueError):
            alpha(-1.0, GuidanceConfig())

    def test_combined_loss_endpoints(self):
        # at alpha 0 training sees cross-entropy alone, at alpha 1 the plan loss
        plan = plan_with_rooms()
        unguided, _ = mixed_batch_loss(plan, gamma=30.0, guided=False)
        assert unguided.alpha == 0.0 and unguided.total == unguided.cross_entropy
        saturated, _ = mixed_batch_loss(plan, gamma=1e-9)
        assert saturated.alpha == 1.0 and saturated.total == saturated.ergo

    def test_combined_loss_invariant(self):
        plan = plan_with_rooms()
        gt = ergoloss.ergonomic_loss(plan).total
        for target in (0.1, 0.5, 0.9):
            mix, _ = mixed_batch_loss(plan, gamma=gt / target)
            assert mix.alpha == pytest.approx(target, abs=1e-12)
            expected = (1 - mix.alpha) * mix.cross_entropy + mix.alpha * mix.ergo
            assert mix.total == pytest.approx(expected, abs=1e-12)

    def test_combined_loss_partial_derivatives(self):
        # alpha is a data-dependent constant: the gradient at alpha is
        # (1 - alpha) times the cross-entropy gradient (alpha 0) plus alpha
        # times the plan-loss gradient (alpha 1)
        plan = plan_with_rooms()
        gt = ergoloss.ergonomic_loss(plan).total
        _, g_ce = mixed_batch_loss(plan, gamma=30.0, guided=False)
        _, g_ergo = mixed_batch_loss(plan, gamma=1e-9)
        mix, g_mix = mixed_batch_loss(plan, gamma=gt / 0.3)
        a = mix.alpha
        for name, g in g_mix.items():
            expected = (1 - a) * g_ce[name] + a * g_ergo[name]
            assert np.allclose(g, expected, rtol=1e-9, atol=1e-14), name
