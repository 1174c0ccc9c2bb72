import math

import numpy as np
import oracles
import pytest

from conftest import make_plan, rect
from oracles import loss_finite_difference

from ergoplan import ergoloss
from ergoplan.dataset import SynthConfig, synth_plan
from ergoplan.ergocost import TERMS
from ergoplan.errors import EmptyInput
from ergoplan.ergoloss import SoftParams, VertexPlan
from ergoplan.plan import RoomType

CELLS = SoftParams(coordinate_space="cells")


def manual_soft_distance(p, q, beta=10.0):
    p, q = np.asarray(p, float), np.asarray(q, float)
    e = np.linalg.norm(p[:, None] - q[None], axis=-1).ravel()
    w = np.exp(-beta * (e - e.min()))
    w /= w.sum()
    return float((e * w).sum())


class TestSoftmin:
    def test_singleton(self):
        assert ergoloss.softmin_weights([5.0], beta=10.0) == pytest.approx([1.0])

    def test_equal_pair_splits_evenly(self):
        w = ergoloss.softmin_weights([3.3, 3.3], beta=10.0)
        assert w == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_two_term_values(self):
        w = ergoloss.softmin_weights([1.0, 2.0], beta=10.0)
        expected_hi = 1.0 / (1.0 + math.exp(-10.0))
        assert w[0] == pytest.approx(expected_hi, abs=1e-12)
        assert w[0] == pytest.approx(0.9999546, abs=1e-7)
        assert w[1] == pytest.approx(4.539787e-5, rel=1e-5)

    def test_matrix_input_normalizes_over_all_entries(self):
        w = ergoloss.softmin_weights([[1.0, 1.0], [1.0, 1.0]], beta=2.0)
        assert w.shape == (2, 2)
        assert w.sum() == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            ergoloss.softmin_weights([], beta=10.0)

    def test_sums_to_one_random(self, rng):
        for _ in range(20):
            e = rng.random(int(rng.integers(1, 30))) * 50
            assert ergoloss.softmin_weights(e).sum() == pytest.approx(1.0)


class TestSoftDistance:
    def test_single_vertices_distance_three(self):
        assert ergoloss.soft_distance([[0, 0]], [[3, 0]], CELLS) == pytest.approx(3.0)

    def test_one_by_two_matrix(self):
        d = ergoloss.soft_distance([[0, 0]], [[1, 0], [2, 0]], CELLS)
        e10 = math.exp(-10.0)
        assert d == pytest.approx((1.0 + 2.0 * e10) / (1.0 + e10), abs=1e-12)
        assert d == pytest.approx(1.0000454, abs=1e-7)

    def test_coincident_sets_are_zero(self):
        # a coincident vertex pair makes the softmin concentrate on e = 0;
        # with multiple vertices the other pairs leave a vanishing residual
        assert ergoloss.soft_distance([[2, 3]], [[2, 3]], CELLS) == 0.0
        pts = [[2, 3], [4, 3], [4, 5], [2, 5]]
        assert ergoloss.soft_distance(pts, pts, CELLS) == pytest.approx(0.0, abs=1e-6)

    def test_bounds_and_beta_monotonicity(self, rng):
        for _ in range(30):
            p = rng.random((int(rng.integers(1, 6)), 2)) * 20
            q = rng.random((int(rng.integers(1, 6)), 2)) * 20
            e = np.linalg.norm(p[:, None] - q[None], axis=-1)
            lo = ergoloss.soft_distance(p, q, SoftParams(beta=25.0, coordinate_space="cells"))
            hi = ergoloss.soft_distance(p, q, SoftParams(beta=5.0, coordinate_space="cells"))
            assert e.min() - 1e-12 <= lo <= hi <= e.max() + 1e-12

    def test_large_beta_approaches_minimum(self, rng):
        # beta * (second smallest - smallest) > 40 pushes D onto the minimum
        beta = 10.0
        for _ in range(50):
            base = rng.random() * 30
            values = base + 4.0 + rng.random(6) * 20.0
            values[0] = base
            p = np.zeros((1, 2))
            q = np.stack([values, np.zeros_like(values)], axis=1)
            d = ergoloss.soft_distance(p, q, SoftParams(beta=beta, coordinate_space="cells"))
            assert abs(d - base) < 1e-6

    def test_polygon_and_door_operands(self, tiling_plan):
        d = ergoloss.soft_distance(tiling_plan.rooms[0], tiling_plan.door, CELLS)
        assert d >= 0.0

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyInput):
            ergoloss.soft_distance(np.zeros((0, 2)), [[1, 1]], CELLS)


class TestTerms:
    def test_single_entrance_equals_soft_distance(self, spread_plan):
        got = ergoloss.loss_entrances(spread_plan, CELLS)
        expected = ergoloss.soft_distance(spread_plan.rooms[0], spread_plan.door, CELLS)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_entrance_sharing_door_vertex_near_zero(self):
        plan = make_plan(
            rect(0, 0, 32, 32),
            ((0, 0), (0, 4)),
            [(RoomType.Entrance, rect(0, 0, 8, 8))],
        )
        val = ergoloss.loss_entrances(plan, CELLS)
        e = np.linalg.norm(
            np.array(plan.rooms[0].vertices, float)[:, None]
            - np.array([plan.door.a, plan.door.b], float)[None],
            axis=-1,
        )
        assert val <= e.min() + 0.05

    def test_two_entrances_mean(self):
        plan = make_plan(
            rect(0, 0, 64, 64),
            ((0, 4), (0, 8)),
            [
                (RoomType.Entrance, rect(0, 0, 8, 8)),
                (RoomType.Entrance, rect(32, 32, 40, 40)),
            ],
        )
        d0 = ergoloss.soft_distance(plan.rooms[0], plan.door, CELLS)
        d1 = ergoloss.soft_distance(plan.rooms[1], plan.door, CELLS)
        assert ergoloss.loss_entrances(plan, CELLS) == pytest.approx((d0 + d1) / 2)

    def test_single_kitchen_reduces_to_mean_distance(self, spread_plan):
        got = ergoloss.loss_kitchens(spread_plan, CELLS)
        d_ent = ergoloss.soft_distance(spread_plan.rooms[0], spread_plan.rooms[1], CELLS)
        d_din = ergoloss.soft_distance(spread_plan.rooms[2], spread_plan.rooms[1], CELLS)
        assert got == pytest.approx((d_ent + d_din) / 2, abs=1e-12)

    def test_equidistant_kitchens_equal_common_distance(self):
        plan = make_plan(
            rect(0, 0, 64, 64),
            ((0, 4), (0, 8)),
            [
                (RoomType.Entrance, rect(28, 28, 36, 36)),
                (RoomType.Kitchen, rect(8, 28, 16, 36)),
                (RoomType.Kitchen, rect(48, 28, 56, 36)),
            ],
        )
        common = ergoloss.soft_distance(plan.rooms[0], plan.rooms[1], CELLS)
        assert ergoloss.loss_kitchens(plan, CELLS) == pytest.approx(common, abs=1e-12)

    def test_generic_two_kitchen_case_matches_script(self):
        plan = make_plan(
            rect(0, 0, 64, 64),
            ((0, 4), (0, 8)),
            [
                (RoomType.Entrance, rect(0, 0, 8, 8)),
                (RoomType.DiningRoom, rect(40, 40, 48, 48)),
                (RoomType.Kitchen, rect(16, 0, 24, 8)),
                (RoomType.Kitchen, rect(40, 52, 48, 60)),
            ],
        )
        beta = 10.0

        def poly(i):
            return np.array(plan.rooms[i].vertices, float)

        expected = []
        for client in (0, 1):
            deltas = np.array(
                [manual_soft_distance(poly(client), poly(k), beta) for k in (2, 3)]
            )
            w = np.exp(-beta * (deltas - deltas.min()))
            w /= w.sum()
            expected.append(float((deltas * w).sum()))
        assert ergoloss.loss_kitchens(plan, CELLS) == pytest.approx(
            np.mean(expected), abs=1e-12
        )

    def test_bathroom_mirrors_kitchen_structure(self, spread_plan):
        got = ergoloss.loss_bathrooms(spread_plan, CELLS)
        d_ent = ergoloss.soft_distance(spread_plan.rooms[0], spread_plan.rooms[3], CELLS)
        d_liv = ergoloss.soft_distance(spread_plan.rooms[4], spread_plan.rooms[3], CELLS)
        assert got == pytest.approx((d_ent + d_liv) / 2, abs=1e-12)

    def test_balcony_single_neighbor_is_soft_distance(self):
        plan = make_plan(
            rect(0, 0, 32, 32),
            ((0, 4), (0, 8)),
            [
                (RoomType.LivingRoom, rect(0, 0, 8, 8)),
                (RoomType.Balcony, rect(16, 0, 24, 8)),
            ],
        )
        expected = ergoloss.soft_distance(plan.rooms[1], plan.rooms[0], CELLS)
        assert ergoloss.loss_balconies(plan, CELLS) == pytest.approx(expected, abs=1e-12)

    def test_touching_balcony_near_zero_with_large_beta(self):
        plan = make_plan(
            rect(0, 0, 32, 32),
            ((0, 4), (0, 8)),
            [
                (RoomType.LivingRoom, rect(0, 0, 16, 16)),
                (RoomType.Balcony, rect(16, 0, 24, 8)),
            ],
        )
        val = ergoloss.loss_balconies(plan, SoftParams(beta=100.0, coordinate_space="cells"))
        assert val == pytest.approx(0.0, abs=1e-6)

    def test_multi_neighbor_matches_script(self, spread_plan):
        beta = 10.0

        def poly(i):
            return np.array(spread_plan.rooms[i].vertices, float)

        neighbors = [1, 2, 4]  # kitchen, dining, living in plan order
        dists = np.array(
            [manual_soft_distance(poly(5), poly(n), beta) for n in neighbors]
        )
        w = np.exp(-beta * (dists - dists.min()))
        w /= w.sum()
        expected = float((dists * w).sum())
        assert ergoloss.loss_balconies(spread_plan, CELLS) == pytest.approx(
            expected, abs=1e-12
        )


class TestBreakdown:
    def test_only_entrance_term(self):
        plan = make_plan(
            rect(0, 0, 32, 32),
            ((0, 4), (0, 8)),
            [(RoomType.Entrance, rect(8, 0, 16, 8))],
        )
        b = ergoloss.ergonomic_loss(plan, CELLS)
        assert b.kitchens is None and b.bathrooms is None and b.balconies is None
        assert b.total == pytest.approx(b.entrances)

    def test_all_terms_mean(self, spread_plan):
        b = ergoloss.ergonomic_loss(spread_plan, CELLS)
        parts = [b.entrances, b.kitchens, b.bathrooms, b.balconies]
        assert all(p is not None for p in parts)
        assert b.total == pytest.approx(np.mean(parts), abs=1e-12)
        assert b.applicable_terms == {
            "entrances": True,
            "kitchens": True,
            "bathrooms": True,
            "balconies": True,
        }

    def test_nothing_applicable(self):
        plan = make_plan(
            rect(0, 0, 32, 32), ((0, 4), (0, 8)), [(RoomType.Storage, rect(0, 0, 8, 8))]
        )
        b = ergoloss.ergonomic_loss(plan, CELLS)
        assert b.total is None and not b.applicable

    def test_meters_equals_cells_at_unit_scale(self, spread_plan):
        cells = ergoloss.ergonomic_loss(spread_plan, CELLS)
        meters = ergoloss.ergonomic_loss(
            spread_plan, SoftParams(coordinate_space="meters", meters_per_cell=1.0)
        )
        assert meters.total == pytest.approx(cells.total, abs=1e-12)

    def test_translation_invariance(self, rng):
        plan = synth_plan(7, SynthConfig(de_ergonomize_fraction=1.0))
        vplan = VertexPlan.from_plan(plan)
        shifted = VertexPlan(
            vplan.kinds,
            [c + np.array([3.0, 11.0]) for c in vplan.room_coords],
            vplan.door + np.array([3.0, 11.0]),
            vplan.resolution,
        )
        a = ergoloss.ergonomic_loss(vplan, CELLS).total
        b = ergoloss.ergonomic_loss(shifted, CELLS).total
        assert a == pytest.approx(b, abs=1e-9)


class TestGradient:
    def test_two_single_vertex_rooms_unit_direction(self):
        vplan = VertexPlan(
            kinds=[RoomType.Balcony, RoomType.LivingRoom],
            room_coords=[np.array([[0.0, 0.0]]), np.array([[5.0, 0.0]])],
            door=np.array([[100.0, 100.0], [100.0, 101.0]]),
            resolution=256,
        )
        _, grads = ergoloss.ergonomic_loss_grad(vplan, CELLS)
        assert grads[0][0] == pytest.approx([-1.0, 0.0], abs=1e-12)
        assert grads[1][0] == pytest.approx([1.0, 0.0], abs=1e-12)

    def test_non_participating_room_has_zero_gradient(self, spread_plan):
        plan = make_plan(
            rect(0, 0, 64, 64),
            ((0, 4), (0, 8)),
            [
                (RoomType.Entrance, rect(8, 0, 16, 8)),
                (RoomType.Storage, rect(32, 32, 40, 40)),
            ],
        )
        _, grads = ergoloss.ergonomic_loss_grad(plan, CELLS)
        assert np.all(grads[1] == 0.0)
        assert np.any(grads[0] != 0.0)

    def test_matches_finite_differences_on_synthetic_plans(self):
        params = SoftParams()  # meters, the training default
        cfg = SynthConfig(de_ergonomize_fraction=0.5)
        for seed in range(12):
            plan = synth_plan(seed, cfg)
            vplan = VertexPlan.from_plan(plan)
            breakdown, analytic = ergoloss.ergonomic_loss_grad(vplan, params)
            if breakdown.total is None:
                continue
            fd = loss_finite_difference(vplan, params, h=1e-4)
            scale = max(max(np.abs(g).max() for g in fd), 1e-8)
            worst = max(
                np.abs(a - f).max() for a, f in zip(analytic, fd)
            )
            assert worst / scale < 1e-4

    def test_gradient_rotates_with_the_plan(self):
        plan = synth_plan(3, SynthConfig(de_ergonomize_fraction=1.0))
        vplan = VertexPlan.from_plan(plan)
        _, grads = ergoloss.ergonomic_loss_grad(vplan, CELLS)
        res = vplan.resolution
        rotated = VertexPlan(
            vplan.kinds,
            [
                np.stack([res - 1 - c[:, 1], c[:, 0]], axis=1)
                for c in vplan.room_coords
            ],
            np.stack([res - 1 - vplan.door[:, 1], vplan.door[:, 0]], axis=1),
            res,
        )
        _, grads_rot = ergoloss.ergonomic_loss_grad(rotated, CELLS)
        for g, gr in zip(grads, grads_rot):
            # (x, y) -> (-y, x) for the vector part
            assert gr[:, 0] == pytest.approx(-g[:, 1], abs=1e-9)
            assert gr[:, 1] == pytest.approx(g[:, 0], abs=1e-9)

    def test_perfect_plan_loss_below_perturbed(self, tiling_plan):
        base = ergoloss.ergonomic_loss(tiling_plan, CELLS).total
        vplan = VertexPlan.from_plan(tiling_plan)
        moved = VertexPlan(
            vplan.kinds,
            [
                c + (np.array([10.0, 10.0]) if i == 1 else 0.0)  # push the kitchen away
                for i, c in enumerate(vplan.room_coords)
            ],
            vplan.door,
            vplan.resolution,
        )
        assert base <= ergoloss.ergonomic_loss(moved, CELLS).total


class TestSubstitutedLosses:
    def test_identity_substitution_is_noop(self, spread_plan):
        vplan = VertexPlan.from_plan(spread_plan)
        base = ergoloss.ergonomic_loss(vplan, CELLS).total
        subs = [(0, 0, 0, float(vplan.room_coords[0][0, 0]))]
        losses, dvals = ergoloss.substituted_losses(vplan, subs, CELLS)
        assert losses[0] == pytest.approx(base, abs=1e-12)
        _, grads = ergoloss.ergonomic_loss_grad(vplan, CELLS)
        assert dvals[0] == pytest.approx(grads[0][0, 0], abs=1e-12)

    def test_batch_agrees_with_sequential(self, spread_plan):
        vplan = VertexPlan.from_plan(spread_plan)
        subs = [(1, 0, 0, 20.0), (1, 0, 1, 3.0), (5, 2, 1, 35.5)]
        losses, dvals = ergoloss.substituted_losses(vplan, subs, CELLS)
        for (ri, vi, axis, val), loss, dval in zip(subs, losses, dvals):
            coords = [c.copy() for c in vplan.room_coords]
            coords[ri][vi, axis] = val
            probe = VertexPlan(vplan.kinds, coords, vplan.door, vplan.resolution)
            assert ergoloss.ergonomic_loss(probe, CELLS).total == pytest.approx(
                loss, abs=1e-12
            )
            _, grads = ergoloss.ergonomic_loss_grad(probe, CELLS)
            assert grads[ri][vi, axis] == pytest.approx(dval, abs=1e-12)


class TestReferenceTerms:
    """The loop over the rule table against the earlier per-term blocks,
    kept verbatim as `oracles._term_values_and_grads`."""

    @staticmethod
    def evaluate_both(monkeypatch, vplan, params, variants=None):
        new = ergoloss._evaluate(vplan, params, variants)
        with monkeypatch.context() as patched:
            patched.setattr(ergoloss, "_term_values_and_grads", oracles._term_values_and_grads)
            old = ergoloss._evaluate(vplan, params, variants)
        return new, old

    @staticmethod
    def assert_close(new, old, atol):
        def close(a, b):
            if atol == 0.0:
                return np.array_equal(a, b)
            return np.allclose(a, b, rtol=0.0, atol=atol)

        (values, total, grads), (ref_values, ref_total, ref_grads) = new, old
        for term in TERMS:
            assert (values[term] is None) == (ref_values[term] is None)
            if values[term] is not None:
                assert close(values[term], ref_values[term])
        assert (total is None) == (ref_total is None)
        if total is not None:
            assert close(total, ref_total)
            assert all(close(g, r) for g, r in zip(grads, ref_grads))

    def test_bit_identical_with_substitutions(self, monkeypatch, rng):
        cfg = SynthConfig(de_ergonomize_fraction=0.5)  # criterion 1's plans
        for seed in range(60):
            vplan = VertexPlan.from_plan(synth_plan(seed, cfg))
            substitutions = []
            for _ in range(7):
                ri = int(rng.integers(len(vplan.room_coords)))
                vi = int(rng.integers(len(vplan.room_coords[ri])))
                substitutions.append((ri, vi, int(rng.integers(2)), float(rng.random() * 256)))
            for params in (SoftParams(), CELLS):
                for variants in (None, substitutions):
                    new, old = self.evaluate_both(monkeypatch, vplan, params, variants)
                    self.assert_close(new, old, atol=0.0)

    def test_several_entrances_within_1e12(self, monkeypatch):
        # the entrance mean now scales by (1 / n) instead of dividing by n
        entrances = [rect(0, 0, 8, 8), rect(32, 32, 40, 40), rect(48, 8, 56, 16)]
        for n in (2, 3):
            plan = make_plan(
                rect(0, 0, 64, 64),
                ((0, 4), (0, 8)),
                [(RoomType.Entrance, r) for r in entrances[:n]]
                + [(RoomType.Kitchen, rect(16, 0, 24, 8))],
            )
            vplan = VertexPlan.from_plan(plan)
            for params in (SoftParams(), CELLS):
                new, old = self.evaluate_both(monkeypatch, vplan, params, [(1, 2, 0, 30.5)])
                self.assert_close(new, old, atol=1e-12)
