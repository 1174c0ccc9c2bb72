import math

import numpy as np
import oracles
import pytest

from conftest import histogram_polygon, make_plan, rect
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import loss_finite_difference

from ergoplan import ergoloss, geometry
from ergoplan.dataset import SynthConfig, synth_plan
from ergoplan.ergocost import TERMS
from ergoplan.errors import EmptyInput
from ergoplan.ergoloss import SoftParams, VertexPlan
from ergoplan.plan import RoomType

CELLS = SoftParams(meters_per_cell=1.0)


def manual_soft_distance(p, q, beta=10.0):
    p, q = np.asarray(p, float), np.asarray(q, float)
    e = np.linalg.norm(p[:, None] - q[None], axis=-1).ravel()
    w = np.exp(-beta * (e - e.min()))
    w /= w.sum()
    return float((e * w).sum())


class TestSoftmin:
    """_soft_combine, the softmin every soft distance and term goes through:
    per row of values (V, k), the softmin-weighted average and its
    derivative, which equals the weights where the row is constant."""

    def test_singleton(self):
        out, dvalues = ergoloss._soft_combine(np.array([[5.0]]), 10.0)
        assert out.tolist() == [5.0] and dvalues.tolist() == [[1.0]]

    def test_equal_pair_splits_evenly(self):
        out, dvalues = ergoloss._soft_combine(np.array([[3.3, 3.3]]), 10.0)
        assert out[0] == pytest.approx(3.3, abs=1e-15)
        assert dvalues[0] == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_two_term_values(self):
        out, _ = ergoloss._soft_combine(np.array([[1.0, 2.0]]), 10.0)
        w_hi = 1.0 / (1.0 + math.exp(-10.0))
        assert w_hi == pytest.approx(0.9999546, abs=1e-7)
        assert out[0] == pytest.approx(w_hi * 1.0 + (1.0 - w_hi) * 2.0, abs=1e-12)

    def test_matrix_input_normalizes_over_all_entries(self, rng):
        # a pair's soft distance weights its whole vertex-distance matrix at once
        for _ in range(10):
            p = rng.random((int(rng.integers(2, 5)), 2)) * 10
            q = rng.random((int(rng.integers(2, 5)), 2)) * 10
            d = ergoloss.soft_distance(p, q, CELLS)
            assert d == pytest.approx(manual_soft_distance(p, q), abs=1e-12)

    def test_sums_to_one_random(self, rng):
        # the weights sum to 1, so does the derivative: adding c to a row adds c
        for _ in range(20):
            values = rng.random((3, int(rng.integers(1, 30)))) * 50
            _, dvalues = ergoloss._soft_combine(values, 10.0)
            assert dvalues.sum(axis=1) == pytest.approx(np.ones(3))


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
            lo = ergoloss.soft_distance(p, q, SoftParams(beta=25.0, meters_per_cell=1.0))
            hi = ergoloss.soft_distance(p, q, SoftParams(beta=5.0, meters_per_cell=1.0))
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
            d = ergoloss.soft_distance(p, q, SoftParams(beta=beta, meters_per_cell=1.0))
            assert abs(d - base) < 1e-6

    def test_polygon_and_door_operands(self, tiling_plan):
        d = ergoloss.soft_distance(tiling_plan.rooms[0], tiling_plan.door, CELLS)
        assert d >= 0.0

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyInput):
            ergoloss.soft_distance(np.zeros((0, 2)), [[1, 1]], CELLS)


class TestTerms:
    def test_single_entrance_equals_soft_distance(self, spread_plan):
        got = ergoloss.ergonomic_loss(spread_plan, CELLS).terms["entrances"]
        expected = ergoloss.soft_distance(spread_plan.rooms[0], spread_plan.door, CELLS)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_entrance_sharing_door_vertex_near_zero(self):
        plan = make_plan(
            rect(0, 0, 32, 32),
            ((0, 0), (0, 4)),
            [(RoomType.Entrance, rect(0, 0, 8, 8))],
        )
        val = ergoloss.ergonomic_loss(plan, CELLS).terms["entrances"]
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
        got = ergoloss.ergonomic_loss(plan, CELLS).terms["entrances"]
        assert got == pytest.approx((d0 + d1) / 2)

    def test_single_kitchen_reduces_to_mean_distance(self, spread_plan):
        got = ergoloss.ergonomic_loss(spread_plan, CELLS).terms["kitchens"]
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
        got = ergoloss.ergonomic_loss(plan, CELLS).terms["kitchens"]
        assert got == pytest.approx(common, abs=1e-12)

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
        assert ergoloss.ergonomic_loss(plan, CELLS).terms["kitchens"] == pytest.approx(
            np.mean(expected), abs=1e-12
        )

    def test_bathroom_mirrors_kitchen_structure(self, spread_plan):
        got = ergoloss.ergonomic_loss(spread_plan, CELLS).terms["bathrooms"]
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
        got = ergoloss.ergonomic_loss(plan, CELLS).terms["balconies"]
        assert got == pytest.approx(expected, abs=1e-12)

    def test_touching_balcony_near_zero_with_large_beta(self):
        plan = make_plan(
            rect(0, 0, 32, 32),
            ((0, 4), (0, 8)),
            [
                (RoomType.LivingRoom, rect(0, 0, 16, 16)),
                (RoomType.Balcony, rect(16, 0, 24, 8)),
            ],
        )
        params = SoftParams(beta=100.0, meters_per_cell=1.0)
        val = ergoloss.ergonomic_loss(plan, params).terms["balconies"]
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
        assert ergoloss.ergonomic_loss(spread_plan, CELLS).terms["balconies"] == pytest.approx(
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
        assert [b.terms[t] for t in ("kitchens", "bathrooms", "balconies")] == [None] * 3
        assert b.total == pytest.approx(b.terms["entrances"])

    def test_all_terms_mean(self, spread_plan):
        b = ergoloss.ergonomic_loss(spread_plan, CELLS)
        parts = [b.terms[t] for t in TERMS]
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

    def test_translation_invariance(self, rng):
        plan = synth_plan(7, SynthConfig(de_ergonomize_fraction=1.0))
        vplan = VertexPlan.from_plan(plan)
        shifted = VertexPlan(
            vplan.kinds,
            [c + np.array([3.0, 11.0]) for c in vplan.room_coords],
            vplan.door + np.array([3.0, 11.0]),
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
        res = plan.resolution
        rotated = VertexPlan(
            vplan.kinds,
            [
                np.stack([res - 1 - c[:, 1], c[:, 0]], axis=1)
                for c in vplan.room_coords
            ],
            np.stack([res - 1 - vplan.door[:, 1], vplan.door[:, 0]], axis=1),
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
        )
        assert base <= ergoloss.ergonomic_loss(moved, CELLS).total


def substituted_losses(plan, substitutions, params):
    """batch_substituted_losses over one plan's table; (None, None) when no
    term applies."""
    table = ergoloss.PairTable(plan, params)
    if table.total is None:
        return None, None
    return ergoloss.batch_substituted_losses([table], [0] * len(substitutions), substitutions)


class TestSubstitutedLosses:
    def test_identity_substitution_is_noop(self, spread_plan):
        vplan = VertexPlan.from_plan(spread_plan)
        base = ergoloss.ergonomic_loss(vplan, CELLS).total
        subs = [(0, 0, 0, float(vplan.room_coords[0][0, 0]))]
        losses, dvals = substituted_losses(vplan, subs, CELLS)
        assert losses[0] == pytest.approx(base, abs=1e-12)
        _, grads = ergoloss.ergonomic_loss_grad(vplan, CELLS)
        assert dvals[0] == pytest.approx(grads[0][0, 0], abs=1e-12)

    def test_batch_agrees_with_sequential(self, spread_plan):
        vplan = VertexPlan.from_plan(spread_plan)
        subs = [(1, 0, 0, 20.0), (1, 0, 1, 3.0), (5, 2, 1, 35.5)]
        losses, dvals = substituted_losses(vplan, subs, CELLS)
        for (ri, vi, axis, val), loss, dval in zip(subs, losses, dvals):
            coords = [c.copy() for c in vplan.room_coords]
            coords[ri][vi, axis] = val
            probe = VertexPlan(vplan.kinds, coords, vplan.door)
            assert ergoloss.ergonomic_loss(probe, CELLS).total == pytest.approx(
                loss, abs=1e-12
            )
            _, grads = ergoloss.ergonomic_loss_grad(probe, CELLS)
            assert grads[ri][vi, axis] == pytest.approx(dval, abs=1e-12)


def all_substitutions(vplan, rng, shift=3.0):
    """Every room coordinate once, each moved by a random amount."""
    return [
        (ri, vi, axis, float(coords[vi, axis] + shift * (rng.random() - 0.5)))
        for ri, coords in enumerate(vplan.room_coords)
        for vi in range(len(coords))
        for axis in range(2)
    ]


class TestReferenceTerms:
    """The pair table against the earlier evaluations kept in `oracles`: the
    tiled loop over the rule table and the per-term blocks before it."""

    @staticmethod
    def evaluate_both(
        vplan, params, variants=None, terms=oracles._rule_term_values_and_grads
    ):
        """(term values, total, gradients) from the package and the oracle.

        Without variants the gradients are the full per-room arrays; with
        them, term values are not exposed and the gradients are the
        derivatives w.r.t. each substituted cell value."""
        values, total, grads = oracles.evaluate(vplan, params, variants, terms)
        if variants is None:
            breakdown, new_grads = ergoloss.ergonomic_loss_grad(vplan, params)
            new = ([breakdown.terms[t] for t in TERMS], breakdown.total, new_grads)
            if total is None:
                grads = [np.zeros((1,) + c.shape) for c in vplan.room_coords]
            old = (
                [None if values[t] is None else values[t][0] for t in TERMS],
                None if total is None else total[0],
                [g[0] for g in grads],
            )
            return new, old
        new_total, new_dvalue = substituted_losses(vplan, variants, params)
        dvalue = None
        if total is not None:
            dvalue = np.array(
                [grads[ri][v, vi, axis] for v, (ri, vi, axis, _) in enumerate(variants)]
            )
        return ([], new_total, [new_dvalue]), ([], total, [dvalue])

    @staticmethod
    def assert_close(new, old, atol):
        def close(a, b):
            if a is None or b is None:
                return a is None and b is None
            if atol == 0.0:
                return np.array_equal(a, b)
            return np.allclose(a, b, rtol=0.0, atol=atol)

        (values, total, grads), (ref_values, ref_total, ref_grads) = new, old
        assert all(close(v, r) for v, r in zip(values, ref_values, strict=True))
        assert close(total, ref_total)
        assert all(close(g, r) for g, r in zip(grads, ref_grads, strict=True))

    def test_bit_identical_with_substitutions(self, rng):
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
                    for terms in (
                        oracles._rule_term_values_and_grads,
                        oracles._term_values_and_grads,
                    ):
                        new, old = self.evaluate_both(vplan, params, variants, terms)
                        self.assert_close(new, old, atol=0.0)

    def test_several_entrances_within_1e12(self):
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
                for variants in (None, [(1, 2, 0, 30.5)]):
                    new, old = self.evaluate_both(
                        vplan, params, variants, oracles._term_values_and_grads
                    )
                    self.assert_close(new, old, atol=1e-12)
                    self.assert_close(*self.evaluate_both(vplan, params, variants), atol=0.0)

    @staticmethod
    def several_target_plan(rng, kitchens_or_bathrooms):
        """3 clients (an entrance and two dining rooms, or an entrance, a
        living and a master room) x 2 targets, with skyline rooms of up to 6
        and 8 vertices among rectangles, so that the shape groups are mixed."""
        target = kitchens_or_bathrooms
        return make_plan(
            rect(0, 0, 200, 200),
            ((0, 4), (0, 8)),
            [
                (RoomType.Entrance, histogram_polygon(rng, columns=2, base=(10, 10))),
                (RoomType.LivingRoom, rect(40, 10, 60, 30)),
                (RoomType.DiningRoom, histogram_polygon(rng, columns=3, base=(80, 10))),
                (RoomType.DiningRoom, rect(100, 80, 110, 90)),
                (RoomType.MasterRoom, histogram_polygon(rng, columns=3, base=(10, 60))),
                (target, histogram_polygon(rng, columns=2, base=(60, 120))),
                (target, rect(140, 140, 150, 160)),
                (RoomType.Balcony, histogram_polygon(rng, columns=3, base=(120, 40))),
                (RoomType.Storage, rect(170, 10, 180, 20)),
            ],
        )

    def test_several_targets_and_mixed_shapes_bit_identical(self, rng):
        # three clients (a client count that is not a power of two) against
        # two targets; rooms of 4, 6 and 8 vertices
        for trial in range(12):
            for target in (RoomType.Kitchen, RoomType.Bathroom):
                vplan = VertexPlan.from_plan(self.several_target_plan(rng, target))
                assert {len(c) for c in vplan.room_coords} >= {4, 8}
                substitutions = all_substitutions(vplan, rng)
                for params in (SoftParams(), CELLS):
                    for variants in (None, substitutions, substitutions[:1]):
                        self.assert_close(
                            *self.evaluate_both(vplan, params, variants), atol=0.0
                        )


def two_room_plan(seed, columns, offset):
    """An entrance and a kitchen, both random skylines, the kitchen shifted
    by `offset` cells (overlapping, touching or apart)."""
    rng = np.random.default_rng(seed)
    a = histogram_polygon(rng, columns=columns[0], base=(20, 20))
    b = histogram_polygon(rng, columns=columns[1], base=(20 + offset[0], 20 + offset[1]))
    return make_plan(
        rect(0, 0, 64, 64),
        ((0, 4), (0, 8)),
        [(RoomType.Entrance, a), (RoomType.Kitchen, b), (RoomType.Bathroom, rect(2, 50, 6, 54))],
    )


plans = st.builds(
    two_room_plan,
    st.integers(0, 2**32 - 1),
    st.tuples(st.integers(1, 4), st.integers(1, 4)),
    st.tuples(st.integers(-12, 24), st.integers(-12, 24)),
)


class TestProperties:
    @settings(max_examples=60)
    @given(plans, st.floats(0.1, 1000.0))
    def test_soft_pair_distance_bounds_min_distance(self, plan, beta):
        # a softmin-weighted mean of vertex distances is never below the
        # boundary distance, crossing and nesting pairs included
        table = ergoloss.PairTable(plan, SoftParams(beta=beta, meters_per_cell=1.0))
        shapes = list(plan.rooms) + [plan.door]
        for (ci, ti), soft in zip(table.pairs, table.base, strict=True):
            assert soft >= geometry.min_distance(shapes[ci], shapes[ti]) - 1e-12

    @settings(max_examples=40)
    @given(plans, st.data())
    def test_substituted_losses_equal_oracle(self, plan, data):
        vplan = VertexPlan.from_plan(plan)
        rooms = st.integers(0, len(vplan.room_coords) - 1)
        substitutions = []
        for ri in data.draw(st.lists(rooms, min_size=1, max_size=12)):
            vi = data.draw(st.integers(0, len(vplan.room_coords[ri]) - 1))
            axis = data.draw(st.integers(0, 1))
            value = data.draw(st.floats(0.0, 64.0))
            substitutions.append((ri, vi, axis, value))
        for params in (SoftParams(), CELLS):
            losses, dvalues = substituted_losses(vplan, substitutions, params)
            ref_losses, ref_dvalues = oracles.substituted_losses(vplan, substitutions, params)
            assert np.array_equal(losses, ref_losses)
            assert np.array_equal(dvalues, ref_dvalues)


KINDS = st.sampled_from(
    [
        RoomType.Entrance,
        RoomType.Kitchen,
        RoomType.DiningRoom,
        RoomType.Bathroom,
        RoomType.LivingRoom,
        RoomType.MasterRoom,
        RoomType.Balcony,
        RoomType.Storage,
    ]
)
# rectangles on a 4-cell lattice, possibly overlapping: up to 12 rooms
lattice_plans = st.lists(
    st.tuples(KINDS, st.integers(0, 14), st.integers(0, 14), st.integers(1, 2), st.integers(1, 2)),
    min_size=1,
    max_size=12,
).map(
    lambda rooms: make_plan(
        rect(0, 0, 64, 64),
        ((0, 4), (0, 8)),
        [(k, rect(4 * x, 4 * y, 4 * (x + w), 4 * (y + h))) for k, x, y, w, h in rooms],
    )
)


def crowded_plan(kind, n, rng):
    """n rooms of one kind at random places, with a bathroom, a kitchen and
    a balcony: 8 or more clients of a rule or targets of the balcony."""
    corners = rng.integers(0, 56, size=(n + 3, 2))
    sizes = rng.integers(2, 8, size=(n + 3, 2))
    kinds = [kind] * n + [RoomType.Bathroom, RoomType.Kitchen, RoomType.Balcony]
    rooms = [
        (k, rect(x, y, x + w, y + h))
        for k, (x, y), (w, h) in zip(kinds, corners.tolist(), sizes.tolist())
    ]
    return make_plan(rect(0, 0, 64, 64), ((0, 4), (0, 8)), rooms)


def substitutions_for(plan, draw_int, draw_value, count):
    vplan = VertexPlan.from_plan(plan)
    out = []
    for _ in range(count):
        ri = draw_int(0, len(vplan.room_coords) - 1)
        out.append((ri, draw_int(0, len(vplan.room_coords[ri]) - 1), draw_int(0, 1), draw_value()))
    return out


def assert_batch_equals_per_plan(plans, subs_per_plan, params):
    """pair_tables equals PairTable alone, and batch_substituted_losses
    over several plans equals one call per plan, bit for bit."""
    tables = ergoloss.pair_tables(plans, params)
    for plan, table in zip(plans, tables, strict=True):
        alone = ergoloss.PairTable(plan, params)
        assert np.array_equal(table.base, alone.base)
        assert (table.values, table.total) == (alone.values, alone.total)
    scored = [(t, subs) for t, subs in zip(tables, subs_per_plan) if t.total is not None]
    if not scored:
        return
    owner = [i for i, (_, subs) in enumerate(scored) for _ in subs]
    flat = [s for _, subs in scored for s in subs]
    losses, dvalues = ergoloss.batch_substituted_losses([t for t, _ in scored], owner, flat)
    expected = [
        ergoloss.batch_substituted_losses([t], [0] * len(subs), subs) for t, subs in scored
    ]
    assert np.array_equal(losses, np.concatenate([e[0] for e in expected]))
    assert np.array_equal(dvalues, np.concatenate([e[1] for e in expected]))


class TestBatch:
    """Several plans scored in one batch equal each plan scored alone."""

    @settings(max_examples=40)
    @given(st.lists(st.one_of(plans, lattice_plans), min_size=1, max_size=5), st.data())
    def test_batch_substituted_losses_equal_per_plan(self, plan_list, data):
        subs = [
            substitutions_for(
                plan,
                lambda lo, hi: data.draw(st.integers(lo, hi)),
                lambda: data.draw(st.floats(0.0, 64.0)),
                data.draw(st.integers(1, 4)),
            )
            for plan in plan_list
        ]
        for params in (SoftParams(), CELLS):
            assert_batch_equals_per_plan(plan_list, subs, params)

    def test_crowded_rules_equal_per_plan_and_oracle(self, rng):
        # 8 or more clients of one rule and 8 or more balcony targets, with
        # tables that have one substitution and tables that have several
        def draw_int(lo, hi):
            return int(rng.integers(lo, hi + 1))

        def draw_value():
            return float(rng.uniform(-4.0, 68.0))

        for n in (8, 9, 12):
            for kind in (RoomType.LivingRoom, RoomType.DiningRoom, RoomType.MasterRoom):
                plans = [crowded_plan(kind, n, rng), crowded_plan(RoomType.Entrance, n - 5, rng)]
                subs = [
                    substitutions_for(p, draw_int, draw_value, k) for p, k in zip(plans, (1, 5))
                ]
                assert_batch_equals_per_plan(plans, subs, SoftParams())
                assert_batch_equals_per_plan(plans[::-1], [subs[1], subs[0][:1]], CELLS)
                # the table, its gradient and a lone substitution against the
                # oracle, whose client means and softmin rows sum pairwise
                vplan = VertexPlan.from_plan(plans[0])
                values, total, _ = oracles.evaluate(vplan, SoftParams())
                table = ergoloss.PairTable(vplan, SoftParams())
                assert table.total == total[0]
                assert all(table.values[t] == (v if v is None else v[0]) for t, v in values.items())
                for variants in (None, subs[0]):
                    TestReferenceTerms.assert_close(
                        *TestReferenceTerms.evaluate_both(vplan, SoftParams(), variants), atol=0.0
                    )

    def test_tables_with_different_params_rejected(self, spread_plan):
        # a batch's tables must share one SoftParams
        tables = [ergoloss.PairTable(spread_plan, params) for params in (SoftParams(), CELLS)]
        with pytest.raises(ValueError, match="different soft parameters"):
            ergoloss.batch_substituted_losses(tables, [0, 1], [(0, 0, 0, 1.0), (1, 0, 0, 1.0)])
