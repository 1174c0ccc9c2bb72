import json

import numpy as np
import pytest

from ergoplan import dataset, ergocost, geometry, tokenizer
from ergoplan.dataset import AugmentSpec, SynthConfig
from ergoplan.plan import ScaleConfig, serialize_plan

CELLS = ScaleConfig(1.0)


class TestSplit:
    def test_exact_counts(self):
        corpus = dataset.synth_generate(100, seed=0)
        assigned = dataset.split(corpus, (0.9, 0.05, 0.05), seed=1)
        counts = {name: 0 for name in dataset.SPLITS}
        for v in assigned.split.values():
            counts[v] += 1
        assert counts == {"train": 90, "val": 5, "test": 5}

    def test_same_seed_identical(self):
        corpus = dataset.synth_generate(40, seed=0)
        a = dataset.split(corpus, seed=7).split
        b = dataset.split(corpus, seed=7).split
        assert a == b
        c = dataset.split(corpus, seed=8).split
        assert a != c

    def test_independent_of_enumeration_order(self):
        corpus = dataset.synth_generate(30, seed=2)
        reversed_corpus = dataset.Corpus(
            plans=list(reversed(corpus.plans)), ids=list(reversed(corpus.ids))
        )
        a = dataset.split(corpus, seed=3).split
        b = dataset.split(reversed_corpus, seed=3).split
        assert a == b

    def test_bad_fractions_rejected(self):
        corpus = dataset.synth_generate(10, seed=0)
        # the last three were once accepted: two sum to 1, and NaN compares false
        bad = [(0.5, 0.5, 0.5), (1.2, -0.1, -0.1), (0.5, -0.2, 0.7), (0.5, 0.5, float("nan"))]
        for fractions in bad:
            with pytest.raises(ValueError, match="non-negative values summing to 1"):
                dataset.split(corpus, fractions, seed=0)


class TestCorpusIO:
    def test_save_load_round_trip(self, tmp_path):
        corpus = dataset.synth_generate(12, seed=5)
        corpus = dataset.split(corpus, seed=0)
        dataset.save_corpus(corpus, tmp_path)
        loaded = dataset.load_corpus(tmp_path)
        assert loaded.plans == corpus.plans
        assert loaded.ids == corpus.ids
        assert loaded.split == corpus.split
        assert loaded.skipped == []

    def test_corrupt_file_skipped_and_reported(self, tmp_path):
        corpus = dataset.synth_generate(3, seed=5)
        dataset.save_corpus(corpus, tmp_path)
        (tmp_path / "plans" / "broken.json").write_text("{not json")
        bad = json.loads(serialize_plan(corpus.plans[0]))
        bad["door"] = [[200, 200], [200, 210]]
        (tmp_path / "plans" / "offdoor.json").write_text(json.dumps(bad))
        loaded = dataset.load_corpus(tmp_path)
        assert len(loaded.plans) == 3
        assert sorted(name for name, _ in loaded.skipped) == ["broken.json", "offdoor.json"]


class TestAugment:
    def test_group_law_two_quarter_turns(self, tiling_plan):
        twice = dataset.rotate_plan(dataset.rotate_plan(tiling_plan, 1), 1)
        assert twice == dataset.rotate_plan(tiling_plan, 2)

    def test_four_turns_identity(self, spread_plan):
        from ergoplan.plan import normalize_plan

        assert dataset.rotate_plan(spread_plan, 4) == normalize_plan(spread_plan)

    def test_cost_invariant_under_all_isometries(self, spread_plan):
        base = ergocost.ergonomic_cost(spread_plan, CELLS).total
        spec = AugmentSpec(rotations=(0, 90, 180, 270), mirror=True)
        variants = dataset.augment(spread_plan, spec)
        assert len(variants) == 8
        for v in variants:
            assert ergocost.ergonomic_cost(v, CELLS).total == base

    def test_outputs_are_valid(self, spread_plan):
        from ergoplan.plan import validate_plan

        for v in dataset.augment(spread_plan, AugmentSpec(mirror=True, permute_rooms=True)):
            validate_plan(v)

    def test_identity_always_included(self, tiling_plan):
        spec = AugmentSpec(rotations=(90,))
        variants = dataset.augment(tiling_plan, spec)
        from ergoplan.plan import normalize_plan

        assert normalize_plan(tiling_plan) in variants

    def test_permutation_changes_encoding_not_geometry(self, spread_plan):
        spec = AugmentSpec(rotations=(0,), permute_rooms=True, seed=3)
        variants = dataset.augment(spread_plan, spec)
        assert len(variants) == 2
        base, permuted = variants
        vocab = tokenizer.Vocabulary(256)
        if [r.kind for r in base.rooms] != [r.kind for r in permuted.rooms]:
            assert tokenizer.encode(base, vocab) != tokenizer.encode(permuted, vocab)
        decoded = tokenizer.decode(tokenizer.encode(permuted, vocab), vocab).plan
        assert sorted((r.kind, r.vertices) for r in decoded.rooms) == sorted(
            (r.kind, r.vertices) for r in base.rooms
        )
        assert decoded.boundary == base.boundary


class TestSynth:
    def test_plans_tile_their_boundary(self):
        cfg = SynthConfig(de_ergonomize_fraction=0.5)
        for seed in range(30):
            plan = dataset.synth_plan(seed, cfg)
            boundary_area = geometry.polygon_area(plan.boundary)
            assert geometry.union_area(plan.rooms) == boundary_area
            assert geometry.pairwise_overlap_area(plan.rooms) == 0
            assert plan.rooms and plan.rooms[0].kind is not None

    def test_every_plan_has_an_entrance_on_the_door(self):
        from ergoplan.plan import RoomType

        for seed in range(20):
            plan = dataset.synth_plan(seed)
            entrances = [r for r in plan.rooms if r.kind == RoomType.Entrance]
            assert len(entrances) == 1
            assert geometry.min_distance(entrances[0], plan.door) == 0.0

    def test_fixed_seed_identical_corpus(self):
        a = dataset.synth_generate(10, seed=42)
        b = dataset.synth_generate(10, seed=42)
        assert a.plans == b.plans
        assert a.ids == b.ids

    def test_de_ergonomized_corpus_costs_more(self):
        clean = dataset.synth_generate(60, seed=9, cfg=SynthConfig(de_ergonomize_fraction=0.0))
        messy = dataset.synth_generate(60, seed=9, cfg=SynthConfig(de_ergonomize_fraction=0.5))
        mean_clean, mean_messy = (
            np.mean([ergocost.ergonomic_cost(p).total for p in corpus.plans])
            for corpus in (clean, messy)
        )
        assert mean_messy > mean_clean
