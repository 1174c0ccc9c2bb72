import functools
import multiprocessing
import sys
import threading
import tracemalloc

import numpy as np
import oracles
import pytest

from conftest import make_plan, rect

from ergoplan import dataset, ergoloss, guidance, metrics, model, tokenizer
from ergoplan.dataset import SynthConfig, synth_plan
from ergoplan.errors import ContextOverflow, EmptyInput, OutOfRange
from ergoplan.model import Model, ModelConfig, TrainConfig
from ergoplan.plan import RoomType

V = tokenizer.Vocabulary(256)

MICRO = ModelConfig(layers=1, heads=2, embed_dim=8, context_len=96, dtype="float64", seed=3)
SMALL = ModelConfig(layers=2, heads=2, embed_dim=48, context_len=128, seed=0)

SYNTH_SMALL = SynthConfig(rooms_min=3, rooms_max=4, de_ergonomize_fraction=0.5)


def samples_from(corpus):
    return [(tokenizer.encode(p, V), p) for p in corpus.plans]


@pytest.fixture(scope="module")
def memorized():
    """A small model trained to memorize 20 plans; reused across tests."""
    corpus = dataset.synth_generate(20, seed=11, cfg=SYNTH_SMALL)
    samples = samples_from(corpus)
    cfg = TrainConfig(steps=400, batch_size=8, guided=False, seed=5, lr=3e-3)
    state, log = model.train(samples, SMALL, cfg)
    return state, log, samples


class TestForward:
    def test_rows_sum_to_one(self):
        net = Model(SMALL)
        seq = tokenizer.encode(synth_plan(0, SYNTH_SMALL), V)
        probs = net.forward(seq)
        assert probs.shape == (len(seq), SMALL.vocab_size)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)

    def test_causality_under_suffix_permutation(self):
        net = Model(SMALL)
        seq = tokenizer.encode(synth_plan(1, SYNTH_SMALL), V)
        tokens = np.array(seq.tokens)
        xy = np.array(seq.xy_index)
        vert = np.array(seq.vertex_index)
        cut = len(tokens) // 2
        logits_a = model.forward_logits(net.params, SMALL, tokens, xy, vert)
        perm = np.arange(len(tokens))
        perm[cut:] = perm[cut:][::-1]
        logits_b = model.forward_logits(net.params, SMALL, tokens[perm], xy[perm], vert[perm])
        assert np.array_equal(logits_a[0, : cut - 1], logits_b[0, : cut - 1])

    def test_fixed_seed_bit_identical(self):
        seq = tokenizer.encode(synth_plan(2, SYNTH_SMALL), V)
        out1 = Model(ModelConfig(seed=7, context_len=128)).forward(seq)
        out2 = Model(ModelConfig(seed=7, context_len=128)).forward(seq)
        assert np.array_equal(out1, out2)

    def test_context_overflow(self):
        net = Model(ModelConfig(context_len=8))
        seq = tokenizer.encode(synth_plan(0, SYNTH_SMALL), V)
        with pytest.raises(ContextOverflow):
            net.forward(seq)

    def test_bad_token_id(self):
        with pytest.raises(OutOfRange):
            model.forward_logits(
                Model(SMALL).params, SMALL, np.array([[0, 9999]]), np.zeros((1, 2), int), np.zeros((1, 2), int)
            )

    def test_bad_index_streams(self):
        params = Model(SMALL).params
        ok = np.zeros((1, 2), int)
        for xy, vert in ((ok + 3, ok), (ok, ok - 1), (ok, ok + SMALL.max_vertex_index + 1)):
            with pytest.raises(OutOfRange):
                model.forward_logits(params, SMALL, ok, xy, vert)

    def test_zeroed_index_tables_ignore_index_streams(self):
        net = Model(SMALL)
        net.params["xy_emb"][:] = 0.0
        net.params["vert_emb"][:] = 0.0
        seq = tokenizer.encode(synth_plan(3, SYNTH_SMALL), V)
        tokens = np.array(seq.tokens)
        base = model.forward_logits(
            net.params, SMALL, tokens, np.array(seq.xy_index), np.array(seq.vertex_index)
        )
        scrambled = model.forward_logits(
            net.params, SMALL, tokens, np.zeros_like(tokens), np.zeros_like(tokens)
        )
        assert np.array_equal(base, scrambled)


class TestGradients:
    def test_full_graph_matches_finite_differences(self, spread_plan):
        plan = spread_plan  # known positive ground-truth loss (alpha ~0.02)
        seq = tokenizer.encode(plan, V)
        batch = [(seq, plan)]
        params = model.init_params(MICRO)
        train_cfg = TrainConfig(guided=True)
        gcfg = guidance.GuidanceConfig(resolution=256)
        sp = ergoloss.SoftParams()

        def loss_of(ps):
            loss, _ = model.batch_loss_and_grads(batch, ps, MICRO, train_cfg, gcfg, sp)
            return loss.total

        loss, grads = model.batch_loss_and_grads(batch, params, MICRO, train_cfg, gcfg, sp)
        assert loss.alpha > 0.0  # the guidance path must be active
        rng = np.random.default_rng(0)
        names = sorted(params)
        h = 1e-5
        checked = 0
        while checked < 20:
            name = names[int(rng.integers(len(names)))]
            flat_idx = int(rng.integers(params[name].size))
            idx = np.unravel_index(flat_idx, params[name].shape)
            plus = {k: v.copy() for k, v in params.items()}
            minus = {k: v.copy() for k, v in params.items()}
            plus[name][idx] += h
            minus[name][idx] -= h
            fd = (loss_of(plus) - loss_of(minus)) / (2 * h)
            analytic = grads[name][idx]
            denom = max(abs(fd), abs(analytic), 1e-6)
            assert abs(fd - analytic) / denom < 1e-3, (name, idx, fd, analytic)
            checked += 1


def noisy_params(cfg, seed=0):
    """Seeded parameters with every gain and bias moved off 1 and 0, so each
    kernel operand takes part in the comparison."""
    rng = np.random.default_rng(seed)
    return {
        name: (arr + 0.1 * rng.standard_normal(arr.shape)).astype(arr.dtype)
        for name, arr in model.init_params(cfg).items()
    }


def assert_matches_reference(params, cfg, tokens, xy, vert, seed=0):
    """Forward and backward must equal the reference kernels bit for bit."""
    logits, cache = model.forward_logits(params, cfg, tokens, xy, vert, need_cache=True)
    ref_logits, ref_cache = oracles.forward_logits(params, cfg, tokens, xy, vert, need_cache=True)
    assert np.array_equal(logits, ref_logits)
    assert np.array_equal(model.forward_logits(params, cfg, tokens, xy, vert), ref_logits)
    dlogits = np.random.default_rng(seed).standard_normal(logits.shape).astype(logits.dtype)
    grads = model.backward_logits(params, cfg, cache, dlogits)
    ref_grads = oracles.backward_logits(params, cfg, ref_cache, dlogits)
    for name in params:
        assert grads[name].dtype == ref_grads[name].dtype, name
        assert np.array_equal(grads[name], ref_grads[name]), name


def padded(plans, cfg=SMALL):
    batch = [(tokenizer.encode(p, V), p) for p in plans]
    return model._pad_batch(batch, V, cfg.max_vertex_index)


class TestReferenceKernels:
    def test_ragged_padded_float32_batch(self):
        tokens, xy, vert = padded([synth_plan(s, SYNTH_SMALL) for s in (0, 4, 9)])
        assert (tokens == V.pad).any()  # the rows really are ragged
        assert_matches_reference(noisy_params(SMALL), SMALL, tokens, xy, vert)

    def test_single_position(self):
        one = np.zeros((2, 1), dtype=np.int64)
        assert_matches_reference(noisy_params(SMALL), SMALL, one + V.bos, one, one)

    def test_lengths_back_to_back(self):
        # a new length builds a new cached mask; the old one is reused after
        tokens, xy, vert = padded([synth_plan(5, SYNTH_SMALL)])
        params = noisy_params(SMALL, seed=1)
        for n in (7, 12, 7):
            assert_matches_reference(params, SMALL, tokens[:, :n], xy[:, :n], vert[:, :n])

    def test_float64_micro(self):
        tokens, xy, vert = padded([synth_plan(s, SYNTH_SMALL) for s in (2, 3)], MICRO)
        params = noisy_params(MICRO, seed=2)
        assert params["tok_emb"].dtype == np.float64
        assert_matches_reference(params, MICRO, tokens, xy, vert)

    def test_train_steps_match_reference(self, monkeypatch):
        corpus = dataset.synth_generate(6, seed=3, cfg=SYNTH_SMALL)
        samples = samples_from(corpus)
        cfg = TrainConfig(batch_size=4, guided=True, seed=9)
        batches = [[samples[i] for i in (s, s + 1, s + 2, 0)] for s in range(3)]
        # from the first step, and across the end of the learning rate's
        # 100-step warmup
        for start in (0, 98):
            state = model.init_train_state(SMALL, cfg)
            state.step = start
            for batch in batches:
                model.train_step(batch, state, SMALL, cfg)

            monkeypatch.setattr(model, "forward_logits", oracles.forward_logits)
            monkeypatch.setattr(model, "backward_logits", oracles.backward_logits)
            monkeypatch.setattr(model, "_softmax", oracles._softmax)
            ref = model.init_train_state(SMALL, cfg)
            ref.step = start
            for batch in batches:
                oracles.train_step(batch, ref, SMALL, cfg)
            monkeypatch.undo()

            assert state.step == start + 3
            assert_states_equal(state, ref)


class TestInPlaceHazards:
    def test_inputs_unchanged_by_forward_backward_and_decode(self):
        params = noisy_params(SMALL, seed=3)
        before = model.parameter_checksum(params)
        tokens, xy, vert = padded([synth_plan(s, SYNTH_SMALL) for s in (1, 6)])
        logits, cache = model.forward_logits(params, SMALL, tokens, xy, vert, need_cache=True)

        def arrays(node, path=()):
            if isinstance(node, np.ndarray):
                yield path, node
            elif isinstance(node, dict):
                for key, child in node.items():
                    yield from arrays(child, path + (key,))
            elif isinstance(node, (list, tuple)):
                for j, child in enumerate(node):
                    yield from arrays(child, path + (j,))

        saved = [(path, arr.copy()) for path, arr in arrays(cache)]
        assert len(saved) > 14 * SMALL.layers  # every layer caches 14 arrays
        dlogits = np.ones_like(logits)
        model.backward_logits(params, SMALL, cache, dlogits)
        assert (dlogits == 1.0).all()
        for (path, before_arr), (_, after_arr) in zip(saved, arrays(cache)):
            assert np.array_equal(after_arr, before_arr), path
        net = Model(SMALL, params)
        net.generate_batch([tokens[0, :5], tokens[1, :9]], max_len=16)
        assert model.parameter_checksum(params) == before

    def test_cached_mask_is_read_only(self):
        mask = model._causal_mask(5, np.dtype(np.float32))
        assert model._causal_mask(5, np.dtype(np.float32)) is mask
        with pytest.raises(ValueError):
            mask[0, 1] = 0.0
        assert mask[0, 1] == np.float32(-1e9)


def oracle_states(monkeypatch, runs):
    """Fresh states stepped by oracles.train_step over each run's batches,
    with the earlier kernels patched in; runs are (model_cfg, train_cfg,
    batches)."""
    monkeypatch.setattr(model, "forward_logits", oracles.forward_logits)
    monkeypatch.setattr(model, "backward_logits", oracles.backward_logits)
    monkeypatch.setattr(model, "_softmax", oracles._softmax)
    states = []
    for mcfg, tcfg, batches in runs:
        state = model.init_train_state(mcfg, tcfg)
        for batch in batches:
            oracles.train_step(batch, state, mcfg, tcfg)
        states.append(state)
    monkeypatch.undo()
    return states


def assert_states_equal(state, ref):
    assert state.step == ref.step
    assert model.parameter_checksum(state.params) == model.parameter_checksum(ref.params)
    for name in state.params:
        assert np.array_equal(state.adam_m[name], ref.adam_m[name]), name
        assert np.array_equal(state.adam_v[name], ref.adam_v[name]), name


class TestWorkspace:
    def test_reused_across_lengths_and_interleaved_states(self, monkeypatch):
        synth = SynthConfig(rooms_min=3, rooms_max=6, de_ergonomize_fraction=0.5)
        corpus = dataset.synth_generate(16, seed=8, cfg=synth)
        samples = sorted(samples_from(corpus), key=lambda s: len(s[0]))
        longest = len(samples[-1][0])
        below = [s for s in samples if len(s[0]) < longest]
        short, long_, full = samples[:3], below[-3:], samples[-1:] + samples[:2]
        assert len(short[-1][0]) < len(long_[0][0])
        # full reaches the whole context; long_ stays below it
        small = ModelConfig(**{**vars(SMALL), "context_len": longest})
        micro = ModelConfig(**{**vars(MICRO), "context_len": longest})
        shrinking = [full, long_, short, long_]  # the largest batch first
        growing = [long_, short, long_, full]  # grows on the last step
        runs = [
            (small, TrainConfig(batch_size=3, guided=True, seed=9), shrinking),
            (small, TrainConfig(batch_size=3, guided=False, seed=2), growing),
            (micro, TrainConfig(batch_size=3, guided=True, seed=5), shrinking),
        ]
        states = [model.init_train_state(mcfg, tcfg) for mcfg, tcfg, _ in runs]
        seen = [None] * len(runs)
        for step in range(4):  # the three states take turns
            for k, ((mcfg, tcfg, batches), state) in enumerate(zip(runs, states)):
                model.train_step(batches[step], state, mcfg, tcfg)
                buffers = dict(state.workspace.buffers)
                if batches is shrinking and step > 0:
                    assert buffers.keys() == seen[k].keys()
                    assert all(buffers[name] is seen[k][name] for name in buffers)
                seen[k] = buffers
        assert states[2].workspace.buffers["rows"].dtype == np.float64
        assert states[2].params["tok_emb"].dtype == np.float64

        for state, ref in zip(states, oracle_states(monkeypatch, runs), strict=True):
            assert_states_equal(state, ref)

    def test_warm_step_allocates_little(self):
        # the perfbench recipe: batch 16 of the longest plans, 4 layers,
        # 64-dim embeddings; every array the step writes lives in the state
        corpus = dataset.synth_generate(100, seed=1, cfg=SynthConfig(de_ergonomize_fraction=0.5))
        samples = sorted(samples_from(corpus), key=lambda s: len(s[0]))
        batch = samples[-16:]
        assert len(batch[-1][0]) >= 80
        mcfg = ModelConfig(layers=4, heads=4, embed_dim=64, context_len=128, vocab_size=V.size)
        tcfg = TrainConfig(batch_size=16, guided=False, lr=1e-3)
        state = model.init_train_state(mcfg, tcfg)
        model.train_step(batch, state, mcfg, tcfg)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            model.train_step(batch, state, mcfg, tcfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # about 52 MiB when every step allocated its cache and gradients
        assert peak - before <= 4 * 2**20


RECIPE = ModelConfig(layers=4, heads=4, embed_dim=64, context_len=128, vocab_size=V.size, seed=1)


@pytest.fixture(scope="module")
def recipe_batches():
    """Three batches of 16 ragged samples at the benchmark's recipe shape."""
    corpus = dataset.synth_generate(60, seed=21, cfg=SynthConfig(de_ergonomize_fraction=0.5))
    samples = samples_from(corpus)
    rng = np.random.default_rng(7)
    return [[samples[int(i)] for i in rng.integers(0, len(samples), 16)] for _ in range(3)]


def stepped(mcfg, tcfg, batches):
    state = model.init_train_state(mcfg, tcfg)
    losses = [model.train_step(batch, state, mcfg, tcfg)[1] for batch in batches]
    return state, losses


def _child_forward(params, cfg, tokens, xy, vert):
    return model.forward_logits(params, cfg, tokens, xy, vert).copy()


class TestRowHalves:
    """Training batches run as two row halves on two threads; every result
    must equal the one-thread reference kernels bit for bit."""

    @pytest.mark.parametrize("guided", [False, True])
    def test_recipe_steps_equal_oracle(self, monkeypatch, recipe_batches, guided):
        tcfg = TrainConfig(batch_size=16, guided=guided, lr=1e-3, seed=1)
        monkeypatch.setattr(model, "_cpus", lambda: 2)  # the worker runs on any host
        state, losses = stepped(RECIPE, tcfg, recipe_batches)
        assert len({len(seq) for seq, _ in recipe_batches[0]}) > 1  # ragged
        assert not guided or any(loss.alpha > 0 for loss in losses)

        monkeypatch.setattr(model, "forward_logits", oracles.forward_logits)
        monkeypatch.setattr(model, "backward_logits", oracles.backward_logits)
        monkeypatch.setattr(model, "_softmax", oracles._softmax)
        ref = model.init_train_state(RECIPE, tcfg)
        ref_losses = [oracles.train_step(batch, ref, RECIPE, tcfg)[1] for batch in recipe_batches]
        monkeypatch.undo()
        assert losses == ref_losses
        assert_states_equal(state, ref)

        monkeypatch.setattr(model, "_cpus", lambda: 1)  # no worker: one thread
        serial, serial_losses = stepped(RECIPE, tcfg, recipe_batches)
        assert serial_losses == losses
        assert_states_equal(serial, state)

    @pytest.mark.parametrize("b", [1, 2, 3])
    @pytest.mark.parametrize("t", [1, 9])
    def test_small_batches_equal_reference(self, monkeypatch, b, t):
        monkeypatch.setattr(model, "_cpus", lambda: 2)
        tokens, xy, vert = padded([synth_plan(s, SYNTH_SMALL) for s in range(b)])
        params = noisy_params(SMALL, seed=b)
        assert_matches_reference(params, SMALL, tokens[:, :t], xy[:, :t], vert[:, :t], seed=t)

    def test_worker_exception_reaches_the_caller(self, monkeypatch, recipe_batches):
        monkeypatch.setattr(model, "_cpus", lambda: 2)
        tcfg = TrainConfig(batch_size=16, guided=False, lr=1e-3, seed=1)
        expected, _ = stepped(RECIPE, tcfg, recipe_batches[:1])
        gelu_grad = model._gelu_grad

        def failing_off_main(*args):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("row half failed")
            return gelu_grad(*args)

        state = model.init_train_state(RECIPE, tcfg)
        monkeypatch.setattr(model, "_gelu_grad", failing_off_main)
        with pytest.raises(RuntimeError, match="row half failed"):
            model.train_step(recipe_batches[0], state, RECIPE, tcfg)
        monkeypatch.setattr(model, "_gelu_grad", gelu_grad)
        assert state.step == 0
        model.train_step(recipe_batches[0], state, RECIPE, tcfg)
        assert_states_equal(state, expected)

    def test_process_pools_after_a_threaded_step(self, monkeypatch, recipe_batches):
        monkeypatch.setattr(model, "_cpus", lambda: 2)
        tcfg = TrainConfig(batch_size=16, guided=False, lr=1e-3, seed=1)
        state, _ = stepped(RECIPE, tcfg, recipe_batches[:1])
        seqs = [list(seq.tokens) for batch in recipe_batches for seq, _ in batch]
        seqs[3] = seqs[3][:-2]  # one sequence that does not parse
        cfg = metrics.EvalConfig()
        assert metrics.evaluate(seqs, cfg, threads=2) == metrics.evaluate(seqs, cfg)
        # a forked child starts its own worker instead of waiting on the
        # parent's, which does not exist in the child
        tokens, xy, vert = padded([p for _, p in recipe_batches[0][:4]], RECIPE)
        args = (state.params, RECIPE, tokens, xy, vert)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            child = pool.apply_async(_child_forward, args).get(timeout=120)
        assert np.array_equal(child, model.forward_logits(*args))
        model.train_step(recipe_batches[1], state, RECIPE, tcfg)
        assert state.step == 2

    def test_every_job_runs_once_under_contention(self, monkeypatch):
        # more calling threads than cores share the one worker, switching
        # as often as the interpreter allows
        monkeypatch.setattr(model, "_cpus", lambda: 2)
        failures = []

        def caller(k):
            for n in range(200):
                ran = []
                model._run(*(functools.partial(ran.append, j) for j in range(6)))
                if sorted(ran) != list(range(6)):
                    failures.append((k, n, ran))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []

    def test_embedding_sums_equal_add_at(self):
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((40, 6)).astype(np.float32)
        ids = rng.integers(0, 3, 40)
        ids[::7] = 3  # id 3 sums -0.0 rows only; id 4 never occurs
        rows[::7] = -0.0
        rows[1::7, 2] = -0.0  # a -0.0 among nonzero rows of other ids
        rows[[5, 9], 1] = 3e38  # overflow and cancellation keep their order
        rows[11, 1] = -3e38
        ids[[5, 9, 11]] = 1
        table = np.zeros((5, 6), np.float32)
        expected = table.copy()
        with np.errstate(over="ignore"):
            np.add.at(expected, ids, rows)
            model._add_rows(table, ids, rows)
        assert table.tobytes() == expected.tobytes()
        assert not np.signbit(table[3:]).any() and np.isinf(table[1, 1])

    def test_decode_prefill_writes_the_cached_keys_and_values(self):
        params = noisy_params(SMALL, seed=5)
        tokens, xy, vert = padded([synth_plan(s, SYNTH_SMALL) for s in (0, 4, 9)])
        width = 20
        shape = (3, SMALL.heads, 32, SMALL.embed_dim // SMALL.heads)
        keys = [np.zeros(shape, np.float32) for _ in range(SMALL.layers)]
        values = [np.zeros(shape, np.float32) for _ in range(SMALL.layers)]
        args = (params, SMALL, tokens[:, :width], xy[:, :width], vert[:, :width])
        logits = model.forward_logits(*args, kv=(keys, values)).copy()
        full, cache = model.forward_logits(*args, need_cache=True)
        assert np.array_equal(logits, full)
        for k, v, layer in zip(keys, values, cache["layers"]):
            assert np.array_equal(k[:, :, :width], layer["k"])
            assert np.array_equal(v[:, :, :width], layer["v"])
            assert not k[:, :, width:].any() and not v[:, :, width:].any()


def recipe_guided_batch(recipe_batches):
    """16 recipe samples: one plan twice, one plan that no rule applies to,
    and a last sample that predicts EOS everywhere (see eos_last)."""
    storage = make_plan(
        rect(0, 0, 64, 64), ((0, 4), (0, 8)), [(RoomType.Storage, rect(16, 16, 32, 32))]
    )
    batch = recipe_batches[0][:13] + [recipe_batches[0][2], (tokenizer.encode(storage, V), storage)]
    guided = next(s for s in recipe_batches[1] if ergoloss.ergonomic_loss(s[1]).total > 0)
    return batch + [guided]


def eos_last(forward):
    """forward_logits whose last row predicts EOS at every position, so that
    the sample has no eligible position under any weights."""

    def wrapped(*args, **kwargs):
        out = forward(*args, **kwargs)
        logits = out[0] if isinstance(out, tuple) else out
        logits[-1, :, V.eos] += 100.0
        return out

    return wrapped


class TestGuidedBatch:
    """The guidance of a whole batch is scored at once; it must equal the
    per-sample reference bit for bit."""

    GUIDANCE = guidance.GuidanceConfig(gamma=5.0)

    def test_recipe_batch_equals_per_sample_oracle(self, monkeypatch, recipe_batches):
        batch = recipe_guided_batch(recipe_batches)
        assert len(batch) == 16 and batch[2] is batch[13]
        assert ergoloss.PairTable(batch[14][1]).total is None
        params = noisy_params(RECIPE)
        tcfg = TrainConfig(batch_size=16, guided=True)
        monkeypatch.setattr(model, "forward_logits", eos_last(model.forward_logits))
        # the last sample would be guided but has no eligible position
        seq, plan = batch[-1]
        tokens, xy, vert = model._pad_batch([(seq, plan)], V, RECIPE.max_vertex_index)
        logits = model.forward_logits(params, RECIPE, tokens, xy, vert)[0, :-1]
        rows = np.zeros((1, len(seq), V.size))
        rows[0, 1:] = model._softmax(logits.astype(np.float64))
        table = ergoloss.PairTable(plan)
        assert table.total is not None
        guided = guidance.positional_losses([table], tokens, rows, self.GUIDANCE)
        assert guided.counts.tolist() == [0]

        loss, grads = model.batch_loss_and_grads(batch, params, RECIPE, tcfg, self.GUIDANCE)
        ref_loss, ref_grads = oracles.batch_loss_and_grads(
            batch, params, RECIPE, tcfg, self.GUIDANCE
        )
        assert 0.0 < loss.alpha < 1.0
        assert loss == ref_loss
        assert grads.keys() == ref_grads.keys()
        for name, ref in ref_grads.items():
            assert np.array_equal(grads[name], ref), name

    def test_cold_cache_step_equals_warm_step(self, recipe_batches):
        batch = recipe_guided_batch(recipe_batches)
        params = noisy_params(RECIPE, seed=2)
        tcfg = TrainConfig(batch_size=16, guided=True)
        cache = {}
        cold_loss, cold = model.batch_loss_and_grads(
            batch, params, RECIPE, tcfg, self.GUIDANCE, alpha_cache=cache
        )
        cold = {name: g.copy() for name, g in cold.items()}
        sp = ergoloss.SoftParams()
        assert cache.keys() == {(plan, sp) for _, plan in batch}
        assert len(cache) == 15  # one plan is drawn twice
        for (plan, params_), table in cache.items():
            alone = ergoloss.PairTable(plan, params_)
            assert table.pairs == alone.pairs
            assert np.array_equal(table.base, alone.base)
            assert [(t, c) for t, c, _ in table.rules] == [(t, c) for t, c, _ in alone.rules]
            for (_, _, cols), (_, _, alone_cols) in zip(table.rules, alone.rules, strict=True):
                assert np.array_equal(cols, alone_cols)
            assert table.values == alone.values
            assert table.total == alone.total
        tables = dict(cache)
        warm_loss, warm = model.batch_loss_and_grads(
            batch, params, RECIPE, tcfg, self.GUIDANCE, alpha_cache=cache
        )
        assert warm_loss == cold_loss
        assert all(np.array_equal(warm[name], g) for name, g in cold.items())
        assert cache.keys() == tables.keys()
        assert all(cache[key] is table for key, table in tables.items())


class TestTraining:
    def test_loss_decreases_on_memorization(self, memorized):
        _, log, _ = memorized
        first = np.mean([loss.total for loss in log[:20]])
        last = np.mean([loss.total for loss in log[-20:]])
        assert last < first * 0.5

    def test_same_seed_identical_checksums(self):
        corpus = dataset.synth_generate(6, seed=3, cfg=SYNTH_SMALL)
        samples = samples_from(corpus)
        cfg = TrainConfig(steps=10, batch_size=4, guided=True, seed=9)
        state_a, _ = model.train(samples, SMALL, cfg)
        state_b, _ = model.train(samples, SMALL, cfg)
        assert model.parameter_checksum(state_a.params) == model.parameter_checksum(
            state_b.params
        )

    def test_perfect_plans_reduce_to_pure_cross_entropy(self):
        # charged rooms share vertices with their targets, so the
        # ground-truth soft loss is numerically zero and alpha vanishes
        from conftest import make_plan, rect
        from ergoplan.plan import RoomType
        from ergoplan.ergoloss import ergonomic_loss

        plan = make_plan(
            rect(0, 0, 32, 32),
            ((0, 0), (0, 16)),  # door endpoints coincide with entrance corners
            [
                (RoomType.Entrance, rect(0, 0, 16, 16)),
                (RoomType.Kitchen, rect(16, 0, 32, 16)),
                (RoomType.Bathroom, rect(0, 16, 16, 32)),
            ],
        )
        assert ergonomic_loss(plan).total < 1e-4  # meters
        batch = [(tokenizer.encode(plan, V), plan)]
        guided_state = model.init_train_state(SMALL, TrainConfig(guided=True, seed=1))
        plain_state = model.init_train_state(SMALL, TrainConfig(guided=False, seed=1))
        model.train_step(batch, guided_state, SMALL, TrainConfig(guided=True, seed=1))
        model.train_step(batch, plain_state, SMALL, TrainConfig(guided=False, seed=1))
        assert model.parameter_checksum(guided_state.params) == model.parameter_checksum(
            plain_state.params
        )

    def test_alpha_cache_ignores_recycled_ids(self, spread_plan):
        # a stale entry at the plan's id() must not be returned for it
        gcfg = guidance.GuidanceConfig()
        sp = ergoloss.SoftParams()
        cache = {id(spread_plan): 0.75, (id(spread_plan), sp): 0.75}
        alpha = model._sample_alpha(model._plan_tables([spread_plan], sp, cache)[0], gcfg)
        assert alpha == guidance.alpha(ergoloss.ergonomic_loss(spread_plan, sp).total, gcfg)
        assert alpha != 0.75

    def test_alpha_follows_each_config(self, spread_plan):
        # one state stepped under several gammas and betas gets each
        # configuration's own mixing weight, not the first one's
        batch = [(tokenizer.encode(spread_plan, V), spread_plan)]
        tcfg = TrainConfig(guided=True, seed=1)
        state = model.init_train_state(SMALL, tcfg)
        configs = [
            (guidance.GuidanceConfig(gamma=5.0), ergoloss.SoftParams()),
            (guidance.GuidanceConfig(gamma=30.0), ergoloss.SoftParams()),
            (guidance.GuidanceConfig(gamma=5.0), ergoloss.SoftParams(beta=2.0)),
            (guidance.GuidanceConfig(gamma=5.0), ergoloss.SoftParams(beta=50.0)),
        ]
        alphas = []
        for gcfg, sp in configs:
            _, loss = model.train_step(batch, state, SMALL, tcfg, gcfg, sp)
            expected = guidance.alpha(ergoloss.ergonomic_loss(spread_plan, sp).total, gcfg)
            assert loss.alpha == expected
            alphas.append(loss.alpha)
        assert len(set(alphas)) == len(alphas)

    def test_guided_loss_and_grads_match_per_row_oracle(self):
        corpus = dataset.synth_generate(12, seed=4, cfg=SynthConfig(de_ergonomize_fraction=1.0))
        batch = samples_from(corpus)
        params = noisy_params(SMALL)
        tcfg = TrainConfig(guided=True)
        gcfg = guidance.GuidanceConfig(gamma=5.0)
        loss, grads = model.batch_loss_and_grads(batch, params, SMALL, tcfg, gcfg)
        ref_loss, ref_grads = oracles.batch_loss_and_grads(batch, params, SMALL, tcfg, gcfg)
        assert loss.alpha > 0.0
        assert loss == ref_loss
        assert all(np.array_equal(grads[k], ref_grads[k]) for k in ref_grads)

    def test_pad_id_comes_from_the_model_vocabulary(self):
        # coordinate 145 is the pad id of a 128-cell vocabulary; a baseline
        # step must not read it from the guidance config and mask it out
        plan = make_plan(
            rect(0, 0, 160, 160),
            ((0, 4), (0, 8)),
            [(RoomType.Entrance, rect(0, 0, 145, 145)), (RoomType.Kitchen, rect(145, 0, 160, 16))],
        )
        seq = tokenizer.encode(plan, V)
        assert tokenizer.Vocabulary(128).pad in seq.tokens
        batch = [(seq, plan)]
        params = noisy_params(MICRO)
        tcfg = TrainConfig(guided=False)
        loss, grads = model.batch_loss_and_grads(batch, params, MICRO, tcfg)
        other = guidance.GuidanceConfig(resolution=128)
        loss_128, grads_128 = model.batch_loss_and_grads(batch, params, MICRO, tcfg, other)
        assert loss_128 == loss
        assert all(np.array_equal(grads_128[k], g) for k, g in grads.items())

    def test_guided_resolution_must_match_the_vocabulary(self, spread_plan):
        batch = [(tokenizer.encode(spread_plan, V), spread_plan)]
        with pytest.raises(ValueError, match="resolution"):
            model.batch_loss_and_grads(
                batch,
                model.init_params(MICRO),
                MICRO,
                TrainConfig(guided=True),
                guidance.GuidanceConfig(resolution=128),
            )

    def test_checkpoint_round_trip(self, memorized, tmp_path):
        state, _, _ = memorized
        path = tmp_path / "ckpt.npz"
        model.save_checkpoint(path, state, SMALL, TrainConfig(steps=300))
        loaded, cfg, tcfg = model.load_checkpoint(path)
        assert cfg == SMALL
        assert tcfg["steps"] == 300
        assert loaded.step == state.step
        assert model.parameter_checksum(loaded.params) == model.parameter_checksum(state.params)
        for k in state.adam_m:
            assert np.array_equal(loaded.adam_m[k], state.adam_m[k])

    def test_resume_is_bit_identical(self, tmp_path):
        corpus = dataset.synth_generate(8, seed=6, cfg=SYNTH_SMALL)
        samples = samples_from(corpus)
        micro = ModelConfig(layers=1, heads=2, embed_dim=16, context_len=128, seed=4)
        full_cfg = TrainConfig(steps=12, batch_size=4, guided=True, seed=4)
        straight, _ = model.train(samples, micro, full_cfg)

        half_cfg = TrainConfig(steps=6, batch_size=4, guided=True, seed=4)
        half, _ = model.train(samples, micro, half_cfg)
        path = tmp_path / "half.npz"
        model.save_checkpoint(path, half, micro, half_cfg)
        loaded, loaded_cfg, _ = model.load_checkpoint(path)
        resumed, _ = model.train(samples, loaded_cfg, full_cfg, state=loaded)
        assert model.parameter_checksum(resumed.params) == model.parameter_checksum(
            straight.params
        )

    def test_from_scratch_first_token_across_seeds(self):
        # distributional check: across independently trained micro models,
        # the first greedy token after BOS is the boundary start
        corpus = dataset.synth_generate(10, seed=21, cfg=SYNTH_SMALL)
        samples = samples_from(corpus)
        micro = ModelConfig(layers=1, heads=2, embed_dim=16, context_len=128)
        hits = 0
        n_seeds = 20
        for seed in range(n_seeds):
            cfg = TrainConfig(steps=100, batch_size=4, guided=False, seed=seed, lr=3e-3)
            state, _ = model.train(
                samples, ModelConfig(**{**vars(micro), "seed": seed}), cfg
            )
            net = Model(ModelConfig(**{**vars(micro), "seed": seed}), state.params)
            out, _ = net.generate_batch([(V.bos,)], max_len=4)[0]
            hits += out[1] == V.boundary_token
        assert hits / n_seeds >= 0.95


class TestGenerate:
    def test_memorized_model_emits_eos(self, memorized):
        state, _, samples = memorized
        net = Model(SMALL, state.params)
        seq, _ = samples[0]
        prefix = seq.tokens[:-1]
        out, truncated = net.generate_batch([prefix])[0]
        assert not truncated
        assert out[-1] == V.eos

    def test_memorized_model_regenerates_rooms(self, memorized):
        state, _, samples = memorized
        net = Model(SMALL, state.params)
        hits = 0
        for seq, _ in samples[:10]:
            prefix = tokenizer.boundary_door_prefix(seq, V)
            out, _ = net.generate_batch([prefix])[0]
            hits += out == seq.tokens
        assert hits >= 8  # memorization: nearly all continuations exact

    def test_from_scratch_starts_with_boundary_token(self, memorized):
        state, _, _ = memorized
        net = Model(SMALL, state.params)
        out, _ = net.generate_batch([(V.bos,)])[0]
        assert out[1] == V.boundary_token

    def test_context_exhaustion_flagged(self):
        net = Model(ModelConfig(layers=1, heads=1, embed_dim=16, context_len=24, seed=2))
        out, truncated = net.generate_batch([(V.bos,)])[0]
        if truncated:
            assert len(out) == 24
        else:
            assert out[-1] == V.eos

    def test_step_logits_match_full_forward_on_ragged_batch(self):
        # teacher-forced: each row feeds its own plan's next tokens from its
        # own position, against one full forward over the grown sequences
        params = noisy_params(SMALL, seed=4)
        full, xy, vert = padded([synth_plan(s, SYNTH_SMALL) for s in (0, 4, 9)])
        lengths = np.array([5, 11, 8])
        width = lengths.max()
        logits, cache = model.forward_logits(
            params, SMALL, full[:, :width], xy[:, :width], vert[:, :width], need_cache=True
        )
        shape = (3, SMALL.heads, SMALL.context_len, SMALL.embed_dim // SMALL.heads)
        keys = [np.zeros(shape, np.float32) for _ in range(SMALL.layers)]
        values = [np.zeros(shape, np.float32) for _ in range(SMALL.layers)]
        for k, v, layer in zip(keys, values, cache["layers"]):
            k[:, :, :width] = layer["k"]
            v[:, :, :width] = layer["v"]
        reference = model.forward_logits(params, SMALL, full, xy, vert)
        rows = np.arange(3)
        for step in range(30):
            pos = lengths + step
            step_logits = model._decode_step(
                params, SMALL, keys, values, full[rows, pos], pos, xy[rows, pos], vert[rows, pos]
            )
            expected = reference[rows, pos]
            scale = np.abs(expected).max(-1, keepdims=True)
            assert (np.abs(step_logits - expected) <= 1e-5 * scale).all(), step

    def test_memorized_outputs_equal_reforward_oracle(self, memorized):
        state, _, samples = memorized
        net = Model(SMALL, state.params)
        prefixes = [tokenizer.boundary_door_prefix(s, V) for s, _ in samples[:6]]
        # rows of different lengths that finish at different steps
        prefixes += [seq.tokens[: 20 + 7 * j] for j, (seq, _) in enumerate(samples[6:9])]
        outputs = net.generate_batch(prefixes)
        assert outputs == oracles.generate_batch(net, prefixes)
        assert len({len(toks) - len(p) for (toks, _), p in zip(outputs, prefixes)}) > 3

    def test_context_exhaustion_and_eos_prefix_match_oracle(self):
        net = Model(ModelConfig(layers=1, heads=2, embed_dim=16, context_len=24, seed=2))
        prefixes = [
            (V.bos,),
            (V.bos, V.boundary_token, 40, 40),
            (V.bos, V.eos),  # already finished: returned as it is
            (V.bos,) + (7,) * 23,  # already at the context limit
        ]
        outputs = net.generate_batch(prefixes)
        assert outputs == oracles.generate_batch(net, prefixes)
        assert outputs[2] == ((V.bos, V.eos), False)
        assert outputs[3] == (prefixes[3], True)
        assert any(truncated and len(toks) == 24 for toks, truncated in outputs[:2])

    def test_empty_prefix_raises(self):
        net = Model(MICRO)
        with pytest.raises(EmptyInput):
            net.generate_batch([()])
        with pytest.raises(EmptyInput):
            net.generate_batch([(V.bos,), ()])

    def test_prefix_longer_than_max_len_raises(self):
        net = Model(MICRO)
        with pytest.raises(ContextOverflow):
            net.generate_batch([(V.bos,)], max_len=0)
        with pytest.raises(ContextOverflow):
            net.generate_batch([(V.bos,), (V.bos, V.boundary_token)], max_len=1)
        out, truncated = net.generate_batch([(V.bos,)], max_len=3)[0]
        assert len(out) <= 3 and (truncated or out[-1] == V.eos)

    def test_batch_generation_matches_single(self, memorized):
        state, _, samples = memorized
        net = Model(SMALL, state.params)
        prefixes = [tokenizer.boundary_door_prefix(s, V) for s, _ in samples[:4]]
        batch_out = net.generate_batch(prefixes)
        for prefix, (toks, truncated) in zip(prefixes, batch_out):
            single = net.generate_batch([prefix])[0]
            assert single == (toks, truncated)
