"""The four workloads: seeded inputs, one fixed-size unit of work each, and
the correctness checks on a unit's outputs.

All of them use the criterion-8 recipe: 4 layers, 4 heads, 64-dim
embeddings, context 128, batch 16, lr 1e-3, gamma 5, and synthetic plans of
which half are de-ergonomized. A unit's size is fixed in steps, prefixes or
sequences, never in seconds, so both commits of a comparison do the same
work per unit.
"""

from time import perf_counter

import numpy as np

from ergoplan import dataset, guidance, metrics, model, tokenizer

RESOLUTION = 256
VOCAB = tokenizer.Vocabulary(RESOLUTION)
SYNTH = dataset.SynthConfig(resolution=RESOLUTION, de_ergonomize_fraction=0.5)
GUIDANCE = guidance.GuidanceConfig(resolution=RESOLUTION, gamma=5.0)
BATCH = 16
TRAIN_PLANS = 1000
TRAIN_STEPS = 50  # one train unit
FINAL_LOSS_STEPS = 10  # train_final_loss averages the log's last steps
DECODE_PREFIXES = 128  # one decode unit, one batch
# a 200-step baseline run ends rows at EOS with ragged lengths; untrained
# weights would run every row to the context limit. Its seed is fixed: the
# cost per token grows with output length, which is a property of the
# weights, so weights trained per run seed spread throughput by ~20%
DECODE_WEIGHT_STEPS = 200
DECODE_WEIGHT_SEED = 0
HOLDOUT_SEED_OFFSET = 1_000_003
# a greedy choice may trail the teacher-forced row maximum by this much,
# relative to the row's largest |logit|, before it counts as not reproduced
LOGIT_TOL = 1e-4
CHECK_ROWS = 16
# eval inputs: clean tilings, a room edge moved by one lattice step (still
# valid, now with an overlap or a gap), one vertex moved off the axis
# (parses, fails validation), one room coordinate dropped (fails to parse)
# exact counts, in seeded order, so the cheap failing share does not vary
EVAL_KINDS = {"clean": 700, "moved": 150, "invalid": 100, "unparsable": 50}


def model_config(seed):
    return model.ModelConfig(
        layers=4, heads=4, embed_dim=64, context_len=128, vocab_size=VOCAB.size, seed=seed
    )


def train_config(seed, steps, guided):
    return model.TrainConfig(steps=steps, batch_size=BATCH, lr=1e-3, guided=guided, seed=seed)


def train_samples(seed):
    corpus = dataset.synth_generate(TRAIN_PLANS, seed=seed, cfg=SYNTH)
    return [(tokenizer.encode(p, VOCAB), p) for p in corpus.plans]


def holdout_plans(n, seed):
    return dataset.synth_generate(n, seed=seed + HOLDOUT_SEED_OFFSET, cfg=SYNTH).plans


class Train:
    """model.train from a fresh state; guided or baseline."""

    item = "sample"

    def __init__(self, guided):
        self.guided = guided

    def inputs(self, seed):
        return train_samples(seed)

    def prepare(self, seed, samples):
        return {
            "samples": samples,
            "mcfg": model_config(seed),
            "tcfg": train_config(seed, TRAIN_STEPS, self.guided),
        }

    def unit(self, ctx):
        start = perf_counter()
        state, log = model.train(ctx["samples"], ctx["mcfg"], ctx["tcfg"], GUIDANCE)
        return perf_counter() - start, TRAIN_STEPS * BATCH, (state, log)

    def fingerprint(self, output):
        state, log = output
        return model.parameter_checksum(state.params), [loss.total for loss in log]

    def check(self, ctx, output):
        state, log = output
        totals = [loss.total for loss in log]
        summary = {
            "checksum": model.parameter_checksum(state.params),
            "first_loss": totals[0],
            "train_final_loss": float(np.mean(totals[-FINAL_LOSS_STEPS:])),
            "alpha_mean": float(np.mean([loss.alpha for loss in log])),
        }
        failures = []
        if len(log) != TRAIN_STEPS:
            failures.append(f"ran {len(log)} of {TRAIN_STEPS} steps")
        if not np.all(np.isfinite(totals)):
            failures.append("non-finite step loss")
        if not summary["train_final_loss"] < summary["first_loss"]:
            failures.append("final loss not below the first step's loss")
        if self.guided and not summary["alpha_mean"] > 0:
            failures.append("no sample took the guided path")
        if not self.guided and summary["alpha_mean"] != 0:
            failures.append("baseline run mixed in a plan loss")
        return summary, failures

    def draws(self):
        """Samples whose mixing weight one unit looks up."""
        return TRAIN_STEPS * BATCH if self.guided else 0


class Decode:
    """One Model.generate_batch call over seeded holdout boundary+door
    prefixes, with weights from a short fixed-seed baseline run made in
    set-up."""

    item = "token"

    def inputs(self, seed):
        prefixes = [
            tokenizer.boundary_door_prefix(tokenizer.encode(p, VOCAB), VOCAB)
            for p in holdout_plans(DECODE_PREFIXES, seed)
        ]
        return train_samples(DECODE_WEIGHT_SEED), prefixes

    def prepare(self, seed, inputs):
        samples, prefixes = inputs
        mcfg = model_config(DECODE_WEIGHT_SEED)
        state, _ = model.train(
            samples,
            mcfg,
            train_config(DECODE_WEIGHT_SEED, DECODE_WEIGHT_STEPS, False),
            GUIDANCE,
        )
        return {"net": model.Model(mcfg, state.params, VOCAB), "prefixes": prefixes}

    def unit(self, ctx):
        start = perf_counter()
        outputs = ctx["net"].generate_batch(ctx["prefixes"])
        elapsed = perf_counter() - start
        generated = sum(len(toks) for toks, _ in outputs) - sum(map(len, ctx["prefixes"]))
        return elapsed, generated, outputs

    def fingerprint(self, outputs):
        return outputs

    def check(self, ctx, outputs):
        report = metrics.evaluate([list(toks) for toks, _ in outputs], metrics.EvalConfig())
        summary = {
            "truncated": sum(bool(t) for _, t in outputs),
            "gen_parsability": report.parsability,
            "gen_validity": report.validity,
            "not_reproduced": greedy_mismatches(ctx["net"], outputs, ctx["prefixes"]),
        }
        failures = []
        if summary["not_reproduced"]:
            failures.append(f"{summary['not_reproduced']} greedy choices not reproduced")
        if any(toks[: len(p)] != tuple(p) for (toks, _), p in zip(outputs, ctx["prefixes"])):
            failures.append("an output does not start with its prefix")
        return summary, failures

    def draws(self):
        return 0


def greedy_mismatches(net, outputs, prefixes):
    """Generated positions whose token trails the row maximum of one
    teacher-forced forward pass over the finished sequences. Rows go
    through in chunks, so the check does not set the peak memory."""
    bad = 0
    for lo in range(0, len(outputs), CHECK_ROWS):
        seqs = [list(toks) for toks, _ in outputs[lo : lo + CHECK_ROWS]]
        width = max(len(s) for s in seqs) - 1
        tokens = np.full((len(seqs), width), VOCAB.pad, dtype=np.int64)
        xy = np.zeros((len(seqs), width), dtype=np.int64)
        vert = np.zeros((len(seqs), width), dtype=np.int64)
        for row, s in enumerate(seqs):
            x, v = tokenizer.indices_for_tokens(s[:-1], VOCAB)
            tokens[row, : len(s) - 1] = s[:-1]
            xy[row, : len(s) - 1] = x
            vert[row, : len(s) - 1] = np.minimum(v, net.cfg.max_vertex_index)
        logits = model.forward_logits(net.params, net.cfg, tokens, xy, vert).astype(np.float64)
        for row, (s, p) in enumerate(zip(seqs, prefixes[lo : lo + CHECK_ROWS])):
            rows = logits[row, len(p) - 1 : len(s) - 1]
            chosen = rows[np.arange(len(rows)), s[len(p) :]]
            tol = LOGIT_TOL * np.maximum(1.0, np.abs(rows).max(-1))
            bad += int((rows.max(-1) - chosen > tol).sum())
    return bad


class Eval:
    """metrics.evaluate over encoded holdout plans with seeded defects."""

    item = "sequence"

    def inputs(self, seed):
        kinds = [kind for kind, count in EVAL_KINDS.items() for _ in range(count)]
        plans = holdout_plans(len(kinds), seed)
        rng = np.random.default_rng(seed)
        kinds = [kinds[int(i)] for i in rng.permutation(len(kinds))]
        seqs = [corrupt(list(tokenizer.encode(p, VOCAB).tokens), kind, rng) for p, kind in zip(plans, kinds)]
        return seqs, kinds

    def prepare(self, seed, inputs):
        seqs, kinds = inputs
        return {"seqs": seqs, "kinds": kinds, "cfg": metrics.EvalConfig(resolution=RESOLUTION)}

    def unit(self, ctx):
        start = perf_counter()
        report = metrics.evaluate(ctx["seqs"], ctx["cfg"])
        return perf_counter() - start, len(ctx["seqs"]), report

    def fingerprint(self, report):
        return report

    def check(self, ctx, report):
        kinds = ctx["kinds"]
        clean = [s for s, k in zip(ctx["seqs"], kinds) if k == "clean"]
        clean_report = metrics.evaluate(clean, ctx["cfg"])
        clean_binary = [
            clean_report.parsability,
            clean_report.validity,
            clean_report.fully_covered,
            clean_report.no_room_overlapping,
        ]
        summary = {"kinds": {k: kinds.count(k) for k in EVAL_KINDS}, "report": report.to_dict()}
        parsed = len(kinds) - kinds.count("unparsable")
        valid = parsed - kinds.count("invalid")
        failures = []
        if (report.n_parsed, report.n_valid) != (parsed, valid):
            failures.append(
                f"parsed/valid {report.n_parsed}/{report.n_valid}, construction implies {parsed}/{valid}"
            )
        if clean_binary != [1.0] * 4:
            failures.append(f"clean subset scores {clean_binary}, not 1.0 on all four")
        return summary, failures

    def draws(self):
        return 0


def corrupt(tokens, kind, rng):
    """Apply one seeded defect of a known outcome to one room of an encoded
    synthetic plan. Synthetic rooms are lattice-aligned rectangles at least
    two lattice steps wide, encoded as a start token and four x, y pairs."""
    if kind == "clean":
        return tokens
    starts = [i for i, t in enumerate(tokens) if VOCAB.room_type_of(t) is not None]
    at = starts[int(rng.integers(len(starts)))] + 1
    if kind == "unparsable":
        return tokens[:at] + tokens[at + 1 :]  # unpaired coordinate
    if kind == "invalid":
        tokens[at] += 1  # the first vertex leaves its vertical edge
        return tokens
    xs = tokens[at : at + 8 : 2]
    right = max(xs)
    boundary_right = max(tokens[2 : tokens.index(VOCAB.door_token) : 2])
    # grow into the neighbour when the edge is interior, else shrink
    moved = right + SYNTH.lattice_step if right < boundary_right else right - SYNTH.lattice_step
    for k in range(at, at + 8, 2):
        if tokens[k] == right:
            tokens[k] = moved
    return tokens


WORKLOADS = {
    "train-baseline": Train(guided=False),
    "train-guided": Train(guided=True),
    "decode": Decode(),
    "eval": Eval(),
}
