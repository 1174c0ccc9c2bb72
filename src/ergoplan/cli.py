"""Command-line entry point.

One executable, subcommand style. Exit codes: 0 success, 1 usage error
(an option value its config rejects counts as one), 2 data error.
Machine-readable output goes to stdout (JSON with --format json),
diagnostics to stderr. ERGOPLAN_SEED provides the default seed; a
key=value config file can pre-set train options, with explicit flags
winning.
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import dataset, ergocost, ergoloss, guidance, metrics, model, render, tokenizer
from .errors import ErgoplanError
from .plan import ScaleConfig, deserialize_plan, serialize_plan

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


SPLIT_CHOICES = (*dataset.SPLITS, "all")
SPLIT_HELP = "corpus split to read (default: test if the corpus has splits.json, else all)"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _env_seed(parser):
    raw = os.environ.get("ERGOPLAN_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        parser.error(f"ERGOPLAN_SEED must be an integer, got {raw!r}")


def read_config_file(path):
    """TOML-like key=value lines; '#' starts a comment."""
    values = {}
    for line in Path(path).read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ErgoplanError(f"malformed config line: {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        values[key] = value
    return values


def _load_plan(path):
    return deserialize_plan(Path(path).read_text())


def _print(obj, fmt, table_fn=None):
    if fmt == "json":
        print(json.dumps(obj, indent=2) if not isinstance(obj, str) else obj)
    else:
        print(table_fn() if table_fn else json.dumps(obj, indent=2))


def build_parser():
    parser = _Parser(prog="ergoplan", description=__doc__)
    parser.add_argument("--seed", type=int, default=None, help="global RNG seed (default: ERGOPLAN_SEED or 0)")
    parser.add_argument("--format", choices=("json", "table"), default="table")
    parser.add_argument("--threads", type=int, default=1)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic plan corpus")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--resolution", type=int, default=256)
    p.add_argument("--rooms-min", type=int, default=4)
    p.add_argument("--rooms-max", type=int, default=6)
    p.add_argument("--de-ergonomize-fraction", type=float, default=0.0)

    p = sub.add_parser("augment", help="expand a corpus with isometries and room permutations")
    p.add_argument("--in", dest="src", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--rotations", default="0,90,180,270")
    p.add_argument("--mirror", action="store_true")
    p.add_argument("--permute-rooms", action="store_true")

    p = sub.add_parser("split", help="write a deterministic train/val/test assignment")
    p.add_argument("--in", dest="src", required=True)
    p.add_argument("--fractions", default="0.9,0.05,0.05")

    p = sub.add_parser("tokenize", help="plan JSON files -> token lines")
    p.add_argument("plans", nargs="*")
    p.add_argument("--corpus")
    p.add_argument("--out")

    p = sub.add_parser("detokenize", help="token lines -> plan JSON")
    p.add_argument("tokens", nargs="?", help="token file (default: stdin)")
    p.add_argument("--resolution", type=int, default=256)
    p.add_argument("--out", help="output directory (default: print plans)")

    p = sub.add_parser("ergo-cost", help="hard ergonomic cost report for a plan")
    p.add_argument("plan")
    p.add_argument("--meters-per-cell", type=float, default=None)

    p = sub.add_parser("ergo-loss", help="differentiable ergonomic loss breakdown")
    p.add_argument("plan")
    p.add_argument("--beta", type=float, default=ergoloss.SoftParams.beta)
    p.add_argument("--meters-per-cell", type=float, default=None, help="loss unit; 1 gives cells")

    p = sub.add_parser("guidance-check", help="per-position substitution eligibility dump")
    p.add_argument("plan")
    p.add_argument("--checkpoint", help="model checkpoint for real probability rows")
    p.add_argument("--gamma", type=float, default=guidance.GuidanceConfig.gamma)

    p = sub.add_parser("train", help="train a model on a plan corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="key=value config file; flags win")
    p.add_argument("--guided", choices=("on", "off"), default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None, help="loss-mixing scale in meters")
    p.add_argument("--layers", type=int, default=None)
    p.add_argument("--heads", type=int, default=None)
    p.add_argument("--embed-dim", type=int, default=None)
    p.add_argument("--context", type=int, default=None)
    p.add_argument("--log-every", type=int, default=100)

    p = sub.add_parser("generate", help="greedy-decode plans from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--prefixes", help="corpus dir; condition on each plan's boundary+door")
    p.add_argument("--from-scratch", action="store_true", help="condition on BOS only")
    p.add_argument("--n", type=int, default=None, help="cap the number of generations")
    p.add_argument("--split", choices=SPLIT_CHOICES, default=None, help=SPLIT_HELP)
    p.add_argument("--out", help="token line output file (default: stdout)")

    p = sub.add_parser("eval", help="metric report over token sequences")
    p.add_argument("tokens", nargs="?", help="token file (default: stdin)")
    p.add_argument("--corpus", help="evaluate a plan corpus via its encoding instead")
    p.add_argument("--split", choices=SPLIT_CHOICES, default=None, help=SPLIT_HELP)
    p.add_argument("--resolution", type=int, default=256)
    p.add_argument("--coverage-tolerance", type=float, default=0.02)
    p.add_argument("--overlap-tolerance", type=float, default=0.0)
    p.add_argument("--meters-per-cell", type=float, default=None)
    p.add_argument("--out", help="also write the JSON report here")

    p = sub.add_parser("compare", help="delta table between two eval reports")
    p.add_argument("report_a")
    p.add_argument("report_b")

    p = sub.add_parser("render", help="render a plan to SVG")
    p.add_argument("plan")
    p.add_argument("-o", "--out", required=True)

    return parser


def _scale(meters_per_cell):
    return ScaleConfig() if meters_per_cell is None else ScaleConfig(meters_per_cell)


def _cmd_synth(args):
    cfg = dataset.SynthConfig(
        resolution=args.resolution,
        rooms_min=args.rooms_min,
        rooms_max=args.rooms_max,
        de_ergonomize_fraction=args.de_ergonomize_fraction,
    )
    corpus = dataset.synth_generate(args.n, seed=args.seed, cfg=cfg)
    dataset.save_corpus(corpus, args.out)
    print(f"wrote {len(corpus)} plans to {args.out}", file=sys.stderr)
    return EXIT_OK


def _cmd_augment(args):
    corpus = dataset.load_corpus(args.src)
    spec = dataset.AugmentSpec(
        rotations=tuple(int(r) for r in args.rotations.split(",")),
        mirror=args.mirror,
        permute_rooms=args.permute_rooms,
        seed=args.seed,
    )
    plans, ids = [], []
    for plan, plan_id in zip(corpus.plans, corpus.ids):
        for k, variant in enumerate(dataset.augment(plan, spec)):
            plans.append(variant)
            ids.append(f"{plan_id}-aug{k}")
    dataset.save_corpus(dataset.Corpus(plans=plans, ids=ids), args.out)
    print(f"wrote {len(plans)} plans to {args.out}", file=sys.stderr)
    return EXIT_OK


def _cmd_split(args):
    corpus = dataset.load_corpus(args.src)
    fractions = tuple(float(f) for f in args.fractions.split(","))
    assigned = dataset.split(corpus, fractions, seed=args.seed)
    Path(args.src, "splits.json").write_text(
        json.dumps(assigned.split, indent=2, sort_keys=True)
    )
    counts = {name: sum(1 for v in assigned.split.values() if v == name) for name in dataset.SPLITS}
    _print(counts, args.format)
    return EXIT_OK


def _cmd_tokenize(args):
    if args.corpus:
        corpus = dataset.load_corpus(args.corpus)
        plans = corpus.plans
    else:
        plans = [_load_plan(p) for p in args.plans]
    lines = []
    for plan in plans:
        vocab = tokenizer.Vocabulary(plan.resolution)
        lines.append(tokenizer.format_token_line(tokenizer.encode(plan, vocab)))
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_detokenize(args):
    text = Path(args.tokens).read_text() if args.tokens else sys.stdin.read()
    vocab = tokenizer.Vocabulary(args.resolution)
    outcomes = [tokenizer.decode(seq, vocab) for seq in tokenizer.parse_token_lines(text)]
    failures = [(i, o.position, o.reason) for i, o in enumerate(outcomes) if not o.ok]
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for i, outcome in enumerate(outcomes):
            if outcome.ok:
                (out_dir / f"plan-{i:05d}.json").write_text(serialize_plan(outcome.plan))
    else:
        for outcome in outcomes:
            if outcome.ok:
                print(serialize_plan(outcome.plan))
    for i, position, reason in failures:
        print(f"sequence {i}: parse failure at {position}: {reason}", file=sys.stderr)
    return EXIT_DATA if failures else EXIT_OK


def _cmd_ergo_cost(args):
    plan = _load_plan(args.plan)
    report = ergocost.ergonomic_cost(plan, _scale(args.meters_per_cell))
    if args.format == "json":
        print(report.to_json())
    else:
        for idx, kind, cost in report.entries:
            print(f"room {idx:2d} {kind.name:<12} {cost:8.3f} m")
        total = "n/a" if report.total is None else f"{report.total:.3f} m"
        print(f"total {total}  perfect={report.perfect}")
    return EXIT_OK


def _cmd_ergo_loss(args):
    plan = _load_plan(args.plan)
    params = ergoloss.SoftParams(
        beta=args.beta, meters_per_cell=_scale(args.meters_per_cell).meters_per_cell
    )
    print(ergoloss.ergonomic_loss(plan, params).to_json())
    return EXIT_OK


def _cmd_guidance_check(args):
    plan = _load_plan(args.plan)
    vocab = tokenizer.Vocabulary(plan.resolution)
    seq = tokenizer.encode(plan, vocab)
    cfg = guidance.GuidanceConfig(resolution=plan.resolution, gamma=args.gamma)
    if args.checkpoint:
        state, model_cfg, _ = model.load_checkpoint(args.checkpoint)
        net = model.Model(model_cfg, state.params)
        rows = net.prob_rows(seq)
    else:
        # without a model, use the ground-truth one-hot rows
        rows = np.zeros((len(seq), vocab.size))
        rows[np.arange(len(seq)), np.array(seq.tokens)] = 1.0
    tokens = np.array(seq.tokens).reshape(1, -1)
    _, *columns = guidance.eligible_positions(tokens, rows[None], vocab, cfg)
    positions = list(zip(*(column.tolist() for column in columns)))
    breakdown = ergoloss.ergonomic_loss(plan)
    v_bars, _ = guidance.collapse(rows[columns[0]], cfg)
    entries = [
        {
            "position": pos,
            "room": room_idx,
            "vertex": vert_idx,
            "axis": "xy"[axis],
            "v_bar": v_bar,
            "cell_value": v_bar * plan.resolution,
        }
        for (pos, room_idx, vert_idx, axis), v_bar in zip(positions, v_bars.tolist())
    ]
    payload = {
        "sequence_length": len(seq),
        "eligible": entries,
        "ground_truth_loss": breakdown.total,
        "alpha": None
        if breakdown.total is None
        else guidance.alpha(breakdown.total, cfg),
    }
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def _corpus_plans(corpus_dir, split=None, default="test"):
    """The plans of one split of a corpus directory. Without a split name,
    `default` when the corpus has splits.json, else every plan."""
    corpus = dataset.load_corpus(corpus_dir)
    split = split or (default if corpus.split else "all")
    if split == "all":
        return corpus.plans
    if not corpus.split:
        raise ErgoplanError(f"{corpus_dir} has no splits.json; use --split all")
    return corpus.subset(split)


def _train_samples(plans, context_len):
    """(TokenSequence, plan) per plan; a plan longer than the model's
    context fails here, before the first step."""
    return [(tokenizer.encode(plan, max_len=context_len), plan) for plan in plans]


def _on_off(value):
    if value not in ("on", "off"):
        raise ValueError(value)
    return value


def _cmd_train(args):
    file_cfg = read_config_file(args.config) if args.config else {}

    def opt(flag, key, cast, default):
        # a file value is consumed and checked even when a flag overrides it
        value = default
        if key in file_cfg:
            raw = file_cfg.pop(key)
            try:
                value = cast(raw)
            except ValueError:
                raise ErgoplanError(f"config key {key}: bad value {raw!r}") from None
        return value if flag is None else flag

    plans = _corpus_plans(args.corpus, default="train")
    if not plans:
        raise ErgoplanError(f"no training plans under {args.corpus}")
    resolution = plans[0].resolution
    # an option neither flagged nor in the file takes its config field's default
    model_defaults, train_defaults = model.ModelConfig, model.TrainConfig
    model_cfg = model.ModelConfig(
        layers=opt(args.layers, "layers", int, model_defaults.layers),
        heads=opt(args.heads, "heads", int, model_defaults.heads),
        embed_dim=opt(args.embed_dim, "embed_dim", int, model_defaults.embed_dim),
        context_len=opt(args.context, "context", int, model_defaults.context_len),
        vocab_size=tokenizer.Vocabulary(resolution).size,
        seed=args.seed,
    )
    guided_default = "on" if train_defaults.guided else "off"
    train_cfg = model.TrainConfig(
        steps=opt(args.steps, "steps", int, train_defaults.steps),
        batch_size=opt(args.batch_size, "batch_size", int, train_defaults.batch_size),
        lr=opt(args.lr, "lr", float, train_defaults.lr),
        guided=opt(args.guided, "guided", _on_off, guided_default) == "on",
        seed=args.seed,
    )
    guidance_cfg = guidance.GuidanceConfig(
        resolution=resolution,
        gamma=opt(args.gamma, "gamma", float, guidance.GuidanceConfig.gamma),
    )
    if file_cfg:
        raise ErgoplanError(f"unknown config keys in {args.config}: {', '.join(sorted(file_cfg))}")
    samples = _train_samples(plans, model_cfg.context_len)
    echo = {
        "model": vars(model_cfg),
        "guided": train_cfg.guided,
        "steps": train_cfg.steps,
        "gamma": guidance_cfg.gamma,
        "seed": args.seed,
    }
    print(f"training config: {json.dumps(echo, default=str)}", file=sys.stderr)
    state, _ = model.train(
        samples, model_cfg, train_cfg, guidance_cfg, log_every=args.log_every
    )
    model.save_checkpoint(args.out, state, model_cfg, train_cfg)
    print(
        f"saved {args.out} (step {state.step}, checksum "
        f"{model.parameter_checksum(state.params)[:12]})",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_generate(args):
    state, model_cfg, _ = model.load_checkpoint(args.checkpoint)
    net = model.Model(model_cfg, state.params)
    vocab = net.vocab
    if args.from_scratch:
        n = args.n or 1
        prefixes = [(vocab.bos,)] * n
    else:
        if not args.prefixes:
            raise ErgoplanError("need --prefixes corpus or --from-scratch")
        plans = _corpus_plans(args.prefixes, args.split)
        plans = plans[: args.n] if args.n else plans
        prefixes = [
            tokenizer.boundary_door_prefix(tokenizer.encode(p, vocab), vocab)
            for p in plans
        ]
    start = time.perf_counter()
    results = net.generate_batch(prefixes)
    elapsed = time.perf_counter() - start
    lines = "\n".join(tokenizer.format_token_line(toks) for toks, _ in results) + "\n"
    if args.out:
        Path(args.out).write_text(lines)
    else:
        sys.stdout.write(lines)
    total = sum(len(toks) for toks, _ in results)
    generated = total - sum(map(len, prefixes))
    truncated = sum(1 for _, t in results if t)
    print(
        f"generated {generated} tokens in {elapsed:.2f} s "
        f"({generated / max(elapsed, 1e-9):.0f} tok/s), mean length "
        f"{total / max(len(results), 1):.1f}, {truncated}/{len(results)} hit the context limit",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_eval(args):
    if args.corpus:
        plans = _corpus_plans(args.corpus, args.split)
        sequences = []
        for plan in plans:
            vocab = tokenizer.Vocabulary(plan.resolution)
            sequences.append(list(tokenizer.encode(plan, vocab).tokens))
        resolution = plans[0].resolution if plans else args.resolution
    else:
        text = Path(args.tokens).read_text() if args.tokens else sys.stdin.read()
        sequences = tokenizer.parse_token_lines(text)
        resolution = args.resolution
    cfg = metrics.EvalConfig(
        resolution=resolution,
        scale=_scale(args.meters_per_cell),
        coverage_tolerance=args.coverage_tolerance,
        overlap_tolerance=args.overlap_tolerance,
    )
    start = time.perf_counter()
    report = metrics.evaluate(sequences, cfg, threads=args.threads)
    elapsed = time.perf_counter() - start
    if args.out:
        Path(args.out).write_text(report.to_json())
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.to_markdown())
    failures = ", ".join(f"{count} {why}" for why, count in report.failures.items())
    print(
        f"evaluated {report.n_sequences} sequences in {elapsed:.2f} s "
        f"({report.n_sequences / max(elapsed, 1e-9):.0f} seq/s), failures: {failures or 'none'}",
        file=sys.stderr,
    )
    return EXIT_OK


def _report_from_json(path):
    return metrics.EvalReport.from_dict(json.loads(Path(path).read_text()))


def _cmd_compare(args):
    deltas = metrics.compare(_report_from_json(args.report_a), _report_from_json(args.report_b))
    if args.format == "json":
        print(json.dumps(deltas, indent=2))
    else:
        for name, value in deltas.items():
            shown = "n/a" if value is None else f"{value:+.4f}"
            print(f"{name:<28} {shown}")
    return EXIT_OK


def _cmd_render(args):
    plan = _load_plan(args.plan)
    Path(args.out).write_text(render.render_svg(plan))
    print(f"wrote {args.out}", file=sys.stderr)
    return EXIT_OK


_COMMANDS = {
    "synth": _cmd_synth,
    "augment": _cmd_augment,
    "split": _cmd_split,
    "tokenize": _cmd_tokenize,
    "detokenize": _cmd_detokenize,
    "ergo-cost": _cmd_ergo_cost,
    "ergo-loss": _cmd_ergo_loss,
    "guidance-check": _cmd_guidance_check,
    "train": _cmd_train,
    "generate": _cmd_generate,
    "eval": _cmd_eval,
    "compare": _cmd_compare,
    "render": _cmd_render,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seed is None:
        args.seed = _env_seed(parser)
    try:
        return _COMMANDS[args.command](args)
    except (ErgoplanError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        # a value the config dataclasses reject, e.g. a non-positive beta
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
