"""Train a tiny model on synthetic plans and look at what it generates.

This is a fast, scaled-down version of the full experiment in the
acceptance suite: a corpus where half the plans are deliberately
de-ergonomized, a small decoder trained twice from the same seed (with and
without the geometric guidance), and a side-by-side evaluation on held-out
boundary+door prefixes. It takes about half a minute on two cores.
"""

import numpy as np

from ergoplan import dataset, metrics, model, tokenizer
from ergoplan.guidance import GuidanceConfig
from ergoplan.metrics import EvalConfig
from ergoplan.model import Model, ModelConfig, TrainConfig

vocab = tokenizer.Vocabulary(256)
synth_cfg = dataset.SynthConfig(de_ergonomize_fraction=0.5)
train_corpus = dataset.synth_generate(200, seed=100, cfg=synth_cfg)
holdout = dataset.synth_generate(50, seed=200, cfg=synth_cfg)

samples = [(tokenizer.encode(p, vocab), p) for p in train_corpus.plans]
prefixes = [
    tokenizer.boundary_door_prefix(tokenizer.encode(p, vocab), vocab)
    for p in holdout.plans
]
model_cfg = ModelConfig(layers=2, heads=2, embed_dim=48, context_len=128, seed=0)

reports = {}
for guided in (False, True):
    label = "guided" if guided else "baseline"
    train_cfg = TrainConfig(steps=400, batch_size=16, lr=3e-3, guided=guided, seed=0)
    print(f"\ntraining {label} ({train_cfg.steps} steps)...")
    state, log = model.train(samples, model_cfg, train_cfg, GuidanceConfig(), log_every=100)
    net = Model(model_cfg, state.params)
    outs = net.generate_batch(prefixes)
    report = metrics.evaluate([list(t) for t, _ in outs], EvalConfig())
    reports[label] = report
    print(report.to_markdown())

print("\nguided vs baseline deltas (positive = guided better):")
for name, delta in metrics.compare(reports["baseline"], reports["guided"]).items():
    shown = "n/a" if delta is None else f"{delta:+.4f}"
    print(f"  {name:<28} {shown}")
