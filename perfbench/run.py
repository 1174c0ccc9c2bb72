"""ergoplan benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ./src. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json; with --trace 1 they are its per-layer
metrics, from a run with every layer's public functions wrapped in spans.
The line before it holds the environment and the deterministic outputs.
Spans and the full report are written under .perfbench_out/.

A unit of work is one model.train, Model.generate_batch or metrics.evaluate
call of fixed size (see workloads.py). With --trace 0 a warm-up unit runs,
then timed units repeat until the next one would end past --seconds (at
least MIN_UNITS of them), and the medians are reported. With --trace 1 the inputs are built again and one
unit runs with tracing on, between two untraced units; the difference in
wall time is the tracing overhead.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# one BLAS thread is as fast as the default on this model size and steadier;
# all load comes from this one process
BLAS_THREADS = 1
SETUP_REPEATS = 3
MIN_UNITS = 3
THREADS_ROW_REPEATS = 3
OUT_DIR = Path(".perfbench_out")

# name -> size recorded per call (None: none)
TRACED = {
    "model.train": None,
    "model.train_step": None,
    "model.batch_loss_and_grads": None,
    "model.forward_logits": lambda a, k, out: int(a[2].size),
    "model.backward_logits": None,
    "model.Model.generate_batch": lambda a, k, out: sum(len(t) for t, _ in out)
    - sum(map(len, a[1])),
    "tokenizer.indices_for_tokens": None,
    "tokenizer.decode": None,
    "tokenizer.room_coordinate_positions": None,
    "guidance.positional_ergo_loss": lambda a, k, out: len(out.eligible_positions),
    "guidance.expected_token_grad": None,
    "ergoloss.substituted_losses": lambda a, k, out: len(a[1]),
    "ergoloss.ergonomic_loss": None,
    "ergocost.ergonomic_cost": None,
    "geometry.min_distance": None,
    "geometry.union_area": None,
    "geometry.normalize_loop": None,
    "metrics.evaluate": None,
    "metrics.plan_coverage": None,
    "dataset.synth_plan": None,
}


def environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
    }


def timed(fn, *args, **kwargs):
    start = perf_counter()
    out = fn(*args, **kwargs)
    return perf_counter() - start, out


def set_up(workload, seed):
    """Build the inputs SETUP_REPEATS times (median time), then prepare once."""
    times = []
    for _ in range(SETUP_REPEATS):
        elapsed, inputs = timed(workload.inputs, seed)
        times.append(elapsed)
    prepare_s, ctx = timed(workload.prepare, seed, inputs)
    inputs_s = statistics.median(times)
    return inputs_s, prepare_s, inputs, ctx


class Tally:
    """Operations attempted and failed; an operation fails when any of its
    checks fails."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record(self, failures):
        self.attempted += 1
        self.failed += bool(failures)
        self.failures.extend(failures)


def run_unit(workload, ctx, tally, first, during=contextlib.nullcontext()):
    """One unit, inside `during`, then its checks; returns (elapsed, items,
    fingerprint, summary), or None when the unit raised. The first unit is
    checked in full; a later one must give the first one's fingerprint."""
    try:
        with during:
            elapsed, items, output = workload.unit(ctx)
    except Exception:  # a failed operation is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        tally.record(["unit raised"])
        return None
    fingerprint = workload.fingerprint(output)
    if first is None:
        summary, failures = workload.check(ctx, output)
    else:
        summary = first[3]
        failures = [] if fingerprint == first[2] else ["unit output differs from the first unit's"]
    tally.record(failures)
    return elapsed, items, fingerprint, summary


def measure(workload, ctx, seconds, tally):
    """A warm-up unit, checked in full but not timed, then timed units
    until the next one would end past the deadline."""
    first = run_unit(workload, ctx, tally, None)
    deadline = perf_counter() + seconds
    units = []
    while first is not None:
        unit = run_unit(workload, ctx, tally, first)
        if unit is None:
            break
        units.append(unit)
        typical = statistics.median(u[0] for u in units)
        if len(units) >= MIN_UNITS and perf_counter() + typical > deadline:
            break
    return first, units


def end_to_end(units, setup_s, tally):
    rates = [items / elapsed for elapsed, items, _, _ in units]
    return {
        "items_per_s": (statistics.median(rates) if rates else 0.0, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_rate": (1.0 - tally.failed / max(1, tally.attempted), "ratio"),
    }


def traced_run(name, workload, seed, inputs_s, inputs, ctx, tally):
    from tracing import SpanStats, Tracer, percentile

    untraced = run_unit(workload, ctx, tally, None)
    if untraced is None:
        return {}, {}
    tracer = Tracer()
    tracer.install(TRACED)
    try:
        with tracer.recording("setup"):
            traced_inputs = workload.inputs(seed)
        traced = run_unit(workload, ctx, tally, untraced, tracer.recording("run"))
    finally:
        tracer.uninstall()
    # untraced units on both sides of the traced one, so warm-up and drift
    # do not land in the overhead
    after = run_unit(workload, ctx, tally, untraced)
    walls = tracer.walls
    tally.record([] if traced_inputs == inputs else ["traced set-up built other inputs"])
    if traced is None or after is None:
        return {}, {}

    run, setup = SpanStats(tracer, "run"), SpanStats(tracer, "setup")
    steps = run.calls("model.train_step")

    def per_step(value):
        return value / steps if steps else 0.0

    decode_ms = run.durations_ms("model.forward_logits", parent="model.Model.generate_batch")
    decode_positions = sum(run.sizes("model.forward_logits", parent="model.Model.generate_batch"))
    generated = sum(run.sizes("model.Model.generate_batch"))
    positional = run.calls("guidance.positional_ergo_loss")
    no_eligible = run.raised("guidance.positional_ergo_loss", "NoEligiblePositions")
    alpha_calls = run.calls("ergoloss.ergonomic_loss")
    draws = workload.draws()
    cost_ms = run.durations_ms("ergocost.ergonomic_cost")
    synth_ms = setup.durations_ms("dataset.synth_plan")
    summary = traced[3]
    untraced_wall = inputs_s + (untraced[0] + after[0]) / 2
    traced_wall = walls["setup"] + walls["run"]
    unwrapped = sum(walls[p] * 1e3 - s.roots_ms() for p, s in (("setup", setup), ("run", run)))
    span_self = setup.total_self_ms() + run.total_self_ms()
    # self times of all spans plus the unwrapped remainder must give the wall time
    residual_ms = span_self + unwrapped - traced_wall * 1e3
    failures = []
    if abs(residual_ms) > 1e-3 or setup.nesting_errors() + run.nesting_errors() or unwrapped < 0:
        failures.append(f"span times do not add up to the wall time ({residual_ms:+.6f} ms)")
    if draws == 0 and positional + run.calls("guidance.expected_token_grad"):
        failures.append("guidance ran on an unguided workload")
    if steps == 0 and run.calls("model.backward_logits"):
        failures.append("backward ran without training")
    tally.record(failures)

    layer = {
        "model.train_step_ms.p50": (percentile(run.durations_ms("model.train_step"), 50), "ms"),
        "model.train_step_ms.p95": (percentile(run.durations_ms("model.train_step"), 95), "ms"),
        "model.forward_ms": (per_step(run.self_ms("model.forward_logits")), "ms/step"),
        "model.backward_ms": (per_step(run.self_ms("model.backward_logits")), "ms/step"),
        "model.loss_assembly_ms": (per_step(run.self_ms("model.batch_loss_and_grads")), "ms/step"),
        "model.optimizer_ms": (per_step(run.self_ms("model.train_step")), "ms/step"),
        "model.decode_step_ms.p50": (percentile(decode_ms, 50), "ms"),
        "model.decode_step_ms.p95": (percentile(decode_ms, 95), "ms"),
        "model.decode_positions_per_token": (
            decode_positions / generated if generated else 0.0,
            "count",
        ),
        "model.train_final_loss": (summary.get("train_final_loss", 0.0), "loss"),
        "tokenizer.indices_calls": (run.calls("tokenizer.indices_for_tokens"), "count"),
        "tokenizer.indices_ms": (run.self_ms("tokenizer.indices_for_tokens"), "ms"),
        "tokenizer.decode_ms": (run.self_ms("tokenizer.decode"), "ms"),
        "tokenizer.coordinate_positions_ms": (
            run.self_ms("tokenizer.room_coordinate_positions"),
            "ms",
        ),
        "guidance.positional_ms": (run.self_ms("guidance.positional_ergo_loss"), "ms"),
        "guidance.expected_token_grad_calls": (run.calls("guidance.expected_token_grad"), "count"),
        "guidance.expected_token_grad_ms": (run.self_ms("guidance.expected_token_grad"), "ms"),
        "guidance.eligible_per_step": (
            per_step(sum(run.sizes("guidance.positional_ergo_loss"))),
            "count/step",
        ),
        "guidance.no_eligible": (no_eligible, "count"),
        "guidance.useful_ratio": (
            run.raised("guidance.positional_ergo_loss", None) / positional
            if positional
            else 0.0,
            "ratio",
        ),
        "guidance.alpha_mean": (summary.get("alpha_mean", 0.0), "ratio"),
        "ergoloss.substituted_ms": (run.self_ms("ergoloss.substituted_losses"), "ms"),
        "ergoloss.variants_per_step": (
            per_step(sum(run.sizes("ergoloss.substituted_losses"))),
            "count/step",
        ),
        "ergoloss.alpha_loss_calls": (alpha_calls, "count"),
        "ergoloss.alpha_hit_ratio": ((draws - alpha_calls) / draws if draws else 0.0, "ratio"),
        "ergocost.cost_ms": (statistics.fmean(cost_ms) if cost_ms else 0.0, "ms/plan"),
        "geometry.min_distance_calls": (run.calls("geometry.min_distance"), "count"),
        "geometry.min_distance_ms": (run.self_ms("geometry.min_distance"), "ms"),
        "geometry.union_area_ms": (run.self_ms("geometry.union_area"), "ms"),
        "geometry.normalize_loop_ms": (run.self_ms("geometry.normalize_loop"), "ms"),
        "metrics.evaluate_self_ms": (run.self_ms("metrics.evaluate"), "ms"),
        "metrics.coverage_ms": (run.self_ms("metrics.plan_coverage"), "ms"),
        "metrics.gen_parsability": (summary.get("gen_parsability", 0.0), "ratio"),
        "metrics.gen_validity": (summary.get("gen_validity", 0.0), "ratio"),
        "dataset.synth_plan_ms": (statistics.fmean(synth_ms) if synth_ms else 0.0, "ms/plan"),
        "trace.wall_ms": (traced_wall * 1e3, "ms"),
        "trace.untraced_wall_ms": (untraced_wall * 1e3, "ms"),
        "trace.overhead_ms": ((traced_wall - untraced_wall) * 1e3, "ms"),
        "trace.unwrapped_ms": (unwrapped, "ms"),
        "trace.spans": (len(tracer.spans), "count"),
        "trace.absent_spans": (len(tracer.absent), "count"),
    }
    layer.update(threads_row(name, ctx, tally))
    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(OUT_DIR / f"{name}-seed{seed}-spans.jsonl")
    return layer, {"summary": untraced[3], "absent_spans": tracer.absent, "span_residual_ms": residual_ms}


def threads_row(name, ctx, tally):
    """One-off row on the eval inputs: evaluate with a process pool of
    nproc workers against one process. Zero on the other workloads."""
    row = {"metrics.evaluate_threads1_ms": (0.0, "ms"), "metrics.evaluate_threads_nproc_ms": (0.0, "ms")}
    if name != "eval":
        return row
    import ergoplan.metrics as em

    nproc = len(os.sched_getaffinity(0))
    times = {1: [], nproc: []}
    reports = []
    for _ in range(THREADS_ROW_REPEATS):
        for threads in times:
            elapsed, report = timed(em.evaluate, ctx["seqs"], ctx["cfg"], threads=threads)
            times[threads].append(elapsed * 1e3)
            reports.append(report)
    tally.record([] if all(r == reports[0] for r in reports) else ["threaded evaluate differs"])
    row["metrics.evaluate_threads1_ms"] = (statistics.median(times[1]), "ms")
    row["metrics.evaluate_threads_nproc_ms"] = (statistics.median(times[nproc]), "ms")
    return row


def declared(section):
    spec = json.loads(Path("BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "ergoplan" / "__init__.py").is_file():
        print(f"error: no ergoplan sources under {src}; run from the repository root", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    tally = Tally()
    inputs_s, prepare_s, inputs, ctx = set_up(workload, args.seed)
    setup_s = inputs_s + prepare_s
    extra = {}
    if args.trace:
        values, extra = traced_run(args.workload, workload, args.seed, inputs_s, inputs, ctx, tally)
        section = "per_layer"
    else:
        first, units = measure(workload, ctx, args.seconds, tally)
        values = end_to_end(units, setup_s, tally)
        section = "end_to_end"
        extra = {"summary": first[3] if first else {}, "units": len(units), "unit_s": [u[0] for u in units]}

    wanted = declared(section)
    if tally.failed:  # a failed run still reports every metric
        values = {n: values.get(n, (0.0, u)) for n, u in wanted.items()}
    missing = sorted(set(wanted) - set(values))
    mismatched = sorted(n for n in wanted if n in values and values[n][1] != wanted[n])
    if missing or mismatched:
        print(f"error: metrics missing {missing}, unit mismatch {mismatched}", file=sys.stderr)
        return 3
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "item": workload.item,
        "environment": environment(),
        "setup": {"inputs_s": inputs_s, "prepare_s": prepare_s},
        "failures": tally.failures,
        **extra,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**info, "metrics": values}, indent=2, default=str)
    )
    print(json.dumps(info, default=str))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {n: {"value": values[n][0], "unit": wanted[n]} for n in wanted},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
