"""Evaluation metrics over generated token sequences.

Per sequence: does it parse; are all polygons geometrically valid; do the
rooms cover the boundary; do rooms avoid overlapping; and the adjacency
cost plus its zero-cost rate. Binary metrics are computed per plan and
averaged. Denominators differ by metric and are reported alongside the
fractions: parsability over all sequences, the geometric checks over
parsed plans, the cost metrics over parsed valid plans where a cost term
applies.
"""

import json
import math
import os
from collections import Counter
from dataclasses import dataclass, field

from . import ergocost, geometry, tokenizer
from .errors import DegenerateArea, NotRectilinear, ProtocolMismatch, SelfIntersecting
from .plan import ScaleConfig


@dataclass(frozen=True)
class EvalConfig:
    resolution: int = 256
    scale: ScaleConfig = field(default_factory=ScaleConfig)
    coverage_tolerance: float = 0.02  # allowed uncovered interior fraction
    overlap_tolerance: float = 0.0  # allowed overlap, fraction of boundary area

    def __post_init__(self):
        if not self.resolution > 0:
            raise ValueError("resolution must be positive")
        for name in ("coverage_tolerance", "overlap_tolerance"):
            if not getattr(self, name) >= 0:  # NaN fails too
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class EvalReport:
    parsability: float
    validity: float
    fully_covered: float
    no_room_overlapping: float
    ergonomic_cost: float | None
    perfect_ergonomic: float | None
    n_sequences: int
    n_parsed: int
    n_valid: int
    n_cost_applicable: int
    config: dict = field(default_factory=dict)
    # why sequences failed: the parse failure's reason, or the class of the
    # geometry exception that made a parsed plan invalid -> count
    failures: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "parsability": self.parsability,
            "validity": self.validity,
            "fully_covered": self.fully_covered,
            "no_room_overlapping": self.no_room_overlapping,
            "ergonomic_cost": self.ergonomic_cost,
            "perfect_ergonomic": self.perfect_ergonomic,
            "counts": {
                "sequences": self.n_sequences,
                "parsed": self.n_parsed,
                "valid": self.n_valid,
                "cost_applicable": self.n_cost_applicable,
            },
            "config": self.config,
            "failures": dict(self.failures),
        }

    @classmethod
    def from_dict(cls, data):
        """Inverse of to_dict; keys other than to_dict's are ignored."""
        counts = data["counts"]
        return cls(
            parsability=data["parsability"],
            validity=data["validity"],
            fully_covered=data["fully_covered"],
            no_room_overlapping=data["no_room_overlapping"],
            ergonomic_cost=data["ergonomic_cost"],
            perfect_ergonomic=data["perfect_ergonomic"],
            n_sequences=counts["sequences"],
            n_parsed=counts["parsed"],
            n_valid=counts["valid"],
            n_cost_applicable=counts["cost_applicable"],
            config=data.get("config", {}),
            failures=data.get("failures", {}),
        )

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2)

    def to_markdown(self):
        rows = [
            ("Parsability", self.parsability, f"over {self.n_sequences} sequences"),
            ("Validity", self.validity, f"over {self.n_parsed} parsed"),
            ("Fully covered", self.fully_covered, f"over {self.n_parsed} parsed"),
            ("No room overlapping", self.no_room_overlapping, f"over {self.n_parsed} parsed"),
            (
                "Ergonomic cost [m]",
                self.ergonomic_cost,
                f"over {self.n_cost_applicable} applicable",
            ),
            ("Perfect ergonomic", self.perfect_ergonomic, f"over {self.n_cost_applicable} applicable"),
        ]
        lines = ["| metric | value | denominator |", "| --- | --- | --- |"]
        for name, value, denom in rows:
            shown = "n/a" if value is None else f"{value:.4f}"
            lines.append(f"| {name} | {shown} | {denom} |")
        return "\n".join(lines)


def plan_coverage(plan):
    """(covered_fraction, overlap_fraction) of the boundary area; raises on
    the first invalid polygon, boundary first. Each polygon is normalized and
    split into rectangles once. Covered area is the rooms' union inside the
    boundary, so room area outside the boundary covers nothing."""
    boundary = geometry.rect_decompose(plan.boundary)
    rooms = [r for room in plan.rooms for r in geometry.rect_decompose(room.vertices)]
    boundary_area = sum((x1 - x0) * (y1 - y0) for x0, y0, x1, y1 in boundary)
    union, covered = geometry.union_areas(rooms, boundary)
    overlap = sum((x1 - x0) * (y1 - y0) for x0, y0, x1, y1 in rooms) - union
    return covered / boundary_area, overlap / boundary_area


def _tally(sequences, cfg):
    """Per-chunk metric counters; merging tallies is order-independent
    except for the cost sums, which we keep in chunk order."""
    vocab = tokenizer.Vocabulary(cfg.resolution)
    tally = dict.fromkeys(("parsed", "valid", "covered", "no_overlap", "perfect"), 0)
    tally.update(n=len(sequences), costs=[], failures=Counter())
    for seq in sequences:
        outcome = tokenizer.decode(seq, vocab)
        if not outcome.ok:
            tally["failures"][outcome.reason] += 1
            continue
        plan = outcome.plan
        tally["parsed"] += 1
        try:
            covered, overlap = plan_coverage(plan)
        except (NotRectilinear, SelfIntersecting, DegenerateArea) as exc:
            # an invalid polygon: the geometric checks count as failed
            tally["failures"][type(exc).__name__] += 1
            continue
        tally["valid"] += 1
        tally["covered"] += covered >= 1.0 - cfg.coverage_tolerance
        tally["no_overlap"] += overlap <= cfg.overlap_tolerance
        report = ergocost.ergonomic_cost(plan, cfg.scale)
        if report.total is not None:
            tally["costs"].append(report.total)
            tally["perfect"] += report.perfect
    return tally


def evaluate(sequences, cfg=None, threads=1):
    """EvalReport over raw token sequences (lists of ids or TokenSequences).

    threads > 1 evaluates fixed chunks in a process pool and merges in chunk
    order, so results are identical to a serial run. The pool starts no more
    workers than there are chunks or usable CPUs; threads < 1 is a ValueError.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    cfg = cfg or EvalConfig()
    sequences = list(sequences)  # decode converts each sequence's tokens
    n = len(sequences)
    if threads > 1 and n > 1:
        from concurrent.futures import ProcessPoolExecutor

        chunk = (n + threads - 1) // threads
        parts = [sequences[i : i + chunk] for i in range(0, n, chunk)]
        # a forked pool starts all its workers on the first submit
        workers = min(len(parts), len(os.sched_getaffinity(0)))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            tallies = list(pool.map(_tally, parts, [cfg] * len(parts)))
    else:
        tallies = [_tally(sequences, cfg)]

    counts = [key for key in tallies[0] if key not in ("costs", "failures")]
    merged = {key: sum(t[key] for t in tallies) for key in counts}
    merged["costs"] = [c for t in tallies for c in t["costs"]]
    failures = sum((t["failures"] for t in tallies), Counter())
    n_parsed = merged["parsed"]
    costs = merged["costs"]
    return EvalReport(
        parsability=n_parsed / n if n else 0.0,
        validity=merged["valid"] / n_parsed if n_parsed else 0.0,
        fully_covered=merged["covered"] / n_parsed if n_parsed else 0.0,
        no_room_overlapping=merged["no_overlap"] / n_parsed if n_parsed else 0.0,
        # exact summation keeps the report identical under corpus reordering
        ergonomic_cost=math.fsum(costs) / len(costs) if costs else None,
        perfect_ergonomic=merged["perfect"] / len(costs) if costs else None,
        n_sequences=n,
        n_parsed=n_parsed,
        n_valid=merged["valid"],
        n_cost_applicable=len(costs),
        config={
            "resolution": cfg.resolution,
            "meters_per_cell": cfg.scale.meters_per_cell,
            "coverage_tolerance": cfg.coverage_tolerance,
            "overlap_tolerance": cfg.overlap_tolerance,
        },
        failures=dict(sorted(failures.items())),
    )


_HIGHER_BETTER = (
    "parsability",
    "validity",
    "fully_covered",
    "no_room_overlapping",
    "perfect_ergonomic",
)


def compare(report_a, report_b):
    """Signed per-metric deltas (b minus a), with ergonomic cost negated so
    that positive always means b improves on a. Raises ProtocolMismatch when
    the corpora or configs differ."""
    if report_a.n_sequences != report_b.n_sequences:
        raise ProtocolMismatch(
            f"corpus sizes differ: {report_a.n_sequences} vs {report_b.n_sequences}"
        )
    if report_a.config != report_b.config:
        raise ProtocolMismatch("evaluation configs differ")
    deltas = {}
    for name in _HIGHER_BETTER:
        va, vb = getattr(report_a, name), getattr(report_b, name)
        deltas[name] = None if va is None or vb is None else vb - va
    ca, cb = report_a.ergonomic_cost, report_b.ergonomic_cost
    deltas["ergonomic_cost_improvement"] = None if ca is None or cb is None else ca - cb
    return deltas
