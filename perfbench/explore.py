"""``explore``: ERMES explorations of the MPEG-2 encoder (paper §5-6).

Every run holds the paper's two Fig. 6 explorations (M2 at 2,000 and
4,000 KCycles) plus seeded (start selection, target) pairs.  The seeded
pairs are drawn per stratum: each stratum fixes the start (M1, M2, smallest
or a random selection) and a band of target factors, and every run holds
the same number of requests from each stratum.  The bands were chosen so
that a request's cost class (a branch-and-bound solve that reaches the
node limit, or not) does not depend on the seed, which keeps run totals
comparable across seeds while the slow node-limit cases stay in every run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from perfbench.harness import RequestRecord, digest, geometric_mean

#: ``--seconds`` per round of seeded requests (one round plus the two Fig. 6
#: explorations take about 20 s at the reference speed).
ROUND_SECONDS = 20.0

#: (start, low factor, high factor, count per round).  Target = factor x
#: the start's cycle time.  The heavy strata end in a 5M-node ILP limit hit.
#: Sixteen light requests against three heavy ones (with Fig. 6 left) put
#: the median well inside the light class and the 90th percentile inside
#: the heavy one.
STRATA: tuple[tuple[str, float, float, int], ...] = (
    ("m1", 1.05, 1.30, 1),  # heavy
    ("smallest", 0.50, 0.80, 1),  # heavy
    ("m1", 0.50, 0.85, 4),
    ("m2", 0.95, 1.30, 4),
    ("smallest", 1.10, 1.30, 4),
    ("random", 0.50, 0.50, 4),
)

#: The paper's Fig. 6 explorations, both from M2.
FIG6 = (("fig6-left", 2_000_000), ("fig6-right", 4_000_000))


@dataclass(frozen=True)
class ExploreRequest:
    label: str
    config: object  # SystemConfiguration
    target: int


@dataclass
class ExploreInputs:
    requests: list[ExploreRequest]

    def describe(self) -> list[tuple]:
        return [
            (r.label, r.target, tuple(sorted(r.config.selection.items())))
            for r in self.requests
        ]


def generate(seed: int, seconds: float) -> ExploreInputs:
    from repro.dse import SystemConfiguration
    from repro.model.performance import analyze_system
    from repro.mpeg2 import (
        build_mpeg2_library,
        build_mpeg2_system,
        m1_selection,
        m2_selection,
        smallest_selection,
    )
    from repro.ordering import declaration_ordering

    rng = random.Random(f"explore:{seed}")
    system = build_mpeg2_system()
    library = build_mpeg2_library()
    ordering = declaration_ordering(system)

    def config(selection):
        return SystemConfiguration(system, library, selection, ordering)

    fixed = {
        "m1": m1_selection(library),
        "m2": m2_selection(library),
        "smallest": smallest_selection(library),
    }
    start_ct: dict[tuple, Fraction] = {}

    def cycle_time(cfg):
        key = tuple(sorted(cfg.selection.items()))
        if key not in start_ct:
            start_ct[key] = analyze_system(
                system, ordering, process_latencies=cfg.process_latencies()
            ).cycle_time
        return start_ct[key]

    requests = [
        ExploreRequest(label, config(fixed["m2"]), target)
        for label, target in FIG6
    ]
    rounds = max(1, int(seconds // ROUND_SECONDS))
    seen = {(r.target, tuple(sorted(r.config.selection.items()))) for r in requests}
    for _ in range(rounds):
        for start, low, high, count in STRATA:
            made = 0
            while made < count:
                if start == "random":
                    selection = {
                        p: rng.choice(library.of(p).points).name
                        for p in library.processes()
                    }
                else:
                    selection = fixed[start]
                cfg = config(selection)
                factor = rng.uniform(low, high)
                target = int(float(cycle_time(cfg)) * factor)
                key = (target, tuple(sorted(selection.items())))
                if key in seen:
                    continue
                seen.add(key)
                requests.append(
                    ExploreRequest(f"{start}@{factor:.3f}", cfg, target)
                )
                made += 1
    rng.shuffle(requests)
    return ExploreInputs(requests)


def run_request(request: ExploreRequest):
    from repro.dse import explorer

    return explorer.Explorer(request.target).run(request.config)


def record(request: ExploreRequest, result) -> RequestRecord:
    """Keep what the checks need and the host-independent outcome digest:
    final selection, cycle time, area and stop reason."""
    final = result.final
    summary = {
        "selection": tuple(sorted(final.selection.items())),
        "cycle_time": result.final_record.cycle_time,
        "area": result.final_record.area,
        "meets_target": result.final_record.meets_target,
        "stop_reason": result.stop_reason,
        "start_area": result.initial_record.area,
        "iterations": len(result.history) - 1,
    }
    out = RequestRecord(outcome=(final, summary))
    out.digest = digest(
        (
            summary["selection"],
            str(summary["cycle_time"]),
            repr(summary["area"]),
            summary["stop_reason"],
        )
    )
    return out


def check(request: ExploreRequest, rec: RequestRecord) -> str:
    """Known answers: area is the library sum, the cycle time matches a
    fresh uncached analysis, and ``meets_target`` agrees with both."""
    from repro.model.performance import analyze_system

    final, summary = rec.outcome
    selection = dict(summary["selection"])
    area = sum(
        final.library.of(p).by_name(selection[p]).area
        for p in final.library.processes()
    )
    if area != summary["area"]:
        return f"area {summary['area']} != library sum {area}"
    fresh = analyze_system(
        final.system, final.ordering, process_latencies=final.process_latencies()
    ).cycle_time
    if fresh != summary["cycle_time"]:
        return f"cycle time {summary['cycle_time']} != fresh analysis {fresh}"
    if summary["meets_target"] != (fresh <= request.target):
        return "meets_target disagrees with the fresh cycle time"
    return ""


def quality(records: list[RequestRecord]) -> dict[str, float]:
    summaries = [rec.outcome[1] for rec in records if rec.outcome is not None]
    return {
        "area_ratio": geometric_mean(
            [s["area"] / s["start_area"] for s in summaries]
        ),
        "target_met_ratio": sum(s["meets_target"] for s in summaries)
        / max(1, len(summaries)),
        "decided_ratio": sum(
            s["stop_reason"] != "iteration limit reached" for s in summaries
        )
        / max(1, len(summaries)),
        "events": float(len(summaries)),
    }
