"""``simulate``: cycle-level simulation requests of three kinds.

Each request simulates one distinct seeded synthetic SoC under its
Algorithm-1 ordering (computed during set-up, as part of the input).  The
kinds use the simulator differently: a scalar ``Simulator.run``, the same
run with a ``NullSink`` attached (every trace event is built and
discarded), and a 32-lane ``BatchSimulator`` whose lanes scale the process
latencies.  Every round holds one request of each kind.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from perfbench.harness import RequestRecord, digest, spread_evenly

#: ``--seconds`` per round of three requests.  A round takes about 0.35 s
#: at the reference speed: the timed phase is kept to half the run length
#: because the known-answer check then re-runs every request on the
#: slower reference simulator.
ROUND_SECONDS = 0.73

#: Process count range of the simulated SoCs.
SIZES = (40, 90)

#: Iterations of the watched sink per simulation.
ITERATIONS = 120

#: Lanes of a batch request.
LANES = 32

KINDS = ("scalar", "nullsink", "batch")


@dataclass(frozen=True)
class SimulateRequest:
    kind: str
    system: object  # SystemGraph
    ordering: object  # ChannelOrdering
    lanes: tuple  # per-lane process-latency overrides (batch only)
    check_lane: int


@dataclass
class SimulateInputs:
    requests: list[SimulateRequest]

    def describe(self) -> list[tuple]:
        from repro.ir import structural_hash_of

        return [
            (
                r.kind,
                structural_hash_of(r.system, r.ordering),
                digest([sorted(lane.items()) for lane in r.lanes]),
                r.check_lane,
            )
            for r in self.requests
        ]


def generate(seed: int, seconds: float) -> SimulateInputs:
    from repro.core.generators import synthetic_soc
    from repro.ir import structural_hash_of
    from repro.ordering.algorithm import channel_ordering

    rng = random.Random(f"simulate:{seed}")
    rounds = max(1, int(seconds // ROUND_SECONDS))
    requests: list[SimulateRequest] = []
    seen: set[str] = set()
    sizes = {kind: spread_evenly(rng, *SIZES, rounds) for kind in KINDS}
    for _ in range(rounds):
        kinds = list(KINDS)
        rng.shuffle(kinds)
        for kind in kinds:
            size = sizes[kind].pop()
            while True:
                system = synthetic_soc(size, seed=rng.randrange(1 << 30))
                ordering = channel_ordering(system)
                key = structural_hash_of(system, ordering)
                if key not in seen:
                    break
            seen.add(key)
            lanes: tuple = ()
            check_lane = 0
            if kind == "batch":
                base = system.process_latencies()
                lanes = tuple(
                    {p: max(1, (lat * rng.randint(50, 200)) // 100) for p, lat in base.items()}
                    if i else {}
                    for i in range(LANES)
                )
                check_lane = rng.randrange(1, LANES)
            requests.append(SimulateRequest(kind, system, ordering, lanes, check_lane))
    return SimulateInputs(requests)


def run_request(request: SimulateRequest):
    import repro.obs as obs
    import repro.sim as sim

    if request.kind == "batch":
        lanes = [sim.BatchLane(process_latencies=lane) for lane in request.lanes]
        return sim.BatchSimulator(request.system, request.ordering, lanes=lanes).run(
            iterations=ITERATIONS
        )
    sinks = (obs.NullSink(),) if request.kind == "nullsink" else ()
    return sim.Simulator(request.system, request.ordering, sinks=sinks).run(
        iterations=ITERATIONS
    )


def _result_key(result) -> tuple:
    return (
        sorted(result.iterations.items()),
        sorted(result.times.items()),
        sorted(result.completion_times.items()),
        sorted(result.compute_cycles.items()),
        sorted(result.stall_cycles.items()),
        sorted(result.channel_transfers.items()),
        sorted((p, sorted(row.items())) for p, row in result.stall_breakdown.items()),
    )


def record(request: SimulateRequest, outcome) -> RequestRecord:
    """Digest: every lane's full result.  Kept for the check: lane 0 and
    the seeded check lane (the scalar result for the other kinds)."""
    results = outcome if request.kind == "batch" else [outcome]
    out = RequestRecord()
    out.digest = digest([_result_key(r) for r in results])
    if request.kind == "batch":
        out.outcome = {0: results[0], request.check_lane: results[request.check_lane]}
    else:
        out.outcome = {0: outcome}
    out.extra["events"] = sum(sum(r.channel_transfers.values()) for r in results)
    return out


def check(request: SimulateRequest, rec: RequestRecord) -> str:
    """Known answer: the frozen pre-IR reference simulator's result."""
    from repro.sim import ReferenceSimulator

    for lane, result in rec.outcome.items():
        overrides = request.lanes[lane] if request.lanes else None
        reference = ReferenceSimulator(
            request.system, request.ordering, process_latencies=overrides
        ).run(iterations=ITERATIONS)
        if _result_key(reference) != _result_key(result):
            return f"{request.kind} lane {lane} differs from the reference simulator"
    return ""


def quality(records: list[RequestRecord]) -> dict[str, float]:
    done = [rec for rec in records if rec.outcome is not None]
    return {
        "area_ratio": 1.0,
        "target_met_ratio": 1.0,
        "decided_ratio": len(done) / max(1, len(records)),
        "events": float(sum(rec.extra["events"] for rec in done)),
    }
