"""``signoff``: Algorithm-1 ordering, lint and verification of new designs.

Each request signs off one distinct seeded design: ``channel_ordering``,
then ``lint_system``, then verification under the explorer's rule (a
budgeted explicit-state search at or below the small-system limit, an
abstract-interpretation certificate checked by ``check_certificate``
above it).  Every round holds the same mix: two 300-process synthetic
SoCs (lint's exact cycle-time comparison dominates them), one bursty SoC
small enough for the explicit-state search yet often with thousands of
states (the long searches), and two small designs from each workload
family plus two small SoCs.  The 300-process designs are two requests in
fifteen, so the 90th percentile falls inside their class rather than on
the edge of a sparse one.  A seeded share of the other designs is signed
off under a shuffled ordering instead of the Algorithm-1 one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from perfbench.harness import CLOCKED_RULES, RequestRecord, digest, spread_evenly

#: ``--seconds`` per round (a round takes about 3.5 s at the reference speed).
ROUND_SECONDS = 3.5

#: State budget of the explicit-state search (a count, never seconds).
BUDGET_STATES = 1_000

#: Channels of the 300-process SoCs.  At the generator's default density
#: (450) about one in thirteen of them has an Algorithm-1 ordering that a
#: second Algorithm-1 pass leaves unchanged, so lint skips its two exact
#: cycle-time analyses and the request takes 0.1 s instead of 1.8 s; run
#: totals then swung with how many such designs a seed drew.  At 380 none
#: did in 60 draws, and the cost of the others is unchanged.
LARGE_CHANNELS = 380

#: Share of designs (other than the 300-process ones) signed off under a
#: shuffled ordering.
SHUFFLED_SHARE = 0.25

#: Iterations the reference simulator runs to confirm a verdict.
CHECK_ITERATIONS = 64

#: (family or "soc", low size, high size) of the six small designs.
SMALL = (
    ("ofdm-rx", 2, 4),
    ("rate-converter", 1, 3),
    ("noc-torus", 2, 3),
    ("butterfly", 1, 2),
    ("bursty-soc", 16, 24),
    ("soc", 6, 30),
)


@dataclass(frozen=True)
class SignoffRequest:
    label: str
    system: object  # SystemGraph
    shuffled: object  # ChannelOrdering or None


@dataclass
class SignoffInputs:
    requests: list[SignoffRequest]

    def describe(self) -> list[tuple]:
        from repro.core.system import ChannelOrdering
        from repro.ir import structural_hash_of

        return [
            (
                r.label,
                structural_hash_of(
                    r.system,
                    r.shuffled or ChannelOrdering.declaration_order(r.system),
                ),
            )
            for r in self.requests
        ]


def _shuffled(system, rng: random.Random):
    from repro.core.system import ChannelOrdering

    declared = ChannelOrdering.declaration_order(system)
    return ChannelOrdering(
        gets={p: tuple(rng.sample(list(s), len(s))) for p, s in declared.gets.items()},
        puts={p: tuple(rng.sample(list(s), len(s))) for p, s in declared.puts.items()},
    )


def generate(seed: int, seconds: float) -> SignoffInputs:
    from repro.core.generators import synthetic_soc
    from repro.core.system import ChannelOrdering
    from repro.ir import structural_hash_of
    from repro.workloads import generate as family

    rng = random.Random(f"signoff:{seed}")
    rounds = max(1, int(seconds // ROUND_SECONDS))
    requests: list[SignoffRequest] = []
    seen: set[str] = set()

    def add(label: str, make, may_shuffle: bool) -> None:
        # Redraw until the design is new to this run, so no request can be
        # served from a cache a previous request filled.
        while True:
            system = make()
            key = structural_hash_of(system, ChannelOrdering.declaration_order(system))
            if key not in seen:
                break
        seen.add(key)
        shuffled = None
        if may_shuffle and rng.random() < SHUFFLED_SHARE:
            shuffled = _shuffled(system, rng)
        requests.append(SignoffRequest(label, system, shuffled))

    def soc(size: int, channels: int | None = None):
        return lambda: synthetic_soc(
            size, n_channels=channels, seed=rng.randrange(1 << 30)
        )

    def member(name: str, size: int):
        return lambda: family(name, seed=rng.randrange(1 << 30), size=size).system

    bfs_sizes = spread_evenly(rng, 8, 11, rounds)
    small_sizes = {
        name: spread_evenly(rng, low, high, 2 * rounds) for name, low, high in SMALL
    }
    for round_index in range(rounds):
        add("soc300", soc(300, LARGE_CHANNELS), False)
        add("soc300", soc(300, LARGE_CHANNELS), False)
        add("bursty-bfs", member("bursty-soc", bfs_sizes[round_index]), True)
        for name, _, _ in SMALL + SMALL:
            size = small_sizes[name].pop()
            make = soc(size) if name == "soc" else member(name, size)
            add(name, make, True)
    rng.shuffle(requests)
    return SignoffInputs(requests)


def run_request(request: SignoffRequest):
    import repro.absint as absint
    import repro.ir as ir
    import repro.lint as lint
    import repro.ordering as ordering_mod
    import repro.verify as verify
    from repro.errors import ReproError

    algorithm1 = ordering_mod.channel_ordering(request.system)
    ordering = request.shuffled if request.shuffled is not None else algorithm1
    try:
        lint_result = lint.lint_system(request.system, ordering)
    except ReproError as error:
        # Lint crashed; the request still gets its verdict and is counted
        # as failed.
        lint_result = error
    if verify.is_small_system(request.system):
        result = verify.check_deadlock(
            request.system,
            ordering,
            budget_states=BUDGET_STATES,
            sym=True,
        )
        verdict = (result.verdict.name, result.states_explored)
    else:
        static = absint.analyze(request.system, ordering)
        if static.token_free_cycle is not None:
            verdict = ("DEADLOCKED", 0)
        else:
            absint.check_certificate(ir.lower(request.system, ordering), static.certificate)
            verdict = ("DEADLOCK_FREE", 0)
    return ordering, lint_result, verdict


def record(request: SignoffRequest, outcome) -> RequestRecord:
    """Digest: lint findings (except those that read lint's own search,
    which stops on a 1 s clock), the verdict and its state count."""
    ordering, lint_result, verdict = outcome
    out = RequestRecord(outcome=(ordering, verdict))
    if isinstance(lint_result, Exception):
        out.error = f"lint_system raised {lint_result!r}"
        findings: tuple = (out.error,)
    else:
        findings = tuple(
            (d.rule, d.message)
            for d in lint_result.diagnostics
            if not d.rule.startswith(CLOCKED_RULES)
        )
    out.digest = digest((findings, verdict))
    out.extra["elements"] = len(request.system.process_names) + len(
        request.system.channels
    )
    return out


def check(request: SignoffRequest, rec: RequestRecord) -> str:
    """Algorithm-1 orderings never deadlock (paper §4); a shuffled
    ordering's verdict matches the reference simulator's."""
    from repro.errors import SimulationDeadlock
    from repro.sim import ReferenceSimulator

    ordering, (verdict, _) = rec.outcome
    if request.shuffled is None:
        return "Algorithm-1 ordering deadlocked" if verdict == "DEADLOCKED" else ""
    if verdict == "INCONCLUSIVE":
        return ""
    try:
        ReferenceSimulator(request.system, ordering).run(iterations=CHECK_ITERATIONS)
        simulated = "DEADLOCK_FREE"
    except SimulationDeadlock:
        simulated = "DEADLOCKED"
    if simulated != verdict:
        return f"verdict {verdict} but the reference simulator says {simulated}"
    return ""


def quality(records: list[RequestRecord]) -> dict[str, float]:
    done = [rec for rec in records if rec.outcome is not None]
    decided = sum(rec.outcome[1][0] != "INCONCLUSIVE" for rec in done)
    return {
        "area_ratio": 1.0,
        "target_met_ratio": 1.0,
        "decided_ratio": decided / max(1, len(done)),
        "events": float(sum(rec.extra["elements"] for rec in done)),
    }
