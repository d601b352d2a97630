"""The traced run: spans around each layer's public functions, from outside.

The tracer replaces a layer's function with a wrapper under *every* name a
caller looks it up by: the defining module, the package that re-exports it,
and each module that imported it by name (``repro.dse.explorer`` binds
``analyze_system`` and ``channel_ordering`` at import).  Methods are
wrapped on their class.  Spans (name, start, end, parent, request) stay in
memory and are written out when the run ends; counters are kept at the
same boundaries.  Nothing in ``src/`` changes, and untraced runs never
install the tracer.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

from perfbench.harness import CLOCKED_RULES

#: ``ExplorationResult.stop_reason`` prefixes -> metric suffix.
STOP_REASONS = (
    ("converged", "converged"),
    ("all candidate configurations visited", "all_visited"),
    ("iteration limit", "iteration_limit"),
    ("exploration cycled", "cycled"),
    ("timing_optimization infeasible", "infeasible"),
    ("area_recovery infeasible", "infeasible"),
)


def _stop_name(reason: str) -> str:
    for prefix, name in STOP_REASONS:
        if reason.startswith(prefix):
            return name
    return "other"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, request]
        self.counts: Counter = Counter()
        self.request = -1
        #: Span clock; the run points it at its ``Clock.now`` so the
        #: in-request kernel samples stay out of every span.
        self.now = time.perf_counter
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def _wrapper(self, fn, name, on_result=None, on_error=None):
        spans = self.spans
        stack = self._stack

        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            index = len(spans)
            spans.append([label, self.now(), 0.0, stack[-1] if stack else -1, self.request])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception as error:
                if on_error is not None:
                    on_error(error, args, kwargs)
                raise
            finally:
                stack.pop()
                spans[index][2] = self.now()
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap_function(self, module_name: str, attr: str, name, **hooks) -> None:
        """Wrap a module-level function under every binding of it in a
        loaded ``repro`` module."""
        original = getattr(sys.modules[module_name], attr)
        wrapper = self._wrapper(original, name, **hooks)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, key, wrapper)

    def wrap_method(self, cls, attr: str, name, **hooks) -> None:
        self._patch(cls, attr, self._wrapper(getattr(cls, attr), name, **hooks))

    def install(self) -> None:
        import repro.absint.certificate  # noqa: F401  (load every target)
        import repro.absint.engine  # noqa: F401
        import repro.dse.explorer as explorer
        import repro.ilp.branch_bound  # noqa: F401
        import repro.ir.lowering as lowering
        import repro.lint  # noqa: F401
        import repro.model.performance  # noqa: F401
        import repro.ordering.algorithm  # noqa: F401
        import repro.perf.engine as perf_engine
        import repro.sim.batch as batch
        import repro.sim.engine as engine
        import repro.sym.canonical  # noqa: F401
        import repro.tmg.howard  # noqa: F401
        import repro.verify.checker  # noqa: F401

        counts = self.counts

        def ilp_result(solution, args, kwargs):
            counts["ilp.solves"] += 1
            counts["ilp.nodes"] += solution.nodes

        def ilp_error(error, args, kwargs):
            counts["ilp.solves"] += 1
            if "exceeded" in str(error):
                # The search stopped at its node limit: a budget, not a proof.
                counts["ilp.node_limit_hits"] += 1
                counts["ilp.nodes"] += kwargs.get(
                    "node_limit", args[1] if len(args) > 1 else 5_000_000
                )

        def dse_result(result, args, kwargs):
            counts["dse.iterations"] += len(result.history) - 1
            counts["dse.stop." + _stop_name(result.stop_reason)] += 1

        def lint_result(result, args, kwargs):
            # Findings that read lint's own clocked search are left out, so
            # the count repeats on any host.
            counts["lint.findings"] += sum(
                not d.rule.startswith(CLOCKED_RULES) for d in result.diagnostics
            )

        def verify_name(args, kwargs):
            # A search with a seconds budget is lint's own (in these
            # workloads): its states depend on host speed, so it is kept
            # out of verify.* and its time counts as lint's.
            return "lint.verify" if kwargs.get("budget_seconds") is not None else "verify"

        def verify_result(result, args, kwargs):
            if kwargs.get("budget_seconds") is not None:
                if "time budget" in result.reason:
                    counts["lint.verify_time_stops"] += 1
                return
            counts["verify.states"] += result.states_explored
            if result.verdict.name == "INCONCLUSIVE":
                counts["verify.inconclusive"] += 1

        def sym_result(analysis, args, kwargs):
            if not analysis.complete:
                counts["sym.incomplete"] += 1

        def events(result):
            return sum(result.channel_transfers.values())

        def sim_result(result, args, kwargs):
            counts["sim.events"] += events(result)

        def batch_result(outcomes, args, kwargs):
            lane_events = sum(events(o) for o in outcomes if hasattr(o, "channel_transfers"))
            counts["sim.events"] += lane_events
            counts["sim.batch_lane_events"] += lane_events

        original_analyze = perf_engine.PerformanceEngine.analyze

        def perf_analyze(engine_self, *args, **kwargs):
            hits = engine_self.results.stats.hits
            try:
                return original_analyze(engine_self, *args, **kwargs)
            finally:
                counts["analysis.lookups"] += 1
                counts["analysis.hits"] += engine_self.results.stats.hits - hits

        original_ir = lowering.LoweredIR

        def counting_ir(*args, **kwargs):
            counts["ir.misses"] += 1
            return original_ir(*args, **kwargs)

        self.wrap_function("repro.ilp.branch_bound", "solve", "ilp",
                           on_result=ilp_result, on_error=ilp_error)
        self.wrap_method(explorer.Explorer, "run", "dse", on_result=dse_result)
        self.wrap_function("repro.model.performance", "analyze_system", "analysis")
        self._patch(perf_engine.PerformanceEngine, "analyze", perf_analyze)
        self.wrap_function(
            "repro.tmg.howard", "maximum_cycle_ratio",
            lambda a, k: "tmg.exact" if k.get("exact", a[1] if len(a) > 1 else True)
            else "tmg.screen",
        )
        self.wrap_function("repro.tmg.howard", "maximum_cycle_ratio_screened", "tmg.certify")
        self.wrap_function("repro.ordering.algorithm", "channel_ordering", "ordering")
        self.wrap_function("repro.lint", "lint_system", "lint", on_result=lint_result)
        self.wrap_function("repro.absint.engine", "analyze", "absint")
        self.wrap_function("repro.absint.engine", "analyze_ir", "absint")
        self.wrap_function("repro.absint.certificate", "check_certificate", "absint.certify")
        self.wrap_function("repro.sym.canonical", "analyze_symmetry", "sym",
                           on_result=sym_result)
        self.wrap_function("repro.verify.checker", "check_deadlock", verify_name,
                           on_result=verify_result)
        self.wrap_function("repro.ir.lowering", "lower", "ir")
        self._patch(lowering, "LoweredIR", counting_ir)
        self.wrap_method(
            engine.Simulator, "run",
            lambda a, k: "sim.traced" if a[0]._trace_on else "sim.scalar",
            on_result=sim_result,
        )
        self.wrap_method(batch.BatchSimulator, "run", "sim.batch", on_result=batch_result)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reporting ------------------------------------------------------

    def layer_metrics(self, factors: list[float]) -> dict[str, float]:
        """Per-layer numbers; times are self times (a span minus its child
        spans), each normalised by its request's host factor."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: defaultdict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i, (name, start, end, parent, request) in enumerate(spans):
            self_s[name] += (end - start - child[i]) * factors[request]
            if parent < 0 or spans[parent][0] != name:
                calls[name] += 1
        c = self.counts
        verify_s = self_s["verify"]
        batch_s = self_s["sim.batch"]
        out = {
            "ilp.solve_s": self_s["ilp"],
            "ilp.solves": c["ilp.solves"],
            "ilp.nodes": c["ilp.nodes"],
            "ilp.node_limit_hits": c["ilp.node_limit_hits"],
            "dse.iterations": c["dse.iterations"],
        }
        for suffix in sorted({name for _, name in STOP_REASONS} | {"other"}):
            out["dse.stop." + suffix] = c["dse.stop." + suffix]
        out.update({
            "analysis.s": self_s["analysis"],
            "analysis.calls": calls["analysis"],
            "analysis.cache_hit_ratio": c["analysis.hits"] / max(1, c["analysis.lookups"]),
            "tmg.screen_s": self_s["tmg.screen"],
            "tmg.certify_s": self_s["tmg.certify"] + self_s["tmg.exact"],
            "ordering.s": self_s["ordering"],
            "ordering.calls": calls["ordering"],
            "lint.s": self_s["lint"] + self_s["lint.verify"],
            "lint.calls": calls["lint"],
            "lint.findings": c["lint.findings"],
            "lint.verify_time_stops": c["lint.verify_time_stops"],
            "absint.s": self_s["absint"],
            "absint.calls": calls["absint"],
            "absint.certify_s": self_s["absint.certify"],
            "sym.s": self_s["sym"],
            "sym.calls": calls["sym"],
            "sym.incomplete": c["sym.incomplete"],
            "verify.s": verify_s,
            "verify.states": c["verify.states"],
            "verify.states_per_s": c["verify.states"] / verify_s if verify_s else 0.0,
            "verify.inconclusive": c["verify.inconclusive"],
            "ir.lower_s": self_s["ir"],
            "ir.lower_calls": calls["ir"],
            "ir.cache_hit_ratio": 1.0 - c["ir.misses"] / max(1, calls["ir"]),
            "sim.scalar_s": self_s["sim.scalar"],
            "sim.traced_s": self_s["sim.traced"],
            "sim.batch_s": batch_s,
            "sim.events": c["sim.events"],
            "sim.lane_events_per_s": c["sim.batch_lane_events"] / batch_s if batch_s else 0.0,
        })
        return out

    def dump(self) -> dict:
        return {"columns": ["name", "start", "end", "parent", "request"], "spans": self.spans}
