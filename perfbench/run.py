"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload explore --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
requests untraced and then traced, and prints the per-layer metrics.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the raw seconds and kernel times behind the normalised figures.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# One native thread: numpy's BLAS pool would otherwise sit beside the
# kernel samples (and trip the quiescence guard).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("explore", "signoff", "simulate")

#: Child processes timed for ``setup_s``; the median is reported.
SETUP_SAMPLES = 5

#: Program modules imported during set-up, so no import lands in a request.
PROGRAM_MODULES = (
    "repro", "repro.absint", "repro.dse", "repro.dse.explorer", "repro.ir",
    "repro.lint", "repro.model.performance", "repro.mpeg2", "repro.obs",
    "repro.ordering", "repro.perf.engine", "repro.sim", "repro.sim.batch",
    "repro.sym", "repro.tmg.howard", "repro.verify", "repro.workloads",
)


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="import the program and generate the inputs, then exit "
        "(the unit that setup_s times)",
    )
    return parser.parse_args(argv)


def load(workload: str):
    """Import the program and the workload module; generation is separate."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources under {src}")
    sys.path[:0] = [str(src), str(ROOT)]
    for name in PROGRAM_MODULES:
        importlib.import_module(name)
    return importlib.import_module(f"perfbench.{workload}")


def reset_caches() -> None:
    """Empty every process-wide cache, so each pass starts cold."""
    from repro.absint import clear_analysis_cache
    from repro.ir import clear_lowering_cache
    from repro.lint import clear_preflight_cache
    from repro.perf.engine import reset_default_engine
    from repro.sym.canonical import clear_memo

    clear_analysis_cache()
    clear_lowering_cache()
    clear_preflight_cache()
    clear_memo()
    reset_default_engine()
    gc.collect()


def setup_only(args: argparse.Namespace) -> int:
    """The unit ``setup_s`` times: import the program, generate the inputs.

    Two kernel samples are taken in this process before that work and two
    after it; their mean is printed as ``k_s``, with the seconds the samples
    took, for the parent to normalise by.  Two on each side, because the
    first of a pair runs with caches the other work has left cold.
    """
    sys.path.insert(0, str(ROOT))
    from perfbench.harness import sample_kernel

    started = time.perf_counter()
    samples = [sample_kernel(), sample_kernel()]
    sampling = time.perf_counter() - started
    module = load(args.workload)
    module.generate(args.seed, args.seconds)
    started = time.perf_counter()
    samples += [sample_kernel(), sample_kernel()]
    sampling += time.perf_counter() - started
    print(json.dumps({"k_s": statistics.fmean(samples), "sampling_s": sampling}))
    return 0


def measure_setup(args: argparse.Namespace) -> list:
    """Timings of ``SETUP_SAMPLES`` fresh interpreters that import the
    program and generate the inputs.

    Each is normalised by the kernel samples taken inside that child, not
    in this process: a sample taken here right after a child exits reads
    the child's cache footprint more than host speed.
    """
    from perfbench.harness import K_REF, Timing

    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--setup-only",
    ]
    timings = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        child = subprocess.run(
            command, cwd=ROOT, check=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        wall = time.perf_counter() - start
        kernel = json.loads(child.stdout.strip().splitlines()[-1])
        raw = wall - kernel["sampling_s"]
        timings.append(Timing(raw, raw * K_REF / kernel["k_s"]))
    return timings


def run_pass(module, inputs, tracer=None):
    """Time every request once, in order; no work is timed but the call."""
    from perfbench.harness import Clock, RequestRecord

    clock = Clock()
    if tracer is not None:
        tracer.now = clock.now
    records = []
    for index, request in enumerate(inputs.requests):
        if tracer is not None:
            tracer.request = index
        try:
            outcome = clock.time(module.run_request, request)
        except Exception as error:  # the request failed; keep measuring
            records.append(RequestRecord(error=repr(error)))
            continue
        records.append(module.record(request, outcome))
    return clock, records


def check_records(module, inputs, records) -> dict[int, str]:
    """Known-answer checks, after the timed phase: wrong request -> why.
    Requests that raised have no answer to check; they count as failed."""
    wrong = {}
    for index, (request, rec) in enumerate(zip(inputs.requests, records)):
        if rec.outcome is not None:
            problem = module.check(request, rec)
            if problem:
                wrong[index] = problem
    return wrong


def source_digest() -> str:
    """SHA-256 over the program's source files (relative paths and contents)."""
    from perfbench.harness import digest

    src = ROOT / "src"
    return digest([
        (str(path.relative_to(src)), path.read_bytes())
        for path in sorted(src.rglob("*"))
        if path.is_file() and "__pycache__" not in path.parts
    ])


def check_digests(workload: str, list_digest: str, digests: list[str]) -> dict[int, str]:
    """Outcomes may not depend on host speed: compare with the digests an
    earlier run of the same program over the same request list left behind.
    The key holds the program's source digest, so a change to the program
    starts afresh instead of being held to the old outcomes."""
    key = f"{workload}-{source_digest()[:20]}-{list_digest[:20]}"
    path = OUT_DIR / "digests" / f"{key}.json"
    if not path.is_file():
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(digests))
        tmp.replace(path)
        return {}
    previous = json.loads(path.read_text())
    if len(previous) != len(digests):
        return {-1: "request count differs from an earlier run"}
    return {
        i: "outcome differs from an earlier run"
        for i, (a, b) in enumerate(zip(previous, digests))
        if a != b
    }


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be positive")
    if args.setup_only:
        return setup_only(args)
    module = load(args.workload)
    from perfbench import harness
    from perfbench.harness import K_REF, metric, percentile

    phases = {}
    started = time.perf_counter()
    setup = [] if args.trace else measure_setup(args)
    phases["setup_children_s"] = time.perf_counter() - started
    gen_clock = harness.Clock()
    inputs = gen_clock.time(module.generate, args.seed, args.seconds)
    described = inputs.describe()
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "requests": len(inputs.requests),
        "request_list_digest": harness.digest(described),
        "k_ref_s": K_REF,
    }

    reset_caches()
    clock, records = run_pass(module, inputs)
    wrong: dict[int, str] = {}
    if args.trace:
        from perfbench.tracing import Tracer

        untraced = clock
        reset_caches()
        tracer = Tracer()
        tracer.install()
        try:
            clock, traced_records = run_pass(module, inputs, tracer)
        finally:
            tracer.uninstall()
        for i, (a, b) in enumerate(zip(records, traced_records)):
            if a.digest != b.digest:
                wrong[i] = "tracing changed the outcome"
        records = traced_records
        factors = [t.norm_s / t.raw_s if t.raw_s else 1.0 for t in clock.timings]
        metrics = {
            name: metric(value, unit_of(name))
            for name, value in tracer.layer_metrics(factors).items()
        }
        metrics["gen.s"] = metric(gen_clock.norm_s, "s")
        metrics["trace.wall_s"] = metric(clock.norm_s, "s")
        metrics["trace.overhead_ratio"] = metric(clock.norm_s / untraced.norm_s, "1")
        detail.update(untraced_raw_s=untraced.raw_s, untraced_norm_s=untraced.norm_s)
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(tracer.dump())
        )
    started = time.perf_counter()
    wrong.update(check_records(module, inputs, records))
    wrong.update(check_digests(
        args.workload, detail["request_list_digest"], [r.digest for r in records]
    ))
    phases["check_s"] = time.perf_counter() - started
    errors = {i: rec.error for i, rec in enumerate(records) if rec.error}
    failed = len((errors.keys() | wrong.keys()) - {-1})

    if not args.trace:
        quality = module.quality(records)
        wall = clock.norm_s
        request_ms = [t.norm_s * 1000 for t in clock.timings]
        metrics = {
            "setup_s": metric(statistics.median(t.norm_s for t in setup), "s"),
            "wall_s": metric(wall, "s"),
            "req_p50_ms": metric(percentile(request_ms, 0.5), "ms"),
            "req_p90_ms": metric(percentile(request_ms, 0.9), "ms"),
            "ok_ratio": metric((len(records) - failed) / len(records), "1"),
            "peak_rss_mb": metric(harness.peak_rss_mib(), "MiB"),
            "area_ratio": metric(quality["area_ratio"], "1"),
            "target_met_ratio": metric(quality["target_met_ratio"], "1"),
            "decided_ratio": metric(quality["decided_ratio"], "1"),
            "events_per_s": metric(quality["events"] / wall, "1/s"),
        }
        detail.update(
            setup_raw_s=[t.raw_s for t in setup],
            setup_k_ms=[round(t.k_s * 1000, 3) for t in setup],
        )
    detail.update(
        wall_raw_s=clock.raw_s,
        wall_norm_s=clock.norm_s,
        kernel_mean_s=clock.mean_k_s,
        gen_raw_s=gen_clock.raw_s,
        **phases,
        request_labels=[row[0] for row in described],
        request_raw_ms=[round(t.raw_s * 1000, 3) for t in clock.timings],
        request_k_ms=[round(t.k_s * 1000, 3) for t in clock.timings],
        errors={str(i): why for i, why in sorted(errors.items())[:20]},
        wrong={str(i): why for i, why in sorted(wrong.items())[:20]},
    )
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ratio"):
        return "1"
    return "count"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
