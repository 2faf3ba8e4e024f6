"""Construction benchmark for hypfactor: one closed-loop caller, four workloads.

    python3 perfbench/run.py --workload split-h2 --seed 1 --seconds 30 --trace 0

One caller issues each op after the previous one finishes.  A pass runs
every op of the workload once; passes repeat until the next one would end
after --seconds (at least one pass runs).  Every op's output goes through
a correctness gate, and a failed gate, an exception or a wrong exit code
counts as a failed op without stopping the run.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced passes, reports per-layer self times and counts, the tracing
overhead, and the tracemalloc peak of one construction, and writes the
spans to perfbench-out/.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}; the line before it
(prefixed "# ") records the commit, interpreter, CPU count, oracle
backend, pass times and the output digest.

The package is imported from src/ of the checkout, as the tier-1 tests do;
without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "perfbench-out")
SETUPS = 5  # set-ups per run; setup_s is their median
# Reported times are in reference seconds: measured seconds scaled by
# REF_PROBE_S / (time of the speed probe around the measured interval).
# The probe runs between ops, once per PROBE_EVERY_S of op time, and
# twice before and after each set-up.
REF_PROBE_S = 0.02
PROBE_EVERY_S = 0.25
MODULES = ("detach", "cli", "verify", "laminar", "hypercore", "wings", "oracle")

from layertrace import ConstructPeak, LayerTracer
from speed import time_reference
from workloads import WORKLOADS, make_workload


def load_package() -> SimpleNamespace:
    """Import hypfactor afresh from the checkout's src/."""
    for name in [m for m in sys.modules if m == "hypfactor" or m.startswith("hypfactor.")]:
        del sys.modules[name]
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    pkg = importlib.import_module("hypfactor")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise ImportError(f"hypfactor resolved to {pkg.__file__}, not to {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"hypfactor.{m}") for m in MODULES})


def commit_id() -> str:
    """HEAD of the checkout's git directory, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


# -- ops and passes ------------------------------------------------------


def run_op(op, tracer=None, op_id=0):
    """Time one op, then gate it: (seconds, output text, error or None)."""
    t0 = time.perf_counter()
    try:
        value = tracer.op(op_id, op.run) if tracer else op.run()
    except Exception:
        return time.perf_counter() - t0, "", f"{op.label}: {traceback.format_exc(limit=3)}"
    elapsed = time.perf_counter() - t0
    try:
        text, err = op.check(value)
    except Exception:
        text, err = "", f"{op.label}: gate raised {traceback.format_exc(limit=3)}"
    return elapsed, text, err


def run_pass(workload, tracer=None, first_id=0) -> SimpleNamespace:
    gc.collect()
    digest = hashlib.sha256()
    latencies, errors = [], []
    # groups[i] holds the speed probes run just before op i, and
    # groups[i + 1] those run just after it
    groups = [[time_reference()]]
    unprobed = 0.0  # op time since the last probe
    wall = 0.0
    for i, op in enumerate(workload.ops):
        t0 = time.perf_counter()
        seconds, text, err = run_op(op, tracer, first_id + i)
        took = time.perf_counter() - t0
        wall += took
        latencies.append(seconds)
        # one probe per PROBE_EVERY_S of op time, so that long ops are
        # probed as densely as short ones
        unprobed += took
        group = []
        while unprobed >= PROBE_EVERY_S:
            group.append(time_reference())
            unprobed -= PROBE_EVERY_S
        groups.append(group)
        digest.update(text.encode())
        if err:
            errors.append(err)
    return SimpleNamespace(
        seconds=wall,
        latencies=latencies,
        scaled=_to_reference(latencies, groups),
        probes=[x for g in groups for x in g],
        digest=digest.hexdigest(),
        errors=errors,
    )


def _to_reference(latencies, groups) -> list:
    """Each latency in reference seconds.

    The host's speed during op i is the mean of the nearest non-empty
    probe group before the op and the nearest one after it.
    """
    means = [statistics.fmean(g) if g else None for g in groups]
    nearest = lambda kept, m: kept if m is None else m  # noqa: E731
    before = list(itertools.accumulate(means, nearest))
    after = list(itertools.accumulate(reversed(means), nearest))[::-1]
    return [lat * REF_PROBE_S * 2 / (before[i] + (after[i + 1] or before[i]))
            for i, lat in enumerate(latencies)]


def closed_loop(seconds: float, one_round) -> list:
    """Repeat `one_round` while the next one is projected to end in time."""
    rounds, start = [], time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds.append(one_round(len(rounds)))
        took = time.perf_counter() - t0
        if time.perf_counter() - start + took > seconds:
            return rounds


def set_up(name, seed, workdir, tiny):
    """Import, build inputs and run one warm-up op, bracketed by speed probes."""
    gc.collect()
    before = [time_reference() for _ in range(2)]
    t0 = time.perf_counter()
    pkg = load_package()
    workload = make_workload(pkg, name, seed, workdir, tiny)
    _, _, err = run_op(workload.warmup)
    took = time.perf_counter() - t0
    after = [time_reference() for _ in range(2)]
    return SimpleNamespace(seconds=took, scaled=took * REF_PROBE_S / statistics.fmean(before + after),
                           pkg=pkg, workload=workload, error=err)


# -- the two kinds of run ----------------------------------------------------


def end_to_end(name, seed, seconds, workdir, tiny) -> tuple[dict, dict]:
    # The first SETUPS passes each start from a fresh set-up, so set-up
    # samples spread over the run instead of landing in its first second.
    setups = []

    def set_up_and_pass(_):
        if len(setups) < SETUPS:
            setups.append(set_up(name, seed, workdir, tiny))
        return run_pass(setups[-1].workload)

    passes = closed_loop(seconds, set_up_and_pass)
    while len(setups) < SETUPS:
        setups.append(set_up(name, seed, workdir, tiny))
    metrics = {
        "setup_s": (statistics.median(s.scaled for s in setups), "s"),
        "wall_s": (sum(statistics.median(op) for op in zip(*(p.scaled for p in passes))), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    latencies = sorted(x * 1000 for p in passes for x in p.scaled)
    info = {
        "raw_setup_s": statistics.median(s.seconds for s in setups),
        "raw_wall_s": sum(statistics.median(op) for op in zip(*(p.latencies for p in passes))),
        "probe_s": statistics.fmean(x for p in passes for x in p.probes),
        "op_ms": {"samples": len(latencies), "p50": statistics.median(latencies),
                  "p95": statistics.quantiles(latencies, n=20)[-1] if len(latencies) >= 200 else None},
        "errors": [s.error for s in setups if s.error],
    }
    return metrics, _summarise(setups[-1].pkg, passes, len(setups), info)


def traced(name, seed, seconds, workdir, tiny) -> tuple[dict, dict]:
    setup = set_up(name, seed, workdir, tiny)
    pkg, workload = setup.pkg, setup.workload
    tracer = LayerTracer()
    n_ops = len(workload.ops)

    def pair(i):
        plain = run_pass(workload)
        tracer.install(pkg)
        try:
            with_trace = run_pass(workload, tracer, first_id=i * n_ops)
        finally:
            tracer.remove()
        return plain, with_trace

    pairs = closed_loop(seconds, pair)
    passes = [p for pr in pairs for p in pr]
    scale = REF_PROBE_S / statistics.fmean(x for _, t in pairs for x in t.probes)
    metrics = tracer.metrics(len(pairs), scale)
    metrics["trace.overhead_ratio"] = (
        statistics.median(t.seconds for _, t in pairs)
        / statistics.median(u.seconds for u, _ in pairs), "ratio")

    peak = ConstructPeak()
    mem_op = workload.memory_op()
    mem_err = None
    if mem_op is not None:
        gc.collect()  # so that collections fall at the same points every run
        peak.install(pkg)
        try:
            _, _, mem_err = run_op(mem_op)
        finally:
            peak.remove()
    metrics["detach.construct.tracemalloc_peak_mib"] = (peak.peak_bytes / 2**20, "MiB")

    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.jsonl")
    tracer.write_spans(spans_path)
    info = {
        "memory_op": mem_op.label if mem_op else None,
        "spans": os.path.relpath(spans_path, ROOT),
        "span_count": len(tracer.spans),
        "errors": [e for e in (setup.error, mem_err) if e],
    }
    info = _summarise(pkg, passes, 1 + (mem_op is not None), info)
    metrics["fail_rate"] = (info["failed"] / info["attempted"], "ratio")
    return metrics, info


def _summarise(pkg, passes, extra_ops, info) -> dict:
    errors = info.pop("errors") + [e for p in passes for e in p.errors]
    digests = sorted({p.digest for p in passes})
    info.update(
        commit=commit_id(),
        python=platform.python_version(),
        nproc=os.cpu_count(),
        backend=pkg.oracle.search_backend(),
        passes=len(passes),
        pass_s=[p.seconds for p in passes],
        digest=digests[0] if len(digests) == 1 else digests,
        attempted=sum(len(p.latencies) for p in passes) + extra_ops,
        failed=len(errors),
        errors=errors,
    )
    info["correct"] = not errors and len(digests) == 1
    return info


def run_benchmark(name, seed, seconds, trace, tiny=False) -> tuple[dict, dict]:
    """One run; returns (result line, run info)."""
    workdir = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT)
    try:
        metrics, info = (traced if trace else end_to_end)(name, seed, seconds, workdir, tiny)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": info["correct"],
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        load_package()
    except ImportError as e:
        print(f"perfbench: cannot import hypfactor from {SRC}: {e}", file=sys.stderr)
        return 2
    result, info = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    for err in info["errors"]:
        print(f"perfbench: failed op: {err}", file=sys.stderr)
    print("# " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
