#!/usr/bin/env python3
"""Benchmark of the legcable engine: three seeded, closed-loop workloads.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py                  # every workload, then a traced run

Each workload is one client in one single-threaded process that sends its
next operation when the previous one has returned.  ``--seconds`` is the
time spent inside the program (the busy time); generating inputs and
checking answers happen outside it.  Every time reported with ``--trace 0``
is scaled to a reference host speed read from calibration samples taken
along the run (see ``calibrate.py``); the measured times are in the details.
Every answer is checked against a known answer; a wrong one sets
``correct`` to false and the exit code to 1.

``--trace 0`` prints the end-to-end metrics of one workload.  ``--trace 1``
is the traced run: one fresh process per workload wraps the public functions
of every ``legcable`` module, runs whole periods of that workload's schedule,
and reports the per-layer metrics of all three workloads plus each one's
tracing overhead.  The last line of standard output is the result object;
the line before it holds the details (workload properties, tail percentile,
failure and unknown shares).  Full results and span dumps go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from calibrate import REFERENCE_S, Clock  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("decide", "ranges", "oracle")
# An operation still running after this long counts as failed.
OP_LIMIT_S = 10.0
# Malformed documents must be rejected at once; the n = 0 one hangs instead.
PROBE_LIMIT_S = 1.0
MALFORMED_PROBES = 8
# Fresh processes timed for setup_s, half before and half after the loop,
# so the median spans the run.
SETUP_PROBES = 11
# Share of --seconds each workload's traced pass spends traced.
TRACED_SHARE = 1 / 6
CHILD_TIMEOUT_S = 170

E2E_UNITS = {
    "setup_s": "s",
    "latency_ms_p50": "ms",
    "latency_ms_tail": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class OpTimeout(BaseException):
    """Raised by the interval timer inside an operation that ran too long."""


def _on_alarm(signum, frame):
    raise OpTimeout


def run_op(workload, op, limit: float):
    """(status, value, seconds): status is ok, raised or timeout."""
    signal.setitimer(signal.ITIMER_REAL, limit)
    start = perf_counter()
    try:
        try:
            value, status = workload.execute(op), "ok"
        except Exception as exc:  # a failed operation is counted, not fatal
            value, status = exc, "raised"
        finally:
            elapsed = perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        return "timeout", None, perf_counter() - start
    return status, value, elapsed


def import_engine():
    sys.path.insert(0, str(SRC))
    import legcable

    if Path(legcable.__file__).resolve().parent != SRC / "legcable":
        raise SystemExit(f"imported legcable from {legcable.__file__}, not from {SRC}")
    return legcable


def make_workload(name: str, lc):
    from workloads import WORKLOADS

    return WORKLOADS[name](lc)


# ---------------------------------------------------------------------------
# Measuring


class Tally:
    """Latencies and answer checks of the operations of one run."""

    def __init__(self) -> None:
        # Packed arrays, so that the benchmark's own memory barely grows with
        # the number of operations and stays out of peak_rss_mb.
        self.latencies = array("d")
        # Index of the calibration sample taken before each latency.
        self.marks = array("l")
        self.busy = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.wrong: list = []
        self.verdicts = 0
        self.unknown = 0
        self.disagreements = 0
        self.deep = 0
        self.wide = 0
        self.fresh_atlas = 0

    def record(self, workload, op, status, value, seconds, mark=0) -> None:
        self.attempted += 1
        self.busy += seconds
        self.deep += op.deep
        self.wide += op.wide
        self.fresh_atlas += op.fresh_atlas
        if status != "ok":
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{op.kind} {status}: {value!r} on {op.args!r}")
            return
        self.latencies.append(seconds)
        self.marks.append(mark)
        outcome = workload.check(op, value)
        self.verdicts += outcome.verdicts
        self.unknown += outcome.unknown
        self.disagreements += outcome.disagreements
        if outcome.wrong:
            self.wrong.append(outcome.wrong)


def closed_loop(workload, stream, seconds: float, tally: Tally, traced=None,
                clock=None) -> list:
    """Send operations until ``seconds`` of busy time, taking calibration
    samples on ``clock`` between them.  Under a tracer, run whole periods and
    return the operations sent, for the untraced replay."""
    sent: list = []
    mark = 0
    while tally.busy < seconds or (traced and tally.attempted % workload.period):
        op = next(stream)
        if clock:
            clock.tick()
            mark = clock.mark()
        if traced:
            traced.phase, traced.op = "ops", tally.attempted
            sent.append(op)
        status, value, elapsed = run_op(workload, op, OP_LIMIT_S)
        if traced:
            traced.phase, traced.op = "input", -1
        tally.record(workload, op, status, value, elapsed, mark)
    return sent


def replay(workload, ops, tally: Tally) -> None:
    for op in ops:
        status, value, elapsed = run_op(workload, op, OP_LIMIT_S)
        tally.record(workload, op, status, value, elapsed)


def setup_times(workload, count: int) -> list:
    """import legcable and build the workload's atlases in ``count`` fresh
    processes, after one discarded warm-up: [(measured, scaled seconds)]."""
    cmd = [sys.executable, "-I", str(HERE / "setup_probe.py"), str(SRC), *workload.ATLASES]
    times = []
    for i in range(count + 1):
        out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                             timeout=CHILD_TIMEOUT_S)
        if i:
            setup, calibration = map(float, out.stdout.split()[-2:])
            times.append((setup, setup * REFERENCE_S / calibration))
    return times


def tail(latencies: list) -> tuple:
    """(value, percentile, samples): the highest percentile with at least
    ten samples beyond it."""
    lat = sorted(latencies)
    n = len(lat)
    if n <= 10:
        return lat[-1], 100.0, n
    return lat[n - 11], 100.0 * (n - 10) / n, n


def probe_malformed(workload, lc, seed: int) -> dict:
    counts = {"engine_error": 0, "wrong_type": 0, "timeout": 0, "accepted": 0}
    examples = []
    for op in workload.malformed(seed, MALFORMED_PROBES):
        status, value, _ = run_op(workload, op, PROBE_LIMIT_S)
        if status == "ok":
            key = "accepted"
        elif status == "timeout":
            key = "timeout"
        elif isinstance(value, lc.EngineError):
            key = "engine_error"
        else:
            key = "wrong_type"
        counts[key] += 1
        if key in ("wrong_type", "timeout"):
            raised = type(value).__name__ if value is not None else ""
            examples.append(f"{key} {raised} on {op.args[1]!r}"[:200])
    failed = MALFORMED_PROBES - counts["engine_error"]
    return {"sent": MALFORMED_PROBES, **counts, "failed_share": failed / MALFORMED_PROBES,
            "examples": examples[:4]}


def environment() -> dict:
    src = hashlib.sha256()
    for path in sorted((SRC / "legcable").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "commit": git_commit(),
        "src_sha256": src.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()[:12]
        return ref[:12]
    except OSError:
        return "unknown"


def measure(name: str, seed: int, seconds: float) -> tuple:
    """Untraced run of one workload: (tally, end-to-end metrics, details)."""
    lc = import_engine()
    workload = make_workload(name, lc)
    setups = setup_times(workload, SETUP_PROBES // 2)
    workload.setup()
    tally = Tally()
    clock = Clock()
    closed_loop(workload, workload.ops(seed), seconds, tally, clock=clock)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    clock.finish()
    details = after_loop(name, workload, lc, seed, tally)
    setups += setup_times(workload, SETUP_PROBES - len(setups))
    if not tally.latencies:
        raise SystemExit(f"no operation succeeded: {tally.failures}")
    scaled = [clock.scale(t, m) for t, m in zip(tally.latencies, tally.marks)]
    value, percentile, samples = tail(scaled)
    metrics = {
        "setup_s": statistics.median(scaled_s for _, scaled_s in setups),
        "latency_ms_p50": statistics.median(scaled) * 1e3,
        "latency_ms_tail": value * 1e3,
        "ops_per_s": len(scaled) / sum(scaled),
        "peak_rss_mb": peak_rss,
    }
    details.update({
        "host_speed": clock.speed(),
        "calibration_samples": len(clock.samples),
        "measured": {
            "setup_s": statistics.median(setup for setup, _ in setups),
            "latency_ms_p50": statistics.median(tally.latencies) * 1e3,
            "latency_ms_tail": tail(tally.latencies)[0] * 1e3,
            "ops_per_s": len(tally.latencies) / sum(tally.latencies),
        },
        "tail_percentile": percentile,
        "tail_samples": samples,
        "failed_share": tally.failed / tally.attempted,
        "unknown_share": tally.unknown / tally.verdicts if tally.verdicts else None,
        "oracle_disagreements": tally.disagreements if name == "oracle" else None,
        "setup_s_runs": [scaled_s for _, scaled_s in setups],
    })
    return tally, metrics, details


def after_loop(name: str, workload, lc, seed: int, tally: Tally, tracer=None) -> dict:
    """decide's malformed documents and oracle's selfcheck, after the loop."""
    details: dict = {}
    if name == "decide":
        if tracer:
            tracer.phase = "probes"
        details["malformed"] = probe_malformed(workload, lc, seed)
    if name == "oracle":
        from legcable import selfcheck

        if tracer:
            tracer.phase = "selfcheck"
        start = perf_counter()
        results = selfcheck.run_all()
        details["selfcheck_s"] = perf_counter() - start
        details["selfcheck_passed"] = sum(r.passed for r in results)
        tally.wrong += [f"selfcheck {r.name}: {r.detail}" for r in results if not r.passed]
    return details


def shares(tally: Tally, extra_ops: int) -> dict:
    total = tally.attempted + extra_ops
    return {
        "deep_share": tally.deep / total,
        "wide_share": tally.wide / total,
        "malformed_share": extra_ops / total,
        "fresh_atlas_share": tally.fresh_atlas / total,
    }


def traced_pass(name: str, seed: int, seconds: float) -> tuple:
    """Whole periods of one workload under the tracer, then the same
    operations untraced: (tally, layer metrics, details)."""
    from layers import LAYERS, read
    from spans import Tracer

    lc = import_engine()
    tracer = Tracer()
    tracer.install(lc)
    workload = make_workload(name, lc)
    tracer.phase = "setup"
    workload.setup()
    tracer.phase = "input"
    tally = Tally()
    ops = closed_loop(workload, workload.ops(seed), seconds * TRACED_SHARE, tally,
                      traced=tracer)
    details = after_loop(name, workload, lc, seed, tally, tracer)
    tracer.uninstall()
    untraced = Tally()
    replay(workload, ops, untraced)
    overhead = 100.0 * (tally.busy - untraced.busy) / untraced.busy
    metrics = {layer.metric: read(layer, tracer, len(ops), overhead)
               for layer in LAYERS if layer.workload == name}
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"trace-{name}-seed{seed}.json")
    details.update({"ops": len(ops), "traced_busy_s": tally.busy,
                    "untraced_busy_s": untraced.busy, "overhead_pct": overhead,
                    "spans_dropped": tracer.dropped})
    tally.wrong += untraced.wrong
    return tally, metrics, details


# ---------------------------------------------------------------------------
# Reporting


def emit(name: str, args, tally: Tally, metrics: dict, units: dict, details: dict,
         properties: dict) -> int:
    """Print the metrics, the details line and the result line; save both."""
    details = {
        "workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "properties": {**properties, **environment()},
        **details,
        "failures": tally.failures,
        "wrong_count": len(tally.wrong),
        "wrong": tally.wrong[:5],
    }
    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    for key, value in metrics.items():
        print(f"{name:7} {key:50} {value:>16.6g} {units[key]}")
    for text in tally.wrong[:5]:
        print(f"WRONG {text}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"details": details, "result": result}, indent=1) + "\n")
    print(json.dumps(details))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def child(args, workload: str, trace: int, extra=()) -> tuple:
    """Run this script for one workload in a fresh process: (details, result)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or len(lines) < 2:
        raise SystemExit(f"{workload} (trace {trace}) exited {proc.returncode}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def traced_passes(args) -> tuple:
    """One traced pass per workload, each in its own process:
    (tally, layer metrics, details)."""
    tally = Tally()
    metrics: dict = {}
    details: dict = {}
    for name in WORKLOAD_NAMES:
        part, result = child(args, name, 1, ["--pass-only"])
        details[name] = part
        tally.attempted += result["attempted"]
        tally.failed += result["failed"]
        tally.wrong += part["wrong"]
        metrics.update({k: v["value"] for k, v in result["metrics"].items()})
    return tally, metrics, {"passes": details}


def layer_units() -> dict:
    from layers import LAYERS

    return {layer.metric: layer.unit for layer in LAYERS}


def traced_run(args) -> int:
    tally, metrics, details = traced_passes(args)
    return emit("traced", args, tally, metrics, layer_units(), details, {})


def run_all(args) -> int:
    """Every workload untraced, then the traced run, as one table."""
    rows = {name: child(args, name, 0) for name in WORKLOAD_NAMES}
    traced_tally, traced_metrics, traced_details = traced_passes(args)
    units = layer_units()
    print(f"{'workload':8} {'metric':28} {'value':>14} unit")
    for name, (details, result) in rows.items():
        extra = {
            "failed_share": (details["failed_share"], "ratio"),
            "tail_percentile": (details["tail_percentile"], "%"),
            "tail_samples": (details["tail_samples"], "count"),
            "unknown_share": (details["unknown_share"], "ratio"),
            "oracle_disagreements": (details["oracle_disagreements"], "count"),
            "selfcheck_s": (details.get("selfcheck_s"), "s"),
            "host_speed": (details["host_speed"], "ratio"),
            "malformed_failed_share": (details.get("malformed", {}).get("failed_share"),
                                       "ratio"),
        }
        shown = {k: (v["value"], v["unit"]) for k, v in result["metrics"].items()}
        for key, (value, unit) in {**shown, **extra}.items():
            if value is not None:
                print(f"{name:8} {key:28} {value:>14.6g} {unit}")
        for key, value in details["properties"].items():
            print(f"{name:8} {key:28} {value!s:>14}")
    for key, value in traced_metrics.items():
        print(f"{'traced':8} {key:50} {value:>14.6g} {units[key]}")
    for text in traced_tally.wrong[:5]:
        print(f"WRONG {text}")
    correct = not traced_tally.wrong and all(r["correct"] for _, r in rows.values())
    summary = {
        "correct": correct,
        "attempted": sum(r["attempted"] for _, r in rows.values()),
        "failed": sum(r["failed"] for _, r in rows.values()),
        "metrics": {f"{name}.{k}": v for name, (_, r) in rows.items()
                    for k, v in r["metrics"].items()}
        | {k: {"value": v, "unit": units[k]} for k, v in traced_metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"all-seed{args.seed}.json").write_text(json.dumps(
        {"details": {name: d for name, (d, _) in rows.items()} | {"traced": traced_details},
         "result": summary}, indent=1) + "\n")
    print(json.dumps(summary))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="busy time to measure per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pass-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "legcable" / "__init__.py").is_file():
        print(f"error: no legcable sources at {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    if args.workload == "all":
        return run_all(args)
    if args.trace and not args.pass_only:
        return traced_run(args)
    if args.trace:
        tally, metrics, details = traced_pass(args.workload, args.seed, args.seconds)
        units = layer_units()
    else:
        tally, metrics, details = measure(args.workload, args.seed, args.seconds)
        units = E2E_UNITS
    sent = details.get("malformed", {}).get("sent", 0)
    return emit(args.workload, args, tally, metrics, units, details, shares(tally, sent))


if __name__ == "__main__":
    sys.exit(main())
