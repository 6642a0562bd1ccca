#!/usr/bin/env python3
"""sdn-aaa benchmark: one workload through the ``sdn-aaa run`` path.

    python3 perfbench/run.py --workload dataplane --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed default

Each iteration loads the generated scenario text (``simnet.load_scenario``),
builds ``simnet.Simulation``, runs it and encodes the NDJSON transcript,
timing each step. The first iteration is checked by the oracle and gives the
logical-time metrics and the behaviour fingerprint; every later iteration
must reproduce its transcript byte for byte. Iterations repeat for
``--seconds``; the host-time metrics are medians over them, rescaled by a
reference task timed next to each iteration (see ``reference_task``).

With ``--trace 0`` the last line of output is a JSON object with every
end-to-end metric; with ``--trace 1`` it holds the per-layer metrics of one
traced iteration, which runs after untraced ones for comparison. See
README.md beside this file for the metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
MIN_ITERATIONS = 3
# Nominal duration of reference_task(); host times are rescaled to a host
# on which the reference task takes this long.
REFERENCE_SECONDS = 0.02

sys.path.insert(0, str(HERE))
import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Workloads with no churn, where every answer must take a shortest path.
SHORTEST_PATHS = {"dataplane", "provision"}


def import_program() -> types.SimpleNamespace:
    """The program's modules, imported from this checkout's ``src/`` only."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        from sdnaaa import controller, model, node, simnet, southbound
    except ImportError as err:
        raise SystemExit(f"perfbench: cannot import sdnaaa from {src}: {err}") from None
    if not Path(simnet.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: sdnaaa was imported from {simnet.__file__}, not {src}")
    return types.SimpleNamespace(simnet=simnet, node=node, model=model,
                                 southbound=southbound, controller=controller)


def pipeline(simnet, text: str):
    """One ``sdn-aaa run --transcript`` pass; returns the simulation, its
    metrics, the NDJSON text and (setup, run, encode) host seconds."""
    t0 = time.perf_counter()
    sim = simnet.Simulation(simnet.load_scenario(text))
    t1 = time.perf_counter()
    metrics, transcript = sim.run()
    t2 = time.perf_counter()
    ndjson = transcript.to_ndjson()
    t3 = time.perf_counter()
    return sim, metrics, ndjson, (t1 - t0, t2 - t1, t3 - t2)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def count_events(simnet):
    """Install a counter of executed event-loop callbacks; returns the
    counter (a one-item list, [-1] when ``EventLoop.call_at`` is absent) and
    a function that removes it."""
    counter = [0]
    loop_cls = getattr(simnet, "EventLoop", None)
    original = getattr(loop_cls, "__dict__", {}).get("call_at")
    if original is None:
        return [-1], lambda: None

    def call_at(loop, when, fn):
        def counted():
            counter[0] += 1
            fn()
        return original(loop, when, counted)

    loop_cls.call_at = call_at
    return counter, lambda: setattr(loop_cls, "call_at", original)


def checked_iteration(program, name: str, scenario: dict, text: str):
    """Untimed first iteration of a fresh process: oracle check, behaviour
    fingerprint, and the process's peak RSS in MiB before the oracle runs."""
    counter, remove = count_events(program.simnet)
    try:
        _sim, metrics, ndjson, _times = pipeline(program.simnet, text)
    finally:
        remove()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report = oracle.check(scenario, ndjson, name in SHORTEST_PATHS)
    report.problems += oracle.check_metrics(report, metrics.to_json())
    fingerprint = {
        "transcript_sha256": digest(ndjson),
        "metrics_sha256": digest(metrics.to_text()),
        "events": counter[0],
        "records": report.records,
        "c2n_frames": report.c2n_frames,
    }
    return report, fingerprint, peak_rss_mib


def reference_task() -> float:
    """Host seconds of a fixed pure-Python task that does not involve the
    program: generating the text of one fixed 4000-request scenario.

    The sandbox's speed drifts by up to 2x over minutes as other tenants'
    load comes and goes, and a 30 s run cannot average that out. Timing this
    task next to every iteration measures the drift so it can be divided
    out.
    """
    start = time.perf_counter()
    workloads.scenario_text(workloads.generate("dataplane", 0, requests=4000))
    return time.perf_counter() - start


def timed_iterations(simnet, text: str, seconds: float, transcript_sha: str):
    """Repeat the pipeline for ``seconds`` (at least MIN_ITERATIONS times).
    Returns (setup, run, encode, reference) host seconds per iteration,
    where reference is the mean of reference_task() just before and just
    after the iteration, and how many transcripts differed."""
    samples, mismatches = [], 0
    deadline = time.perf_counter() + seconds
    while len(samples) < MIN_ITERATIONS or time.perf_counter() < deadline:
        gc.collect()
        before = reference_task()
        gc.collect()
        sim, _metrics, ndjson, times = pipeline(simnet, text)
        mismatches += digest(ndjson) != transcript_sha
        del sim, _metrics, ndjson
        gc.collect()
        samples.append((*times, (before + reference_task()) / 2))
    return samples, mismatches


def end_to_end(seconds, program, report, fingerprint, peak_rss_mib, text):
    """End-to-end metrics; returns (metrics, transcript mismatches, iterations)."""
    samples, mismatches = timed_iterations(program.simnet, text, seconds,
                                           fingerprint["transcript_sha256"])
    # each time rescaled to the nominal host: seconds x REFERENCE_SECONDS / reference
    setup = statistics.median(s[0] * REFERENCE_SECONDS / s[3] for s in samples)
    run = statistics.median(s[1] * REFERENCE_SECONDS / s[3] for s in samples)
    run_encode = statistics.median((s[1] + s[2]) * REFERENCE_SECONDS / s[3] for s in samples)
    wall = [s[1] for s in samples]
    print(f"iterations {len(samples)}; wall run_s median {statistics.median(wall):.4f} "
          f"(min {min(wall):.4f}, max {max(wall):.4f}); reference_s median "
          f"{statistics.median(s[3] for s in samples):.5f}; wall answered_per_s "
          f"{report.answered / statistics.median(wall):.1f}")
    metrics = {
        "setup_s": (setup, "s"),
        "answered_per_s": (report.answered / run, "req/s"),
        "answered_per_s_ndjson": (report.answered / run_encode, "req/s"),
        "latency_p50_ticks": (oracle.percentile(report.latencies, 50), "ticks"),
        "latency_p99_ticks": (oracle.percentile(report.latencies, 99), "ticks"),
        "answered_share": (report.answered / report.injected, "ratio"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }
    return metrics, mismatches, len(samples)


def per_layer(name, seed, seconds, program, report, fingerprint, text):
    """Per-layer metrics of one traced iteration, after untraced ones for
    the overhead comparison; returns (metrics, mismatches, iterations)."""
    simnet = program.simnet
    samples, mismatches = timed_iterations(simnet, text, seconds / 2,
                                           fingerprint["transcript_sha256"])
    untraced_run = statistics.median(s[1] * REFERENCE_SECONDS / s[3] for s in samples)

    gc.collect()
    before = reference_task()
    gc.collect()
    tracer = tracing.Tracer()
    tracer.install(program)
    try:
        scenario = tracer.call("simnet.load_scenario", None, simnet.load_scenario, text)
        sim = tracer.call("simnet.construct", None, simnet.Simulation, scenario)
        run_start = tracer.clock()
        _metrics, transcript = tracer.call("simnet.run", None, sim.run)
        traced_run = tracer.clock() - run_start
        ndjson = tracer.call("simnet.transcript.ndjson", None, transcript.to_ndjson)
    finally:
        tracer.uninstall()
    mismatches += digest(ndjson) != fingerprint["transcript_sha256"]
    for absent in tracer.absent:
        print(f"absent: {absent} (its metrics read 0)")
    values = tracer.layer_metrics(sim, run_start, report)
    values["simnet.transcript.ndjson_bytes"] = len(ndjson.encode())
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{name}-{seed}.ndjson"
    tracer.write(spans_path)
    print(f"spans written to {spans_path.relative_to(ROOT)}")

    # the reference task is timed once the traced run's objects are gone, as
    # after untraced iterations, so garbage collection costs it the same
    del tracer, scenario, sim, _metrics, transcript, ndjson
    gc.collect()
    traced_run *= REFERENCE_SECONDS / ((before + reference_task()) / 2)
    values["trace.answered_per_s_traced"] = report.answered / traced_run
    values["trace.answered_per_s_untraced"] = report.answered / untraced_run
    values["trace.overhead_ratio"] = traced_run / untraced_run
    metrics = {k: (values[k], unit) for k, unit in tracing.LAYER_METRICS.items()}
    return metrics, mismatches, len(samples) + 1


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    program = import_program()
    scenario = workloads.generate(name, seed)
    text = workloads.scenario_text(scenario)
    report, fingerprint, peak_rss_mib = checked_iteration(program, name, scenario, text)
    if trace:
        metrics, mismatches, iterations = per_layer(name, seed, seconds, program, report,
                                                    fingerprint, text)
    else:
        metrics, mismatches, iterations = end_to_end(seconds, program, report, fingerprint,
                                                     peak_rss_mib, text)
    if mismatches:
        report.problems.append(f"{mismatches} iterations wrote a different transcript")

    print(f"workload {name} seed {seed}: {report.injected} requests injected, "
          f"{report.answered} answered, {report.errored} errored, {report.pending} pending")
    print(f"ops {report.injected} ops_failed {len(report.failed_ids)} "
          f"unanswered {report.injected - report.answered} "
          f"latency_samples {len(report.latencies)}")
    print("fingerprint " + " ".join(f"{k}={v}" for k, v in fingerprint.items()))
    for problem in report.problems[:20]:
        print(f"oracle: {problem}")
    for metric, (value, unit) in metrics.items():
        print(f"{metric} {value} {unit}")
    correct = not report.problems
    return {
        "correct": correct,
        "attempted": report.injected * iterations,
        "failed": len(report.failed_ids) * iterations + mismatches * report.injected,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }


def run_all(seed_arg: str, seconds: float, trace: bool) -> dict:
    """Every workload in a fresh process of its own, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", seed_arg, "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True,
        )
        if out.returncode != 0:
            raise SystemExit(f"perfbench: workload {name} exited with {out.returncode}")
        lines = out.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def parse_seed(text: str, name: str) -> int:
    if text in ("default", "holdout"):
        return workloads.WORKLOADS[name][f"{text}_seed"]
    return int(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", default="default",
                        help="an integer, or 'default' / 'holdout' for the workload's own")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        seed = parse_seed(args.seed, args.workload)
        result = run_workload(args.workload, seed, args.seconds, bool(args.trace))
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
