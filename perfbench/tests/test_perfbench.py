"""Tests of the benchmark itself: generator, oracle and tracer.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "dataplane": {"requests": 40},
    "provision": {"realms": 12, "rounds": 2},
    "reactive_ttl": {"requests": 400, "churn_every": 100, "down_for": 50},
}


@pytest.fixture(scope="module")
def program():
    return run.import_program()


def small_run(program, name, seed=1):
    scenario = workloads.generate(name, seed, **SMALL[name])
    sim, metrics, ndjson, _times = run.pipeline(program.simnet, workloads.scenario_text(scenario))
    return scenario, sim, metrics, ndjson


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_seeded_and_loads(program, name):
    first = workloads.scenario_text(workloads.generate(name, 5))
    again = workloads.scenario_text(workloads.generate(name, 5))
    other = workloads.scenario_text(workloads.generate(name, 6))
    assert first == again
    assert first != other
    scenario = program.simnet.load_scenario(first)
    injects = [ev for ev in json.loads(first)["events"] if ev["kind"] == "inject"]
    assert len([ev for ev in scenario.events if ev.kind == "inject"]) == len(injects)
    assert len(injects) >= 1000


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_oracle_accepts_the_program_output(program, name):
    scenario, _sim, metrics, ndjson = small_run(program, name)
    report = oracle.check(scenario, ndjson, name in run.SHORTEST_PATHS)
    assert report.problems == []
    assert oracle.check_metrics(report, metrics.to_json()) == []
    assert report.injected == report.answered + report.errored + report.pending
    assert report.answered > 0


def _tamper(ndjson: str, edit) -> str:
    records = [json.loads(line) for line in ndjson.splitlines()]
    done = next(r for r in records if r["direction"] == "done"
                and r["message"]["status"] in oracle.ANSWERED)
    edit(done["message"])
    return "".join(json.dumps(r) + "\n" for r in records)


def _flip_status(message):
    message["status"] = "reject" if message["status"] == "accept" else "accept"


def _skip_a_hop(message):
    message["trace"] = message["trace"][:1] + message["trace"][2:]


def _wrong_home(message):
    message["trace"] = message["trace"][:-1]


@pytest.mark.parametrize("edit", [_flip_status, _skip_a_hop, _wrong_home])
def test_oracle_rejects_a_tampered_transcript(program, edit):
    scenario, _sim, _metrics, ndjson = small_run(program, "dataplane")
    report = oracle.check(scenario, _tamper(ndjson, edit), shortest_paths=True)
    assert len(report.failed_ids) == 1
    assert report.problems


def test_oracle_rejects_a_longer_than_shortest_path():
    scenario = {
        "topology": {
            "nodes": {"c": {}, "a": {}, "b": {}, "h": {"users": {"u": "pw"}}},
            "links": [["c", "h"], ["c", "a"], ["a", "b"], ["b", "h"]],
            "homes": {"r.example": "h"},
        },
        "events": [{"time": 1, "kind": "inject", "at": "c", "nai": "u@r.example",
                    "password": "pw"}],
    }
    message = {"msg_id": "m1", "nai": "u@r.example", "status": "accept"}
    records = [
        {"time": 1, "actor": "c", "direction": "inject", "message": dict(message, trace=[])},
        {"time": 9, "actor": "c", "direction": "done",
         "message": dict(message, trace=["c", "a", "b", "h"])},
    ]
    ndjson = "".join(json.dumps(r) + "\n" for r in records)
    assert oracle.check(scenario, ndjson, shortest_paths=False).problems == []
    assert oracle.check(scenario, ndjson, shortest_paths=True).failed_ids == {"m1"}


def test_metrics_cross_check_catches_a_dropped_answer(program):
    scenario, _sim, metrics, ndjson = small_run(program, "dataplane")
    lines = ndjson.splitlines(keepends=True)
    first_done = next(i for i, line in enumerate(lines) if '"direction":"done"' in line)
    report = oracle.check(scenario, "".join(lines[:first_done] + lines[first_done + 1:]), True)
    assert report.pending == 1
    assert oracle.check_metrics(report, metrics.to_json())


def test_percentile_is_nearest_rank():
    values = list(range(1, 1001))
    assert oracle.percentile(values, 50) == 500
    assert oracle.percentile(values, 99) == 990
    assert oracle.percentile([7], 99) == 7


def test_self_times_on_a_hand_built_span_tree():
    spans = [
        ["root", 0.0, 10.0, None, None],     # 0: children 1 and 4 cover 7
        ["a", 1.0, 5.0, 0, "m1"],            # 1: child 2 covers 1, child 3 covers 2
        ["b", 1.5, 2.5, 1, "m1"],            # 2
        ["b", 3.0, 5.0, 1, "m1"],            # 3
        ["a", 6.0, 9.0, 0, "m2"],            # 4: no children
    ]
    own = tracing.self_times(spans)
    assert own["root"] == (1, pytest.approx(3.0))
    assert own["a"] == (2, pytest.approx(1.0 + 3.0))
    assert own["b"] == (2, pytest.approx(3.0))
    total = sum(seconds for _calls, seconds in own.values())
    assert total == pytest.approx(10.0)


def test_tracer_call_nests_spans_and_inherits_the_request():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    tracer.call("outer", "m7", lambda: tracer.call("inner", None, lambda: None))
    outer, inner = tracer.spans
    assert outer == ["outer", 0.0, 3.0, None, "m7"]
    assert inner == ["inner", 1.0, 2.0, 0, "m7"]


def traced_run(program, name):
    scenario = workloads.generate(name, 1, **SMALL[name])
    text = workloads.scenario_text(scenario)
    tracer = tracing.Tracer()
    tracer.install(program)
    try:
        sim = program.simnet.Simulation(program.simnet.load_scenario(text))
        start = tracer.clock()
        _metrics, transcript = tracer.call("simnet.run", None, sim.run)
        ndjson = transcript.to_ndjson()
    finally:
        tracer.uninstall()
    report = oracle.check(scenario, ndjson, name in run.SHORTEST_PATHS)
    return tracer, tracer.layer_metrics(sim, start, report), ndjson


@pytest.mark.parametrize("name", ["dataplane", "reactive_ttl"])
def test_tracing_leaves_behaviour_unchanged_and_restores_the_program(program, name):
    before = program.model.select_route, program.node.Node.__dict__["handle_message"]
    _tracer, metrics, ndjson = traced_run(program, name)
    assert (program.model.select_route, program.node.Node.__dict__["handle_message"]) == before
    assert ndjson == small_run(program, name)[3]
    assert set(metrics) == set(tracing.LAYER_METRICS)
    assert metrics["trace.absent"] == 0
    assert metrics["node.handle_message.calls"] > 0
    assert metrics["simnet.event.other.calls"] == 0


def test_a_removed_public_name_is_reported_absent(program):
    model_without = types.SimpleNamespace(
        **{k: v for k, v in vars(program.model).items() if k != "select_route"})
    node_without = types.SimpleNamespace(
        **{k: v for k, v in vars(program.node).items() if k != "Node"})
    renamed = types.SimpleNamespace(**{**vars(program), "model": model_without,
                                       "node": node_without})
    tracer, metrics, _ndjson = traced_run(renamed, "dataplane")
    assert "model.select_route" in tracer.absent
    assert "node.Node.handle_message" in tracer.absent
    assert metrics["trace.absent"] == len(tracer.absent)
    assert metrics["model.select_route.calls"] == 0
    assert metrics["node.handle_message.calls"] == 0
    assert metrics["simnet.send_record.calls"] > 0
