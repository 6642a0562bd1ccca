"""Correctness oracle for one benchmark run.

It reads only the generated scenario dict and the NDJSON transcript the
program wrote, and imports nothing from the program. Checks:

- every injected request appears once, in order, as an ``inject`` record
  and ends in at most one ``done`` record (requests without one are still
  pending at stop time);
- an answered request's status is ``accept`` exactly when its password is
  the home server's password for the user;
- an answered request's trace starts at the injecting node, ends at the
  realm's home and follows the scenario's links without revisiting a node;
- optionally (workloads without churn), the trace holds 1 + the BFS
  distance from the injecting node to the home.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field

ANSWERED = ("accept", "reject")


@dataclass
class Report:
    injected: int = 0
    answered: int = 0
    errored: int = 0
    pending: int = 0
    latencies: list[int] = field(default_factory=list)  # ticks, answered only
    problems: list[str] = field(default_factory=list)
    failed_ids: set[str] = field(default_factory=set)
    records: int = 0
    c2n_frames: int = 0
    channel_up: int = 0
    channel_failed: int = 0

    def fail(self, msg_id: str, problem: str) -> None:
        self.failed_ids.add(msg_id)
        self.problems.append(f"{msg_id}: {problem}")


def bfs_distances(links, source: str) -> dict[str, int]:
    adjacency: dict[str, list[str]] = {}
    for a, b in links:
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)
    dist = {source: 0}
    frontier = deque([source])
    while frontier:
        n = frontier.popleft()
        for m in adjacency.get(n, ()):
            if m not in dist:
                dist[m] = dist[n] + 1
                frontier.append(m)
    return dist


def check(scenario: dict, ndjson: str, shortest_paths: bool) -> Report:
    topology = scenario["topology"]
    links = {frozenset(pair) for pair in topology["links"]}
    homes = topology["homes"]
    injects = [ev for ev in scenario["events"] if ev["kind"] == "inject"]
    report = Report(injected=len(injects))

    inject_records = []
    done: dict[str, dict] = {}
    for line in ndjson.splitlines():
        record = json.loads(line)
        report.records += 1
        direction = record["direction"]
        if direction == "inject":
            inject_records.append(record)
        elif direction == "done":
            msg_id = record["message"]["msg_id"]
            if msg_id in done:
                report.fail(msg_id, "answered twice")
            done[msg_id] = record
        elif direction == "c2n":
            report.c2n_frames += 1
        elif direction == "channel-up":
            report.channel_up += 1
        elif direction == "channel-failed":
            report.channel_failed += 1

    if len(inject_records) != len(injects):
        report.problems.append(
            f"{len(injects)} requests injected, {len(inject_records)} inject records")
    distances: dict[str, dict[str, int]] = {}
    seen_ids = set()
    for ev, record in zip(injects, inject_records):
        msg = record["message"]
        msg_id = msg["msg_id"]
        if msg_id in seen_ids:
            report.fail(msg_id, "duplicate message id")
        seen_ids.add(msg_id)
        if (record["time"], record["actor"], msg["nai"]) != (ev["time"], ev["at"], ev["nai"]):
            report.fail(msg_id, f"inject record does not match event at t={ev['time']}")
            continue
        end = done.get(msg_id)
        if end is None:
            report.pending += 1
            continue
        status = end["message"]["status"]
        if status not in ANSWERED:
            report.errored += 1
            if not end["message"].get("error"):
                report.fail(msg_id, "error without a code")
            continue
        report.answered += 1
        report.latencies.append(end["time"] - ev["time"])
        user, _, realm = ev["nai"].rpartition("@")
        home = homes[realm]
        users = topology["nodes"][home].get("users", {})
        expected = "accept" if users.get(user) == ev["password"] else "reject"
        if status != expected:
            report.fail(msg_id, f"status {status}, password says {expected}")
        trace = end["message"]["trace"]
        if not trace or trace[0] != ev["at"] or trace[-1] != home:
            report.fail(msg_id, f"trace {trace} does not run {ev['at']} -> {home}")
        elif len(set(trace)) != len(trace):
            report.fail(msg_id, f"trace {trace} revisits a node")
        elif any(frozenset(hop) not in links for hop in zip(trace, trace[1:])):
            report.fail(msg_id, f"trace {trace} leaves the scenario's links")
        elif shortest_paths:
            if home not in distances:
                distances[home] = bfs_distances(topology["links"], home)
            want = 1 + distances[home][ev["at"]]
            if len(trace) != want:
                report.fail(msg_id, f"{len(trace)} hops, shortest path has {want}")
    unknown = set(done) - seen_ids
    for msg_id in sorted(unknown):
        report.fail(msg_id, "answered but never injected")
    return report


def check_metrics(report: Report, metrics: dict) -> list[str]:
    """The program's own metrics JSON must agree with the transcript."""
    want = {
        "injected": report.injected,
        "delivered+rejected": report.answered,
        "errored": report.errored,
        "still_pending": report.pending,
    }
    have = {
        "injected": metrics.get("injected"),
        "delivered+rejected": (metrics.get("delivered") or 0) + (metrics.get("rejected") or 0),
        "errored": metrics.get("errored"),
        "still_pending": metrics.get("still_pending"),
    }
    return [f"metrics {k}={have[k]}, transcript says {want[k]}"
            for k in want if have[k] != want[k]]


def percentile(values: list[int], percent: int) -> int:
    """Nearest-rank percentile: the smallest value with at least ``percent``
    per cent of the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, -(-percent * len(ordered) // 100))
    return ordered[rank - 1]
