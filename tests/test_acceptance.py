"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every expectation and tolerance is pinned in the assertions.
"""

import io
import json
import logging
import random
import time

import pytest
from click.testing import CliRunner

from conftest import (
    FIXTURES,
    SCENARIOS,
    build,
    chain_nodes,
    frames,
    fw_distances,
    gen_random_topology,
    make_scenario,
    scenario_for_topology,
    secret_hexes,
    wait,
)
from sdnaaa import model, simnet, southbound
from sdnaaa.cli import main
from sdnaaa.model import PeerEntry, RealmEntry, RealmPattern, SharedSecret, TlsProfile, Transport
from sdnaaa.node import Node
from sdnaaa.southbound import ConfigChange, open_session


def load_fixture(name: str) -> simnet.Scenario:
    return simnet.load_scenario((FIXTURES / name).read_text())


def notes_of(transcript, kind):
    return [
        r for r in transcript.records
        if r.get("frame", {}).get("type") == "notification"
        and r["frame"]["note"]["kind"] == kind
    ]


def done_records(transcript):
    return [r for r in transcript.records if r["direction"] == "done"]


# ---------------------------------------------------------------------------


def test_criterion_01_chain_reproduction():
    started = time.perf_counter()
    metrics, transcript = simnet.run(load_fixture("chain.json"))
    elapsed = time.perf_counter() - started
    assert metrics.delivered == 1
    done = done_records(transcript)
    assert done[0]["message"]["trace"] == ["ac", "ai", "aj", "ah"]
    assert metrics.channels == [("ac", "ai"), ("ah", "aj"), ("ai", "aj")]
    assert len(metrics.channels) == 3
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    print(f"ACCEPTANCE C1 PASS: chain delivered via [ac,ai,aj,ah], 3 channels, {elapsed:.3f}s")


def _adjacency_sim(events=(), options=None):
    nodes, links, homes = chain_nodes()
    scenario = make_scenario(nodes, links, homes, events=events, options=options, stop_time=500)
    return simnet.Simulation(scenario)


def _exchange_steps(transcript):
    return [
        (r["direction"], r["actor"], r["frame"]["type"])
        for r in transcript.records
        if r.get("frame", {}).get("type") in ("edit-config", "ok")
    ]


def test_criterion_02_adjacency_exchange_order():
    sim = _adjacency_sim()
    result = wait(sim, sim.controller.establish_adjacency("ai", "aj", "tls"))
    assert result.status == "ESTABLISHED"
    assert _exchange_steps(sim.transcript) == [
        ("c2n", "ai", "edit-config"),
        ("n2c", "ai", "ok"),
        ("c2n", "aj", "edit-config"),
        ("n2c", "aj", "ok"),
    ]
    par = _adjacency_sim(options={"parallel_adjacency": True})
    result = wait(par, par.controller.establish_adjacency("ai", "aj", "tls"))
    assert result.status == "ESTABLISHED"
    steps = _exchange_steps(par.transcript)
    assert [s[2] for s in steps] == ["edit-config", "edit-config", "ok", "ok"]
    print("ACCEPTANCE C2 PASS: sequential exchange is edit/ok/edit/ok; parallel sends both edits first")


def test_criterion_03_rollback_on_step3_failure():
    sim = _adjacency_sim(events=[{"time": 3, "kind": "node-down", "node": "aj"}])
    result = wait(sim, sim.controller.establish_adjacency("ai", "aj", "tls"))
    assert result.status == "FAILED" and result.failed_step == 3
    deletes = [
        c["path"]
        for r in frames(sim.transcript, "edit-config", actor="ai", direction="c2n")
        for c in r["frame"]["changes"]
        if c["op"] == "delete"
    ]
    assert "peers/aj" in deletes
    doc = wait(sim, sim.controller.get_node_config("ai"))
    assert doc.peer("aj") is None
    print("ACCEPTANCE C3 PASS: step-3 failure rolled back; ai holds no aj peer entry")


def test_criterion_04_reactive_single_acquire_per_node():
    scenario = load_fixture("chain.json")
    scenario.mode = "REACTIVE"
    metrics, transcript = simnet.run(scenario)
    assert metrics.delivered == 1
    acquires = notes_of(transcript, "acquire-route")
    per_node = [(r["frame"]["note"]["node"], r["frame"]["note"]["realm"]) for r in acquires]
    assert per_node == [("ac", "realm.org"), ("ai", "realm.org"), ("aj", "realm.org")]
    assert len(per_node) == len(set(per_node)) == 3
    for node, _realm in per_node:
        to_node = frames(transcript, "edit-config", actor=node, direction="c2n")
        combined = [
            r for r in to_node
            if any(c["path"].startswith("peers/") for c in r["frame"]["changes"])
            and any(c["path"].startswith("routing/") for c in r["frame"]["changes"])
        ]
        assert len(combined) == 1
    print("ACCEPTANCE C4 PASS: 3 acquires (ac,ai,aj), each answered by one combined peer+route frame")


def test_criterion_05_hop_counts_match_bfs_oracle():
    started = time.perf_counter()
    probs = (0.3, 0.5, 0.8)
    checked = 0
    for seed in range(100):
        n_nodes = 4 + seed % 9
        topology = gen_random_topology(seed, n_nodes, probs[seed % 3])
        home = topology.home_of["realm.org"]
        client = next(n for n, i in topology.nodes.items() if i.role == "CLIENT")
        scenario = scenario_for_topology(
            topology,
            seed=seed,
            mode="PROACTIVE",
            policy_lines=f"route realm.org via {home} security psk",
            users={home: {"u": "pw"}},
            events=[simnet.Event(300, "inject", node=client, nai=model.parse_nai("u@realm.org"),
                                 password="pw")],
            stop_time=600,
        )
        metrics, _ = simnet.run(scenario)
        assert metrics.delivered == 1, f"seed {seed}: {metrics.to_text()}"
        expected = 1 + fw_distances(topology)[client][home]
        assert metrics.hops["m000001"] == expected, f"seed {seed}"
        checked += 1
    elapsed = time.perf_counter() - started
    assert checked == 100 and elapsed < 30.0, f"took {elapsed:.1f}s"
    print(f"ACCEPTANCE C5 PASS: 100 random topologies, hop count == 1 + BFS distance, {elapsed:.1f}s")


def test_criterion_06_failure_recovery_via_alternate_path():
    metrics, transcript = simnet.run(load_fixture("diamond.json"))
    assert metrics.notifications.get("forward-failure", 0) >= 1
    assert metrics.reroutes >= 1
    assert metrics.injected == 11 and metrics.delivered == 11
    post_failure = [
        r["message"]["trace"] for r in done_records(transcript) if r["time"] > 100
    ]
    assert len(post_failure) == 10
    assert all(trace == ["cl", "ab", "ha"] for trace in post_failure)
    print("ACCEPTANCE C6 PASS: node-down triggered forward-failure, reroute, 10/10 via alternate path")


def _secrets_in_nodes(sim) -> set[str]:
    secrets = set()
    for node in sim.nodes.values():
        secrets |= secret_hexes(node.running)
    return secrets


def test_criterion_07_no_secret_bytes_in_reads_or_snapshots():
    scanned_frames = 0
    for name in ("chain.json", "diamond.json"):
        sim = simnet.Simulation(load_fixture(name))
        sim.run()
        for node_id in sorted(sim.nodes):
            wait(sim, sim.controller.get_node_config(node_id))
        secrets = _secrets_in_nodes(sim)
        assert secrets, "expected live credential material to scan against"
        config_frames = frames(sim.transcript, "config")
        scanned_frames += len(config_frames)
        assert config_frames
        for record in config_frames:
            blob = json.dumps(record["frame"])
            for secret in secrets:
                assert secret not in blob
        snapshots = list(sim.snapshots) + [sim.controller.snapshot_json()]
        for snap in snapshots:
            for secret in secrets:
                assert secret not in snap
    print(f"ACCEPTANCE C7 PASS: {scanned_frames} config frames and all snapshots free of secret bytes")


def _sent_secrets(frames) -> set[str]:
    """Hex of every secret and TLS key the controller's edit-config frames carry."""
    out = set()
    for frame in frames:
        for change in frame.changes:
            value = change.value
            if isinstance(value, PeerEntry) and isinstance(value.credential, SharedSecret):
                out.add(value.credential.secret.hex())
            elif isinstance(value, TlsProfile):
                out.add(value.local_key.hex())
    return out


@pytest.mark.parametrize("mode", [simnet.PROACTIVE, simnet.REACTIVE])
@pytest.mark.parametrize("name", SCENARIOS)
def test_criterion_07_no_sent_secret_in_transcript_or_debug_log(monkeypatch, tmp_path, name, mode):
    sent = []
    add = simnet.Transcript.add

    def recorded(self, record):
        if record[2] == "c2n":
            sent.append(record[3])
        add(self, record)

    monkeypatch.setattr(simnet.Transcript, "add", recorded)
    logger = logging.getLogger("sdnaaa")
    log = io.StringIO()
    monkeypatch.setattr(logger, "handlers", [logging.StreamHandler(log)])
    level = logger.level
    logger.setLevel(logging.DEBUG)
    try:
        _metrics, transcript = simnet.run(build(name, mode))
    finally:
        logger.setLevel(level)
    outputs = {"transcript": transcript.to_ndjson(), "debug log": log.getvalue()}
    secrets = _sent_secrets(f for f in sent if f.type == southbound.EDIT_CONFIG)
    assert secrets, "expected credential material in the controller's frames"
    path = FIXTURES / f"{name}.json"
    if path.exists():
        out = tmp_path / "t.ndjson"
        result = CliRunner().invoke(
            main, ["run", str(path), "--mode", mode.lower(), "--transcript", str(out)],
            env={"SDN_AAA_LOG": "debug"},
        )
        logger.setLevel(level)
        assert result.exit_code == (1 if name == "loop" else 0), result.stderr
        outputs.update({"sdn-aaa run --transcript": out.read_text(), "stderr": result.stderr})
    for where, text in outputs.items():
        leaked = [secret for secret in secrets if secret in text]
        assert not leaked, f"{len(leaked)} of {len(secrets)} secrets in the {where}"
    print(f"ACCEPTANCE C7 PASS: {len(secrets)} sent secrets absent from {', '.join(outputs)}")


def test_criterion_08_route_expiry_and_reprovisioning():
    nodes = {
        "cl": {"address": "cl.sim", "role": "CLIENT"},
        "ha": {
            "address": "ha.sim", "role": "SERVER",
            "realms": ["realm.org"], "users": {"u": "pw"},
        },
    }
    scenario = make_scenario(
        nodes, [("cl", "ha")], {"realm.org": "ha"},
        policies=["route realm.org via ha security psk ttl 500"],
        events=[],
        stop_time=900,
    )
    sim = simnet.Simulation(scenario)
    # find cl's provisioned route to learn its creation and expiration times
    sim.run_until(10)
    route_frames = [
        r for r in frames(sim.transcript, "edit-config", actor="cl", direction="c2n")
        if any(c["path"].startswith("routing/") for c in r["frame"]["changes"])
    ]
    assert route_frames
    sent = route_frames[0]["time"]
    creation = sent + southbound.LATENCY
    expiration = next(
        c["value"]["expiration"]
        for c in route_frames[0]["frame"]["changes"]
        if c["path"].startswith("routing/")
    )
    assert expiration == creation + 500
    sim.loop.call_at(expiration + 10, lambda: sim._inject(
        simnet.Event(expiration + 10, "inject", node="cl", nai=model.parse_nai("u@realm.org"),
                     password="pw")
    ))
    metrics, transcript = sim.run()
    expired = [
        r for r in notes_of(transcript, "route-expired")
        if r["frame"]["note"]["node"] == "cl"
    ]
    assert len(expired) == 1
    assert expired[0]["time"] == expiration + southbound.LATENCY  # emitted at expiration
    assert metrics.injected == 1 and metrics.delivered == 1
    print(
        f"ACCEPTANCE C8 PASS: one route-expired at creation+500 (t={expiration}), "
        f"delivery restored for a request at +10"
    )


def test_criterion_09_atomicity_fuzz_1000_batches():
    loop = simnet.EventLoop()
    metrics = simnet.Metrics()
    transcript = simnet.Transcript()
    network = simnet.Network(loop, metrics, transcript)
    node = Node("n", "n.sim", loop, network)
    network.register(node)
    session = open_session("controller", node, loop)
    rng = random.Random(20260808)

    def coherent_batch(tag: str):
        secret = rng.randbytes(32)
        peer = PeerEntry(f"p{tag}", f"p{tag}", f"p{tag}.sim", rng.randint(1, 65535),
                         Transport.RADIUS_UDP, SharedSecret(secret))
        route = RealmEntry(RealmPattern.parse(f"r{tag}.org"), peer.peer_id, model.Action.RELAY)
        return [
            ConfigChange(southbound.MERGE, f"peers/{peer.peer_id}", peer),
            ConfigChange(southbound.MERGE, f"routing/{route.pattern.text}", route),
        ]

    def invalid_change(tag: str):
        choice = rng.randrange(5)
        if choice == 0:
            entry = RealmEntry(RealmPattern.parse(f"x{tag}.org"), "ghost", model.Action.RELAY)
            return ConfigChange(southbound.MERGE, f"routing/{entry.pattern.text}", entry)
        if choice == 1:
            return ConfigChange(southbound.DELETE, f"peers/never-{tag}")
        if choice == 2:
            bad = PeerEntry(f"b{tag}", f"b{tag}", f"b{tag}.sim", 0,
                            Transport.RADIUS_UDP, SharedSecret(rng.randbytes(32)))
            return ConfigChange(southbound.MERGE, f"peers/{bad.peer_id}", bad)
        if choice == 3:
            bad = PeerEntry(f"b{tag}", f"b{tag}", f"b{tag}.sim", 1812,
                            Transport.RADIUS_UDP, SharedSecret(b"short"))
            return ConfigChange(southbound.MERGE, f"peers/{bad.peer_id}", bad)
        good = PeerEntry(f"b{tag}", f"b{tag}", f"b{tag}.sim", 1812,
                         Transport.RADIUS_UDP, SharedSecret(rng.randbytes(32)))
        return ConfigChange(southbound.MERGE, "peers/elsewhere", good)  # key mismatch

    for trial in range(1000):
        before = model.encode_document(node.running)
        batch = coherent_batch(str(trial))
        batch.insert(rng.randint(0, len(batch)), invalid_change(str(trial)))
        reply = session.edit_config(batch)
        loop.run_until(loop.now + 10)
        assert reply.value.type == southbound.ERROR
        assert model.encode_document(node.running) == before
        if trial % 100 == 0:
            # control: the same batch without the poison applies cleanly
            saved = node.running
            ok_reply = session.edit_config(coherent_batch(f"ok{trial}"))
            loop.run_until(loop.now + 10)
            assert ok_reply.value.type == southbound.OK
            node.running = saved
    print("ACCEPTANCE C9 PASS: 1000 poisoned batches rejected, configs byte-identical")


def test_criterion_10_byte_identical_reruns():
    for name, mode in (
        ("chain.json", "PROACTIVE"),
        ("chain.json", "REACTIVE"),
        ("diamond.json", "PROACTIVE"),
        ("loop.json", "PROACTIVE"),
    ):
        outputs = []
        for _ in range(2):
            scenario = load_fixture(name)
            scenario.mode = mode
            metrics, transcript = simnet.run(scenario)
            outputs.append((metrics.to_text(), transcript.to_ndjson()))
        assert outputs[0] == outputs[1], f"{name}/{mode} diverged"
    print("ACCEPTANCE C10 PASS: repeated runs byte-identical (metrics and transcripts)")


def test_criterion_11_throughput_guard():
    topology = gen_random_topology(5, 20, 0.3)
    home = topology.home_of["realm.org"]
    client = next(n for n, i in topology.nodes.items() if i.role == "CLIENT")
    events = [
        simnet.Event(100 + i, "inject", node=client, nai=model.parse_nai("u@realm.org"), password="pw")
        for i in range(10_000)
    ]
    scenario = scenario_for_topology(
        topology,
        seed=5,
        mode="PROACTIVE",
        policy_lines=f"route realm.org via {home} security psk",
        users={home: {"u": "pw"}},
        events=events,
        stop_time=100 + 10_000 + 500,
    )
    started = time.perf_counter()
    metrics, _transcript = simnet.run(scenario)
    elapsed = time.perf_counter() - started
    assert metrics.injected == 10_000
    assert metrics.delivered == 10_000
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    print(f"ACCEPTANCE C11 PASS: 10k requests over 20 nodes in {elapsed:.1f}s")
