import json
import logging
import random

import pytest

from conftest import (
    FIXTURES,
    SCENARIOS,
    build,
    chain_nodes,
    ended,
    frames,
    fw_distances,
    gen_random_topology,
    inject,
    make_scenario,
    run_all,
    scenario_for_topology,
    wait,
)
from sdnaaa import controller as controller_mod, model, simnet, southbound
from sdnaaa.controller import (
    NodeInfo,
    Policy,
    Topology,
    compute_next_hops,
    load_policy,
)
from sdnaaa.model import (
    Action, CodedError, ConfigDocument, RealmEntry,
)
from test_model import match_realm


def topo(names_roles: dict[str, str], links) -> Topology:
    infos = {n: NodeInfo(f"{n}.sim", role) for n, role in names_roles.items()}
    return Topology(infos, {frozenset(pair) for pair in links})


def chain_sim(policies=(), mode="PROACTIVE", events=(), options=None, stop_time=2000):
    nodes, links, homes = chain_nodes()
    scenario = make_scenario(
        nodes, links, homes, policies=policies, mode=mode, events=events,
        options=options, stop_time=stop_time,
    )
    return simnet.Simulation(scenario)


def edit_frames(transcript, actor=None):
    return frames(transcript, "edit-config", actor=actor, direction="c2n")


def frame_paths(record) -> list[str]:
    return [c["path"] for c in record["frame"]["changes"]]


def edit_outcomes(transcript, actor=None) -> list[tuple]:
    """Each edit-config frame sent (to ``actor``), in send order, as
    (actor, change paths, reply type, reply error code)."""
    replies = {
        (r["actor"], r["frame"]["txn"]): r["frame"]
        for r in frames(transcript, actor=actor, direction="n2c")
        if r["frame"]["type"] in ("ok", "error")
    }
    outcomes = []
    for r in edit_frames(transcript, actor=actor):
        reply = replies[(r["actor"], r["frame"]["txn"])]
        outcomes.append((r["actor"], frame_paths(r), reply["type"], reply.get("code")))
    return outcomes


@pytest.fixture
def decisions(caplog, monkeypatch):
    """Captures the controller's INFO lines in ``caplog.messages``. The CLI
    gives the ``sdnaaa`` logger its own handler and stops it propagating,
    so both are reset here."""
    logger = logging.getLogger("sdnaaa")
    monkeypatch.setattr(logger, "handlers", [])
    monkeypatch.setattr(logger, "propagate", True)
    caplog.set_level(logging.INFO, logger="sdnaaa.controller")
    return caplog


def notes_of(transcript, kind):
    return [
        r for r in frames(transcript, "notification")
        if r["frame"]["note"]["kind"] == kind
    ]


# ---------------------------------------------------------------------------
# policy parsing


def test_load_policy_parses_directives():
    t = topo({"ah": "SERVER", "ai": "AGENT"}, [("ah", "ai")])
    policies = load_policy(
        "# northbound intent\n"
        "route *.org via ah security tls\n"
        "route realm.org via ah security psk ttl 5000\n",
        t,
    )
    assert len(policies) == 2
    assert policies[0].realm_pattern == "*.org"
    assert policies[0].security == "tls"
    assert policies[0].default_entry_ttl is None
    assert policies[1].default_entry_ttl == 5000
    assert policies[1].home_node == "ah"


@pytest.mark.parametrize("pattern", ["realm.org", "*.org", "*"])
def test_load_policy_rejects_a_repeated_pattern_on_its_second_line(pattern):
    t = topo({"ah": "SERVER", "ai": "SERVER"}, [])
    with pytest.raises(CodedError) as err:
        load_policy(
            f"route {pattern} via ah security tls\n"
            "# the node's routing list is keyed by pattern\n"
            f"route {pattern} via ai security psk ttl 5000\n",
            t,
        )
    assert err.value.code == "DUPLICATE_PATTERN"
    assert str(err.value) == f"DUPLICATE_PATTERN: line 3: {pattern}"


def test_load_policy_unknown_home_node():
    t = topo({"ai": "AGENT"}, [])
    with pytest.raises(CodedError) as err:
        load_policy("route realm.org via ghost security tls", t)
    assert err.value.code == "UNKNOWN_HOME_NODE"


def test_load_policy_empty_file_is_empty_list():
    assert load_policy("", topo({}, [])) == []
    assert load_policy("\n# only comments\n", topo({}, [])) == []


@pytest.mark.parametrize(
    "line",
    [
        "route",
        "route *.org to ah security tls",
        "route *.org via ah security rot13",
        "route *.org via ah security tls ttl -5",
        "route *.org via ah security tls ttl soon",
        "route bad_pattern! via ah security tls",
        "route *.org via ah security tls extra tokens here",
    ],
)
def test_load_policy_parse_errors(line):
    t = topo({"ah": "SERVER"}, [])
    with pytest.raises(CodedError) as err:
        load_policy(line, t)
    assert err.value.code == "PARSE_ERROR"


# ---------------------------------------------------------------------------
# next-hop computation


def test_next_hops_on_the_chain_topology():
    t = topo(
        {"ac": "CLIENT", "ai": "AGENT", "aj": "AGENT", "at": "AGENT", "ah": "SERVER"},
        [("ac", "ai"), ("ai", "aj"), ("ai", "at"), ("aj", "ah")],
    )
    assert compute_next_hops(t, "ah") == {"ac": "ai", "ai": "aj", "aj": "ah", "at": "ai"}


def test_next_hops_exclude_unreachable_nodes():
    t = topo({"a": "CLIENT", "b": "SERVER", "n": "AGENT"}, [("a", "b")])
    hops = compute_next_hops(t, "b")
    assert "n" not in hops and hops == {"a": "b"}


def test_next_hops_skip_down_nodes():
    # the controller passes its liveness view, which holds the DOWN nodes
    t = topo({"a": "CLIENT", "b": "AGENT", "c": "SERVER"}, [("a", "b"), ("b", "c")])
    assert compute_next_hops(t, "c", frozenset({"b"})) == {}
    assert compute_next_hops(t, "b", frozenset({"b"})) == {}


def all_shortest_next_hops(t: Topology, src: str, target: str) -> set[str]:
    """Oracle: enumerate every simple path and keep the first hops of the
    shortest ones."""
    best_len = None
    hops: set[str] = set()
    stack = [(src, [src])]
    while stack:
        node, path = stack.pop()
        if node == target:
            if best_len is None or len(path) < best_len:
                best_len, hops = len(path), {path[1]}
            elif len(path) == best_len:
                hops.add(path[1])
            continue
        for m in t.adjacent[node]:
            if m not in path:
                stack.append((m, path + [m]))
    return hops


def test_diamond_tie_breaks_lexicographically():
    t = topo(
        {"a": "CLIENT", "b": "AGENT", "c": "AGENT", "d": "SERVER"},
        [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")],
    )
    oracle = all_shortest_next_hops(t, "a", "d")
    assert oracle == {"b", "c"}
    assert compute_next_hops(t, "d")["a"] == min(oracle)


def test_next_hop_distances_match_brute_force_on_random_graphs():
    for seed in range(100):
        n = 4 + seed % 9  # 4..12 nodes
        topology = gen_random_topology(seed, n, (0.3, 0.5, 0.8)[seed % 3])
        target = topology.home_of["realm.org"]
        hops = compute_next_hops(topology, target)
        oracle = fw_distances(topology)
        for node in topology.nodes:
            if node == target:
                continue
            # the chosen hop is the smallest neighbour one step closer
            closer = [
                m for m in topology.nodes
                if oracle[node][m] == 1 and oracle[m][target] == oracle[node][target] - 1
            ]
            assert hops[node] == min(closer), f"seed {seed} node {node}"
            # walk the next-hop chain and compare its length to the oracle
            steps, cur = 0, node
            while cur != target:
                cur = hops[cur]
                steps += 1
                assert steps <= len(topology.nodes)
            assert steps == oracle[node][target]


class CountingLinks(set):
    """A link set that counts how often it is iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def test_links_are_read_only_when_the_topology_is_built():
    nodes, links, homes = chain_nodes()
    infos = {
        n: NodeInfo(spec["address"], spec["role"], tuple(map(model.parse_realm, spec.get("realms", ()))))
        for n, spec in nodes.items()
    }
    allowed = CountingLinks(frozenset(pair) for pair in links)
    topology = Topology(infos, allowed, homes)
    assert allowed.iterations == 1
    assert topology.adjacent["ai"] == ("ac", "aj", "at")
    assert topology.clients == ("ac",)
    allowed.iterations = 0

    assert compute_next_hops(topology, "ah") == {"ac": "ai", "ai": "aj", "aj": "ah", "at": "ai"}
    scenario = scenario_for_topology(
        topology, seed=1, mode="PROACTIVE",
        policy_lines="route realm.org via ah security tls",
        users={"ah": nodes["ah"]["users"]},
        events=[simnet.Event(10, "inject", node="ac", nai=model.parse_nai("alice@realm.org"),
                             password="alice-pw")],
        stop_time=500,
    )
    metrics, _ = simnet.Simulation(scenario).run()
    assert metrics.delivered == 1
    assert allowed.iterations == 0


# ---------------------------------------------------------------------------
# adjacency establishment


def test_establish_adjacency_populates_both_peer_tables():
    sim = chain_sim()
    result = wait(sim, sim.controller.establish_adjacency("ai", "aj", "tls"))
    assert result.status == "ESTABLISHED"
    assert sim.nodes["ai"].running.peer("aj") is not None
    assert sim.nodes["aj"].running.peer("ai") is not None
    [record] = sim.controller.snapshot()["adjacencies"]
    assert (record["pair"], record["status"], record["security"]) == (["ai", "aj"], "ESTABLISHED", "tls")
    assert record["fingerprint"]


def test_sequential_adjacency_transcript_order():
    sim = chain_sim()
    wait(sim, sim.controller.establish_adjacency("ai", "aj", "tls"))
    steps = [
        (r["direction"], r["actor"], r["frame"]["type"])
        for r in sim.transcript.records
        if r.get("frame", {}).get("type") in ("edit-config", "ok")
    ]
    assert steps == [
        ("c2n", "ai", "edit-config"),
        ("n2c", "ai", "ok"),
        ("c2n", "aj", "edit-config"),
        ("n2c", "aj", "ok"),
    ]


def test_parallel_adjacency_sends_both_edits_first():
    sim = chain_sim(options={"parallel_adjacency": True})
    wait(sim, sim.controller.establish_adjacency("ai", "aj", "tls"))
    kinds = [
        r["frame"]["type"]
        for r in sim.transcript.records
        if r.get("frame", {}).get("type") in ("edit-config", "ok")
    ]
    assert kinds == ["edit-config", "edit-config", "ok", "ok"]


def test_rollback_after_step_three_failure():
    sim = chain_sim(events=[{"time": 3, "kind": "node-down", "node": "aj"}])
    result = wait(sim, sim.controller.establish_adjacency("ai", "aj", "tls"))
    assert result.status == "FAILED"
    assert result.failed_step == 3
    assert result.error == "NODE_DOWN"
    deletes = [
        c for r in edit_frames(sim.transcript, actor="ai")
        for c in r["frame"]["changes"]
        if c["op"] == "delete"
    ]
    assert {c["path"] for c in deletes} == {"peers/aj", "tls/tls-ai-aj"}
    doc = wait(sim, sim.controller.get_node_config("ai"))
    assert doc.peer("aj") is None and doc.tls == {}


def test_psk_secret_not_retained_after_establishment():
    sim = chain_sim()
    result = wait(sim, sim.controller.establish_adjacency("ai", "aj", "psk"))
    assert result.status == "ESTABLISHED"
    secret = sim.nodes["ai"].running.peer("aj").credential.secret
    snapshot = sim.controller.snapshot()
    assert secret.hex() not in json.dumps(snapshot)
    record = snapshot["adjacencies"][0]
    assert record["fingerprint"]
    assert record["pair"] == ["ai", "aj"]


# ---------------------------------------------------------------------------
# provisioning


def test_provision_installs_path_adjacencies_and_routes():
    sim = chain_sim(policies=["route realm.org via ah security tls"])
    run_all(sim)
    established = [r["pair"] for r in sim.controller.snapshot()["adjacencies"]]
    assert established == [["ac", "ai"], ["ah", "aj"], ["ai", "aj"]]
    routes = {
        n: entry["routes"]["realm.org"]["action"]
        for n, entry in sim.controller.ledger.items()
        if entry["routes"]
    }
    assert routes == {"ac": "relay", "ai": "relay", "aj": "relay", "ah": "local"}
    assert "at" not in sim.controller.ledger
    assert sim.metrics.controller_frames == 6


def test_provision_rerun_is_idempotent():
    sim = chain_sim(policies=["route realm.org via ah security tls"])
    run_all(sim)
    frames_before = sim.metrics.controller_frames
    wait(sim, sim.controller.provision_realm(sim.controller.policies[0]))
    assert sim.metrics.controller_frames == frames_before


def test_provision_sends_route_only_when_already_peers():
    sim = chain_sim()
    wait(sim, sim.controller.establish_adjacency("ai", "aj", "tls"))
    frames_before = sim.metrics.controller_frames
    [policy] = load_policy("route realm.org via ah security tls", sim.controller.topology)
    assert wait(sim, sim.controller.provision_realm(policy)) is None
    to_ai = edit_outcomes(sim.transcript, actor="ai")
    # ai's second frame carries only the routing entry, no new peer material
    assert to_ai[-1] == ("ai", ["routing/realm.org"], "ok", None)
    assert sim.metrics.controller_frames == frames_before + 5
    assert sim.nodes["ai"].running.route("realm.org").next_hop == "aj"
    assert sim.controller.ledger["ai"]["routes"]["realm.org"]["next_hop"] == "aj"


def test_route_only_frame_fails_when_the_ledgered_peer_is_gone():
    """The ledger still holds ai's adjacency with aj after peers/aj was
    deleted at ai behind the controller's back, so provisioning sends ai a
    route-only frame, which the node rejects (DANGLING_NEXT_HOP). This pins
    today's ledger drift: the failed hop is not ledgered and not retried.
    A controller that redoes the hop with its adjacency on that reply is
    meant to change this test."""
    sim = chain_sim()
    wait(sim, sim.controller.establish_adjacency("ai", "aj", "tls"))
    delete = southbound.ConfigChange(southbound.DELETE, "peers/aj")
    assert wait(sim, sim.controller.sessions["ai"].edit_config([delete])).type == southbound.OK
    [policy] = load_policy("route realm.org via ah security tls", sim.controller.topology)
    start = len(edit_frames(sim.transcript))
    wait(sim, sim.controller.provision_realm(policy))
    failed = [o for o in edit_outcomes(sim.transcript)[start:] if o[2] != "ok"]
    assert failed == [("ai", ["routing/realm.org"], "error", "VALIDATION_FAILED")]
    assert edit_outcomes(sim.transcript, actor="ai")[-1] == failed[0]
    assert sim.nodes["ai"].running.route("realm.org") is None
    assert "realm.org" not in sim.controller.ledger["ai"]["routes"]


def test_desired_state_matches_node_configs_after_provision():
    sim = chain_sim(policies=["route realm.org via ah security tls"])
    run_all(sim)
    for node_id, entry in sim.controller.ledger.items():
        doc = wait(sim, sim.controller.get_node_config(node_id))
        assert {p.peer_id for p in doc.peers.values()} == set(entry["peers"])
        assert {r.pattern for r in doc.routing.values()} == set(entry["routes"])


#: the runs whose controller still has jobs queued at stop_time; its ledger
#: may then lag the nodes, so it is not compared
BUSY_AT_STOP = {("ttl", "REACTIVE")}


@pytest.mark.parametrize("mode", [simnet.PROACTIVE, simnet.REACTIVE])
@pytest.mark.parametrize("name", SCENARIOS)
def test_an_idle_controller_ledgers_what_its_nodes_run(name, mode):
    """Once the controller is idle, each node's ledgered peers and routes
    are its running ones, static_config entries aside, and the snapshot's
    adjacencies are the pairs whose nodes run each other's controller-owned
    peer."""
    scenario = build(name, mode)
    sim = simnet.Simulation(scenario)
    sim.run()
    assert bool(sim.controller._jobs) == ((name, mode) in BUSY_AT_STOP)
    if sim.controller._jobs:
        return
    owned: dict[str, set] = {}
    for nid, n in sorted(sim.nodes.items()):
        static = scenario.static_config.get(nid, ConfigDocument())
        ledger = sim.controller.ledger.get(nid, {"peers": {}, "routes": {}})
        peers = {
            key: (p.transport.value, p.expiration)
            for key, p in n.running.peers.items() if static.peer(key) != p
        }
        routes = {
            key: (r.next_hop, r.action.value, r.expiration)
            for key, r in n.running.routing.items() if static.route(key) != r
        }
        assert peers == {
            key: (p["transport"], p["expiration"]) for key, p in ledger["peers"].items()
        }, nid
        assert routes == {
            key: (r["next_hop"], r["action"], r["expiration"])
            for key, r in ledger["routes"].items()
        }, nid
        owned[nid] = set(peers)
    pairs = [[a, b] for a in sorted(owned) for b in sorted(owned[a]) if a < b and a in owned.get(b, ())]
    assert [r["pair"] for r in sim.controller.snapshot()["adjacencies"]] == pairs


@pytest.mark.parametrize("mode", [simnet.PROACTIVE, simnet.REACTIVE])
@pytest.mark.parametrize("name", sorted(p.stem for p in FIXTURES.glob("*.json")))
def test_no_flush_starts_on_an_empty_route_map(name, mode, monkeypatch):
    flush = controller_mod.Controller._flush
    sizes = []

    def counted(self, routes):
        sizes.append(len(routes))
        return flush(self, routes)

    monkeypatch.setattr(controller_mod.Controller, "_flush", counted)
    simnet.Simulation(build(name, mode)).run()
    assert 0 not in sizes


# ---------------------------------------------------------------------------
# bulk provisioning: provision_all against the serial walk


def serial_provision_all(self):
    """The serial walk: one provision_realm job per policy, in order."""
    return [self.provision_realm(p) for p in self.policies]


def provisioned(scenario, monkeypatch, serial: bool):
    """Each node's redacted running document once proactive provisioning
    ends, the controller's ledger then, and every ended request's status
    and error."""
    if serial:
        monkeypatch.setattr(controller_mod.Controller, "provision_all", serial_provision_all)
    sim = simnet.Simulation(scenario)
    monkeypatch.undo()
    # jobs run in submission order: this one ends after provisioning
    marker = sim.controller.get_node_config(min(sim.nodes))
    while not marker.done:
        sim.run_until(sim.loop.now + 1)
    docs = {nid: model.redact(n.running) for nid, n in sim.nodes.items()}
    ledger = sim.controller.snapshot()["ledger"]
    _metrics, transcript = sim.run()
    return docs, ledger, ended(transcript)


TTL_FREE_GOLDEN = ("chain", "diamond", "loop", "redirect-fabric", "proxy-chain", "broken-return")


@pytest.mark.parametrize("name", TTL_FREE_GOLDEN)
def test_bulk_provisioning_equals_the_serial_walk_on_golden_scenarios(name, monkeypatch):
    assert all(p.default_entry_ttl is None for p in build(name, "PROACTIVE").policies)
    bulk = provisioned(build(name, "PROACTIVE"), monkeypatch, serial=False)
    serial = provisioned(build(name, "PROACTIVE"), monkeypatch, serial=True)
    assert bulk == serial


SWEEP_REALMS = ("a.example.org", "b.example.org", "c.example.net", "d.example.net")


def sweep_scenario(seed: int) -> simnet.Scenario:
    """A random fabric with two clients and four homes, and four policies in
    a seeded order: two exact realms and the wildcards ``*.example.org`` and
    ``*.example.net``, with a request per client and realm once
    provisioning is over."""
    rng = random.Random(seed)
    base = gen_random_topology(seed, rng.randint(7, 11), 0.4, realms=SWEEP_REALMS)
    homes = [base.home_of[r] for r in SWEEP_REALMS]
    agents = sorted(n for n, info in base.nodes.items() if info.role == "AGENT")
    second_client = rng.choice(agents)
    infos = {
        n: NodeInfo(info.address, "CLIENT", info.served_realms) if n == second_client else info
        for n, info in base.nodes.items()
    }
    topology = Topology(infos, base.allowed_links, base.home_of)
    patterns = ("a.example.org", "*.example.org", "c.example.net", "*.example.net")
    lines = [
        f"route {pattern} via {home} security {rng.choice(('psk', 'tls'))}"
        for pattern, home in zip(patterns, homes)
    ]
    rng.shuffle(lines)
    events = [
        simnet.Event(300 + 10 * i, "inject", node=client, nai=model.parse_nai(f"u@{realm}"),
                     password="pw")
        for i, (client, realm) in enumerate(
            (c, r) for c in topology.clients for r in SWEEP_REALMS
        )
    ]
    return scenario_for_topology(
        topology, seed=seed, mode="PROACTIVE", events=events, stop_time=1500,
        policy_lines="\n".join(lines), users={h: {"u": "pw"} for h in homes},
        options={"parallel_adjacency": seed % 3 == 0},
    )


@pytest.mark.parametrize("seed", range(25))
def test_bulk_provisioning_equals_the_serial_walk_on_random_fabrics(seed, monkeypatch):
    bulk = provisioned(sweep_scenario(seed), monkeypatch, serial=False)
    serial = provisioned(sweep_scenario(seed), monkeypatch, serial=True)
    assert bulk == serial


def test_a_failed_merged_route_frame_is_resent_one_route_per_frame():
    """ai holds no peer aj behind the controller's back (as in
    test_route_only_frame_fails_when_the_ledgered_peer_is_gone), so the
    merged frame that gives ai both policies' routes fails; each route is
    then sent alone, and only the drifted one fails."""
    nodes, links, homes = chain_nodes()
    nodes["at"] = {"address": "at.sim", "role": "SERVER", "realms": ["other.org"],
                   "users": {"bob": "bob-pw"}}
    homes["other.org"] = "at"
    sim = simnet.Simulation(make_scenario(
        nodes, links, homes, mode="REACTIVE",
        policies=["route realm.org via ah security tls", "route other.org via at security psk"],
    ))
    wait(sim, sim.controller.establish_adjacency("ai", "aj", "tls"))
    wait(sim, sim.controller.establish_adjacency("ai", "at", "psk"))
    delete = southbound.ConfigChange(southbound.DELETE, "peers/aj")
    assert wait(sim, sim.controller.sessions["ai"].edit_config([delete])).type == southbound.OK
    start = len(edit_frames(sim.transcript))

    assert wait(sim, sim.controller.provision_all()) is None

    sent = edit_outcomes(sim.transcript)[start:]
    assert [o for o in sent if o[0] == "ai"] == [
        # ac's adjacency, on ac's hop of realm.org
        ("ai", ["tls/tls-ai-ac", "peers/ac"], "ok", None),
        ("ai", ["routing/realm.org", "routing/other.org"], "error", "VALIDATION_FAILED"),
        ("ai", ["routing/realm.org"], "error", "VALIDATION_FAILED"),
        ("ai", ["routing/other.org"], "ok", None),
    ]
    # every other frame of the pass succeeds
    assert [o[2] for o in sent if o[0] != "ai"] == ["ok"] * (len(sent) - 4)
    assert sim.nodes["ai"].running.route("realm.org") is None
    assert {n: sim.nodes[n].running.route("other.org").next_hop for n in ("ac", "ai", "at")} == {
        "ac": "ai", "ai": "at", "at": None,
    }
    assert sim.nodes["ah"].running.route("realm.org").action is Action.LOCAL
    assert sim.controller.ledger["ai"]["routes"]["other.org"]["policy"] == "p2"
    assert "realm.org" not in sim.controller.ledger["ai"]["routes"]


def grid_with_realms(realms: int) -> simnet.Scenario:
    """A 4x5 grid with clients g00 and g20, the right column's four nodes as
    homes, and one policy per realm (every fifth a wildcard)."""
    rows, cols = 4, 5
    ids = {(r, c): f"g{r}{c}" for r in range(rows) for c in range(cols)}
    links = [(ids[(r, c)], ids[(r, c + 1)]) for r in range(rows) for c in range(cols - 1)]
    links += [(ids[(r, c)], ids[(r + 1, c)]) for r in range(rows - 1) for c in range(cols)]
    homes = [ids[(r, cols - 1)] for r in range(rows)]
    nodes = {nid: {"role": "AGENT"} for nid in ids.values()}
    nodes["g00"] = nodes["g20"] = {"role": "CLIENT"}
    served = {h: [] for h in homes}
    policies = []
    for i in range(realms):
        home = homes[i % rows]
        pattern = f"*.w{i:03d}.example" if i % 5 == 0 else f"r{i:03d}.example"
        served[home].append(pattern.replace("*", "a"))
        policies.append(f"route {pattern} via {home} security {('psk', 'tls')[i % 2]}")
    for h in homes:
        nodes[h] = {"role": "SERVER", "realms": served[h], "users": {"u": "pw"}}
    return make_scenario(nodes, links, policies=policies, mode="REACTIVE", stop_time=10_000)


def test_provisioning_200_realms_sends_one_route_frame_per_node_and_converges_in_ticks():
    sim = simnet.Simulation(grid_with_realms(200))
    assert wait(sim, sim.controller.provision_all()) is None

    # every frame succeeds, and each policy's walk reached its home
    assert {o[2] for o in edit_outcomes(sim.transcript)} == {"ok"}
    ledger = sim.controller.ledger
    assert all(ledger[p.home_node]["routes"][p.realm_pattern]["action"] == "local"
               for p in sim.controller.policies)
    established = len(sim.controller.snapshot()["adjacencies"])
    routed = sum(1 for entry in ledger.values() if entry["routes"])
    sent = edit_frames(sim.transcript)
    assert len(sent) <= 2 * established + routed
    assert max(r["time"] for r in sent) < 100
    for client in ("g00", "g20"):
        assert len(sim.nodes[client].running.routing) == 200


def record_calls(monkeypatch, owner, name: str) -> list:
    """Wrap ``owner.name`` so that each call appends (args, result) to the
    returned list; the list keeps every argument alive, so ids stay unique."""
    calls = []
    original = getattr(owner, name)

    def recorded(*args):
        result = original(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(owner, name, recorded)
    return calls


def test_provisioning_200_realms_splits_each_change_path_once(monkeypatch):
    reads = record_calls(monkeypatch, southbound.ConfigChange, "container_key")
    sim = simnet.Simulation(grid_with_realms(200))
    wait(sim, sim.controller.provision_all())

    splits: dict[int, set[int]] = {}
    for (change,), result in reads:
        splits.setdefault(id(change), set()).add(id(result))
    assert len(splits) >= 2 * 200  # both clients' routes, at least
    assert len(reads) > 2 * len(splits)  # node apply, validation and the ledger all read it
    assert all(len(results) == 1 for results in splits.values())


def test_provisioning_200_realms_builds_each_pattern_text_once():
    sim = simnet.Simulation(grid_with_realms(200))
    wait(sim, sim.controller.provision_all())

    patterns = {id(p.realm_pattern): p.realm_pattern for p in sim.controller.policies}
    routed = [entry.pattern for n in sim.nodes.values() for entry in n.running.routing.values()]
    assert len(routed) > 2 * len(patterns)
    # every route holds its policy's pattern, the one string load_policy built
    assert {id(pattern) for pattern in routed} <= set(patterns)


def test_provisioning_200_realms_probes_the_ledger_once_per_hop_and_route(monkeypatch):
    probes = record_calls(monkeypatch, controller_mod.Controller, "_ledgered_route")
    hops = record_calls(monkeypatch, controller_mod.Controller, "_missing_route")
    walks = record_calls(monkeypatch, controller_mod.Controller, "_client_paths")
    sim = simnet.Simulation(grid_with_realms(200))
    wait(sim, sim.controller.provision_all())

    sent = [frame_paths(r) for r in edit_frames(sim.transcript)]
    collected = sum(len(paths) for paths in sent if all(p.startswith("routing/") for p in paths))
    # each hop visited probes the ledger once; the flush probes it no more
    assert len(hops) >= 2 * 200 and collected >= 200
    assert len(probes) == len(hops)
    # the client->home path order is walked once per home tree
    assert sorted(args[1] for args, _result in walks) == ["g04", "g14", "g24", "g34"]


@pytest.mark.parametrize("mode", ["PROACTIVE", "REACTIVE"])
def test_ttl_fixture_builds_each_sent_change_once(monkeypatch, mode):
    # a ttl policy's peers and routes are built at send time, with their
    # expiration, not built bare and then rebuilt stamped
    built = []
    init = southbound.ConfigChange.__init__

    def counted(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(southbound.ConfigChange, "__init__", counted)
    scenario = simnet.load_scenario((FIXTURES / "ttl.json").read_text())
    scenario.mode = mode
    _metrics, transcript = simnet.run(scenario)
    carried = [change for r in edit_frames(transcript) for change in r["frame"]["changes"]]
    assert any(change.get("value", {}).get("expiration") is not None for change in carried)
    assert len(built) == len(carried)


# ---------------------------------------------------------------------------
# notifications


def test_acquire_without_policy_records_unroutable_and_sends_nothing(decisions):
    sim = chain_sim(mode="REACTIVE", events=[inject(10, "ac", "bob@unknown.xyz", "pw")])
    run_all(sim)
    assert sim.metrics.controller_frames == 0
    assert sim.metrics.notifications == {"acquire-route": 1}
    assert decisions.messages == ["acquire from ac for unknown.xyz: no policy"]


def test_acquire_answered_with_combined_peer_and_route_frame():
    sim = chain_sim(
        mode="REACTIVE",
        policies=["route realm.org via ah security tls"],
        events=[inject(10, "ac", "alice@realm.org", "alice-pw")],
    )
    metrics, transcript = sim.run()
    assert metrics.delivered == 1
    acquires = [
        r["frame"]["note"]["node"]
        for r in transcript.records
        if r.get("frame", {}).get("type") == "notification"
        and r["frame"]["note"]["kind"] == "acquire-route"
    ]
    assert acquires == ["ac", "ai", "aj"]
    for node in acquires:
        edits = edit_frames(transcript, actor=node)
        combined = [
            r for r in edits
            if any(p.startswith("peers/") for p in frame_paths(r))
            and any(p.startswith("routing/") for p in frame_paths(r))
        ]
        assert len(combined) == 1, f"{node} expected one combined frame"


def test_most_specific_policy_wins_for_acquire():
    nodes, links, homes = chain_nodes()
    nodes["at"] = {
        "address": "at.sim", "role": "SERVER", "realms": ["realm.org"], "users": {},
    }
    # both policies match realm.org; the exact one must win
    scenario = make_scenario(
        nodes, links, {"realm.org": "ah"},
        policies=["route *.org via at security tls", "route realm.org via ah security tls"],
        mode="REACTIVE",
        events=[inject(10, "ac", "alice@realm.org", "alice-pw")],
    )
    sim = simnet.Simulation(scenario)
    metrics, transcript = sim.run()
    assert metrics.delivered == 1
    done = [r for r in transcript.records if r["direction"] == "done"]
    assert done[0]["message"]["trace"] == ["ac", "ai", "aj", "ah"]


def test_match_policy_equals_a_linear_scan_over_distinct_patterns():
    rng = random.Random(20261019)

    def realm():
        return ".".join(rng.choice(("a", "b", "org")) for _ in range(rng.randint(1, 3)))

    def pattern():
        prefix = rng.choice(("", "*.", "*"))  # exact, wildcard, default
        return prefix if prefix == "*" else prefix + realm()

    matched = 0
    for _ in range(300):
        # load_policy rejects a repeated pattern, so each is drawn once
        patterns = dict.fromkeys(pattern() for _ in range(rng.randint(0, 8)))
        policies = [Policy(f"p{i}", p, "h", "tls") for i, p in enumerate(patterns)]
        ctl = controller_mod.Controller(topo({"h": "SERVER"}, []), None, policies)
        for _ in range(10):
            r = realm()
            best, best_spec = None, -1
            for p in policies:
                spec = match_realm(p.realm_pattern, r)
                if spec is not None and spec > best_spec:
                    best, best_spec = p, spec
            assert ctl._match_policy(r) is best
            matched += best is not None
    assert matched > 1000


def test_rollback_leaves_neither_node_configured():
    sim = chain_sim(events=[
        {"time": 3, "kind": "node-down", "node": "aj"},
        {"time": 50, "kind": "node-up", "node": "aj"},
    ])
    result = wait(sim, sim.controller.establish_adjacency("ai", "aj", "tls"))
    assert result.status == "FAILED"
    run_all(sim)
    for node, other in (("ai", "aj"), ("aj", "ai")):
        doc = wait(sim, sim.controller.get_node_config(node))
        assert doc.peer(other) is None


def test_parallel_rollback_after_one_side_fails():
    sim = chain_sim(
        options={"parallel_adjacency": True},
        events=[
            {"time": 1, "kind": "node-down", "node": "aj"},
            {"time": 50, "kind": "node-up", "node": "aj"},
        ],
    )
    result = wait(sim, sim.controller.establish_adjacency("ai", "aj", "tls"))
    assert result.status == "FAILED" and result.failed_step == 3
    run_all(sim)
    for node, other in (("ai", "aj"), ("aj", "ai")):
        doc = wait(sim, sim.controller.get_node_config(node))
        assert doc.peer(other) is None


def test_parallel_rollback_after_first_side_fails():
    # ai is down when its frame lands, aj applies its side: aj is rolled back
    sim = chain_sim(
        options={"parallel_adjacency": True},
        events=[
            {"time": 1, "kind": "node-down", "node": "ai"},
            {"time": 50, "kind": "node-up", "node": "ai"},
        ],
    )
    result = wait(sim, sim.controller.establish_adjacency("ai", "aj", "tls"))
    assert (result.status, result.failed_step, result.error) == ("FAILED", 1, "NODE_DOWN")
    deletes = [
        c["path"] for r in edit_frames(sim.transcript, actor="aj")
        for c in r["frame"]["changes"]
        if c["op"] == "delete"
    ]
    assert deletes == ["peers/ai", "tls/tls-aj-ai"]
    run_all(sim)
    for node, other in (("ai", "aj"), ("aj", "ai")):
        doc = wait(sim, sim.controller.get_node_config(node))
        assert doc.peer(other) is None


@pytest.mark.parametrize("parallel,down,step,time", [(True, "ai", 1, 1), (False, "aj", 3, 3)])
def test_a_failed_exchange_lists_no_pair_and_the_next_ensure_hop_establishes_it(
        parallel, down, step, time):
    sim = chain_sim(
        mode="REACTIVE",
        policies=["route realm.org via ah security tls"],
        options={"parallel_adjacency": parallel},
        events=[
            {"time": time, "kind": "node-down", "node": down},
            {"time": 50, "kind": "node-up", "node": down},
        ],
    )
    controller = sim.controller
    result = wait(sim, controller.establish_adjacency("ai", "aj", "tls"))
    assert (result.status, result.failed_step, result.error) == ("FAILED", step, "NODE_DOWN")
    assert controller.snapshot()["adjacencies"] == []

    [policy] = controller.policies
    result = wait(sim, controller._submit(controller._ensure_hop(policy, "ai", "aj", {})))
    assert result.status == "ESTABLISHED"
    [record] = controller.snapshot()["adjacencies"]
    assert (record["pair"], record["status"], record["security"]) == (["ai", "aj"], "ESTABLISHED", "tls")
    assert sim.nodes["ai"].running.peer("aj") and sim.nodes["aj"].running.peer("ai")


def test_a_snapshot_mid_exchange_lists_no_pair():
    sim = chain_sim()
    reply = sim.controller.establish_adjacency("ai", "aj", "tls")
    sim.run_until(3)  # ai's frame is confirmed, aj's is in flight
    assert [r["actor"] for r in edit_frames(sim.transcript)] == ["ai", "aj"]
    assert sim.controller.snapshot()["adjacencies"] == []
    assert wait(sim, reply).status == "ESTABLISHED"
    assert [r["pair"] for r in sim.controller.snapshot()["adjacencies"]] == [["ai", "aj"]]


def test_acquire_at_the_home_installs_only_its_local_route():
    sim = chain_sim(
        mode="REACTIVE",
        policies=["route realm.org via ah security tls"],
        events=[inject(10, "ah", "alice@realm.org", "alice-pw")],
    )
    metrics, transcript = sim.run()
    edits = edit_frames(transcript)
    assert [(r["actor"], frame_paths(r)) for r in edits] == [("ah", ["routing/realm.org"])]
    assert edits[0]["frame"]["changes"][0]["value"]["action"] == "local"
    assert metrics.delivered == 1
    done = [r for r in transcript.records if r["direction"] == "done"]
    assert done[0]["message"]["trace"] == ["ah"]


def test_home_reacquires_its_expired_local_route_with_one_route_only_frame():
    """The home's LOCAL route comes first, from an acquire at the home, so
    the adjacency aj-ah set up later finds it ledgered and leaves it out:
    the route expires at t=312 while the home's peer stays. A request at
    the home at that tick makes it acquire again; the acquire still finds
    the route ledgered, the expiry's re-provisioning re-installs it, and
    the home gets exactly one route-only frame."""
    sim = chain_sim(
        mode="REACTIVE",
        policies=["route realm.org via ah security tls ttl 300"],
        events=[
            inject(10, "ah", "alice@realm.org", "alice-pw"),
            inject(50, "ac", "alice@realm.org", "alice-pw"),
            inject(312, "ah", "alice@realm.org", "alice-pw"),
        ],
        stop_time=340,
    )
    sim.run_until(100)
    running = sim.nodes["ah"].running
    assert running.route("realm.org").expiration == 312
    assert running.peer("aj").expiration > 340
    metrics, transcript = sim.run()
    after = [r for r in edit_frames(transcript, actor="ah") if r["time"] >= 312]
    assert [frame_paths(r) for r in after] == [["routing/realm.org"]]
    assert after[0]["frame"]["changes"][0]["value"]["action"] == "local"
    acquires = [r["time"] for r in notes_of(transcript, "acquire-route") if r["actor"] == "ah"]
    assert acquires[-1] >= 312
    assert metrics.delivered == 3 and metrics.error_codes == {}
    done = [r for r in transcript.records if r["direction"] == "done"]
    assert done[-1]["time"] > 312 and done[-1]["message"]["trace"] == ["ah"]


def test_acquire_without_a_path_sends_nothing_and_the_request_times_out():
    nodes, links, homes = chain_nodes()
    nodes["ah"] = dict(nodes["ah"], state="DOWN")
    scenario = make_scenario(
        nodes, links, homes, policies=["route realm.org via ah security tls"],
        mode="REACTIVE", events=[inject(10, "ac", "alice@realm.org", "alice-pw")],
        stop_time=6000,
    )
    metrics, transcript = simnet.Simulation(scenario).run()
    assert [r["actor"] for r in notes_of(transcript, "acquire-route")] == ["ac"]
    assert edit_frames(transcript) == []
    assert metrics.controller_frames == 0
    assert metrics.error_codes == {"NO_ROUTE_TIMEOUT": 1}


def test_expiry_of_an_unowned_static_entry_sends_no_frame():
    nodes, links, homes = chain_nodes()
    static = ConfigDocument(
        routing=(RealmEntry("realm.org", None, Action.LOCAL, (), 100),)
    )
    scenario = make_scenario(nodes, links, homes, static_config={"ah": static}, stop_time=500)
    metrics, transcript = simnet.Simulation(scenario).run()
    expired = notes_of(transcript, "route-expired")
    assert [(r["actor"], r["frame"]["note"]["pattern"]) for r in expired] == [("ah", "realm.org")]
    assert metrics.notifications == {"route-expired": 1}
    # the static push is the only controller frame; the expiry adds none
    assert [r["time"] for r in frames(transcript, direction="c2n")] == [0]


def test_node_that_starts_down_gets_a_session_on_node_up():
    nodes, links, homes = chain_nodes()
    nodes["aj"] = dict(nodes["aj"], state="DOWN")
    scenario = make_scenario(
        nodes, links, homes, events=[{"time": 10, "kind": "node-up", "node": "aj"}],
        stop_time=100,
    )
    sim = simnet.Simulation(scenario)
    sim.run_until(20)
    doc = wait(sim, sim.controller.get_node_config("aj"))
    assert doc is not None and doc.peers == {} and doc.routing == {}
    assert [r["frame"]["type"] for r in frames(sim.transcript, actor="aj")] == [
        "get-config", "config",
    ]


def test_provision_reports_unreachable_clients_when_node_down_at_start(decisions):
    nodes, links, homes = chain_nodes()
    nodes["aj"] = dict(nodes["aj"], state="DOWN")
    scenario = make_scenario(
        nodes, links, homes, policies=["route realm.org via ah security tls"], stop_time=500,
    )
    sim = simnet.Simulation(scenario)
    run_all(sim)
    assert decisions.messages == ["policy p1: no path from ac"]
    # nothing goes to ac or ai, which have no path; the home still gets its LOCAL route
    assert edit_outcomes(sim.transcript) == [("ah", ["routing/realm.org"], "ok", None)]


def test_provision_skips_nodes_behind_a_mid_run_failure(decisions):
    # aj dies at t=0, after sessions opened but before any frame lands;
    # the controller discovers it through NODE_DOWN replies
    sim = chain_sim(
        policies=["route realm.org via ah security tls"],
        events=[{"time": 0, "kind": "node-down", "node": "aj"}],
    )
    run_all(sim)
    assert "adjacency aj-ai failed at step 1 (NODE_DOWN)" in decisions.messages
    # aj's own hop (its adjacency with ah) is skipped: aj gets only the
    # failed first step of ai's adjacency, and ai is not sent its half
    assert edit_outcomes(sim.transcript, actor="aj") == [
        ("aj", ["tls/tls-aj-ai", "peers/ai"], "error", "NODE_DOWN"),
    ]
    assert [paths for _a, paths, _t, _c in edit_outcomes(sim.transcript, actor="ai")] == [
        ["tls/tls-ai-ac", "peers/ac"],
    ]
    # the reachable prefix was still provisioned
    assert sim.nodes["ac"].running.peer("ai") is not None
    assert sim.nodes["ah"].running.route("realm.org") is not None


def test_next_hops_are_computed_once_per_home_while_liveness_is_unchanged(monkeypatch):
    calls = []
    compute = controller_mod.compute_next_hops

    def counted(topology, target, exclude=frozenset()):
        calls.append(target)
        return compute(topology, target, exclude)

    monkeypatch.setattr(controller_mod, "compute_next_hops", counted)
    policies = [
        "route realm.org via ah security tls",
        "route *.realm.org via ah security psk",
        "route other.org via at security tls",
    ]
    events = [inject(50 + i, "ac", "alice@realm.org", "alice-pw") for i in range(3)]
    for mode, homes_asked in (("PROACTIVE", ["ah", "at"]), ("REACTIVE", ["ah"])):
        calls.clear()
        metrics, _ = chain_sim(policies=policies, mode=mode, events=events).run()
        assert metrics.delivered == 3
        assert calls == homes_asked, mode


def test_next_hops_follow_suspicion_and_reregistration(diamond_text):
    # aa (the tie-break winner) fails; the forward failure at t=150 makes it
    # suspect, its node-up at t=300 clears that, so a provisioning after
    # t=300 routes through it again
    obj = json.loads(diamond_text)
    obj["topology"]["nodes"]["ha"]["realms"].append("other.org")
    obj["topology"]["homes"]["other.org"] = "ha"
    obj["events"] = [
        {"time": 100, "kind": "node-down", "node": "aa"},
        inject(150, "cl", "dave@realm.org", "dave-pw"),
        {"time": 300, "kind": "node-up", "node": "aa"},
        inject(500, "cl", "dave@other.org", "dave-pw"),
    ]
    sim = simnet.Simulation(simnet.scenario_from_dict(obj))
    sim.run_until(90)
    assert sim.nodes["cl"].running.route("realm.org").next_hop == "aa"
    assert sim.controller._paths_to("ha").order == ("cl", "aa")

    sim.run_until(290)
    assert sim.controller.suspected == {"aa"}
    assert sim.nodes["cl"].running.route("realm.org").next_hop == "ab"
    assert sim.controller._paths_to("ha") == (
        {"cl": "ab", "ab": "ha"}, ("cl", "ab"), (),
    )

    sim.run_until(400)
    assert sim.controller.suspected == set()
    assert sim.controller._paths_to("ha").order == ("cl", "aa")
    [policy] = load_policy("route other.org via ha security psk", sim.controller.topology)
    wait(sim, sim.controller.provision_realm(policy), horizon=50)
    assert sim.nodes["cl"].running.route("other.org").next_hop == "aa"
    assert sim.nodes["aa"].running.route("other.org").next_hop == "ha"

    sim.run()
    assert sim.metrics.delivered == 2
    done = [r for r in sim.transcript.records if r["direction"] == "done"]
    assert [r["message"]["trace"] for r in done] == [["cl", "ab", "ha"], ["cl", "aa", "ha"]]


@pytest.mark.parametrize("mode", ["PROACTIVE", "REACTIVE"])
def test_a_node_loaded_down_is_used_once_it_registers(chain_text, mode):
    # aj, the chain's one way to the home ah, is loaded DOWN and comes up at
    # t=10; the request injected at t=500 must find the path through it
    obj = json.loads(chain_text)
    obj["topology"]["nodes"]["aj"]["state"] = "DOWN"
    obj["mode"] = mode
    obj["events"] = [{"time": 10, "kind": "node-up", "node": "aj"},
                     inject(500, "ac", "alice@realm.org", "alice-pw")]
    obj["stop_time"] = 3000
    sim = simnet.Simulation(simnet.scenario_from_dict(obj))
    assert sim.controller.suspected == {"aj"}
    sim.run_until(100)
    assert sim.controller.suspected == set()
    metrics, transcript = sim.run()
    assert (metrics.delivered, metrics.still_pending) == (1, 0)
    done = [r for r in transcript.records if r["direction"] == "done"]
    assert done[0]["message"]["trace"] == ["ac", "ai", "aj", "ah"]


def test_a_node_loaded_down_gets_its_static_config_when_it_registers(loop_text):
    # loop.json seeds x and y with relay routes to each other; with y loaded
    # DOWN until t=5, y's document is held and goes out when its session opens
    obj = json.loads(loop_text)
    obj["topology"]["nodes"]["y"]["state"] = "DOWN"
    obj["events"].insert(0, {"time": 5, "kind": "node-up", "node": "y"})
    scenario = simnet.scenario_from_dict(obj)
    sim = simnet.Simulation(scenario)
    metrics, transcript = sim.run()
    assert sim.nodes["y"].running == scenario.static_config["y"]
    pushes = [(r["time"], r["actor"]) for r in frames(transcript, southbound.EDIT_CONFIG)]
    assert pushes == [(0, "x"), (5, "y")] and metrics.controller_frames == 2
    assert [r["direction"] for r in transcript.records if r["time"] == 5] == ["node-up", "c2n"]
    assert list(ended(transcript).values()) == [("error", "ROUTE_LOOP")]
    assert metrics.still_pending == 0


def test_snapshot_json_round_trips():
    sim = chain_sim(policies=["route realm.org via ah security psk"])
    run_all(sim)
    state = json.loads(json.dumps(sim.controller.snapshot()))
    assert set(state) == {"policies", "adjacencies", "ledger"}
    assert state["policies"][0]["pattern"] == "realm.org"
    assert all(rec["status"] == "ESTABLISHED" for rec in state["adjacencies"])
    peers = [peer for entry in state["ledger"].values() for peer in entry["peers"].values()]
    assert peers and {peer["security"] for peer in peers} == {"psk"}


def test_a_recorded_snapshot_keeps_its_values_when_the_ledger_changes():
    sim = chain_sim(policies=["route realm.org via ah security psk"],
                    events=[{"time": 100, "kind": "snapshot"}])
    sim.run_until(100)
    [record] = [r for r in sim.transcript.records if r["direction"] == "snapshot"]
    assert record["snapshot"]["ledger"]["ah"]["routes"]["realm.org"]["action"] == "local"
    for entry in sim.controller.ledger.values():
        for kept in (*entry["peers"].values(), *entry["routes"].values()):
            kept["policy"] = "changed"
    assert [r for r in sim.transcript.records if r["direction"] == "snapshot"] == [record]
