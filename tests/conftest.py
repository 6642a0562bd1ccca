import math
import random
from pathlib import Path
from typing import Optional

import pytest

from sdnaaa import model, simnet
from sdnaaa.controller import (
    AGENT,
    CLIENT,
    SERVER,
    NodeInfo,
    Topology,
    compute_next_hops,
    load_policy,
)
from sdnaaa.model import (
    Action,
    AttributeRule,
    CodedError,
    ConfigDocument,
    Direction,
    PeerEntry,
    RealmEntry,
    RuleOp,
    SharedSecret,
    TlsProfile,
    TlsRef,
    Transport,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture
def chain_text() -> str:
    return (FIXTURES / "chain.json").read_text()


@pytest.fixture
def diamond_text() -> str:
    return (FIXTURES / "diamond.json").read_text()


@pytest.fixture
def loop_text() -> str:
    return (FIXTURES / "loop.json").read_text()


def run_all(sim: simnet.Simulation, horizon: int = 100_000) -> None:
    """Drain every scheduled event within a generous relative horizon."""
    sim.loop.run_until(sim.loop.now + horizon)


def wait(sim: simnet.Simulation, reply, horizon: int = 100_000):
    sim.loop.run_until(sim.loop.now + horizon)
    assert reply.done, "workflow did not complete within the horizon"
    return reply.value


def make_scenario(
    nodes: dict,
    links,
    homes: dict | None = None,
    policies=(),
    mode: str = "PROACTIVE",
    events=(),
    stop_time: int = 2000,
    seed: int = 1,
    options: dict | None = None,
    static_config: dict | None = None,
) -> simnet.Scenario:
    """Scenario built through the same dict schema the file format uses."""
    obj = {
        "seed": seed,
        "topology": {"nodes": nodes, "links": [list(l) for l in links], "homes": homes or {}},
        "policies": list(policies),
        "mode": mode,
        "events": list(events),
        "stop_time": stop_time,
    }
    if options:
        obj["options"] = options
    if static_config:
        obj["static_config"] = {
            nid: model.document_to_json(doc) for nid, doc in static_config.items()
        }
    return simnet.scenario_from_dict(obj)


def chain_nodes() -> tuple[dict, list, dict]:
    nodes = {
        "ac": {"address": "ac.sim", "role": "CLIENT"},
        "ah": {
            "address": "ah.sim",
            "role": "SERVER",
            "realms": ["realm.org"],
            "users": {"alice": "alice-pw"},
        },
        "ai": {"address": "ai.sim", "role": "AGENT"},
        "aj": {"address": "aj.sim", "role": "AGENT"},
        "at": {"address": "at.sim", "role": "AGENT"},
    }
    links = [("ac", "ai"), ("ai", "aj"), ("ai", "at"), ("aj", "ah")]
    homes = {"realm.org": "ah"}
    return nodes, links, homes


def inject(time: int, at: str, nai: str, password: str) -> dict:
    return {"time": time, "kind": "inject", "at": at, "nai": nai, "password": password}


# ---------------------------------------------------------------------------
# generated topologies and transcript queries


def gen_random_topology(
    seed: int, n_nodes: int, edge_prob: float, realms=("realm.org",)
) -> Topology:
    """Connected random topology: one SERVER per realm, one CLIENT, the rest
    AGENTs. Rejection-samples edge sets until connected; deterministic for a
    given seed. Raises GIVE_UP after 1000 attempts."""
    if not (3 <= n_nodes <= 64):
        raise CodedError("BAD_ARGS", f"n_nodes {n_nodes}")
    if not (0 < edge_prob <= 1):
        raise CodedError("BAD_ARGS", f"edge_prob {edge_prob}")
    parsed = [model.parse_realm(r) for r in realms]
    if n_nodes < len(parsed) + 1:
        raise CodedError("BAD_ARGS", "not enough nodes for realms plus a client")
    rng = random.Random(seed)
    names = [f"n{i:02d}" for i in range(n_nodes)]
    infos: dict[str, NodeInfo] = {}
    home_of: dict[str, str] = {}
    for idx, name in enumerate(names):
        if idx < len(parsed):
            realm = parsed[idx]
            infos[name] = NodeInfo(f"{name}.sim", SERVER, (realm,))
            home_of[realm] = name
        elif idx == len(parsed):
            infos[name] = NodeInfo(f"{name}.sim", CLIENT)
        else:
            infos[name] = NodeInfo(f"{name}.sim", AGENT)

    for _attempt in range(1000):
        links = set()
        for i in range(n_nodes):
            for j in range(i + 1, n_nodes):
                if rng.random() < edge_prob:
                    links.add(frozenset((names[i], names[j])))
        topology = Topology(infos, links, home_of)
        # connected: every other node has a next hop toward the first
        if len(compute_next_hops(topology, names[0])) == n_nodes - 1:
            return topology
    raise CodedError("GIVE_UP", f"no connected graph after 1000 attempts (p={edge_prob})")


def scenario_for_topology(
    topology: Topology,
    *,
    seed: int,
    mode: str,
    events,
    stop_time: int,
    policy_lines: str = "",
    users: Optional[dict[str, dict[str, str]]] = None,
    options: Optional[dict] = None,
) -> simnet.Scenario:
    """Build a Scenario directly from a Topology (for generated graphs)."""
    return simnet.Scenario(
        seed=seed,
        topology=topology,
        users=dict(users or {}),
        policies=load_policy(policy_lines, topology),
        mode=mode,
        events=list(events),
        stop_time=stop_time,
        options=dict(options or {}),
    )


def frames(transcript: simnet.Transcript, ftype: Optional[str] = None,
           actor: Optional[str] = None, direction: Optional[str] = None) -> list[dict]:
    """The transcript's frame records, filtered by frame type, actor and direction."""
    out = []
    for r in transcript.records:
        frame = r.get("frame")
        if frame is None:
            continue
        if ftype is not None and frame.get("type") != ftype:
            continue
        if actor is not None and r["actor"] != actor:
            continue
        if direction is not None and r["direction"] != direction:
            continue
        out.append(r)
    return out


def ended(transcript: simnet.Transcript) -> dict[str, tuple]:
    """Each ended request's (status, error code), from its done record."""
    return {
        r["message"]["msg_id"]: (r["message"]["status"], r["message"].get("error"))
        for r in transcript.records if r["direction"] == "done"
    }


# ---------------------------------------------------------------------------
# random valid documents (round-trip, redaction and fuzz seeds)


def make_random_valid_doc(rng: random.Random, max_entities: int = 4) -> ConfigDocument:
    peers = []
    tls = []
    for i in range(rng.randint(0, max_entities)):
        pid = f"peer{i}"
        style = rng.choice(("psk", "radsec", "diameter", "tcp"))
        expiration = None if rng.random() < 0.6 else rng.randint(1, 10**6)
        if style == "psk":
            peers.append(
                PeerEntry(
                    pid, f"{pid}-id", f"{pid}.example", rng.randint(1, 65535),
                    Transport.RADIUS_UDP,
                    SharedSecret(rng.randbytes(rng.randint(16, 64))),
                    expiration,
                )
            )
        elif style == "tcp":
            peers.append(
                PeerEntry(
                    pid, f"{pid}-id", f"{pid}.example", rng.randint(1, 65535),
                    Transport.DIAMETER_TCP,
                    SharedSecret(rng.randbytes(rng.randint(16, 64))),
                    expiration,
                )
            )
        else:
            transport = Transport.RADIUS_TLS if style == "radsec" else Transport.DIAMETER_TLS
            prof = TlsProfile(
                f"prof{i}", f"self{i}-cert", rng.randbytes(rng.randint(16, 48)),
                frozenset({f"{pid}-id", f"extra{i}-cert"}),
            )
            tls.append(prof)
            peers.append(
                PeerEntry(
                    pid, f"{pid}-id", f"{pid}.example", rng.randint(1, 65535),
                    transport, TlsRef(prof.name), expiration,
                )
            )
    rules = [
        AttributeRule(
            f"rule{i}",
            rng.choice((Direction.INCOMING, Direction.OUTGOING)),
            op,
            f"Attr-{i}",
            None if op is RuleOp.REMOVE else f"value-{i}",
        )
        for i, op in enumerate(
            rng.choices((RuleOp.ADD, RuleOp.REMOVE, RuleOp.REPLACE), k=rng.randint(0, max_entities))
        )
    ]
    routing = []
    for i in range(rng.randint(0, max_entities)):
        shape = rng.choice(("exact", "wild", "default"))
        if shape == "exact":
            pattern = f"r{i}.example.org"
        elif shape == "wild":
            pattern = f"*.w{i}.org"
        else:
            pattern = "*"
            shape = f"default{i}"
        if any(r.pattern == pattern for r in routing):
            continue
        expiration = None if rng.random() < 0.6 else rng.randint(1, 10**6)
        if not peers or rng.random() < 0.3:
            routing.append(RealmEntry(pattern, None, Action.LOCAL, (), expiration))
        else:
            action = rng.choice((Action.RELAY, Action.PROXY, Action.REDIRECT))
            refs = ()
            if action is Action.PROXY and rules:
                refs = tuple(
                    r.rule_id for r in rng.sample(rules, rng.randint(0, len(rules)))
                )
            routing.append(
                RealmEntry(pattern, rng.choice(peers).peer_id, action, refs, expiration)
            )
    doc = ConfigDocument(tuple(peers), tuple(routing), tuple(tls), tuple(rules))
    assert model.validate_document(doc) == []
    return doc


def secret_hexes(doc: ConfigDocument) -> set[str]:
    """Hex encodings of every private byte string in the document."""
    out = set()
    for p in doc.peers.values():
        if isinstance(p.credential, SharedSecret) and isinstance(p.credential.secret, bytes):
            out.add(p.credential.secret.hex())
    for t in doc.tls.values():
        if isinstance(t.local_key, bytes):
            out.add(t.local_key.hex())
    return out


# ---------------------------------------------------------------------------
# independent shortest-path oracle (Floyd-Warshall over the topology)


def fw_distances(topology, down=frozenset()) -> dict:
    names = sorted(
        n for n, info in topology.nodes.items() if info.state == "UP" and n not in down
    )
    dist = {a: {b: (0 if a == b else math.inf) for b in names} for a in names}
    for pair in topology.allowed_links:
        a, b = sorted(pair)
        if a in dist and b in dist:
            dist[a][b] = dist[b][a] = 1
    for k in names:
        for i in names:
            dik = dist[i][k]
            if dik is math.inf:
                continue
            for j in names:
                alt = dik + dist[k][j]
                if alt < dist[i][j]:
                    dist[i][j] = alt
    return dist


def psk_pair(a: str, b: str, secret: bytes, port: int = 1812):
    """Mirrored RADIUS/UDP peer entries for a static fixture."""
    return (
        PeerEntry(b, b, f"{b}.sim", port, Transport.RADIUS_UDP, SharedSecret(secret)),
        PeerEntry(a, a, f"{a}.sim", port, Transport.RADIUS_UDP, SharedSecret(secret)),
    )


# ---------------------------------------------------------------------------
# golden scenarios: the runs whose transcript digests test_golden.py pins

REALMS = ("realm.org", "b.example.net", "c.example.net")


def fixture_scenario(name: str, mode: str) -> simnet.Scenario:
    scenario = simnet.load_scenario((FIXTURES / f"{name}.json").read_text())
    scenario.mode = mode
    return scenario


def random_scenario(seed: int, mode: str) -> simnet.Scenario:
    """Three realms (one reached through a wildcard policy), tls and psk
    adjacencies with entry ttls, and an agent that goes down and comes back
    while requests for every realm keep arriving."""
    topology = gen_random_topology(seed, 10, 0.35, realms=REALMS)
    homes = [topology.home_of[r] for r in REALMS]
    client = next(n for n, i in topology.nodes.items() if i.role == "CLIENT")
    agents = sorted(n for n, i in topology.nodes.items() if i.role == "AGENT")
    policy_lines = "\n".join([
        f"route realm.org via {homes[0]} security tls ttl 1500",
        f"route *.example.net via {homes[1]} security psk ttl 1500",
        f"route c.example.net via {homes[2]} security psk",
    ])
    events = []
    for i in range(30):
        realm = REALMS[i % 3]
        password = "bad" if i % 7 == 3 else "pw"
        events.append(simnet.Event(100 + 150 * i, "inject", node=client,
                                   nai=model.parse_nai(f"u@{realm}"), password=password))
    events += [
        simnet.Event(1000, "node-down", node=agents[0]),
        simnet.Event(2500, "node-up", node=agents[0]),
        simnet.Event(3000, "snapshot"),
    ]
    events.sort(key=lambda ev: ev.time)
    return scenario_for_topology(
        topology,
        seed=seed,
        mode=mode,
        policy_lines=policy_lines,
        users={home: {"u": "pw"} for home in homes},
        events=events,
        stop_time=6000,
        options={"parallel_adjacency": seed % 2 == 1},
    )


def route(pattern: str, next_hop, action: Action, rule_refs=()) -> RealmEntry:
    return RealmEntry(pattern, next_hop, action, rule_refs)


def redirect_fabric() -> simnet.Scenario:
    """q sends every realm to the redirect agent ra, which knows realm.org
    and late.org (both served by ah) but not none.org: a hint, a miss, a
    failed handshake to ra while it is down, and a new query once it is
    back up that also releases the message parked by the failure."""
    q_ra, ra_q = psk_pair("q", "ra", b"k1" * 8)
    q_ah, ah_q = psk_pair("q", "ah", b"k2" * 8)
    ra_ah, ah_ra = psk_pair("ra", "ah", b"k3" * 8)
    static = {
        "q": ConfigDocument(peers=(q_ra, q_ah), routing=(route("*", "ra", Action.REDIRECT),)),
        "ra": ConfigDocument(
            peers=(ra_q, ra_ah),
            routing=(route("realm.org", "ah", Action.RELAY), route("late.org", "ah", Action.RELAY)),
        ),
        "ah": ConfigDocument(
            peers=(ah_q, ah_ra),
            routing=(route("realm.org", None, Action.LOCAL), route("late.org", None, Action.LOCAL)),
        ),
    }
    nodes = {
        "q": {"role": "CLIENT"},
        "ra": {"role": "AGENT"},
        "ah": {"role": "SERVER", "realms": ["realm.org", "late.org"], "users": {"eve": "pw"}},
    }
    events = [
        inject(20, "q", "eve@realm.org", "pw"),
        inject(40, "q", "eve@none.org", "pw"),
        {"time": 100, "kind": "node-down", "node": "ra"},
        inject(120, "q", "eve@late.org", "pw"),
        inject(130, "q", "eve@late.org", "bad"),
        {"time": 200, "kind": "node-up", "node": "ra"},
        inject(220, "q", "eve@late.org", "pw"),
        inject(240, "q", "eve@realm.org", "pw"),
    ]
    return make_scenario(
        nodes, [("q", "ra"), ("q", "ah"), ("ra", "ah")],
        homes={"realm.org": "ah", "late.org": "ah"},
        events=events, static_config=static, stop_time=1000,
    )


def proxy_chain() -> simnet.Scenario:
    """x relays to the proxy y, whose outgoing rules add an attribute and
    then replace it, in list order, before it forwards to the home z; its
    incoming rule does not apply to requests."""
    x_y, y_x = psk_pair("x", "y", b"p1" * 8)
    y_z, z_y = psk_pair("y", "z", b"p2" * 8)
    rules = (
        AttributeRule("op", Direction.OUTGOING, RuleOp.ADD, "Operator-Name", "fed1"),
        AttributeRule("re", Direction.OUTGOING, RuleOp.REPLACE, "Operator-Name", "fed2"),
        AttributeRule("in", Direction.INCOMING, RuleOp.REMOVE, "password"),
    )
    static = {
        "x": ConfigDocument(peers=(x_y,), routing=(route("realm.org", "y", Action.RELAY),)),
        "y": ConfigDocument(
            peers=(y_x, y_z),
            routing=(route("realm.org", "z", Action.PROXY, ("op", "re", "in")),),
            attributes=rules,
        ),
        "z": ConfigDocument(peers=(z_y,), routing=(route("realm.org", None, Action.LOCAL),)),
    }
    nodes = {
        "x": {"role": "CLIENT"},
        "y": {"role": "AGENT"},
        "z": {"role": "SERVER", "realms": ["realm.org"], "users": {"alice": "pw"}},
    }
    events = [
        inject(10, "x", "alice@realm.org", "pw"),
        inject(30, "x", "alice@realm.org", "pw"),
        inject(50, "x", "alice@realm.org", "wrong"),
    ]
    return make_scenario(
        nodes, [("x", "y"), ("y", "z")], homes={"realm.org": "z"},
        events=events, static_config=static, stop_time=300,
    )


def broken_return() -> simnet.Scenario:
    """y relays a request to the home z and goes down in the tick the
    request reaches z, so z's response cannot re-establish the channel
    back to y and ends CHANNEL_FAILED at z."""
    x_y, y_x = psk_pair("x", "y", b"r1" * 8)
    y_z, z_y = psk_pair("y", "z", b"r2" * 8)
    static = {
        "x": ConfigDocument(peers=(x_y,), routing=(route("realm.org", "y", Action.RELAY),)),
        "y": ConfigDocument(peers=(y_x, y_z), routing=(route("realm.org", "z", Action.RELAY),)),
        "z": ConfigDocument(peers=(z_y,), routing=(route("realm.org", None, Action.LOCAL),)),
    }
    nodes = {
        "x": {"role": "CLIENT"},
        "y": {"role": "AGENT"},
        "z": {"role": "SERVER", "realms": ["realm.org"], "users": {"alice": "pw"}},
    }
    events = [
        inject(10, "x", "alice@realm.org", "pw"),
        {"time": 14, "kind": "node-down", "node": "y"},
    ]
    return make_scenario(
        nodes, [("x", "y"), ("y", "z")], homes={"realm.org": "z"},
        events=events, static_config=static, stop_time=300,
    )


STATIC = {
    "redirect-fabric": redirect_fabric,
    "proxy-chain": proxy_chain,
    "broken-return": broken_return,
}


#: each golden run's transcript sha256 and its outcome counts, as
#: ``Metrics.to_json()`` writes them; the test compares the counts first, so a
#: run that moved shows which outcomes moved
GOLDEN = {
    ("chain", "PROACTIVE"): (
        "38de282b46c63a4a7b5e5a19f2241e9de6af0c29e1bfbb78c045f80ed8e1e3c8",
        {"injected": 1, "delivered": 1, "rejected": 0, "errored": 0,
         "still_pending": 0, "lost_in_flight": 0, "controller_frames": 6,
         "error_codes": {}}),
    ("chain", "REACTIVE"): (
        "18ca7e700dc8efa4df4bf8062c2104dfa723029243b61b9ca760951a32959346",
        {"injected": 1, "delivered": 1, "rejected": 0, "errored": 0,
         "still_pending": 0, "lost_in_flight": 0, "controller_frames": 6,
         "error_codes": {}}),
    ("diamond", "PROACTIVE"): (
        "7e09ab690b2b0feb8cb1f7aa0e824f9588efdd9cc13967b14a534a3ae5c5c42a",
        {"injected": 11, "delivered": 11, "rejected": 0, "errored": 0,
         "still_pending": 0, "lost_in_flight": 0, "controller_frames": 8,
         "error_codes": {}}),
    ("diamond", "REACTIVE"): (
        "a77388e67253b60b9ea5000129751ed0df6fd0ac3557cd6b1817680c699594ed",
        {"injected": 11, "delivered": 11, "rejected": 0, "errored": 0,
         "still_pending": 0, "lost_in_flight": 0, "controller_frames": 8,
         "error_codes": {}}),
    ("loop", "PROACTIVE"): (
        "c8cb789c665eee851d4918899719b005da70472b1c43364b394c41fe3518fcd3",
        {"injected": 1, "delivered": 0, "rejected": 0, "errored": 1,
         "still_pending": 0, "lost_in_flight": 0, "controller_frames": 2,
         "error_codes": {"ROUTE_LOOP": 1}}),
    ("loop", "REACTIVE"): (
        "c8cb789c665eee851d4918899719b005da70472b1c43364b394c41fe3518fcd3",
        {"injected": 1, "delivered": 0, "rejected": 0, "errored": 1,
         "still_pending": 0, "lost_in_flight": 0, "controller_frames": 2,
         "error_codes": {"ROUTE_LOOP": 1}}),
    ("random-4", "PROACTIVE"): (
        "6b82f74b775f1efe428a79be4cfbcd2aaac19bdbf6fafe2ec10f752b1c89d1ed",
        {"injected": 30, "delivered": 26, "rejected": 4, "errored": 0,
         "still_pending": 0, "lost_in_flight": 0, "controller_frames": 66,
         "error_codes": {}}),
    ("random-4", "REACTIVE"): (
        "57176ce1ec86e9331904338cf0adba11d5a611d339e4a3f082f964c6737f370e",
        {"injected": 30, "delivered": 17, "rejected": 2, "errored": 11,
         "still_pending": 0, "lost_in_flight": 0, "controller_frames": 61,
         "error_codes": {"CHANNEL_FAILED": 1, "REALM_NOT_SERVED": 10}}),
    ("random-9", "PROACTIVE"): (
        "dac3feddad83daaa6616595a18cc73df0592cb276f8d152a177711a22a77b7a1",
        {"injected": 30, "delivered": 26, "rejected": 4, "errored": 0,
         "still_pending": 0, "lost_in_flight": 0, "controller_frames": 42,
         "error_codes": {}}),
    ("random-9", "REACTIVE"): (
        "43d8111b406b190e2fb41f2babacf5f3b740ec5ef59418d22fdcd1bed03b1fba",
        {"injected": 30, "delivered": 17, "rejected": 3, "errored": 10,
         "still_pending": 0, "lost_in_flight": 0, "controller_frames": 40,
         "error_codes": {"REALM_NOT_SERVED": 10}}),
    ("redirect-fabric", "PROACTIVE"): (
        "4c6f919d76d5216b4cdd73cd50637740cd7e400436b7cd5caa7bee0194cf015c",
        {"injected": 6, "delivered": 4, "rejected": 1, "errored": 1,
         "still_pending": 0, "lost_in_flight": 0, "controller_frames": 3,
         "error_codes": {"REDIRECT_NO_ROUTE": 1}}),
    ("proxy-chain", "PROACTIVE"): (
        "6e091f54b22704b13059328c1f1fa425ef96e67c3b609277130dfddbff194496",
        {"injected": 3, "delivered": 2, "rejected": 1, "errored": 0,
         "still_pending": 0, "lost_in_flight": 0, "controller_frames": 3,
         "error_codes": {}}),
    ("broken-return", "PROACTIVE"): (
        "0a0cfb4cb5ef6a16acb84daf49b444caae019f435e76d50d9cd31267694f6325",
        {"injected": 1, "delivered": 0, "rejected": 0, "errored": 1,
         "still_pending": 0, "lost_in_flight": 0, "controller_frames": 3,
         "error_codes": {"CHANNEL_FAILED": 1}}),
    ("grid", "PROACTIVE"): (
        "f2aa59bd0875c1121b0b1de0e7e1caea69e81531440880849ae17206ca712c4f",
        {"injected": 11, "delivered": 10, "rejected": 1, "errored": 0,
         "still_pending": 0, "lost_in_flight": 0, "controller_frames": 24,
         "error_codes": {}}),
    ("grid", "REACTIVE"): (
        "c4d9a8c116950e0fb486aab39ad2c78ebec54df1ece9948b32cee4475116e0c8",
        {"injected": 11, "delivered": 10, "rejected": 1, "errored": 0,
         "still_pending": 0, "lost_in_flight": 0, "controller_frames": 30,
         "error_codes": {}}),
    ("ttl", "PROACTIVE"): (
        "eecfbfdd1534ff634a38a1d948454590c03e224aadf23f7716646a0a11d74c96",
        {"injected": 9, "delivered": 8, "rejected": 1, "errored": 0,
         "still_pending": 0, "lost_in_flight": 0, "controller_frames": 72,
         "error_codes": {}}),
    ("ttl", "REACTIVE"): (
        "de61ad0a439d4549e80247bc4a965a67702420081dfd0ed067553f746a375924",
        {"injected": 9, "delivered": 8, "rejected": 1, "errored": 0,
         "still_pending": 0, "lost_in_flight": 0, "controller_frames": 67,
         "error_codes": {}}),
}


#: every golden scenario and fixture by name, each buildable in both modes
SCENARIOS = sorted({name for name, _mode in GOLDEN} | {p.stem for p in FIXTURES.glob("*.json")})


def build(name: str, mode: str) -> simnet.Scenario:
    if name in STATIC:
        scenario = STATIC[name]()
        scenario.mode = mode
        return scenario
    if name.startswith("random-"):
        return random_scenario(int(name.split("-")[1]), mode)
    return fixture_scenario(name, mode)
