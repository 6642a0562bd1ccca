import math
import random
from pathlib import Path

import pytest

from sdnaaa import model, simnet
from sdnaaa.model import (
    Action,
    AttributeRule,
    ConfigDocument,
    Direction,
    PeerEntry,
    RealmEntry,
    RealmPattern,
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
            pattern = RealmPattern.parse(f"r{i}.example.org")
        elif shape == "wild":
            pattern = RealmPattern.parse(f"*.w{i}.org")
        else:
            pattern = RealmPattern.parse("*")
            shape = f"default{i}"
        if any(r.pattern.text == pattern.text for r in routing):
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
