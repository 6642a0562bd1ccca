import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import ended, inject, make_scenario, psk_pair
from sdnaaa import model, node as node_mod, simnet, southbound
from sdnaaa.model import (
    AaaMessage,
    Action,
    AttributeRule,
    CodedError,
    ConfigDocument,
    Direction,
    MsgKind,
    Notification,
    PeerEntry,
    RealmEntry,
    RuleOp,
    SharedSecret,
    TlsProfile,
    TlsRef,
    Transport,
    parse_nai,
)
from sdnaaa.node import Node, apply_attribute_rules
from sdnaaa.southbound import ConfigChange, open_session


def rig(*names):
    loop = simnet.EventLoop()
    metrics = simnet.Metrics()
    transcript = simnet.Transcript()
    network = simnet.Network(loop, metrics, transcript)
    nodes = []
    for name in names:
        n = Node(name, f"{name}.sim", loop, network)
        network.register(n)
        nodes.append(n)
    return (loop, network, *nodes)


def merge(container: str, entity) -> ConfigChange:
    key = model.entry_key(container, entity)
    return ConfigChange(southbound.MERGE, f"{container}/{key}", entity)


def apply_ok(node: Node, *changes):
    ok, err = node.apply_changes(list(changes))
    assert ok, err
    return node


def request(msg_id: str, nai_text: str, trace=(), attrs=None) -> AaaMessage:
    nai = parse_nai(nai_text)
    return AaaMessage(msg_id, MsgKind.REQUEST, nai, nai.realm,
                      attrs if attrs is not None else {"password": "pw"}, tuple(trace))


# ---------------------------------------------------------------------------
# apply_changes


def test_merge_peer_leaves_channel_idle():
    _loop, _network, a = rig("a")
    entry, _ = psk_pair("a", "b", b"s" * 16)
    apply_ok(a, merge("peers", entry))
    assert a.running.peer("b") is not None
    assert "b" not in a.channels


def test_delete_referenced_peer_is_rejected_atomically():
    _loop, _network, a = rig("a")
    entry, _ = psk_pair("a", "b", b"s" * 16)
    apply_ok(
        a,
        merge("peers", entry),
        merge("routing", RealmEntry("realm.org", "b", Action.RELAY)),
    )
    before = model.encode_document(a.running)
    ok, err = a.apply_changes([ConfigChange(southbound.DELETE, "peers/b")])
    assert not ok and err["code"] == "VALIDATION_FAILED"
    assert model.encode_document(a.running) == before


def test_a_frame_applies_its_changes_in_order_on_one_copy():
    _loop, _network, a = rig("a")
    entry, _ = psk_pair("a", "b", b"s" * 16)
    relay = RealmEntry("realm.org", "b", Action.RELAY)
    apply_ok(a, merge("routing", RealmEntry("old.org", None, Action.LOCAL)))
    before = a.running
    apply_ok(
        a,
        merge("peers", entry),
        merge("routing", relay),
        ConfigChange(southbound.DELETE, "routing/realm.org"),
        ConfigChange(southbound.DELETE, "routing/old.org"),
        merge("routing", relay),
    )
    assert a.running.routing == {"realm.org": relay}
    assert a.running.tls is before.tls and a.running.attributes is before.attributes
    assert set(before.routing) == {"old.org"} and before.peers == {}


@pytest.mark.parametrize("bad,detail", [
    (ConfigChange(southbound.MERGE, "routing/x.org"), "routing/x.org: merge without value"),
    (ConfigChange(southbound.MERGE, "peers/c", psk_pair("a", "b", b"s" * 16)[0]),
     "peers/c: key mismatch"),
    (ConfigChange(southbound.DELETE, "routing/x.org"), "routing/x.org: no such entry"),
    (ConfigChange(southbound.DELETE, "peers/b"), "peers/b: no such entry"),
    (ConfigChange("replace", "peers/b"), "peers/b: bad op 'replace'"),
    (ConfigChange(southbound.DELETE, "rooting/x.org"), "rooting/x.org"),
], ids=["merge-without-value", "key-mismatch", "delete-missing", "delete-deleted", "bad-op",
        "bad-container"])
def test_a_bad_path_anywhere_in_a_frame_changes_nothing(bad, detail):
    _loop, _network, a = rig("a")
    entry, _ = psk_pair("a", "b", b"s" * 16)
    apply_ok(a, merge("peers", entry))
    before = a.running
    ok, err = a.apply_changes([
        merge("routing", RealmEntry("realm.org", "b", Action.RELAY)),
        ConfigChange(southbound.DELETE, "peers/b"),
        bad,
        merge("peers", entry),
    ])
    assert not ok and err == {"code": "BAD_PATH", "detail": [f"BAD_PATH: {detail}"]}
    assert a.running is before


def test_merge_route_with_ttl_arms_timer_for_exact_expiry():
    loop, _network, a = rig("a")
    frames = []
    open_session("controller", a, loop, recorder=lambda t, _n, d, f: frames.append((t, d, f)))
    loop.run_until(100)
    entry, _ = psk_pair("a", "b", b"s" * 16)
    apply_ok(
        a,
        merge("peers", entry),
        merge("routing", RealmEntry("realm.org", "b", Action.RELAY, (), 600)),
    )
    realm = "realm.org"
    loop.run_until(599)
    assert a._select(realm, loop.now) is not None
    loop.run_until(600)
    assert a.running.route("realm.org") is None
    loop.run_until(601)
    notes = [f.note for (_t, d, f) in frames if f.type == southbound.NOTIFICATION]
    expired = [n for n in notes if n.kind == Notification.ROUTE_EXPIRED]
    assert len(expired) == 1 and expired[0].pattern == "realm.org"


def test_tick_is_idempotent_across_repeated_calls():
    loop, _network, a = rig("a")
    entry, _ = psk_pair("a", "b", b"s" * 16)
    apply_ok(a, merge("peers", entry),
             merge("routing", RealmEntry("realm.org", "b", Action.RELAY, (), 600)))
    first = a.tick(600)
    second = a.tick(601)
    assert [n.kind for n in first] == [Notification.ROUTE_EXPIRED]
    assert second == []


def test_expired_peer_cascades_dependent_routes():
    loop, _network, a = rig("a")
    entry, _ = psk_pair("a", "b", b"s" * 16)
    from dataclasses import replace

    apply_ok(
        a,
        merge("peers", replace(entry, expiration=500)),
        merge("routing", RealmEntry("realm.org", "b", Action.RELAY)),
    )
    notes = a.tick(500)
    kinds = sorted(n.kind for n in notes)
    assert kinds == [Notification.PEER_EXPIRED, Notification.ROUTE_EXPIRED]
    assert a.running.peers == {} and a.running.routing == {}
    assert model.validate_document(a.running) == []
    assert a.tick(501) == []


_EXPIRATIONS = st.none() | st.integers(0, 20)


@st.composite
def expiring_documents(draw) -> ConfigDocument:
    """Peers and routes with any expirations, None included; a RELAY route
    names one of the peers, so a peer's expiry can take routes with it."""
    base, _ = psk_pair("a", "b", b"s" * 16)
    peer_ids = draw(st.lists(st.sampled_from(["b", "c", "d", "e"]), max_size=4, unique=True))
    peers = [dataclasses.replace(base, peer_id=pid, identity=pid, host=f"{pid}.sim",
                                 expiration=draw(_EXPIRATIONS)) for pid in peer_ids]
    patterns = draw(st.lists(st.sampled_from(["realm.org", "x.org", "*.y.org", "*"]),
                             max_size=4, unique=True))
    routes = []
    for pattern in patterns:
        hop = draw(st.sampled_from([None, *peer_ids]))
        action = Action.LOCAL if hop is None else Action.RELAY
        routes.append(RealmEntry(pattern, hop, action, (), draw(_EXPIRATIONS)))
    return ConfigDocument(peers=peers, routing=routes)


def _full_scan(node_id: str, doc: ConfigDocument, now: int):
    """Every entry scanned: the notifications and document a tick must give."""
    expired_peers = sorted((k, p) for k, p in doc.peers.items()
                           if p.expiration is not None and p.expiration <= now)
    gone = {k for k, _p in expired_peers}
    expired_routes = sorted((k, r) for k, r in doc.routing.items()
                            if (r.expiration is not None and r.expiration <= now)
                            or (r.next_hop is not None and r.next_hop in gone))
    notes = [Notification.peer_expired(node_id, k) for k, _p in expired_peers]
    notes += [Notification.route_expired(node_id, r.pattern) for _k, r in expired_routes]
    running = ConfigDocument(
        peers={k: p for k, p in doc.peers.items() if k not in gone},
        routing={k: r for k, r in doc.routing.items() if k not in dict(expired_routes)},
    )
    return notes, running


@given(expiring_documents(), st.integers(0, 25))
def test_a_tick_before_the_first_expiration_scans_nothing_and_changes_nothing(doc, now):
    _loop, _network, a = rig("a")
    expirations = [e.expiration for e in (*doc.peers.values(), *doc.routing.values())
                   if e.expiration is not None]
    notes, running = _full_scan("a", doc, now)
    a.running = doc = ConfigDocument(peers=_CountingTable(doc.peers),
                                     routing=_CountingTable(doc.routing))
    assert doc.first_expiration == min(expirations, default=None)
    doc.peers.reads = doc.routing.reads = 0
    assert a.tick(now) == notes
    assert a.running == running
    if doc.first_expiration is None or doc.first_expiration > now:
        assert notes == [] and a.running is doc
        assert doc.peers.reads == doc.routing.reads == 0


class _CountingTable(dict):
    """A route table that counts its reads: one per get, and one per entry
    when a caller scans it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.reads = 0

    def get(self, key, default=None):
        self.reads += 1
        return super().get(key, default)

    def values(self):
        self.reads += len(self)
        return super().values()

    def items(self):
        self.reads += len(self)
        return super().items()


def test_edit_and_lookup_work_does_not_grow_with_table_size(monkeypatch):
    _loop, _network, a = rig("a")
    entry, _ = psk_pair("a", "b", b"s" * 16)
    routes = [
        RealmEntry(f"r{i}.example.org", "b", Action.RELAY)
        for i in range(1000)
    ]
    apply_ok(a, merge("peers", entry), *(merge("routing", r) for r in routes))

    # one-route edit against 1000 routes: the per-entity checkers run once
    checked = []
    for container, schema in list(model.SCHEMAS.items()):
        def counted(*args, _container=container, _check=schema.check):
            checked.append(_container)
            return _check(*args)
        monkeypatch.setitem(model.SCHEMAS, container, dataclasses.replace(schema, check=counted))
    apply_ok(a, merge("routing", RealmEntry("new.org", "b", Action.RELAY)))
    assert checked == ["routing"]

    # a lookup probes the table at most once per realm label plus once
    running = _CountingTable(a.running.routing)
    for text in ("r7.example.org", "x.y.example.org"):
        running.reads = 0
        assert model.select_route(running, text, now=0) is a.running.route(text)
        assert running.reads <= text.count(".") + 2


# ---------------------------------------------------------------------------
# security channels


def provisioned_pair(secret_a=b"s" * 16, secret_b=None, transport_b=None):
    loop, network, a, b = rig("a", "b")
    ea, eb = psk_pair("a", "b", secret_a)
    apply_ok(a, merge("peers", ea))
    from dataclasses import replace

    if secret_b is not None:
        eb = replace(eb, credential=SharedSecret(secret_b))
    if transport_b is not None:
        eb = replace(eb, transport=transport_b)
    apply_ok(b, merge("peers", eb))
    return loop, network, a, b


def verdict(loop, node, peer_id):
    """(ok, reason) of a handshake, as a record waiting on it sees it: sent,
    or passed to _unsent with the reason."""
    out = []
    node._send = lambda _peer_id, _record: out.append((True, None))
    node._unsent = lambda _record, _peer_id, reason: out.append((False, reason))
    node.establish_channel(peer_id, "probe")
    loop.run_until(loop.now + 5)
    del node._send, node._unsent
    assert out, "handshake produced no verdict"
    return out[0]


def test_channel_establishes_when_both_sides_mirror():
    loop, _network, a, b = provisioned_pair()
    ok, reason = verdict(loop, a, "b")
    assert ok and reason is None
    assert a.channels == {"b": b}
    assert b.channels == {"a": a}


def test_channel_psk_mismatch_by_one_byte():
    loop, _network, a, _b = provisioned_pair(secret_b=b"s" * 15 + b"t")
    ok, reason = verdict(loop, a, "b")
    assert not ok and reason == "CREDENTIAL_MISMATCH"


def test_channel_transport_mismatch():
    loop, _network, a, _b = provisioned_pair(transport_b=Transport.DIAMETER_TCP)
    ok, reason = verdict(loop, a, "b")
    assert not ok and reason == "TRANSPORT_MISMATCH"


def test_channel_peer_down():
    loop, _network, a, b = provisioned_pair()
    b.set_down()
    ok, reason = verdict(loop, a, "b")
    assert not ok and reason == "PEER_DOWN"


def test_channel_no_mirror_entry():
    loop, network, a, b = rig("a", "b")
    ea, _eb = psk_pair("a", "b", b"s" * 16)
    apply_ok(a, merge("peers", ea))
    ok, reason = verdict(loop, a, "b")
    assert not ok and reason == "NO_MIRROR_ENTRY"


def tls_sides(mutual=True):
    loop, network, a, b = rig("a", "b")
    prof_a = TlsProfile("pa", "a-cert", b"k" * 16, frozenset({"b-cert"}))
    trusted_b = frozenset({"a-cert"}) if mutual else frozenset({"someone-else"})
    prof_b = TlsProfile("pb", "b-cert", b"k" * 16, frozenset({"x"}) | trusted_b)
    ident_a_of_b = "b-cert"
    ident_b_of_a = "a-cert" if mutual else "someone-else"
    apply_ok(
        a,
        merge("tls", prof_a),
        merge("peers", PeerEntry("b", ident_a_of_b, "b.sim", 2083, Transport.RADIUS_TLS, TlsRef("pa"))),
    )
    apply_ok(
        b,
        merge("tls", prof_b),
        merge("peers", PeerEntry("a", ident_b_of_a, "a.sim", 2083, Transport.RADIUS_TLS, TlsRef("pb"))),
    )
    return loop, a, b


def test_channel_tls_mutual_trust():
    loop, a, b = tls_sides(mutual=True)
    ok, reason = verdict(loop, a, "b")
    assert ok
    assert "a" in b.channels


def test_channel_tls_one_way_trust_fails():
    loop, a, b = tls_sides(mutual=False)
    ok, reason = verdict(loop, a, "b")
    assert not ok and reason == "CREDENTIAL_MISMATCH"


@pytest.mark.parametrize(
    "kwargs",
    [
        {},
        {"secret_b": b"s" * 15 + b"t"},
        {"transport_b": Transport.DIAMETER_TCP},
    ],
    ids=["match", "secret-mismatch", "transport-mismatch"],
)
def test_channel_verdict_is_symmetric(kwargs):
    loop1, _n1, a1, _b1 = provisioned_pair(**kwargs)
    forward = verdict(loop1, a1, "b")
    loop2, _n2, _a2, b2 = provisioned_pair(**kwargs)
    backward = verdict(loop2, b2, "a")
    assert forward == backward


# ---------------------------------------------------------------------------
# message routing through static configurations


def local_server_doc(peer_entry) -> ConfigDocument:
    return ConfigDocument(
        peers=(peer_entry,),
        routing=(RealmEntry("realm.org", None, Action.LOCAL),),
    )


def relay_pair_scenario(extra_attrs=None, events=None):
    """x relays realm.org to y; y is the home server for it."""
    ex, ey = psk_pair("x", "y", b"s" * 16)
    static = {
        "x": ConfigDocument(
            peers=(ex,),
            routing=(RealmEntry("realm.org", "y", Action.RELAY),),
        ),
        "y": local_server_doc(ey),
    }
    nodes = {
        "x": {"role": "CLIENT"},
        "y": {"role": "SERVER", "realms": ["realm.org"], "users": {"alice": "pw"}},
    }
    return make_scenario(
        nodes,
        [("x", "y")],
        homes={"realm.org": "y"},
        events=events or [inject(20, "x", "alice@realm.org", "pw")],
        static_config=static,
        stop_time=500,
    )


def test_relay_delivers_and_preserves_attributes():
    sim = simnet.Simulation(relay_pair_scenario())
    metrics, transcript = sim.run()
    assert metrics.delivered == 1
    done = [r for r in transcript.records if r["direction"] == "done"]
    assert done[0]["message"]["trace"] == ["x", "y"]
    forwarded = [
        r for r in transcript.records
        if r["direction"] == "fwd" and r["message"].get("kind") == "request"
    ]
    assert forwarded[0]["message"]["attributes"] == {"password": "pw"}


def test_wrong_password_is_rejected_end_to_end():
    scenario = relay_pair_scenario(events=[inject(20, "x", "alice@realm.org", "nope")])
    metrics, transcript = simnet.run(scenario)
    assert metrics.rejected == 1 and metrics.delivered == 0
    done = [r for r in transcript.records if r["direction"] == "done"]
    assert done[0]["message"]["status"] == "reject"
    assert done[0]["actor"] == "x"


def test_local_on_non_serving_node_is_realm_not_served():
    ex, ey = psk_pair("x", "y", b"s" * 16)
    static = {
        "x": ConfigDocument(routing=(RealmEntry("realm.org", None, Action.LOCAL),)),
    }
    nodes = {"x": {"role": "AGENT"}, "y": {"role": "AGENT"}}
    scenario = make_scenario(
        nodes, [("x", "y")], events=[inject(10, "x", "alice@realm.org", "pw")],
        static_config=static, stop_time=100,
    )
    metrics, _transcript = simnet.run(scenario)
    assert metrics.errored == 1
    assert metrics.error_codes == {"REALM_NOT_SERVED": 1}


def test_home_finds_its_realm_with_constant_comparisons():
    loop = simnet.EventLoop()
    network = simnet.Network(loop, simnet.Metrics(), simnet.Transcript())
    compared = []

    class CountedRealm(str):  # its __eq__ runs for every comparison with a str
        __hash__ = str.__hash__

        def __eq__(self, other):
            compared.append(other)
            return str.__eq__(self, other)

    realms = [f"r{i}.org" for i in range(1000)]
    home = Node("h", "h.sim", loop, network, served_realms=realms,
                users={"alice": "pw"})
    network.register(home)
    nai = model.Nai("alice", CountedRealm("r999.org"))  # equal to, not the same as, a served realm
    msg = AaaMessage("m1", MsgKind.REQUEST, nai, nai.realm, {"password": "pw"}, hop_trace=("h",))
    home.authenticate_local(msg)
    assert network.metrics.delivered == 1
    assert len(compared) <= 2


def test_route_loop_detected_on_revisit():
    secret = b"q" * 16
    ex, ey = psk_pair("x", "y", secret)
    static = {
        "x": ConfigDocument(peers=(ex,), routing=(RealmEntry("realm.org", "y", Action.RELAY),)),
        "y": ConfigDocument(peers=(ey,), routing=(RealmEntry("realm.org", "x", Action.RELAY),)),
    }
    nodes = {"x": {"role": "CLIENT"}, "y": {"role": "AGENT"}}
    scenario = make_scenario(
        nodes, [("x", "y")], events=[inject(10, "x", "bob@realm.org", "pw")],
        static_config=static, stop_time=200,
    )
    metrics, _ = simnet.run(scenario)
    assert metrics.error_codes == {"ROUTE_LOOP": 1}


def test_hop_limit_rejects_overlong_trace():
    _loop, network, a = rig("a")
    msg = request("m1", "bob@realm.org", trace=[f"h{i}" for i in range(16)])
    a.handle_message(msg, 0)
    assert ended(network.transcript) == {"m1": ("error", "HOP_LIMIT")}


def test_a_request_finalized_twice_ends_once():
    _loop, network, _a = rig("a")
    msg = request("m1", "bob@realm.org")
    network.finalize_message("a", msg._replace(status="error", error="HOP_LIMIT"))
    network.finalize_message("a", msg._replace(status="accept"))
    assert ended(network.transcript) == {"m1": ("error", "HOP_LIMIT")}
    assert (network.metrics.errored, network.metrics.delivered) == (1, 0)


def test_fifteen_hop_trace_is_still_processed():
    _loop, network, a = rig("a")
    msg = request("m1", "bob@realm.org", trace=[f"h{i}" for i in range(15)])
    a.handle_message(msg, 0)
    # appended and parked for the reactive path rather than erroring
    assert ended(network.transcript) == {}
    assert len(a.pending["realm.org"].items) == 1


# ---------------------------------------------------------------------------
# attribute rules


def rule(rid, op, attr, value=None, direction=Direction.OUTGOING):
    return AttributeRule(rid, direction, op, attr, value)


def test_rules_apply_in_order_and_by_direction():
    msg = request("m1", "alice@realm.org", attrs={"A": "1", "B": "2"})
    rules = [
        rule("r1", RuleOp.ADD, "C", "3"),
        rule("r2", RuleOp.REMOVE, "B"),
        rule("r3", RuleOp.REPLACE, "A", "9"),
        rule("r4", RuleOp.ADD, "Skipped", "x", direction=Direction.INCOMING),
    ]
    out = apply_attribute_rules(msg, rules, Direction.OUTGOING)
    assert out.attributes == {"A": "9", "C": "3"}
    assert out.hop_trace == msg.hop_trace and out.nai == msg.nai


def test_remove_missing_attribute_is_noop():
    msg = request("m1", "alice@realm.org", attrs={"A": "1"})
    out = apply_attribute_rules(msg, [rule("r1", RuleOp.REMOVE, "Zz")], Direction.OUTGOING)
    assert out.attributes == {"A": "1"}


def test_add_existing_attribute_errors():
    msg = request("m1", "alice@realm.org", attrs={"A": "1"})
    with pytest.raises(CodedError) as err:
        apply_attribute_rules(msg, [rule("r1", RuleOp.ADD, "A", "2")], Direction.OUTGOING)
    assert err.value.code == "ADD_EXISTS"


def test_replace_missing_attribute_errors():
    msg = request("m1", "alice@realm.org", attrs={})
    with pytest.raises(CodedError) as err:
        apply_attribute_rules(msg, [rule("r1", RuleOp.REPLACE, "A", "2")], Direction.OUTGOING)
    assert err.value.code == "REPLACE_MISSING"


# one strategy per AaaMessage field; attributes is sometimes a hashable
# stand-in for the dict, so that hash() compares values and does not only
# raise TypeError on both sides
_NAIS = [parse_nai("alice@realm.org"), parse_nai("bob@other.org")]
MESSAGE_FIELDS = {
    "msg_id": st.text(max_size=4),
    "kind": st.sampled_from(MsgKind),
    "nai": st.sampled_from(_NAIS),
    "dest_realm": st.sampled_from([nai.realm for nai in _NAIS]),
    "attributes": st.dictionaries(st.text(max_size=3), st.text(max_size=3), max_size=2)
    | st.frozensets(st.tuples(st.text(max_size=3), st.text(max_size=3)), max_size=2),
    "hop_trace": st.lists(st.text(max_size=3), max_size=3).map(tuple),
    "status": st.sampled_from(["pending", "accept", "reject", "error"]) | st.text(max_size=3),
    "error": st.none() | st.text(max_size=3),
}


def _hash_or_error(msg: AaaMessage):
    try:
        return hash(msg)
    except TypeError as err:
        return type(err)


def _assert_built_like_replace(built: AaaMessage, replaced: AaaMessage, fresh=()) -> None:
    """``built`` equals ``replaced`` field by field as the same objects (the
    ``fresh`` fields by value only) and stays frozen."""
    assert type(built) is AaaMessage
    for name in MESSAGE_FIELDS:
        if name in fresh:
            assert getattr(built, name) == getattr(replaced, name), name
        else:
            assert getattr(built, name) is getattr(replaced, name), name
    assert built == replaced
    assert _hash_or_error(built) == _hash_or_error(replaced)
    for name in MESSAGE_FIELDS:
        with pytest.raises(AttributeError):
            setattr(built, name, getattr(replaced, name))


@given(st.builds(AaaMessage, **MESSAGE_FIELDS), st.text(max_size=3), st.booleans(),
       st.text(max_size=3))
def test_message_hop_matches_replace_and_stays_frozen(msg, node_id, accepted, code):
    assert tuple(MESSAGE_FIELDS) == AaaMessage._fields
    hopped = msg.hop(node_id)
    assert hopped.hop_trace == msg.hop_trace + (node_id,)
    _assert_built_like_replace(hopped, msg._replace(hop_trace=hopped.hop_trace))
    # answer builds a new empty attribute map, as the _replace call does
    answer = msg.answer(accepted)
    _assert_built_like_replace(answer, msg._replace(
        kind=MsgKind.RESPONSE, attributes={}, status="accept" if accepted else "reject"),
        fresh=("attributes",))
    assert answer.attributes == {} and answer.attributes is not msg.attributes
    _assert_built_like_replace(msg.failed(code), msg._replace(status="error", error=code))


def proxy_scenario(rules, refs):
    ex, ey = psk_pair("x", "y", b"s" * 16)
    static = {
        "x": ConfigDocument(
            peers=(ex,),
            routing=(RealmEntry("realm.org", "y", Action.PROXY, refs),),
            attributes=tuple(rules),
        ),
        "y": local_server_doc(ey),
    }
    nodes = {
        "x": {"role": "CLIENT"},
        "y": {"role": "SERVER", "realms": ["realm.org"], "users": {"alice": "pw"}},
    }
    return make_scenario(
        nodes, [("x", "y")], homes={"realm.org": "y"},
        events=[inject(20, "x", "alice@realm.org", "pw")],
        static_config=static, stop_time=300,
    )


def test_proxy_adds_attribute_visible_at_home():
    scenario = proxy_scenario([rule("r1", RuleOp.ADD, "Operator-Name", "fed1")], ("r1",))
    metrics, transcript = simnet.run(scenario)
    assert metrics.delivered == 1
    forwarded = [
        r for r in transcript.records
        if r["direction"] == "fwd" and r["message"].get("kind") == "request"
    ]
    assert forwarded[0]["message"]["attributes"]["Operator-Name"] == "fed1"


def test_proxy_replace_missing_errors_the_message():
    scenario = proxy_scenario([rule("r1", RuleOp.REPLACE, "Ghost", "v")], ("r1",))
    metrics, _ = simnet.run(scenario)
    assert metrics.error_codes == {"REPLACE_MISSING": 1}


# ---------------------------------------------------------------------------
# reactive queue behavior


def test_unroutable_burst_emits_single_acquire_and_queues_fifo():
    loop, network, a = rig("a")
    notes = []
    open_session("controller", a, loop, on_notification=notes.append)
    for i in range(5):
        a.handle_message(request(f"m{i}", "bob@realm.org"), loop.now)
    loop.run_until(10)
    acquire = [n for n in notes if n.kind == Notification.ACQUIRE_ROUTE]
    assert len(acquire) == 1
    assert [m.msg_id for m, _t in a.pending["realm.org"].items] == [f"m{i}" for i in range(5)]


def test_queue_overflow_drops_with_queue_full():
    _loop, network, a = rig("a")
    for i in range(70):
        a.handle_message(request(f"m{i}", "bob@realm.org"), 0)
    assert len(a.pending["realm.org"].items) == 64
    assert a.queue_drops == 6
    assert ended(network.transcript) == {f"m{i}": ("error", "QUEUE_FULL") for i in range(64, 70)}


def test_pending_messages_time_out_with_no_route():
    loop, network, a = rig("a")
    loop.run_until(10)
    a.handle_message(request("m1", "bob@realm.org"), 10)
    loop.run_until(5009)
    assert ended(network.transcript) == {}
    loop.run_until(5011)
    assert ended(network.transcript) == {"m1": ("error", "NO_ROUTE_TIMEOUT")}
    assert a.pending == {}


# ---------------------------------------------------------------------------
# redirect


def redirect_scenario(agent_has_route=True, inject_times=(20,)):
    s_q_ra = b"k1" * 8
    s_q_ah = b"k2" * 8
    q_peer_ra, ra_peer_q = psk_pair("q", "ra", s_q_ra)
    q_peer_ah, ah_peer_q = psk_pair("q", "ah", s_q_ah)
    ra_routes = ()
    ra_peers = (ra_peer_q,)
    if agent_has_route:
        ra_peer_ah = PeerEntry("ah", "ah", "ah.sim", 1812, Transport.RADIUS_UDP, SharedSecret(b"k3" * 8))
        ra_peers = (ra_peer_q, ra_peer_ah)
        ra_routes = (RealmEntry("realm.org", "ah", Action.RELAY),)
    static = {
        "q": ConfigDocument(
            peers=(q_peer_ra, q_peer_ah),
            routing=(RealmEntry("realm.org", "ra", Action.REDIRECT),),
        ),
        "ra": ConfigDocument(peers=ra_peers, routing=ra_routes),
        "ah": ConfigDocument(
            peers=(ah_peer_q,),
            routing=(RealmEntry("realm.org", None, Action.LOCAL),),
        ),
    }
    nodes = {
        "q": {"role": "CLIENT"},
        "ra": {"role": "AGENT"},
        "ah": {"role": "SERVER", "realms": ["realm.org"], "users": {"eve": "pw"}},
    }
    events = [inject(t, "q", "eve@realm.org", "pw") for t in inject_times]
    return make_scenario(
        nodes, [("q", "ra"), ("q", "ah"), ("ra", "ah")], homes={"realm.org": "ah"},
        events=events, static_config=static, stop_time=1000,
    )


def redirect_queries(transcript):
    return [
        r for r in transcript.records
        if r["direction"] == "fwd" and r["message"].get("kind") == "redirect-query"
    ]


def test_redirect_query_resolves_and_forwards():
    metrics, transcript = simnet.run(redirect_scenario())
    assert metrics.delivered == 1
    assert len(redirect_queries(transcript)) == 1
    hints = [
        r for r in transcript.records
        if r["direction"] == "fwd" and r["message"].get("kind") == "redirect-hint"
    ]
    assert hints[0]["message"]["next"] == "ah.sim"
    assert hints[0]["message"]["ttl"] == 30000


def test_redirect_cache_suppresses_second_query():
    sim = simnet.Simulation(redirect_scenario(inject_times=(20, 60)))
    metrics, transcript = sim.run()
    assert metrics.delivered == 2
    assert len(redirect_queries(transcript)) == 1
    # the synthesized cache entry never appears in the running config
    assert sim.nodes["q"].running.route("realm.org").action is Action.REDIRECT
    assert "realm.org" in sim.nodes["q"].route_cache


def test_expired_redirect_hint_is_dropped_and_the_running_route_is_selected():
    sim = simnet.Simulation(redirect_scenario())
    sim.run()
    q, realm = sim.nodes["q"], "realm.org"
    hint = q.route_cache["realm.org"]
    assert q._select(realm, hint.expiration - 1) is hint
    assert q._select(realm, hint.expiration).action is Action.REDIRECT
    assert "realm.org" not in q.route_cache


def _longest_live_match(routing, realm: str, now: int):
    """Linear-scan oracle: the live entry whose pattern matches ``realm``
    most specifically (the realm itself, then the longest ``*.<suffix>``
    with at least one label in front, then ``*``), or None."""
    def specificity(pattern):
        if pattern == realm:
            return (2, 0)
        if pattern.startswith("*.") and realm.endswith(pattern[1:]):
            return (1, len(pattern))
        return (0, 0) if pattern == "*" else None

    live = [(specificity(e.pattern), e) for e in routing.values()
            if e.expiration is None or now < e.expiration]
    live = [(s, e) for s, e in live if s is not None]
    return max(live, key=lambda pair: pair[0])[1] if live else None


@given(st.lists(st.sampled_from(["a", "b", "org"]), min_size=1, max_size=4).map(".".join),
       st.sampled_from(("live", "expired", "absent")), st.integers(0, 20), st.data())
def test_select_returns_a_live_hint_else_the_running_longest_match(realm, hint_state, now, data):
    labels = realm.split(".")
    candidates = [realm, "*", f"x.{realm}", f"*.x.{realm}"]
    candidates += ["*." + ".".join(labels[cut:]) for cut in range(1, len(labels))]
    patterns = data.draw(st.lists(st.sampled_from(candidates), unique=True))
    _loop, _network, a = rig("a")
    peer, _ = psk_pair("a", "b", b"s" * 16)
    apply_ok(a, merge("peers", peer), *(
        merge("routing", RealmEntry(p, "b", Action.RELAY, (), data.draw(st.none() | st.integers(1, 20))))
        for p in patterns))
    hint = None
    if hint_state != "absent":
        offset = data.draw(st.integers(1, 5) if hint_state == "live" else st.integers(-5, 0))
        hint = a.route_cache[realm] = RealmEntry(realm, "b", Action.RELAY, (), now + offset)
    expected = hint if hint_state == "live" else _longest_live_match(a.running.routing, realm, now)
    assert a._select(realm, now) is expected
    # a live hint stays cached; an expired one has left the cache
    assert a.route_cache.get(realm) is (hint if hint_state == "live" else None)


def test_redirect_without_matching_entry_errors():
    metrics, transcript = simnet.run(redirect_scenario(agent_has_route=False))
    assert metrics.error_codes == {"REDIRECT_NO_ROUTE": 1}


def test_a_redirect_agent_that_is_the_home_hints_itself():
    q_peer_ra, ra_peer_q = psk_pair("q", "ra", b"k1" * 8)
    static = {
        "q": ConfigDocument(
            peers=(q_peer_ra,),
            routing=(RealmEntry("realm.org", "ra", Action.REDIRECT),),
        ),
        "ra": ConfigDocument(
            peers=(ra_peer_q,),
            routing=(RealmEntry("realm.org", None, Action.LOCAL),),
        ),
    }
    nodes = {
        "q": {"role": "CLIENT"},
        "ra": {"role": "SERVER", "realms": ["realm.org"], "users": {"eve": "pw"}},
    }
    metrics, transcript = simnet.run(make_scenario(
        nodes, [("q", "ra")], homes={"realm.org": "ra"}, events=[inject(20, "q", "eve@realm.org", "pw")],
        static_config=static, stop_time=1000,
    ))
    fwds = [(r["actor"], r["to"], r["message"]) for r in transcript.records if r["direction"] == "fwd"]
    hints = [m for _a, _t, m in fwds if m["kind"] == "redirect-hint"]
    assert [(h["next"], h["ttl"]) for h in hints] == [("ra.sim", 30000)]
    assert [(a, t, m["kind"]) for a, t, m in fwds if m["kind"] in ("request", "response")] == [
        ("q", "ra", "request"), ("ra", "q", "response")]
    assert metrics.delivered == 1


# ---------------------------------------------------------------------------
# responses


def test_response_travels_reversed_request_path():
    chain_secret = b"c" * 16
    e_xy, e_yx = psk_pair("x", "y", chain_secret)
    e_yz, e_zy = psk_pair("y", "z", b"d" * 16)
    static = {
        "x": ConfigDocument(peers=(e_xy,), routing=(RealmEntry("realm.org", "y", Action.RELAY),)),
        "y": ConfigDocument(peers=(e_yx, e_yz), routing=(RealmEntry("realm.org", "z", Action.RELAY),)),
        "z": ConfigDocument(peers=(e_zy,), routing=(RealmEntry("realm.org", None, Action.LOCAL),)),
    }
    nodes = {
        "x": {"role": "CLIENT"},
        "y": {"role": "AGENT"},
        "z": {"role": "SERVER", "realms": ["realm.org"], "users": {"alice": "pw"}},
    }
    scenario = make_scenario(
        nodes, [("x", "y"), ("y", "z")], homes={"realm.org": "z"},
        events=[inject(10, "x", "alice@realm.org", "pw")],
        static_config=static, stop_time=300,
    )
    metrics, transcript = simnet.run(scenario)
    assert metrics.delivered == 1
    responses = [
        (r["actor"], r["to"]) for r in transcript.records
        if r["direction"] == "fwd" and r["message"].get("kind") == "response"
    ]
    assert responses == [("z", "y"), ("y", "x")]
    done = [r for r in transcript.records if r["direction"] == "done"]
    assert done[0]["actor"] == "x"


def test_response_finds_a_channel_keyed_by_another_peer_id():
    """y holds its entry for x under ``x-gw``, so x's node id is no channel
    key at y: the response at y finds the entry by x's address and goes out
    over the channel that x's request opened, with no second handshake."""
    e_xy, e_yx = psk_pair("x", "y", b"c" * 16)
    e_yz, e_zy = psk_pair("y", "z", b"d" * 16)
    static = {
        "x": ConfigDocument(peers=(e_xy,), routing=(RealmEntry("realm.org", "y", Action.RELAY),)),
        "y": ConfigDocument(peers=(dataclasses.replace(e_yx, peer_id="x-gw"), e_yz),
                            routing=(RealmEntry("realm.org", "z", Action.RELAY),)),
        "z": ConfigDocument(peers=(e_zy,), routing=(RealmEntry("realm.org", None, Action.LOCAL),)),
    }
    nodes = {
        "x": {"role": "CLIENT"},
        "y": {"role": "AGENT"},
        "z": {"role": "SERVER", "realms": ["realm.org"], "users": {"alice": "pw"}},
    }
    scenario = make_scenario(
        nodes, [("x", "y"), ("y", "z")], homes={"realm.org": "z"},
        events=[inject(10, "x", "alice@realm.org", "pw")],
        static_config=static, stop_time=300,
    )
    sim = simnet.Simulation(scenario)
    metrics, transcript = sim.run()
    assert metrics.delivered == 1
    assert sorted(sim.nodes["y"].channels) == ["x-gw", "z"]
    ups = [(r["actor"], r["peer"]) for r in transcript.records if r["direction"] == "channel-up"]
    assert ups == [("x", "y"), ("y", "z")]
    responses = [
        (r["actor"], r["to"]) for r in transcript.records
        if r["direction"] == "fwd" and r["message"].get("kind") == "response"
    ]
    assert responses == [("z", "y"), ("y", "x")]


# ---------------------------------------------------------------------------
# records that cannot go out


def one_way_pair(action=Action.RELAY):
    """a routes realm.org to b, but b has no entry for a, so every handshake
    from a fails with NO_MIRROR_ENTRY; notifications from a are collected."""
    loop, network, a, b = rig("a", "b")
    ea, _eb = psk_pair("a", "b", b"s" * 16)
    apply_ok(a, merge("peers", ea),
             merge("routing", RealmEntry("realm.org", "b", action)))
    notes = []
    open_session("controller", a, loop, on_notification=notes.append)
    return loop, network, a, b, notes


def forward_failures(notes):
    return [(n.peer_id, n.realm) for n in notes if n.kind == Notification.FORWARD_FAILURE]


def test_unsent_request_is_recorded_once_parked_and_reported_once_per_peer():
    loop, network, a, _b, notes = one_way_pair()
    a.handle_message(request("m1", "bob@realm.org"), loop.now)
    a.handle_message(request("m2", "bob@realm.org"), loop.now)
    loop.run_until(loop.now + 10)
    failed = [r for r in network.transcript.records if r["direction"] == "channel-failed"]
    assert [(r["message"]["msg_id"], r["peer"], r["reason"]) for r in failed] == [
        ("m1", "b", "NO_MIRROR_ENTRY"), ("m2", "b", "NO_MIRROR_ENTRY"),
    ]
    assert [m.msg_id for m, _t in a.pending["realm.org"].items] == ["m1", "m2"]
    assert forward_failures(notes) == [("b", "realm.org")]
    # a later message joins the backlog: no new record, no new report
    a.handle_message(request("m3", "bob@realm.org"), loop.now)
    loop.run_until(loop.now + 10)
    assert len([r for r in network.transcript.records if r["direction"] == "channel-failed"]) == 2
    assert [m.msg_id for m, _t in a.pending["realm.org"].items] == ["m1", "m2", "m3"]
    assert forward_failures(notes) == [("b", "realm.org")]


def test_unsent_response_reports_forward_failure_then_fails_channel_failed():
    loop, network, x, _y = rig("x", "y")
    ex, _ey = psk_pair("x", "y", b"s" * 16)
    apply_ok(x, merge("peers", ex))
    seen = []
    x.emit_notification = lambda note: seen.append((note.kind, note.peer_id))
    finalize = network.finalize_message
    network.finalize_message = lambda nid, msg: (seen.append(("done", msg.error)), finalize(nid, msg))
    nai = parse_nai("bob@realm.org")
    resp = AaaMessage("r1", MsgKind.RESPONSE, nai, nai.realm, {}, ("y", "x"), status="accept")
    x.handle_message(resp, loop.now)
    loop.run_until(loop.now + 10)
    assert seen == [(Notification.FORWARD_FAILURE, "y"), ("done", "CHANNEL_FAILED")]
    assert ended(network.transcript) == {"r1": ("error", "CHANNEL_FAILED")}


def test_unsent_redirect_query_reports_once_and_clears_in_flight_mark():
    loop, network, a, b, notes = one_way_pair(Action.REDIRECT)
    a.handle_message(request("m1", "bob@realm.org"), loop.now)
    a.handle_message(request("m2", "bob@realm.org"), loop.now)
    loop.run_until(loop.now + 10)
    assert forward_failures(notes) == [("b", "realm.org")]
    assert a.redirect_queries_sent == 0
    assert redirect_queries(network.transcript) == []
    assert [m.msg_id for m, _t in a.pending["realm.org"].items] == ["m1", "m2"]
    # once b mirrors a, the next message sends a fresh query
    _ea, eb = psk_pair("a", "b", b"s" * 16)
    apply_ok(b, merge("peers", eb))
    a.handle_message(request("m3", "bob@realm.org"), loop.now)
    loop.run_until(loop.now + 10)
    assert a.redirect_queries_sent == 1
    queries = redirect_queries(network.transcript)
    assert [(r["actor"], r["to"]) for r in queries] == [("a", "b")]
    assert forward_failures(notes) == [("b", "realm.org")]


def test_established_channel_sends_without_a_handshake(monkeypatch):
    loop, network, a, b = provisioned_pair()
    apply_ok(a, merge("routing", RealmEntry("realm.org", "b", Action.RELAY)))
    assert verdict(loop, a, "b") == (True, None)
    calls = []
    for node in (a, b):
        monkeypatch.setattr(node, "establish_channel", lambda *args: calls.append(args))
    a.handle_message(request("m1", "bob@realm.org"), loop.now)
    nai = parse_nai("bob@realm.org")
    b.handle_message(
        AaaMessage("r1", MsgKind.RESPONSE, nai, nai.realm, {}, ("a", "b"), status="accept"),
        loop.now,
    )
    assert calls == []
    sent = [(r["actor"], r["to"], r["message"]["msg_id"])
            for r in network.transcript.records if r["direction"] == "fwd"]
    assert sent == [("a", "b", "m1"), ("b", "a", "r1")]


def test_records_waiting_on_a_handshake_end_node_down_and_free_the_redirect_realm():
    loop, network, a, _b = provisioned_pair()
    apply_ok(a, merge("routing", RealmEntry("realm.org", "b", Action.RELAY)),
             merge("routing", RealmEntry("redirect.org", "b", Action.REDIRECT)))
    nai = parse_nai("bob@realm.org")
    a.handle_message(request("m1", "bob@realm.org"), loop.now)
    a.handle_message(
        AaaMessage("r1", MsgKind.RESPONSE, nai, nai.realm, {}, ("b", "a"), status="accept"),
        loop.now,
    )
    a.handle_message(request("m2", "carol@redirect.org"), loop.now)  # parked behind its query
    assert [type(r).__name__ for r in a._handshakes["b"]] == ["AaaMessage", "AaaMessage", "RedirectQuery"]
    a.set_down()
    loop.run_until(loop.now + 10)
    done = [r["message"] for r in network.transcript.records if r["direction"] == "done"]
    assert [(m["msg_id"], m["error"]) for m in done] == [
        ("m2", "NODE_DOWN"), ("m1", "NODE_DOWN"), ("r1", "NODE_DOWN")]
    assert {r["direction"] for r in network.transcript.records} == {"done"}  # nothing was sent
    # back UP, the realm's next request sends a fresh query
    a.set_up()
    a.handle_message(request("m3", "carol@redirect.org"), loop.now)
    loop.run_until(loop.now + 10)
    assert a.redirect_queries_sent == 1


def test_record_to_a_node_that_goes_down_in_flight_is_lost(monkeypatch):
    loop, network, a, b = rig("a", "b")
    reached = []
    monkeypatch.setattr(b, "handle_message", lambda msg, now: reached.append(msg.msg_id))
    network.send_record(a, b, request("m1", "alice@realm.org", trace=["a"]))
    b.set_down()
    loop.run_until(10)
    assert network.metrics.lost_in_flight == 1
    assert reached == []
    # the lost message ends its request at b; a lost redirect record only counts
    done = [r for r in network.transcript.records if r["direction"] == "done"]
    assert [(r["actor"], r["message"]["msg_id"], r["message"]["error"]) for r in done] == [
        ("b", "m1", "LOST_IN_FLIGHT")]
    assert network.metrics.errored == 1
    network.send_record(a, b, node_mod.RedirectQuery("realm.org", "a"))
    loop.run_until(15)
    assert network.metrics.lost_in_flight == 2
    assert sum(r["direction"] == "done" for r in network.transcript.records) == 1
    assert reached == []
    # liveness is checked at delivery: a node back UP by then gets the record
    network.send_record(a, b, request("m2", "alice@realm.org", trace=["a"]))
    b.set_up()
    loop.run_until(20)
    assert network.metrics.lost_in_flight == 2
    assert reached == ["m2"]
