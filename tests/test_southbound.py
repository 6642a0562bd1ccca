import json
import random

import pytest

from conftest import make_random_valid_doc
from sdnaaa import model, simnet, southbound
from sdnaaa.model import (
    Action,
    AttributeRule,
    CodedError,
    ConfigDocument,
    Direction,
    Notification,
    PeerEntry,
    Realm,
    RealmEntry,
    RealmPattern,
    RuleOp,
    SharedSecret,
    TlsProfile,
    TlsRef,
    Transport,
)
from sdnaaa.node import Node
from sdnaaa.southbound import ConfigChange, Frame, open_session


@pytest.fixture
def rig():
    loop = simnet.EventLoop()
    metrics = simnet.Metrics()
    transcript = simnet.Transcript()
    network = simnet.Network(loop, metrics, transcript)
    node = Node("ai", "ai.sim", loop, network)
    network.register(node)
    return loop, network, node


def drain(loop, horizon=10_000):
    loop.run_until(loop.now + horizon)


def peer(pid: str, host: str | None = None, secret: bytes = b"s" * 16) -> PeerEntry:
    return PeerEntry(pid, pid, host or f"{pid}.sim", 1812, Transport.RADIUS_UDP, SharedSecret(secret))


def merge_peer(entry: PeerEntry) -> ConfigChange:
    return ConfigChange(southbound.MERGE, f"peers/{entry.peer_id}", entry)


def merge_route(pattern: str, next_hop, action=Action.RELAY) -> ConfigChange:
    entry = RealmEntry(RealmPattern.parse(pattern), next_hop, action)
    return ConfigChange(southbound.MERGE, f"routing/{pattern}", entry)


# ---------------------------------------------------------------------------
# session lifecycle


def test_open_session_starts_txn_at_one(rig):
    loop, _network, node = rig
    session = open_session("controller", node, loop)
    reply = session.get_config()
    assert session.txn == 1
    drain(loop)
    assert reply.value.txn == 1


def test_second_open_session_is_rejected(rig):
    loop, _network, node = rig
    open_session("controller", node, loop)
    with pytest.raises(CodedError) as err:
        open_session("controller", node, loop)
    assert err.value.code == "SESSION_EXISTS"


def test_rogue_controller_is_unauthorized(rig):
    loop, _network, node = rig
    with pytest.raises(CodedError) as err:
        open_session("rogue", node, loop)
    assert err.value.code == "UNAUTHORIZED"


def test_open_session_requires_node_up(rig):
    loop, _network, node = rig
    node.set_down()
    with pytest.raises(CodedError) as err:
        open_session("controller", node, loop)
    assert err.value.code == "NODE_DOWN"


# ---------------------------------------------------------------------------
# edit-config / get-config


def test_edit_config_merge_applies(rig):
    loop, _network, node = rig
    session = open_session("controller", node, loop)
    reply = session.edit_config([merge_peer(peer("aj"))])
    drain(loop)
    assert reply.value.type == southbound.OK
    assert node.running.peer("aj") is not None
    assert "aj" not in node.channels


def test_combined_merge_applies_both_in_one_frame(rig):
    loop, _network, node = rig
    session = open_session("controller", node, loop)
    reply = session.edit_config([merge_peer(peer("aj")), merge_route("realm.org", "aj")])
    drain(loop)
    assert reply.value.type == southbound.OK
    assert node.running.peer("aj") is not None
    assert node.running.route("realm.org").next_hop == "aj"


def test_invalid_change_applies_nothing(rig):
    loop, _network, node = rig
    session = open_session("controller", node, loop)
    # oracle: validating the hypothetical merged document must fail
    ghost_doc = ConfigDocument(routing=(RealmEntry(RealmPattern.parse("realm.org"), "ghost", Action.RELAY),))
    assert any(v.code == "DANGLING_NEXT_HOP" for v in model.validate_document(ghost_doc))
    reply = session.edit_config([merge_route("realm.org", "ghost")])
    drain(loop)
    assert reply.value.type == southbound.ERROR
    assert reply.value.error["code"] == "VALIDATION_FAILED"
    assert node.running.routing == {}


def test_delete_missing_path_is_bad_path(rig):
    loop, _network, node = rig
    session = open_session("controller", node, loop)
    reply = session.edit_config([ConfigChange(southbound.DELETE, "peers/nope")])
    drain(loop)
    assert reply.value.type == southbound.ERROR
    assert reply.value.error["code"] == "BAD_PATH"


def test_bad_container_is_bad_path(rig):
    loop, _network, node = rig
    session = open_session("controller", node, loop)
    reply = session.edit_config([ConfigChange(southbound.MERGE, "rooting/realm.org", peer("x"))])
    drain(loop)
    assert reply.value.type == southbound.ERROR
    assert reply.value.error["code"] == "BAD_PATH"


def test_get_config_on_fresh_node_is_empty(rig):
    loop, _network, node = rig
    session = open_session("controller", node, loop)
    reply = session.get_config()
    drain(loop)
    assert reply.value.type == southbound.CONFIG
    assert reply.value.doc == ConfigDocument()


def test_get_config_redacts_secrets_and_reads_writes(rig):
    loop, _network, node = rig
    session = open_session("controller", node, loop)
    session.edit_config([merge_peer(peer("aj", secret=b"q" * 24))])
    reply = session.get_config()
    drain(loop)
    doc = reply.value.doc
    got = doc.peer("aj")
    assert got.credential.secret == model.REDACTED
    assert (got.host, got.port, got.transport) == ("aj.sim", 1812, Transport.RADIUS_UDP)
    # the node's own running copy still holds the raw secret
    assert node.running.peer("aj").credential.secret == b"q" * 24


def test_requests_to_down_node_fail_with_node_down(rig):
    loop, _network, node = rig
    session = open_session("controller", node, loop)
    node.set_down()
    reply = session.edit_config([merge_peer(peer("aj"))])
    drain(loop)
    assert reply.value.type == southbound.ERROR
    assert reply.value.error["code"] == "NODE_DOWN"


@pytest.mark.parametrize("kind", [
    southbound.CONFIG, southbound.OK, southbound.ERROR, southbound.NOTIFICATION, "get-configuration", None,
], ids=["config", "ok", "error", "notification", "unknown-type", "no-type"])
def test_request_that_is_not_edit_or_get_config_is_bad_frame(rig, kind):
    loop, _network, node = rig
    frames = []
    session = open_session("controller", node, loop,
                           recorder=lambda t, _n, d, f: frames.append((t, d, f)))
    request = Frame(7, kind)
    reply = session._request(request)
    drain(loop)
    assert reply.value.type == southbound.ERROR
    assert reply.value.txn == 7
    assert reply.value.error == {"code": "BAD_FRAME", "detail": []}
    assert node.running == ConfigDocument()
    assert frames == [(0, "c2n", request), (2, "n2c", reply.value)]


@pytest.mark.parametrize("path", ["peers", "peers/", "rooting/realm.org", "/aj"],
                         ids=["no-separator", "no-key", "unknown-container", "no-container"])
def test_change_path_without_container_and_key_is_bad_path(path):
    change = ConfigChange(southbound.DELETE, path)
    for _call in range(2):  # a failed split is not kept, so every call raises
        with pytest.raises(CodedError) as err:
            change.container_key()
        assert err.value.code == "BAD_PATH"
        assert err.value.detail == path


def test_change_path_splits_at_the_first_slash():
    assert ConfigChange(southbound.DELETE, "routing/*.org").container_key() == ("routing", "*.org")
    assert ConfigChange(southbound.DELETE, "peers/a/b").container_key() == ("peers", "a/b")


def test_change_path_is_split_once_and_the_split_is_not_part_of_the_value():
    change = ConfigChange(southbound.DELETE, "routing/*.org")
    assert change.container_key() is change.container_key()
    fresh = ConfigChange(southbound.DELETE, "routing/*.org")
    assert change == fresh and hash(change) == hash(fresh)
    assert repr(change) == repr(fresh)


@pytest.mark.parametrize("path", ["peers", "peers/", "rooting/realm.org", "/aj"],
                         ids=["no-separator", "no-key", "unknown-container", "no-container"])
def test_frame_with_a_bad_path_changes_nothing_each_time_it_is_sent(rig, path):
    loop, _network, node = rig
    session = open_session("controller", node, loop)
    good = [merge_peer(peer("aj")), merge_route("realm.org", "aj")]
    batch = [good[0], ConfigChange(southbound.DELETE, path), good[1]]
    before = model.encode_document(node.running)
    for _attempt in range(2):  # the same change objects both times
        reply = session.edit_config(batch)
        drain(loop)
        assert reply.value.type == southbound.ERROR
        assert reply.value.error == {"code": "BAD_PATH", "detail": [f"BAD_PATH: {path}"]}
        assert model.encode_document(node.running) == before
    reply = session.edit_config(good)
    drain(loop)
    assert reply.value.type == southbound.OK
    assert node.running.route("realm.org").next_hop == "aj"


# ---------------------------------------------------------------------------
# notifications


def test_notification_uses_txn_zero_and_reaches_handler(rig):
    loop, _network, node = rig
    seen = []
    frames = []
    open_session("controller", node, loop, on_notification=seen.append,
                 recorder=lambda t, _n, d, f: frames.append((t, d, f)))
    node.emit_notification(Notification.acquire_route("ai", Realm.parse("realm.org")))
    drain(loop)
    assert len(seen) == 1
    assert seen[0].realm.text == "realm.org"
    times = [f for (_t, d, f) in frames if f.type == southbound.NOTIFICATION]
    assert times and all(f.txn == 0 for f in times)


def test_notification_without_session_is_dropped_and_counted(rig):
    _loop, _network, node = rig
    node.emit_notification(Notification.route_expired("ai", RealmPattern.parse("*.org")))
    assert node.notification_drops == 1


# ---------------------------------------------------------------------------
# atomicity and txn properties


def test_atomicity_with_random_invalid_positions(rig):
    loop, _network, node = rig
    session = open_session("controller", node, loop)
    rng = random.Random(5)
    for trial in range(50):
        before = model.encode_document(node.running)
        batch = [
            merge_peer(peer(f"p{trial}a")),
            merge_route(f"t{trial}.org", f"p{trial}a"),
        ]
        bad = rng.choice(
            [
                merge_route(f"bad{trial}.org", "ghost-peer"),
                ConfigChange(southbound.DELETE, f"peers/never-{trial}"),
                merge_peer(peer(f"p{trial}bad", secret=b"short")),
            ]
        )
        batch.insert(rng.randint(0, len(batch)), bad)
        reply = session.edit_config(batch)
        drain(loop)
        assert reply.value.type == southbound.ERROR
        assert model.encode_document(node.running) == before


def test_txn_strictly_increases_and_replies_echo(rig):
    loop, _network, node = rig
    frames = []
    session = open_session("controller", node, loop,
                           recorder=lambda t, _n, d, f: frames.append((t, d, f)))
    replies = [session.edit_config([merge_peer(peer(f"p{i}"))]) for i in range(5)]
    replies.append(session.get_config())
    drain(loop)
    requests = [f.txn for (_t, d, f) in frames if d == "c2n"]
    assert requests == sorted(requests) and len(set(requests)) == len(requests)
    reply_txns = {f.txn for (_t, d, f) in frames if d == "n2c" and f.txn != 0}
    assert reply_txns <= set(requests)
    for i, reply in enumerate(replies[:-1]):
        assert reply.value.txn == i + 1


# ---------------------------------------------------------------------------
# replies and workflows


def test_reply_resolves_once_and_late_callbacks_run_at_once():
    reply = southbound.Reply()
    seen = []
    reply.add_done_callback(seen.append)
    assert seen == []
    reply.resolve("v")
    assert seen == ["v"]
    reply.add_done_callback(seen.append)
    assert seen == ["v", "v"]
    with pytest.raises(AssertionError):
        reply.resolve("w")
    assert reply.value == "v"


def test_workflow_resumes_resolved_replies_at_once_and_waits_for_pending_ones():
    ready = southbound.Reply()
    ready.resolve(1)
    later = southbound.Reply()
    steps = []

    def workflow():
        a = yield ready
        steps.append(a)
        b = yield later
        steps.append(b)
        return a + b

    done = southbound.run_workflow(workflow())
    assert steps == [1] and not done.done
    later.resolve(2)
    assert steps == [1, 2]
    assert done.done and done.value == 3


# ---------------------------------------------------------------------------
# frame encoding (the form the transcript writes)


def frame_samples():
    doc = make_random_valid_doc(random.Random(3))
    profile = TlsProfile("tls-ai", "ai", b"k" * 16, frozenset({"aj", "ak"}))
    rule = AttributeRule("r1", Direction.OUTGOING, RuleOp.ADD, "Class", "gold")
    tls_peer = PeerEntry("aj", "aj", "aj.sim", 2083, Transport.RADIUS_TLS, TlsRef("tls-ai"), 900)
    proxy = RealmEntry(RealmPattern.parse("*.org"), "aj", Action.PROXY, ("r1",))
    every_container = (
        ConfigChange(southbound.MERGE, "tls/tls-ai", profile),
        ConfigChange(southbound.MERGE, "attributes/r1", rule),
        merge_peer(tls_peer),
        ConfigChange(southbound.MERGE, "routing/*.org", proxy),
    )
    return [
        Frame(1, southbound.EDIT_CONFIG, changes=(merge_peer(peer("aj")), merge_route("realm.org", "aj"))),
        Frame(2, southbound.GET_CONFIG),
        Frame(2, southbound.CONFIG, doc=model.redact(doc)),
        Frame(1, southbound.OK),
        Frame(3, southbound.ERROR, error={"code": "VALIDATION_FAILED", "detail": [{"code": "BAD_PORT", "subject": "peers/x"}]}),
        Frame(0, southbound.NOTIFICATION, note=Notification.forward_failure("ai", "aj", Realm.parse("realm.org"))),
        pytest.param(Frame(4, southbound.EDIT_CONFIG, changes=every_container), id="edit-config-every-container"),
    ]


#: the members each frame type adds to ``txn`` and ``type``
TYPE_MEMBERS = {
    southbound.EDIT_CONFIG: {"changes"},
    southbound.GET_CONFIG: set(),
    southbound.CONFIG: {"doc"},
    southbound.OK: set(),
    southbound.ERROR: {"code", "detail"},
    southbound.NOTIFICATION: {"note"},
}


@pytest.mark.parametrize("frame", frame_samples(), ids=lambda f: f.type)
def test_frame_to_json_has_its_type_members(frame):
    obj = frame.to_json()
    assert set(obj) == {"txn", "type"} | TYPE_MEMBERS[frame.type]
    assert (obj["txn"], obj["type"]) == (frame.txn, frame.type)
    json.dumps(obj)  # the transcript writes it as JSON
    if frame.type == southbound.EDIT_CONFIG:
        assert len(obj["changes"]) == len(frame.changes)
        for change, out in zip(frame.changes, obj["changes"]):
            container, _ = change.container_key()
            assert set(out) == {"op", "path", "value"}
            assert (out["op"], out["path"]) == (change.op, change.path)
            assert model.SCHEMAS[container].from_json(out["value"], container) == change.value
    elif frame.type == southbound.CONFIG:
        assert model.document_from_json(obj["doc"]) == frame.doc
    elif frame.type == southbound.ERROR:
        assert (obj["code"], obj["detail"]) == (frame.error["code"], frame.error["detail"])


def test_frame_wire_shape_matches_contract():
    frame = Frame(
        5,
        southbound.EDIT_CONFIG,
        changes=(ConfigChange(southbound.MERGE, "peers/aj", peer("aj")),),
    )
    obj = frame.to_json()
    assert obj["txn"] == 5
    assert obj["type"] == "edit-config"
    assert obj["changes"][0]["op"] == "merge"
    assert obj["changes"][0]["path"] == "peers/aj"
    assert obj["changes"][0]["value"]["peer_id"] == "aj"
    note = Frame(0, southbound.NOTIFICATION, note=Notification.acquire_route("ai", Realm.parse("realm.org")))
    obj = note.to_json()
    assert obj == {"txn": 0, "type": "notification", "note": {"kind": "acquire-route", "node": "ai", "realm": "realm.org"}}
