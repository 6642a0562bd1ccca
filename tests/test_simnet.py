import gc
import heapq
import json
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    FIXTURES,
    GOLDEN,
    SCENARIOS,
    build,
    chain_nodes,
    gen_random_topology,
    inject,
    make_scenario,
    scenario_for_topology,
)
from sdnaaa import model, node as node_mod, simnet
from sdnaaa.model import AaaMessage, CodedError
from sdnaaa.southbound import (
    CONFIG,
    DELETE,
    EDIT_CONFIG,
    ERROR,
    GET_CONFIG,
    MERGE,
    NOTIFICATION,
    OK,
    ConfigChange,
    Frame,
)
from sdnaaa.simnet import EventLoop, Simulation, load_scenario


# ---------------------------------------------------------------------------
# event loop


def test_event_loop_breaks_ties_by_insertion_order():
    loop = EventLoop()
    seen = []
    loop.call_at(5, lambda: seen.append("first"))
    loop.call_at(5, lambda: seen.append("second"))
    loop.call_at(4, lambda: seen.append("earlier"))
    loop.run_until(10)
    assert seen == ["earlier", "first", "second"]
    assert loop.now == 10


def test_event_loop_never_schedules_into_the_past():
    loop = EventLoop()
    fired = []
    loop.call_at(3, lambda: loop.call_at(1, lambda: fired.append(loop.now)))
    loop.run_until(10)
    assert fired == [3]


class _HeapLoop:
    """Reference scheduler: one heap of (time, seq, fn) over every callback."""

    def __init__(self):
        self.now = 0
        self._heap = []
        self._seq = 0

    def call_at(self, time, fn):
        heapq.heappush(self._heap, (max(time, self.now), self._seq, fn))
        self._seq += 1

    def call_later(self, delay, fn):
        self.call_at(self.now + delay, fn)

    def run_until(self, stop_time):
        while self._heap and self._heap[0][0] <= stop_time:
            self.now, _seq, fn = heapq.heappop(self._heap)
            fn()
        self.now = max(self.now, stop_time)


def _random_schedule(rng):
    """Segments of (roots, stop time), and what each callback schedules when
    it runs: (method, argument, child) triples. Absolute times fall in a
    narrow window, so many share a tick and many are already past."""
    children = []

    def spawn(depth):
        cid = len(children)
        children.append([])
        for _ in range(rng.choice((0, 0, 1, 2, 3)) if depth < 4 else 0):
            if rng.random() < 0.5:
                step = ("call_later", rng.choice((0, 0, 0, 1, 2, 5)))
            else:
                step = ("call_at", rng.randint(0, 30))
            children[cid].append((*step, spawn(depth + 1)))
        return cid

    stops = sorted(rng.randint(0, 40) for _ in range(rng.randint(1, 4))) + [10**6]
    segments = [([(rng.randint(0, 30), spawn(0)) for _ in range(rng.randint(0, 8))], stop)
                for stop in stops]
    return segments, children


def _play(loop, segments, children):
    """(callback, now) at each call and (None, now) after each run_until."""
    seen = []

    def make(cid):
        def fn():
            seen.append((cid, loop.now))
            for method, argument, child in children[cid]:
                getattr(loop, method)(argument, make(child))
        return fn

    for roots, stop in segments:
        for time, cid in roots:
            loop.call_at(time, make(cid))
        loop.run_until(stop)
        seen.append((None, loop.now))
    return seen


def test_event_loop_runs_callbacks_in_the_order_of_a_time_seq_heap():
    rng = random.Random(20261018)
    zero_delay = clamped = largest_tick = 0
    for _ in range(300):
        segments, children = _random_schedule(rng)
        seen = _play(EventLoop(), segments, children)
        assert seen == _play(_HeapLoop(), segments, children)
        runs = {cid: now for cid, now in seen if cid is not None}
        largest_tick = max(largest_tick, *Counter(runs.values()).values(), 0)
        for cid, steps in enumerate(children):
            for method, argument, _child in steps:
                if cid in runs:
                    zero_delay += method == "call_later" and argument == 0
                    clamped += method == "call_at" and argument < runs[cid]
    assert zero_delay > 1000 and clamped > 1000 and largest_tick >= 20


def test_a_wrapper_of_call_at_sees_callbacks_scheduled_by_call_later(monkeypatch):
    """The benchmark counts events by replacing ``EventLoop.call_at`` on the
    class; ``call_later`` must reach it."""
    original = EventLoop.__dict__["call_at"]
    scheduled, ran = [], []

    def call_at(loop, when, fn):
        scheduled.append(when)
        return original(loop, when, lambda: (ran.append(when), fn()))

    monkeypatch.setattr(EventLoop, "call_at", call_at)
    loop = EventLoop()
    loop.call_later(3, lambda: loop.call_later(0, lambda: None))
    loop.call_at(1, lambda: loop.call_later(4, lambda: None))
    loop.run_until(10)
    assert scheduled == [3, 1, 5, 3]
    assert ran == [1, 3, 3, 5]


# ---------------------------------------------------------------------------
# scenario loading


def test_load_chain_fixture(chain_text):
    scenario = load_scenario(chain_text)
    assert sorted(scenario.topology.nodes) == ["ac", "ah", "ai", "aj", "at"]
    assert len(scenario.policies) == 1
    assert scenario.policies[0].home_node == "ah"
    assert scenario.mode == "PROACTIVE"


def test_event_referencing_unknown_node(chain_text):
    obj = json.loads(chain_text)
    obj["events"].append({"time": 60, "kind": "node-down", "node": "zz"})
    with pytest.raises(CodedError) as err:
        load_scenario(json.dumps(obj))
    assert err.value.code == "UNKNOWN_NODE"


def test_events_out_of_order(chain_text):
    obj = json.loads(chain_text)
    obj["events"] = [
        {"time": 60, "kind": "node-down", "node": "ai"},
        {"time": 10, "kind": "node-up", "node": "ai"},
    ]
    with pytest.raises(CodedError) as err:
        load_scenario(json.dumps(obj))
    assert err.value.code == "UNSORTED_EVENTS"


# A load mutant is a fixture with one member or list item replaced by each
# of these JSON values, deleted, or (an object member) renamed to "".
_MUTANT_VALUES = ("null", "true", "1.5", "-1", "0", '""', "[]", "{}", '["x"]')


def _member_paths(value, path=()):
    items = value.items() if type(value) is dict else enumerate(value) if type(value) is list else ()
    for key, item in items:
        yield path + (key,)
        yield from _member_paths(item, path + (key,))


def _load_mutants(text: str):
    """(path, mutation, mutated scenario object) for each load mutant of ``text``."""
    for path in _member_paths(json.loads(text)):
        for mutation in (*_MUTANT_VALUES, "delete", "rename"):
            obj = json.loads(text)
            *head, key = path
            parent = obj
            for step in head:
                parent = parent[step]
            if mutation == "rename":
                if type(key) is int:
                    continue
                members = {("" if k == key else k): v for k, v in parent.items()}
                parent.clear()
                parent.update(members)
            elif mutation == "delete":
                del parent[key]
            else:
                parent[key] = json.loads(mutation)
            yield path, mutation, obj


def _load_and_run(obj) -> str:
    """Load ``obj``: "coded" when that raises a CodedError, "ran" when the run
    and its transcript then complete."""
    try:
        scenario = simnet.scenario_from_dict(obj)
    except CodedError:
        return "coded"
    sim = Simulation(scenario)
    sim.run()
    sim.transcript.to_ndjson()
    return "ran"


@pytest.mark.parametrize("name,mutants", [("chain", 524), ("loop", 729)])
def test_every_load_mutant_is_a_coded_load_error_or_runs(name, mutants):
    outcomes = Counter()
    failed = []
    for path, mutation, obj in _load_mutants((FIXTURES / f"{name}.json").read_text()):
        try:
            outcomes[_load_and_run(obj)] += 1
        except Exception as err:  # collected, so the assert lists every failing mutant
            failed.append((path, mutation, repr(err)))
    assert failed == []
    assert sum(outcomes.values()) == mutants and outcomes["coded"] and outcomes["ran"]


def test_a_static_peer_with_an_empty_id_is_refused_by_the_node_and_written_redacted(loop_text):
    obj = json.loads(loop_text)
    obj["static_config"]["x"]["peers"][0]["peer_id"] = ""
    sim = Simulation(simnet.scenario_from_dict(obj))
    sim.run()
    records = sim.transcript.records
    [merge] = [c for r in records if r["direction"] == "c2n" and r["actor"] == "x"
               for c in r["frame"].get("changes", []) if c["path"] == "peers/"]
    assert merge["value"]["peer_id"] == ""
    assert merge["value"]["credential"]["secret"] == model.REDACTED
    replies = [r["frame"] for r in records if r["direction"] == "n2c" and r["actor"] == "x"]
    assert {"code": "BAD_PATH", "detail": ["BAD_PATH: peers/"]}.items() <= replies[0].items()


def test_bad_json_is_parse_error():
    with pytest.raises(CodedError) as err:
        load_scenario("{not json")
    assert err.value.code == "PARSE_ERROR"


@pytest.mark.parametrize(
    "mutate,code",
    [
        (lambda o: o.pop("stop_time"), "PARSE_ERROR"),
        (lambda o: o.update(surprise=1), "PARSE_ERROR"),
        (lambda o: o.update(mode="LAZY"), "PARSE_ERROR"),
        (lambda o: o["topology"]["links"].append(["ac", "zz"]), "UNKNOWN_NODE"),
        (lambda o: o["topology"]["homes"].update({"realm.org": "ai"}), "PARSE_ERROR"),
        (lambda o: o["policies"].append("route realm.org via ghost security tls"), "UNKNOWN_HOME_NODE"),
        (lambda o: o["policies"].append("route realm.org via ai security psk"), "DUPLICATE_PATTERN"),
        (lambda o: o["events"].append({"time": 999, "kind": "mystery"}), "PARSE_ERROR"),
    ],
)
def test_scenario_shape_errors(chain_text, mutate, code):
    obj = json.loads(chain_text)
    mutate(obj)
    with pytest.raises(CodedError) as err:
        load_scenario(json.dumps(obj))
    assert err.value.code == code


# ---------------------------------------------------------------------------
# runs: determinism, conservation, modes


def test_same_scenario_runs_identically(chain_text):
    runs = []
    for _ in range(2):
        metrics, transcript = simnet.run(load_scenario(chain_text))
        runs.append((metrics.to_text(), transcript.to_ndjson()))
    assert runs[0] == runs[1]


def test_run_encodes_nothing_until_the_transcript_is_written(chain_text, monkeypatch):
    calls = {"message": 0, "frame": 0}

    def counted(key, encode):
        def wrapper(*args):
            calls[key] += 1
            return encode(*args)
        return wrapper

    monkeypatch.setattr(simnet, "_message_text", counted("message", simnet._message_text))
    monkeypatch.setattr(simnet, "_frame_text", counted("frame", simnet._frame_text))
    sim = Simulation(load_scenario(chain_text))
    sim.run()
    assert calls == {"message": 0, "frame": 0}

    lines = [json.loads(line) for line in sim.transcript.to_ndjson().splitlines()]
    assert sum("frame" in r for r in lines) == calls["frame"] == 12
    # one text per distinct message object: a response is the same object on
    # its return hop and in its done record, so 8 message lines share 5 texts
    assert sum("message" in r for r in lines) == 8
    assert calls["message"] == 5


def test_transcript_refuses_a_self_referencing_payload():
    # the encoder skips json's circular-reference check; a cycle must still fail
    cycle: dict = {}
    cycle["self"] = cycle
    nai = model.parse_nai("alice@realm.org")
    message = AaaMessage("m1", model.MsgKind.REQUEST, nai, nai.realm, cycle)
    for record in ((0, "x", "snapshot", cycle), (0, "x", "inject", message),
                   (0, "x", "fwd", "y", message)):
        transcript = simnet.Transcript()
        transcript.add(record)
        with pytest.raises((ValueError, RecursionError)):
            transcript.to_ndjson()


# Every record is a tuple of the time, the actor, the direction and one value
# per payload key that RECORD_KEYS names for the direction.
@pytest.mark.parametrize("mode", [simnet.PROACTIVE, simnet.REACTIVE])
@pytest.mark.parametrize("name", SCENARIOS)
def test_every_record_opens_with_time_actor_direction(monkeypatch, name, mode):
    added = []
    add = simnet.Transcript.add

    def recorded(self, record):
        added.append(record)
        add(self, record)

    monkeypatch.setattr(simnet.Transcript, "add", recorded)
    simnet.run(build(name, mode))
    assert added
    for record in added:
        assert type(record) is tuple, record
        time, actor, direction = record[:3]
        assert type(time) is int and type(actor) is str and type(direction) is str, record
        assert direction in simnet.RECORD_KEYS, record
        assert len(record) == 3 + len(simnet.RECORD_KEYS[direction]), record


# The transcript's bytes are json's: the oracle is json.dumps of each
# record's dict, its payload keys from RECORD_KEYS, with each payload's
# to_json as the default, a frame's with its entities' key material redacted.


def _redacted_json(frame: Frame) -> dict:
    """``frame.to_json()`` with each entity's ``secret`` and ``local_key`` as REDACTED."""
    obj = frame.to_json()
    entities = [c["value"] for c in obj.get("changes", []) if "value" in c]
    entities += [e for entries in obj.get("doc", {}).values() for e in entries]
    for entity in entities:
        if "local_key" in entity:
            entity["local_key"] = model.REDACTED
        if "secret" in entity.get("credential", {}):
            entity["credential"]["secret"] = model.REDACTED
    return obj


def _to_json(value):
    return _redacted_json(value) if type(value) is Frame else value.to_json()


def _oracle_ndjson(records) -> str:
    # json writes a message, a tuple, as an array without calling default:
    # a message payload goes in as its to_json()
    return "".join(
        json.dumps({"time": time, "actor": actor, "direction": direction,
                    **{key: value.to_json() if type(value) is AaaMessage else value
                       for key, value in zip(simnet.RECORD_KEYS[direction], payload, strict=True)}},
                   separators=(",", ":"), default=_to_json) + "\n"
        for time, actor, direction, *payload in records
    )


def _written(records) -> str:
    transcript = simnet.Transcript()
    for record in records:
        transcript.add(record)
    return transcript.to_ndjson()


TEXT = st.text()  # non-ASCII, astral, control characters, quotes, backslashes
BIG_INTS = st.integers(-(2**70), 2**70)
PLAIN = st.recursive(
    st.none() | st.booleans() | BIG_INTS | st.floats() | TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT | BIG_INTS, inner, max_size=3),
    max_leaves=8,
)
# a pattern, like a realm, is its key text, which the writer takes as any string
PATTERNS = st.just("*") | TEXT
KEY_BYTES = st.binary(max_size=64) | st.just(model.REDACTED)
EXPIRATIONS = st.none() | BIG_INTS
ENTITIES = {
    "peers": st.builds(
        model.PeerEntry, TEXT, TEXT, TEXT, BIG_INTS, st.sampled_from(model.Transport),
        st.builds(model.SharedSecret, KEY_BYTES) | st.builds(model.TlsRef, TEXT), EXPIRATIONS),
    "routing": st.builds(
        model.RealmEntry, PATTERNS, st.none() | TEXT, st.sampled_from(model.Action),
        st.lists(TEXT, max_size=3).map(tuple), EXPIRATIONS),
    "tls": st.builds(model.TlsProfile, TEXT, TEXT, KEY_BYTES, st.frozensets(TEXT, max_size=3)),
    "attributes": st.builds(
        model.AttributeRule, TEXT, st.sampled_from(model.Direction), st.sampled_from(model.RuleOp),
        TEXT, st.none() | TEXT),
}
CHANGES = st.one_of(*[
    # a merge's path may be one the node rejects ("peers/", "x"): its value is written by class
    st.builds(lambda path, entity: ConfigChange(MERGE, path, entity),
              st.just(f"{container}/x") | st.just(f"{container}/") | TEXT, entity)
    | st.builds(ConfigChange, st.just(DELETE), TEXT.map(
                  lambda key, container=container: f"{container}/x{key}"))
    for container, entity in ENTITIES.items()
])
DOCUMENTS = st.builds(model.ConfigDocument, **{
    container: st.lists(entity, max_size=2).map(
        lambda entities, container=container: {
            model.entry_key(container, e): e for e in entities})
    for container, entity in ENTITIES.items()
})
NOTES = st.builds(model.Notification, TEXT, TEXT, st.none() | TEXT, st.none() | TEXT,
                  st.none() | PATTERNS)
FRAMES = st.one_of(
    st.builds(Frame, BIG_INTS, st.sampled_from([OK, GET_CONFIG]) | TEXT),
    st.builds(lambda txn, code, detail: Frame(txn, ERROR, error={"code": code, "detail": detail}),
              BIG_INTS, TEXT, st.lists(TEXT, max_size=2) | PLAIN),
    st.builds(lambda txn, code: Frame(txn, ERROR, error={"code": code}), BIG_INTS, TEXT),
    st.builds(lambda txn, note: Frame(txn, NOTIFICATION, note=note), BIG_INTS, NOTES),
    st.builds(lambda txn, changes: Frame(txn, EDIT_CONFIG, changes=tuple(changes)),
              BIG_INTS, st.lists(CHANGES, max_size=4)),
    st.builds(lambda txn, doc: Frame(txn, CONFIG, doc=doc), BIG_INTS, DOCUMENTS),
)


@given(FRAMES)
def test_frame_text_equals_json_of_the_redacted_frame(frame):
    expected = json.dumps(_redacted_json(frame), separators=(",", ":"))
    assert simnet._frame_text(frame, simnet._Texts()) == expected


@st.composite
def messages(draw):
    """A request and its forward copies, which share its attribute map (its
    values mostly strings, the others written by the encoder), a response
    built from the last copy, a request with an empty map, and messages that
    share the request's map but differ from it in id, kind, NAI or realm."""
    nai = model.Nai(draw(TEXT), draw(TEXT))
    request = AaaMessage(draw(TEXT), model.MsgKind.REQUEST, nai, nai.realm,
                         draw(st.dictionaries(TEXT, TEXT | PLAIN, max_size=3)))
    family = [request]
    for hop in draw(st.lists(TEXT, max_size=3)):
        family.append(family[-1]._replace(hop_trace=family[-1].hop_trace + (hop,)))
    family.append(family[-1]._replace(
        kind=model.MsgKind.RESPONSE, attributes={},
        status=draw(st.sampled_from(["accept", "reject", "error"]) | TEXT),
        error=draw(st.none() | TEXT),
    ))
    family.append(AaaMessage(draw(TEXT), model.MsgKind.REQUEST, nai, nai.realm, {}))
    other_nai = model.Nai(draw(TEXT), draw(TEXT))
    family += [
        request._replace(msg_id=draw(TEXT)),
        request._replace(kind=model.MsgKind.RESPONSE),
        request._replace(nai=other_nai),
        request._replace(dest_realm=other_nai.realm),
    ]
    return family


@st.composite
def transcripts(draw):
    """Records of every direction; each payload value a message (for the
    ``message`` key), a frame (for ``frame``) or any plain value."""
    pool = draw(st.lists(messages(), min_size=1, max_size=2).map(lambda fs: sum(fs, [])))
    values = {"message": st.sampled_from(pool) | PLAIN, "frame": FRAMES | PLAIN}
    records = []
    for direction in draw(st.lists(st.sampled_from(list(simnet.RECORD_KEYS)), min_size=1,
                                   max_size=12)):
        payload = [draw(values.get(key, PLAIN)) for key in simnet.RECORD_KEYS[direction]]
        records.append((draw(BIG_INTS), draw(TEXT), direction, *payload))
    return records


@given(transcripts())
def test_transcript_bytes_equal_json_of_each_record(records):
    assert _written(records) == _oracle_ndjson(records)


@given(messages().flatmap(st.permutations))
def test_message_texts_equal_json_in_any_order(family):
    # every message of a family in one batch, so each shares its attribute map
    # with messages written before it in any order
    records = [(0, "a", "done", message) for message in family]
    assert _written(records) == _oracle_ndjson(records)


@pytest.mark.parametrize("mode", [simnet.PROACTIVE, simnet.REACTIVE])
@pytest.mark.parametrize("name", SCENARIOS)
def test_transcript_bytes_equal_json_of_each_record_on_every_scenario(name, mode):
    _metrics, transcript = simnet.run(build(name, mode))
    assert transcript.to_ndjson() == _oracle_ndjson(transcript._entries)


def test_transcript_bytes_equal_json_when_a_message_recurs_batches_later():
    # 7500 records span four of the writer's 2000-record batches, so each
    # message recurs after the memo that held its text was dropped
    nai = model.parse_nai("\u00e9l\U0001f600se@realm.org")
    request = AaaMessage("m1", model.MsgKind.REQUEST, nai, nai.realm, {"pass\"word": "p\\w"})
    forwarded = request._replace(hop_trace=("a", "b"))
    answer = forwarded._replace(kind=model.MsgKind.RESPONSE, attributes={}, status="error",
                                error="CHANNEL_FAILED")
    records = []
    for i in range(1500):
        records.append((i, "a", "fwd", "b", (request, forwarded, answer)[i % 3]))
        records.append((i, "b", "n2c", Frame(i, OK)))
        records.append((2**64 + i, "\n", "done", answer))
        records.append((i, "b", "channel-failed", None, i / 7, forwarded))
        records.append((i, "controller", "snapshot", {"ok": i % 2 == 0, "ratio": i / 7}))
    assert _written(records) == _oracle_ndjson(records)


def test_each_nai_is_parsed_once_per_load_and_shared(monkeypatch):
    parsed = []
    seen = []
    split_nai = model.split_nai
    handle_message = node_mod.Node.handle_message

    def counted(text):
        parsed.append(text)
        return split_nai(text)

    def recorded(self, msg, now):
        seen.append(msg)
        return handle_message(self, msg, now)

    monkeypatch.setattr(model, "split_nai", counted)
    monkeypatch.setattr(node_mod.Node, "handle_message", recorded)
    nodes, links, homes = chain_nodes()
    nodes["ah"]["users"]["bob"] = "bob-pw"
    users = [("alice@realm.org", "alice-pw"), ("bob@realm.org", "bob-pw")] * 3
    scenario = make_scenario(
        nodes, links, homes, policies=["route realm.org via ah security tls"],
        events=[inject(50 + i, "ac", nai, pw) for i, (nai, pw) in enumerate(users)],
    )
    assert sorted(parsed) == ["alice@realm.org", "bob@realm.org"]
    loaded = {ev.nai.text: ev.nai for ev in scenario.events}
    assert [ev.nai for ev in scenario.events] == [loaded[nai] for nai, _ in users]
    assert all(ev.nai is loaded[ev.nai.text] for ev in scenario.events)

    metrics, _ = Simulation(scenario).run()
    assert metrics.delivered == 6
    assert len(parsed) == 2
    # every request, forwarded copy and response of one NAI holds its events' Nai
    assert {msg.nai.text for msg in seen} == set(loaded)
    for msg in seen:
        assert msg.nai is loaded[msg.nai.text] and msg.dest_realm is msg.nai.realm


def test_each_realm_is_one_realm_object_the_served_one_where_a_node_serves_it():
    nodes, links, homes = chain_nodes()
    nodes["ah"]["users"]["bob"] = "bob-pw"
    nais = ["alice@realm.org", "bob@realm.org", "bob@Realm.ORG", "u@none.org", "v@none.org"]
    scenario = make_scenario(
        nodes, links, homes, policies=["route realm.org via ah security tls"],
        events=[inject(50 + i, "ac", nai, "pw") for i, nai in enumerate(nais)],
    )
    [served] = scenario.topology.nodes["ah"].served_realms
    loaded = {text: ev.nai for text, ev in zip(nais, scenario.events)}
    assert {text: nai.realm is served for text, nai in loaded.items()} == {
        "alice@realm.org": True, "bob@realm.org": True, "bob@Realm.ORG": True,
        "u@none.org": False, "v@none.org": False,
    }
    assert loaded["u@none.org"].realm is loaded["v@none.org"].realm
    assert loaded["bob@Realm.ORG"].text == "bob@realm.org"


def test_proactive_provisions_before_injection(chain_text):
    metrics, transcript = simnet.run(load_scenario(chain_text))
    assert metrics.delivered == 1
    inject_time = next(r["time"] for r in transcript.records if r["direction"] == "inject")
    frame_times = [r["time"] for r in transcript.records if "frame" in r and r["direction"] == "c2n"]
    assert frame_times and max(frame_times) < inject_time
    assert metrics.notifications.get("acquire-route", 0) == 0


def test_reactive_acquires_before_delivery(chain_text):
    scenario = load_scenario(chain_text)
    scenario.mode = "REACTIVE"
    metrics, transcript = simnet.run(scenario)
    assert metrics.delivered == 1
    assert metrics.notifications["acquire-route"] >= 1
    first_acquire = next(
        r["time"] for r in transcript.records
        if r.get("frame", {}).get("type") == "notification"
        and r["frame"]["note"]["kind"] == "acquire-route"
    )
    done_time = next(r["time"] for r in transcript.records if r["direction"] == "done")
    assert first_acquire < done_time


def conservation(metrics) -> bool:
    return (
        metrics.injected
        == metrics.delivered + metrics.rejected + metrics.errored + metrics.still_pending
    )


@pytest.mark.parametrize("mode", [simnet.PROACTIVE, simnet.REACTIVE])
@pytest.mark.parametrize("name", SCENARIOS)
def test_every_request_ends_once_or_is_still_pending(name, mode):
    metrics, transcript = simnet.run(build(name, mode))
    records = transcript.records
    injected = [r["message"]["msg_id"] for r in records if r["direction"] == "inject"]
    ended = Counter(r["message"]["msg_id"] for r in records if r["direction"] == "done")
    assert len(injected) == metrics.injected > 0
    assert set(ended) <= set(injected) and max(ended.values(), default=1) == 1
    assert sum(msg_id not in ended for msg_id in injected) == metrics.still_pending
    assert conservation(metrics), metrics.to_text()


def test_conservation_with_mid_run_failures():
    nodes, links, homes = chain_nodes()
    events = [inject(50, "ac", "alice@realm.org", "alice-pw")]
    events += [{"time": 60, "kind": "node-down", "node": "aj"}]
    events += [inject(t, "ac", "alice@realm.org", "alice-pw") for t in range(70, 80)]
    events += [{"time": 95, "kind": "node-up", "node": "aj"}]
    events += [inject(120, "ac", "alice@realm.org", "alice-pw")]
    scenario = make_scenario(
        nodes, links, homes, policies=["route realm.org via ah security psk"],
        events=events, stop_time=8000,
    )
    metrics, _ = simnet.run(scenario)
    assert conservation(metrics), metrics.to_text()
    # the chain has no alternate path around aj; parked messages must be
    # released once the recovered channel comes back up
    assert metrics.delivered == 12


def test_snapshot_event_recorded_in_transcript(diamond_text):
    sim = Simulation(load_scenario(diamond_text))
    _metrics, transcript = sim.run()
    snaps = [r for r in transcript.records if r["direction"] == "snapshot"]
    assert len(snaps) == 2
    assert snaps[0]["actor"] == "controller"
    assert "adjacencies" in snaps[0]["snapshot"]


def test_node_down_loses_in_flight_messages():
    nodes, links, homes = chain_nodes()
    # kill the next hop while the message is on the wire to it
    events = [
        inject(50, "ac", "alice@realm.org", "alice-pw"),
        {"time": 52, "kind": "node-down", "node": "ai"},
    ]
    scenario = make_scenario(
        nodes, links, homes, policies=["route realm.org via ah security psk"],
        events=events, stop_time=300,
    )
    metrics, transcript = simnet.run(scenario)
    assert conservation(metrics)
    # the request ends where it was lost, once, and is not left pending
    assert (metrics.injected, metrics.lost_in_flight, metrics.errored, metrics.still_pending,
            metrics.delivered) == (1, 1, 1, 0, 0)
    assert metrics.error_codes == {"LOST_IN_FLIGHT": 1}
    done = [r for r in transcript.records if r["direction"] == "done"]
    assert [(r["actor"], r["message"]["status"], r["message"]["error"]) for r in done] == [
        ("ai", "error", "LOST_IN_FLIGHT")]


def test_requests_parked_at_a_node_that_goes_down_end_node_down():
    nodes, links, homes = chain_nodes()
    # reactive: each request parks at ac, waiting for its route, when ac goes down
    events = [inject(50, "ac", nai, "alice-pw")
              for nai in ("alice@realm.org", "alice@none.org", "bob@realm.org")]
    events.append({"time": 51, "kind": "node-down", "node": "ac"})
    scenario = make_scenario(
        nodes, links, homes, policies=["route realm.org via ah security psk"],
        mode=simnet.REACTIVE, events=events, stop_time=8000,
    )
    metrics, transcript = simnet.run(scenario)
    assert (metrics.injected, metrics.errored, metrics.still_pending, metrics.lost_in_flight) == (3, 3, 0, 0)
    assert metrics.error_codes == {"NODE_DOWN": 3}
    # once each, after the node-down record, queue by queue, each front to back
    records = [r for r in transcript.records if r["direction"] in ("node-down", "done")]
    assert [(r["time"], r["actor"], r["direction"]) for r in records] == [
        (51, "ac", "node-down")] + [(51, "ac", "done")] * 3
    assert [(r["message"]["msg_id"], r["message"]["status"], r["message"]["error"])
            for r in records[1:]] == [(msg_id, "error", "NODE_DOWN")
                                      for msg_id in ("m000001", "m000003", "m000002")]


@pytest.mark.parametrize("mode", [simnet.PROACTIVE, simnet.REACTIVE])
@pytest.mark.parametrize("node", ["ac", "ai", "aj"])
def test_a_request_waiting_on_a_handshake_ends_once_when_its_node_goes_down(node, mode):
    """The chain fixture's one request, with a node-down of a node on its
    path at each tick of its journey: it ends exactly once, also when it
    waits on that node's handshake (NODE_DOWN)."""
    base = json.loads((FIXTURES / "chain.json").read_text())
    codes = Counter()
    for time in range(50, 80):
        obj = {**base, "mode": mode, "stop_time": 8000,
               "events": [*base["events"], {"time": time, "kind": "node-down", "node": node}]}
        metrics, transcript = simnet.run(simnet.scenario_from_dict(obj))
        [injected] = [r["message"]["msg_id"] for r in transcript.records if r["direction"] == "inject"]
        done = [r["message"] for r in transcript.records if r["direction"] == "done"]
        assert [m["msg_id"] for m in done] == [injected], time
        assert metrics.still_pending == 0, time
        codes[done[0].get("error")] += 1
    assert codes["NODE_DOWN"] > 0


@pytest.mark.parametrize("mode", [simnet.PROACTIVE, simnet.REACTIVE])
def test_an_inject_at_a_down_client_is_lost_and_ends_errored(mode):
    nodes, links, homes = chain_nodes()
    nodes["ac"]["state"] = "DOWN"
    scenario = make_scenario(
        nodes, links, homes, policies=["route realm.org via ah security tls"], mode=mode,
        events=[inject(50, "ac", "alice@realm.org", "alice-pw")], stop_time=300,
    )
    metrics, transcript = simnet.run(scenario)
    assert (metrics.injected, metrics.lost_in_flight, metrics.errored, metrics.still_pending,
            metrics.delivered) == (1, 1, 1, 0, 0)
    assert metrics.error_codes == {"LOST_IN_FLIGHT": 1}
    records = [r for r in transcript.records if r["actor"] == "ac"]
    assert [r["direction"] for r in records] == ["inject", "done"]
    assert records[1]["time"] == 50
    assert records[1]["message"] == {**records[0]["message"], "status": "error",
                                     "error": "LOST_IN_FLIGHT"}


# ---------------------------------------------------------------------------
# the channel map


def channel_violations(sim: Simulation) -> list[str]:
    """Channels that break what sending over ``Node.channels`` relies on:
    each channel's peer entry exists and its host is the mapped node, and
    no channel starts or ends at a DOWN node."""
    out = []
    for nid, n in sim.nodes.items():
        for peer_id, peer in n.channels.items():
            entry = n.running.peers.get(peer_id)
            where = f"t={sim.loop.now} {nid}->{peer_id}"
            if entry is None:
                out.append(f"{where}: no peer entry")
            elif sim.network.by_address.get(entry.host) is not peer:
                out.append(f"{where}: mapped to {peer.node_id}, entry host {entry.host}")
            if not (n.is_up() and peer.is_up()):
                out.append(f"{where}: an end is DOWN")
    return out


@pytest.mark.parametrize("mode", [simnet.PROACTIVE, simnet.REACTIVE])
@pytest.mark.parametrize("name", sorted({name for name, _mode in GOLDEN}))
def test_each_channel_maps_its_peer_entry_to_the_hosts_node_after_every_tick(name, mode):
    sim = Simulation(build(name, mode))
    violations, channels_seen = [], 0
    for tick in range(sim.scenario.stop_time + 1):
        sim.loop.run_until(tick)
        violations += channel_violations(sim)
        channels_seen += sum(len(n.channels) for n in sim.nodes.values())
    assert violations == []
    assert channels_seen > 0


@pytest.mark.parametrize("mode", [simnet.PROACTIVE, simnet.REACTIVE])
@pytest.mark.parametrize("name", SCENARIOS)
def test_forward_counters_equal_the_fwd_records_they_count(name, mode):
    # node.forwards_per_answered in the benchmark's traced run reads Node.forwards
    sim = Simulation(build(name, mode))
    sim.run()
    sent = Counter(
        "message" if "msg_id" in r["message"] else r["message"]["kind"]
        for r in sim.transcript.records if r["direction"] == "fwd"
    )
    nodes = sim.nodes.values()
    assert sum(n.forwards for n in nodes) == sent["message"] > 0
    assert sum(n.redirect_queries_sent for n in nodes) == sent["redirect-query"]
    assert sent["redirect-query"] > 0 or name != "redirect-fabric"


@pytest.mark.parametrize("mode", [simnet.PROACTIVE, simnet.REACTIVE])
@pytest.mark.parametrize("name", SCENARIOS)
def test_a_run_leaves_nothing_for_the_cyclic_collector(name, mode):
    """Every object a run drops is freed by reference counting: with the
    collector paused around run(), a collection afterwards finds nothing."""
    sim = Simulation(build(name, mode))
    gc.collect()
    gc.disable()
    try:
        sim.run()
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# inspect-style replay


def test_replay_matches_get_config_view(chain_text):
    from sdnaaa import model

    scenario = load_scenario(chain_text)
    sim = Simulation(scenario)
    sim.run_until(40)
    replayed = model.redact(sim.nodes["ai"].running)
    reply = sim.controller.get_node_config("ai")
    sim.loop.run_until(sim.loop.now + 10)
    assert reply.value == replayed


# ---------------------------------------------------------------------------
# random topologies


def test_gen_random_topology_is_deterministic():
    a = gen_random_topology(7, 5, 0.5)
    b = gen_random_topology(7, 5, 0.5)
    assert a.allowed_links == b.allowed_links
    assert {n: (i.role, i.address) for n, i in a.nodes.items()} == {
        n: (i.role, i.address) for n, i in b.nodes.items()
    }


def test_gen_random_topology_full_probability_is_complete():
    t = gen_random_topology(1, 3, 1.0)
    assert len(t.allowed_links) == 3


def test_gen_random_topology_outputs_are_connected():
    for seed in range(30):
        t = gen_random_topology(seed, 3 + seed % 10, 0.4)
        names = sorted(t.nodes)
        seen = {names[0]}
        frontier = [names[0]]
        while frontier:
            n = frontier.pop()
            for m in t.adjacent[n]:
                if m not in seen:
                    seen.add(m)
                    frontier.append(m)
        assert seen == set(names)


def test_gen_random_topology_roles():
    t = gen_random_topology(3, 6, 0.6, realms=("realm.org", "other.net"))
    roles = [info.role for info in t.nodes.values()]
    assert roles.count("SERVER") == 2
    assert roles.count("CLIENT") == 1
    assert t.home_of == {"realm.org": "n00", "other.net": "n01"}


def test_gen_random_topology_gives_up_when_impossible():
    with pytest.raises(CodedError) as err:
        gen_random_topology(1, 16, 0.01)
    assert err.value.code == "GIVE_UP"


@pytest.mark.parametrize("bad", [(2, 0.5), (65, 0.5), (5, 0.0), (5, 1.5)])
def test_gen_random_topology_rejects_bad_args(bad):
    n, p = bad
    with pytest.raises(CodedError) as err:
        gen_random_topology(1, n, p)
    assert err.value.code == "BAD_ARGS"


# ---------------------------------------------------------------------------
# reactive convergence and FIFO burst delivery


def test_reactive_routes_converge_to_shortest_paths():
    from conftest import fw_distances

    for seed in range(20):
        topology = gen_random_topology(seed, 4 + seed % 8, 0.5)
        home = topology.home_of["realm.org"]
        client = next(n for n, i in topology.nodes.items() if i.role == "CLIENT")
        scenario = scenario_for_topology(
            topology, seed=seed, mode="REACTIVE",
            policy_lines=f"route realm.org via {home} security psk",
            users={home: {"u": "pw"}},
            events=[simnet.Event(10, "inject", node=client, nai=model.parse_nai("u@realm.org"),
                                 password="pw")],
            stop_time=2000,
        )
        sim = Simulation(scenario)
        metrics, _ = sim.run()
        assert metrics.delivered == 1, f"seed {seed}"
        dist = fw_distances(topology)
        assert metrics.hops["m000001"] == 1 + dist[client][home], f"seed {seed}"
        # every reactively installed relay route points one step closer to home
        for node_id, entry in sim.controller.ledger.items():
            route = entry["routes"].get("realm.org")
            if route is None or route["action"] != "relay":
                continue
            assert dist[route["next_hop"]][home] == dist[node_id][home] - 1


def test_reactive_burst_is_single_shot_and_fifo():
    nodes, links, homes = chain_nodes()
    events = [inject(50, "ac", "alice@realm.org", "alice-pw") for _ in range(5)]
    scenario = make_scenario(
        nodes, links, homes, policies=["route realm.org via ah security tls"],
        mode="REACTIVE", events=events, stop_time=4000,
    )
    metrics, transcript = simnet.run(scenario)
    assert metrics.injected == 5 and metrics.delivered == 5
    acquires = [
        r["frame"]["note"]["node"] for r in transcript.records
        if r.get("frame", {}).get("type") == "notification"
        and r["frame"]["note"]["kind"] == "acquire-route"
    ]
    assert acquires == ["ac", "ai", "aj"]  # exactly one per path node
    # arrival order at the home server equals injection order
    assert list(metrics.hops) == [f"m{i:06d}" for i in range(1, 6)]
    done_order = [
        r["message"]["msg_id"] for r in transcript.records if r["direction"] == "done"
    ]
    assert done_order == [f"m{i:06d}" for i in range(1, 6)]
