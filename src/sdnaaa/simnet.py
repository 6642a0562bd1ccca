"""Deterministic discrete-event harness: logical clock, scenario loading,
event injection (requests, node failures), metrics and transcript capture.

Every run is a pure function of the scenario: all randomness comes from the
scenario seed, the loop is single threaded, and ties at equal timestamps
break by insertion order. There is no wall-clock dependence anywhere.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from functools import partial
from json.encoder import encode_basestring_ascii
from operator import methodcaller
from typing import NamedTuple, NoReturn, Optional

from . import model, node as node_mod, southbound
from .controller import (
    AGENT,
    CLIENT,
    SERVER,
    Controller,
    NodeInfo,
    Policy,
    Topology,
    load_policy,
)
from .model import AaaMessage, CodedError, MsgKind

PROACTIVE = "PROACTIVE"
REACTIVE = "REACTIVE"

ROLES = (CLIENT, SERVER, AGENT)

#: the members of each object of a scenario file: (required, optional)
OBJECT_MEMBERS = {
    "scenario": (frozenset({"seed", "topology", "policies", "mode", "events", "stop_time"}),
                 frozenset({"options", "static_config"})),
    "topology": (frozenset({"nodes"}), frozenset({"links", "homes"})),
    "node": (frozenset(), frozenset({"address", "role", "realms", "users", "state"})),
    "options": (frozenset(), frozenset({"parallel_adjacency"})),
}

#: each event kind's members besides ``time`` and ``kind``, all strings; the
#: first, if any, names a node
EVENT_FIELDS = {"inject": ("at", "nai", "password"), "node-down": ("node",), "node-up": ("node",),
                "snapshot": ()}
EVENT_KINDS = tuple(EVENT_FIELDS)
_EVENT_MEMBERS = {kind: frozenset(("time", "kind", *fields))
                  for kind, fields in EVENT_FIELDS.items()}


class EventLoop:
    """Calendar queue: one callback list per pending tick, a heap of the ticks.
    Callbacks due at one tick run in scheduling order; one scheduled for the
    current tick, or for a past time, runs after those already due."""

    def __init__(self):
        self.now = 0
        self._due: dict[int, list] = {}  # tick -> callbacks in scheduling order
        self._times: list[int] = []  # heap of the keys of _due

    def call_at(self, time: int, fn) -> None:
        if time < self.now:
            time = self.now
        fns = self._due.get(time)
        if fns is None:
            self._due[time] = [fn]
            heapq.heappush(self._times, time)
        else:
            fns.append(fn)

    def call_later(self, delay: int, fn) -> None:
        self.call_at(self.now + delay, fn)

    def run_until(self, stop_time: int) -> None:
        times, due = self._times, self._due
        while times and times[0] <= stop_time:
            self.now = time = heapq.heappop(times)
            for fn in due.pop(time):
                fn()
        self.now = max(self.now, stop_time)


_ENCODER = json.JSONEncoder(
    separators=(",", ":"), check_circular=False, default=methodcaller("to_json")
)

_BATCH = 2000  # records written per memo; the memo is dropped after each batch
_PRIVATE = frozenset({"secret", "local_key"})  # the entity leaves of key material

#: the payload keys of each transcript record by its direction: a record is
#: the tuple ``(time, actor, direction, *payload)``, one value per key
RECORD_KEYS = {
    "fwd": ("to", "message"), "inject": ("message",), "done": ("message",), "c2n": ("frame",),
    "n2c": ("frame",), "channel-up": ("peer",), "channel-failed": ("peer", "reason", "message"),
    "snapshot": ("snapshot",), "node-down": (), "node-up": (),
}

# each direction's line texts, encoded once: its member, then the text before each value
_LINES = {
    direction: (f',"direction":{encode_basestring_ascii(direction)}',
                *[f",{encode_basestring_ascii(key)}:" for key in keys])
    for direction, keys in RECORD_KEYS.items()
}


class _Texts(dict):
    """JSON text of each string and each hop trace (a tuple of strings),
    encoded once and then found by value."""

    def __missing__(self, value):
        text = self[value] = (
            encode_basestring_ascii(value) if type(value) is str
            else f"[{','.join([self[item] for item in value])}]"
        )
        return text


def _json_text(value, texts: _Texts, private=frozenset()) -> str:
    """The JSON text of strings, ints, None, lists and string-keyed dicts from ``texts``,
    a member named in ``private`` as REDACTED; any other value by the encoder."""
    cls = type(value)
    if cls is str:
        return texts[value]
    if cls is int:
        return str(value)
    if value is None:
        return "null"
    if cls is list:
        return f"[{','.join([_json_text(v, texts, private) for v in value])}]"
    if cls is dict:
        if not private.isdisjoint(value):
            value = {k: model.REDACTED if k in private else v for k, v in value.items()}
        items = [f"{texts[k]}:{texts[v] if type(v) is str else _json_text(v, texts, private)}"
                 for k, v in value.items() if type(k) is str]
        if len(items) == len(value):
            return f"{{{','.join(items)}}}"
    return _ENCODER.encode(value)


def _message_text(msg: AaaMessage, texts: _Texts, prefixes: dict) -> str:
    """The JSON text of ``msg.to_json()`` (its specification: a field added
    there must be written here too), read from its fields; the kind by its
    ``_value_``. The text up to ``"trace":`` is kept in ``prefixes`` by the
    identity of the attribute map, and reused while the message's id, kind,
    NAI and realm are the same objects, as in each hop's copy of a request."""
    msg_id, kind, nai, dest_realm, attributes, hop_trace, status, error = msg
    known = prefixes.get(id(attributes))
    if (known is None or known[0] is not msg_id or known[1] is not kind
            or known[2] is not nai or known[3] is not dest_realm):
        known = prefixes[id(attributes)] = (
            msg_id, kind, nai, dest_realm,
            f'{{"kind":{texts[kind._value_]},"msg_id":{texts[msg_id]},'
            f'"nai":{texts[nai.text]},"dest_realm":{texts[dest_realm]},'
            f'"attributes":{_json_text(attributes, texts)},"trace":',
        )
    error = "" if error is None else f',"error":{texts[error]}'
    return f'{known[4]}{texts[hop_trace]},"status":{texts[status]}{error}}}'


def _frame_text(frame: southbound.Frame, texts: _Texts) -> str:
    """The JSON text of ``frame.to_json()`` (its specification), written from the
    fields; an entity by its leaf encoders in ``model.SCHEMAS``, its key material
    (``_PRIVATE``) as REDACTED, while the frame in memory keeps it."""
    kind = frame.type
    text = f'{{"txn":{frame.txn},"type":{texts[kind]}'
    if kind == southbound.EDIT_CONFIG:
        changes = [
            f'{{"op":{texts[c.op]},"path":{texts[c.path]}}}' if c.value is None else
            f'{{"op":{texts[c.op]},"path":{texts[c.path]},"value":'
            f'{_json_text(model.entity_to_json(c.value), texts, _PRIVATE)}}}'
            for c in frame.changes
        ]
        return f'{text},"changes":[{",".join(changes)}]}}'
    if kind == southbound.CONFIG:
        return f'{text},"doc":{_json_text(model.document_to_json(frame.doc), texts, _PRIVATE)}}}'
    if kind == southbound.ERROR:
        detail = _json_text(frame.error.get("detail", []), texts)
        return f'{text},"code":{_json_text(frame.error["code"], texts)},"detail":{detail}}}'
    if kind == southbound.NOTIFICATION:
        return f'{text},"note":{_json_text(frame.note.to_json(), texts)}}}'
    return text + "}"


def _write_batch(records: list[tuple]) -> str:
    """NDJSON lines of ``records``, as ``json.dumps`` writes each record's dict: the head,
    then the direction's line texts around the values' texts, one format for one or two.
    A string value is found in ``texts``, a message already written in ``written``."""
    texts = _Texts()
    written: dict[int, str] = {}  # id of a message -> its text
    prefixes: dict[int, tuple] = {}  # id of an attribute map -> its message prefix

    def text_of(value) -> str:  # of a value that is not in ``written``
        cls = type(value)
        if cls is AaaMessage:
            text = written[id(value)] = _message_text(value, texts, prefixes)
            return text
        return (_frame_text if cls is southbound.Frame else _json_text)(value, texts)

    lines: list[str] = []
    append = lines.append
    for record in records:
        size = len(record)
        if size == 5:
            time, actor, direction, to, value = record
            line = _LINES[direction]
            append(f'{{"time":{time},"actor":{texts[actor]}{line[0]}{line[1]}'
                   f'{texts[to] if type(to) is str else text_of(to)}'
                   f'{line[2]}{written.get(id(value)) or text_of(value)}}}\n')
        elif size == 4:
            time, actor, direction, value = record
            line = _LINES[direction]
            append(f'{{"time":{time},"actor":{texts[actor]}{line[0]}{line[1]}'
                   f'{written.get(id(value)) or text_of(value)}}}\n')
        else:
            line = _LINES[record[2]]
            payload = "".join([key + (written.get(id(v)) or text_of(v))
                               for key, v in zip(line[1:], record[3:])])
            append(f'{{"time":{record[0]},"actor":{texts[record[1]]}{line[0]}{payload}}}\n')
    return "".join(lines)


class Transcript:
    """Ordered record of everything observable: southbound frames, AAA
    transfers, terminal outcomes, liveness events, snapshots.

    A record is a tuple ``(time, actor, direction, *payload)``, its payload keys
    named by ``RECORD_KEYS``. Values are kept as observed and written only by
    ``to_ndjson``, each message once per batch, found again by identity. A
    message's text up to ``"trace":`` is kept by the identity of its attribute
    map and reused only while the message's id, kind, NAI and realm are the
    objects it was built from, as in every hop's copy of a request. Both memos
    are sound only because a recorded value never changes and stays alive for
    its batch, so a new payload type must be immutable too. The encoder behind
    ``_json_text`` calls ``to_json`` and skips the circular-reference check: a
    cycle raises ``RecursionError``. A message is a tuple, which ``json`` writes
    as an array without calling ``to_json``, so it may only be a payload value
    itself, written by ``_message_text``, never nested inside one."""

    def __init__(self):
        self._entries: list[tuple] = []

    def add(self, record: tuple) -> None:
        """Append ``record``: ``(time, actor, direction, *payload)``."""
        self._entries.append(record)

    def to_ndjson(self) -> str:
        entries = self._entries
        return "".join([
            _write_batch(entries[start:start + _BATCH])
            for start in range(0, len(entries), _BATCH)
        ])

    @property
    def records(self) -> list[dict]:
        """The records as written by ``to_ndjson``, decoded."""
        return [json.loads(line) for line in self.to_ndjson().splitlines()]


class Metrics:
    def __init__(self):
        self.injected = 0
        self.delivered = 0
        self.rejected = 0
        self.errored = 0
        self.still_pending = 0
        self.hops: dict[str, int] = {}
        self.controller_frames = 0
        self.notifications: dict[str, int] = {}
        self.reroutes = 0
        self.channels: list = []
        self.lost_in_flight = 0
        self.error_codes: dict[str, int] = {}

    def to_json(self) -> dict:
        return {
            "injected": self.injected,
            "delivered": self.delivered,
            "rejected": self.rejected,
            "errored": self.errored,
            "still_pending": self.still_pending,
            "hops": dict(self.hops),
            "controller_frames": self.controller_frames,
            "notifications": {k: self.notifications[k] for k in sorted(self.notifications)},
            "reroutes": self.reroutes,
            "channels": [list(pair) for pair in self.channels],
            "lost_in_flight": self.lost_in_flight,
            "error_codes": {k: self.error_codes[k] for k in sorted(self.error_codes)},
        }

    def to_text(self) -> str:
        return json.dumps(self.to_json(), separators=(",", ":"))


class Network:
    """In-memory transport and observation point between nodes."""

    def __init__(self, loop: EventLoop, metrics: Metrics, transcript: Transcript):
        self.loop = loop
        self.metrics = metrics
        self.transcript = transcript
        self.nodes: dict[str, node_mod.Node] = {}
        self.by_address: dict[str, node_mod.Node] = {}
        self.ended: set[str] = set()  # msg ids that have their done record

    def register(self, node) -> None:
        self.nodes[node.node_id] = node
        self.by_address[node.address] = node

    def send_record(self, src, dst, record) -> None:
        """Record the transfer; ``dst`` receives ``record`` one tick later."""
        loop = self.loop
        self.transcript.add((loop.now, src.node_id, "fwd", dst.node_id, record))
        loop.call_at(loop.now + 1, partial(node_mod.Node.receive, dst, record))

    def finalize_message(self, node_id: str, msg: AaaMessage) -> None:
        if msg.msg_id in self.ended:
            return
        self.ended.add(msg.msg_id)
        self.transcript.add((self.loop.now, node_id, "done", msg))
        if msg.status == "accept":
            self.metrics.delivered += 1
        elif msg.status == "reject":
            self.metrics.rejected += 1
        else:
            self.metrics.errored += 1
            code = msg.error or "UNKNOWN"
            self.metrics.error_codes[code] = self.metrics.error_codes.get(code, 0) + 1

    def invalidate_channels_to(self, downed) -> None:
        for other in self.nodes.values():
            for peer_id in [pid for pid, peer in other.channels.items() if peer is downed]:
                del other.channels[peer_id]


# ---------------------------------------------------------------------------
# scenarios


class Event(NamedTuple):
    time: int
    kind: str
    node: Optional[str] = None
    nai: Optional[model.Nai] = None
    password: Optional[str] = None


@dataclass
class Scenario:
    seed: int
    topology: Topology
    users: dict[str, dict[str, str]]
    policies: list[Policy]
    mode: str
    events: list[Event]
    stop_time: int
    options: dict = field(default_factory=dict)
    static_config: dict[str, model.ConfigDocument] = field(default_factory=dict)


def _require(cond: bool, code: str, detail: str = "") -> None:
    if not cond:
        raise CodedError(code, detail)


def _is_str_map(obj) -> bool:
    return isinstance(obj, dict) and all(isinstance(x, str) for kv in obj.items() for x in kv)


def _check_members(obj, shape: str, name: str = "") -> None:
    """PARSE_ERROR unless ``obj`` is an object with every required member of
    ``OBJECT_MEMBERS[shape]`` and none outside its two sets."""
    required, optional = OBJECT_MEMBERS[shape]
    if isinstance(obj, dict) and required <= obj.keys() <= required | optional:
        return
    where = f"{shape} {name}" if name else shape
    _require(isinstance(obj, dict), "PARSE_ERROR", f"{where} is not an object")
    raise CodedError("PARSE_ERROR", f"{where} members: missing {sorted(required.difference(obj))}, "
                                    f"unknown {sorted(obj.keys() - required - optional)}")


def _event_fault(raw, last: int, infos: dict) -> NoReturn:
    """Raise the first fault of an event after one at ``last``: of its kind, time,
    order, members, the node its first field names, its other fields' types."""
    _require(isinstance(raw, dict), "PARSE_ERROR", "event")
    kind = raw.get("kind")
    _require(kind in EVENT_KINDS, "PARSE_ERROR", f"event kind {kind!r}")
    time = raw.get("time")
    _require(type(time) is int and time >= 0, "PARSE_ERROR", "event time")
    _require(time >= last, "UNSORTED_EVENTS", f"t={time} after t={last}")
    _require(raw.keys() == _EVENT_MEMBERS[kind], "PARSE_ERROR", f"{kind} event fields")
    node, *others = EVENT_FIELDS[kind]
    _require(type(raw[node]) is str and raw[node] in infos, "UNKNOWN_NODE", str(raw[node]))
    raise CodedError("PARSE_ERROR", f"{kind} {' and '.join(others)} must be strings")


def scenario_from_dict(obj: dict) -> Scenario:
    """The scenario ``obj`` declares. An inject event carries its ``Nai``, one per
    distinct text; each distinct realm text is parsed once, and each realm is
    one ``str``, where a node serves it the served one."""
    _check_members(obj, "scenario")
    seed, stop_time, mode = obj["seed"], obj["stop_time"], obj["mode"]
    _require(type(seed) is int, "PARSE_ERROR", "seed")
    _require(type(stop_time) is int and stop_time > 0, "PARSE_ERROR", "stop_time")
    _require(mode in (PROACTIVE, REACTIVE), "PARSE_ERROR", f"mode {mode!r}")

    topo_obj = obj["topology"]
    _check_members(topo_obj, "topology")
    specs = topo_obj["nodes"]
    _require(isinstance(specs, dict) and specs, "PARSE_ERROR", "topology.nodes")
    # each realm text as written -> its parsed text, one object per value (a
    # parsed text maps to itself), so one realm written two ways is one str
    realms: dict[str, str] = {}

    def realm_of(text: str) -> str:
        realm = realms.get(text)
        if realm is None:
            realm = model.parse_realm(text)
            realm = realms[text] = realms.setdefault(realm, realm)
        return realm

    users_of: dict[str, dict[str, str]] = {}
    infos: dict[str, NodeInfo] = {}
    addresses: set[str] = set()
    for nid, raw in specs.items():
        _require(nid != "", "PARSE_ERROR", "node id ''")
        _check_members(raw, "node", nid)
        role, state = raw.get("role", AGENT), raw.get("state", "UP")
        _require(role in ROLES, "PARSE_ERROR", f"node {nid} role {role!r}")
        _require(state in ("UP", "DOWN"), "PARSE_ERROR", f"node {nid} state")
        realms_obj = raw.get("realms", [])
        _require(isinstance(realms_obj, list) and all(isinstance(r, str) for r in realms_obj),
                 "PARSE_ERROR", f"node {nid} realms")
        served = tuple(map(realm_of, realms_obj))
        users = raw.get("users", {})
        _require(_is_str_map(users), "PARSE_ERROR", f"node {nid} users")
        address = raw.get("address", f"{nid}.sim")
        _require(isinstance(address, str) and address != "",
                 "PARSE_ERROR", f"node {nid} address {address!r}")
        _require(address not in addresses, "PARSE_ERROR", f"node {nid} repeats address {address!r}")
        addresses.add(address)
        users_of[nid] = dict(users)
        infos[nid] = NodeInfo(address, role, served, state)

    links: set[frozenset] = set()
    links_obj = topo_obj.get("links", [])
    _require(isinstance(links_obj, list), "PARSE_ERROR", "topology.links")
    for pair in links_obj:
        _require(isinstance(pair, list) and len(pair) == 2 and pair[0] != pair[1],
                 "PARSE_ERROR", f"link {pair}")
        for end in pair:
            _require(isinstance(end, str) and end in infos, "UNKNOWN_NODE", str(end))
        links.add(frozenset(pair))
    home_of: dict[str, str] = {}
    homes = topo_obj.get("homes", {})
    _require(_is_str_map(homes), "PARSE_ERROR", "topology.homes")
    serving = {(nid, realm) for nid, info in infos.items() for realm in info.served_realms}
    for text, home in homes.items():
        realm = realm_of(text)
        _require(home in infos, "UNKNOWN_NODE", home)
        _require(infos[home].role == SERVER and (home, realm) in serving,
                 "PARSE_ERROR", f"home {home} does not serve {text}")
        home_of[realm] = home
    topology = Topology(infos, links, home_of)

    policies_obj = obj["policies"]
    _require(isinstance(policies_obj, list) and all(isinstance(p, str) for p in policies_obj),
             "PARSE_ERROR", "policies")
    policies = load_policy("\n".join(policies_obj), topology)
    _require(isinstance(obj["events"], list), "PARSE_ERROR", "events")
    nais: dict[str, model.Nai] = {}
    events: list[Event] = []
    last = 0
    for raw in obj["events"]:
        kind = raw.get("kind") if type(raw) is dict else None
        if kind not in EVENT_KINDS or raw.keys() != _EVENT_MEMBERS[kind]:
            _event_fault(raw, last, infos)
        time, node = raw["time"], raw.get("at", raw.get("node"))
        text, password = raw.get("nai"), raw.get("password")
        if not (type(time) is int and time >= last
                and (kind == "snapshot" or type(node) is str and node in infos)
                and (kind != "inject" or type(text) is str and type(password) is str)):
            _event_fault(raw, last, infos)
        last = time
        nai = nais.get(text)
        if nai is None and text is not None:
            user, realm = model.split_nai(text)
            nai = nais[text] = model.Nai(user, realm_of(realm))
        events.append(Event(time, kind, node, nai, password))

    options = obj.get("options", {})
    _check_members(options, "options")
    _require(type(options.get("parallel_adjacency", False)) is bool,
             "PARSE_ERROR", "options.parallel_adjacency")
    static_obj = obj.get("static_config", {})
    _require(isinstance(static_obj, dict), "PARSE_ERROR", "static_config")
    static_config: dict[str, model.ConfigDocument] = {}
    for nid, doc_obj in static_obj.items():
        _require(nid in infos, "UNKNOWN_NODE", nid)
        static_config[nid] = model.document_from_json(doc_obj)
    return Scenario(seed, topology, users_of, policies, mode, events, stop_time,
                    dict(options), static_config)


def load_scenario(text: str) -> Scenario:
    """Parse and validate a scenario file.

    Errors: PARSE_ERROR, UNKNOWN_NODE, UNSORTED_EVENTS, plus the policy,
    realm, NAI and document codes of the embedded formats (a static_config
    that repeats a key gives its DUPLICATE_* code); always a CodedError.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as err:
        raise CodedError("PARSE_ERROR", str(err)) from None
    return scenario_from_dict(obj)


# ---------------------------------------------------------------------------
# simulation


class Simulation:
    """One deterministic run of a scenario; exposes its parts for tests."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.loop = EventLoop()
        self.metrics = Metrics()
        self.transcript = Transcript()
        self.network = Network(self.loop, self.metrics, self.transcript)
        self.nodes = self.network.nodes
        self._msg_seq = 0

        for nid, info in scenario.topology.nodes.items():
            self.network.register(node_mod.Node(
                nid,
                info.address,
                self.loop,
                self.network,
                served_realms=info.served_realms,
                users=scenario.users.get(nid),
                state=info.state,
            ))

        self.controller = Controller(
            scenario.topology,
            self.loop,
            scenario.policies,
            seed=scenario.seed,
            parallel_adjacency=bool(scenario.options.get("parallel_adjacency", False)),
        )

        for nid in sorted(self.nodes):
            if self.nodes[nid].is_up():
                self._open_session(nid)

        if scenario.mode == PROACTIVE:
            self.controller.provision_all()

        for ev in scenario.events:
            self.loop.call_at(ev.time, lambda ev=ev: self._fire(ev))

    def _open_session(self, nid: str) -> None:
        """Open the node's management session and push its static_config."""
        session = southbound.open_session(
            "controller",
            self.nodes[nid],
            self.loop,
            recorder=self._record_frame,
            on_notification=self._on_notification,
        )
        self.controller.attach_session(nid, session)
        doc = self.scenario.static_config.get(nid)
        if doc is not None:
            self.controller.push_document(nid, doc)

    def _record_frame(self, time: int, node_id: str, direction: str, frame) -> None:
        self.transcript.add((time, node_id, direction, frame))
        if direction == "c2n":
            self.metrics.controller_frames += 1

    def _on_notification(self, note: model.Notification) -> None:
        self.metrics.notifications[note.kind] = self.metrics.notifications.get(note.kind, 0) + 1
        self.controller.on_notification(note)

    def _fire(self, ev: Event) -> None:
        if ev.kind == "inject":
            self._inject(ev)
        elif ev.kind == "node-down":
            n = self.nodes[ev.node]
            self.transcript.add((self.loop.now, ev.node, "node-down"))
            n.set_down()
            self.network.invalidate_channels_to(n)
        elif ev.kind == "node-up":
            n = self.nodes[ev.node]
            n.set_up()
            self.transcript.add((self.loop.now, ev.node, "node-up"))
            if n.session is None:  # a node loaded DOWN: its static_config goes out now
                self._open_session(ev.node)
            self.controller.node_registered(ev.node)
        else:  # snapshot
            self.transcript.add((self.loop.now, "controller", "snapshot", self.controller.snapshot()))

    def _inject(self, ev: Event) -> None:
        self._msg_seq += 1
        msg = AaaMessage(f"m{self._msg_seq:06d}", MsgKind.REQUEST, ev.nai, ev.nai.realm,
                         {"password": ev.password})
        self.metrics.injected += 1
        self.transcript.add((self.loop.now, ev.node, "inject", msg))
        self.nodes[ev.node].receive(msg)

    def run_until(self, stop_time: int) -> None:
        self.loop.run_until(stop_time)

    def run(self) -> tuple[Metrics, Transcript]:
        self.run_until(self.scenario.stop_time)
        self._finalize()
        return self.metrics, self.transcript

    def _finalize(self) -> None:
        self.metrics.channels = sorted({
            tuple(sorted((nid, other.node_id)))
            for nid, n in self.nodes.items() for other in n.channels.values()
        })
        m = self.metrics
        m.still_pending = m.injected - m.delivered - m.rejected - m.errored


def run(scenario: Scenario) -> tuple[Metrics, Transcript]:
    """Execute the scenario to stop_time; identical inputs give identical
    (metrics, transcript) outputs."""
    return Simulation(scenario).run()
