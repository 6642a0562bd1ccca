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
from itertools import islice
from json.encoder import encode_basestring_ascii
from operator import methodcaller
from typing import Optional

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
from .model import AaaMessage, CodedError, MsgKind, Realm

PROACTIVE = "PROACTIVE"
REACTIVE = "REACTIVE"

ROLES = (CLIENT, SERVER, AGENT)

EVENT_KINDS = ("inject", "node-down", "node-up", "snapshot")


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


class _Texts(dict):
    """JSON text of each string and each hop trace (a tuple of strings),
    encoded once and then found by value."""

    def __missing__(self, value):
        text = self[value] = (
            encode_basestring_ascii(value) if type(value) is str else _ENCODER.encode(value)
        )
        return text


def _message_text(msg: AaaMessage, texts: _Texts, memo: dict) -> str:
    """The JSON text of ``msg.to_json()`` (its specification: a field added
    there must be written here too), read from the slots; the kind by its
    ``_value_``. An attribute map is encoded once per object, an empty one is ``{}``."""
    attributes = msg.attributes
    attributes_text = memo.get(id(attributes)) if attributes else "{}"
    if attributes_text is None:
        attributes_text = memo[id(attributes)] = _ENCODER.encode(attributes)
    error = "" if msg.error is None else f',"error":{texts[msg.error]}'
    return (
        f'{{"kind":{texts[msg.kind._value_]},"msg_id":{texts[msg.msg_id]},'
        f'"nai":{texts[msg.nai.text]},"dest_realm":{texts[msg.dest_realm.text]},'
        f'"attributes":{attributes_text},"trace":{texts[msg.hop_trace]},'
        f'"status":{texts[msg.status]}{error}}}'
    )


def _write_batch(records: list[dict]) -> str:
    """NDJSON lines of ``records``, byte for byte what ``_ENCODER`` writes for
    each record dict: one format for the head (its first three keys), then the
    payload. A message's text is built once per object and joined by reference."""
    texts = _Texts()
    memo: dict[int, str] = {}  # id of a message, attribute map or payload -> text
    pieces: list[str] = []
    append = pieces.append
    for record in records:
        line = (f'{{"time":{record["time"]},"actor":{texts[record["actor"]]},'
                f'"direction":{texts[record["direction"]]}')
        for key, value in islice(record.items(), 3, None):
            cls = type(value)
            if cls is str:
                text = texts[value]
            elif cls is int:
                text = str(value)
            elif value is None:
                text = "null"
            else:
                text = memo.get(id(value))
                if text is None:
                    text = memo[id(value)] = (
                        _message_text(value, texts, memo) if cls is AaaMessage
                        else _ENCODER.encode(value)
                    )
                if cls is AaaMessage:
                    append(f"{line},{texts[key]}:")
                    append(text)
                    line = ""
                    continue
            line = f"{line},{texts[key]}:{text}"
        append(line + "}\n")
    return "".join(pieces)


class Transcript:
    """Ordered record of everything observable: southbound frames, AAA
    transfers, terminal outcomes, liveness events, snapshots.

    A payload is kept as the value observed (a message, a frame, a redirect
    record or plain JSON) and encoded only by ``to_ndjson``. The writer
    frames each line itself: it formats the head, writes a message from its
    slots in its ``to_json`` form (``_message_text``) and encodes every
    other payload with one ``json`` encoder, which calls the payload's
    ``to_json``. Within a batch of records each distinct string and hop
    trace is encoded once and found again by value, and each message,
    attribute map and other payload object once and found again by
    identity. The identity memo is sound only because a recorded value
    never changes: messages, frames, config changes, entities,
    notifications and redirect records are frozen,
    ``apply_attribute_rules`` copies ``attributes`` first, ``Frame.error``
    is built fresh for each reply and document containers are never changed
    in place. A new payload type must be immutable too and have a
    ``to_json`` method. The encoder skips the circular-reference check: a
    cycle raises ``RecursionError``."""

    def __init__(self):
        self._entries: list[dict] = []

    def add(self, record: dict) -> None:
        """Append ``record``: ``time``, ``actor``, ``direction``, then its payload."""
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
        self.registry: dict[str, dict] = {}

    def register(self, node) -> None:
        self.nodes[node.node_id] = node
        self.by_address[node.address] = node

    def send_record(self, src, dst, record) -> None:
        """Record the transfer; ``dst.receive`` gets ``record`` one tick later."""
        loop = self.loop
        self.transcript.add({"time": loop.now, "actor": src.node_id, "direction": "fwd",
                             "to": dst.node_id, "message": record})
        loop.call_at(loop.now + 1, partial(dst.receive, record))

    def finalize_message(self, node_id: str, msg: AaaMessage) -> None:
        entry = self.registry.get(msg.msg_id)
        if entry is not None and entry["status"] != "pending":
            return
        self.registry[msg.msg_id] = {"status": msg.status, "error": msg.error}
        self.transcript.add({"time": self.loop.now, "actor": node_id, "direction": "done",
                             "message": msg})
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


@dataclass(frozen=True)
class Event:
    time: int
    kind: str
    node: Optional[str] = None
    nai: Optional[str] = None
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


def scenario_from_dict(obj: dict) -> Scenario:
    _require(isinstance(obj, dict), "PARSE_ERROR", "top level must be an object")
    required = {"seed", "topology", "policies", "mode", "events", "stop_time"}
    allowed = required | {"options", "static_config"}
    _require(required <= set(obj), "PARSE_ERROR", f"missing keys {sorted(required - set(obj))}")
    _require(set(obj) <= allowed, "PARSE_ERROR", f"unknown keys {sorted(set(obj) - allowed)}")

    seed = obj["seed"]
    _require(isinstance(seed, int) and not isinstance(seed, bool), "PARSE_ERROR", "seed")
    stop_time = obj["stop_time"]
    _require(
        isinstance(stop_time, int) and not isinstance(stop_time, bool) and stop_time > 0,
        "PARSE_ERROR", "stop_time",
    )
    mode = obj["mode"]
    _require(mode in (PROACTIVE, REACTIVE), "PARSE_ERROR", f"mode {mode!r}")

    topo_obj = obj["topology"]
    _require(isinstance(topo_obj, dict), "PARSE_ERROR", "topology")
    _require(
        set(topo_obj) <= {"nodes", "links", "homes"} and "nodes" in topo_obj,
        "PARSE_ERROR", "topology keys",
    )
    specs = topo_obj["nodes"]
    _require(isinstance(specs, dict) and specs, "PARSE_ERROR", "topology.nodes")
    realms_by_text: dict[str, Realm] = {}

    def realm_of(text: str) -> Realm:
        if text not in realms_by_text:
            realms_by_text[text] = Realm.parse(text)
        return realms_by_text[text]

    users_of: dict[str, dict[str, str]] = {}
    infos: dict[str, NodeInfo] = {}
    addresses: set[str] = set()
    for nid, raw in specs.items():
        _require(isinstance(raw, dict), "PARSE_ERROR", f"node {nid}")
        _require(
            set(raw) <= {"address", "role", "realms", "users", "state"},
            "PARSE_ERROR", f"node {nid} keys",
        )
        role = raw.get("role", AGENT)
        _require(role in ROLES, "PARSE_ERROR", f"node {nid} role {role!r}")
        state = raw.get("state", "UP")
        _require(state in ("UP", "DOWN"), "PARSE_ERROR", f"node {nid} state")
        realm_texts = raw.get("realms", [])
        _require(
            isinstance(realm_texts, list) and all(isinstance(r, str) for r in realm_texts),
            "PARSE_ERROR", f"node {nid} realms",
        )
        realms = tuple(realm_of(r) for r in realm_texts)
        users = raw.get("users", {})
        _require(_is_str_map(users), "PARSE_ERROR", f"node {nid} users")
        address = raw.get("address", f"{nid}.sim")
        _require(isinstance(address, str), "PARSE_ERROR", f"node {nid} address")
        _require(address not in addresses, "PARSE_ERROR", f"node {nid} repeats address {address!r}")
        addresses.add(address)
        users_of[nid] = dict(users)
        infos[nid] = NodeInfo(address, role, realms, state)

    links: set[frozenset] = set()
    links_obj = topo_obj.get("links", [])
    _require(isinstance(links_obj, list), "PARSE_ERROR", "topology.links")
    for pair in links_obj:
        _require(
            isinstance(pair, list) and len(pair) == 2 and pair[0] != pair[1],
            "PARSE_ERROR", f"link {pair}",
        )
        for end in pair:
            _require(isinstance(end, str) and end in infos, "UNKNOWN_NODE", str(end))
        links.add(frozenset(pair))

    home_of: dict[str, str] = {}
    homes = topo_obj.get("homes", {})
    _require(_is_str_map(homes), "PARSE_ERROR", "topology.homes")
    served = {(nid, realm) for nid, info in infos.items() for realm in info.served_realms}
    for realm_text, home in homes.items():
        realm = realm_of(realm_text)
        _require(home in infos, "UNKNOWN_NODE", home)
        _require(
            infos[home].role == SERVER and (home, realm) in served,
            "PARSE_ERROR", f"home {home} does not serve {realm_text}",
        )
        home_of[realm.text] = home

    topology = Topology(infos, links, home_of)

    policies_obj = obj["policies"]
    _require(
        isinstance(policies_obj, list)
        and all(isinstance(p, str) for p in policies_obj),
        "PARSE_ERROR", "policies",
    )
    policies = load_policy("\n".join(policies_obj), topology)

    _require(isinstance(obj["events"], list), "PARSE_ERROR", "events")
    valid_nais: set[str] = set()
    events: list[Event] = []
    last_time = None
    for raw in obj["events"]:
        _require(isinstance(raw, dict), "PARSE_ERROR", "event")
        kind = raw.get("kind")
        _require(kind in EVENT_KINDS, "PARSE_ERROR", f"event kind {kind!r}")
        time = raw.get("time")
        _require(isinstance(time, int) and not isinstance(time, bool) and time >= 0,
                 "PARSE_ERROR", "event time")
        if last_time is not None and time < last_time:
            raise CodedError("UNSORTED_EVENTS", f"t={time} after t={last_time}")
        last_time = time
        if kind == "inject":
            _require(
                set(raw) == {"time", "kind", "at", "nai", "password"},
                "PARSE_ERROR", "inject event fields",
            )
            _require(isinstance(raw["at"], str) and raw["at"] in infos,
                     "UNKNOWN_NODE", str(raw["at"]))
            _require(
                isinstance(raw["nai"], str) and isinstance(raw["password"], str),
                "PARSE_ERROR", "inject nai and password must be strings",
            )
            if raw["nai"] not in valid_nais:
                realm_of(model.split_nai(raw["nai"])[1])
                valid_nais.add(raw["nai"])
            events.append(Event(time, kind, node=raw["at"], nai=raw["nai"],
                                password=raw["password"]))
        elif kind in ("node-down", "node-up"):
            _require(set(raw) == {"time", "kind", "node"}, "PARSE_ERROR", "event fields")
            _require(isinstance(raw["node"], str) and raw["node"] in infos,
                     "UNKNOWN_NODE", str(raw["node"]))
            events.append(Event(time, kind, node=raw["node"]))
        else:  # snapshot
            _require(set(raw) == {"time", "kind"}, "PARSE_ERROR", "event fields")
            events.append(Event(time, kind))

    options = obj.get("options", {})
    _require(isinstance(options, dict) and set(options) <= {"parallel_adjacency"},
             "PARSE_ERROR", "options")
    _require(isinstance(options.get("parallel_adjacency", False), bool),
             "PARSE_ERROR", "options.parallel_adjacency")

    static_obj = obj.get("static_config", {})
    _require(isinstance(static_obj, dict), "PARSE_ERROR", "static_config")
    static_config: dict[str, model.ConfigDocument] = {}
    for nid, doc_obj in static_obj.items():
        _require(nid in infos, "UNKNOWN_NODE", nid)
        static_config[nid] = model.document_from_json(doc_obj)

    return Scenario(
        seed=seed,
        topology=topology,
        users=users_of,
        policies=policies,
        mode=mode,
        events=events,
        stop_time=stop_time,
        options=dict(options),
        static_config=static_config,
    )


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
        self.snapshots: list[str] = []
        self._msg_seq = 0
        # one Nai per distinct NAI text: same-NAI requests share it; and one
        # Realm per realm, the served one where a node serves it
        self._nais: dict[str, model.Nai] = {}
        self._realms: dict[Realm, Realm] = {
            realm: realm for info in scenario.topology.nodes.values()
            for realm in info.served_realms
        }

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

        for nid in sorted(scenario.static_config):
            self.controller.push_document(nid, scenario.static_config[nid])

        if scenario.mode == PROACTIVE:
            self.controller.provision_all()

        for ev in scenario.events:
            self.loop.call_at(ev.time, lambda ev=ev: self._fire(ev))

    def _open_session(self, nid: str) -> None:
        session = southbound.open_session(
            "controller",
            self.nodes[nid],
            self.loop,
            recorder=self._record_frame,
            on_notification=self._on_notification,
        )
        self.controller.attach_session(nid, session)

    def _record_frame(self, time: int, node_id: str, direction: str, frame) -> None:
        self.transcript.add({"time": time, "actor": node_id, "direction": direction,
                             "frame": frame})
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
            n.set_down()
            self.network.invalidate_channels_to(n)
            self.transcript.add({"time": self.loop.now, "actor": ev.node, "direction": "node-down"})
        elif ev.kind == "node-up":
            n = self.nodes[ev.node]
            n.set_up()
            if n.session is None:
                self._open_session(ev.node)
            self.controller.node_registered(ev.node)
            self.transcript.add({"time": self.loop.now, "actor": ev.node, "direction": "node-up"})
        else:  # snapshot
            snap = self.controller.snapshot_json()
            self.snapshots.append(snap)
            self.transcript.add({"time": self.loop.now, "actor": "controller",
                                 "direction": "snapshot", "snapshot": json.loads(snap)})

    def _inject(self, ev: Event) -> None:
        self._msg_seq += 1
        nai = self._nais.get(ev.nai)
        if nai is None:
            nai = model.parse_nai(ev.nai)
            realm = self._realms.setdefault(nai.realm, nai.realm)
            if realm is not nai.realm:
                nai = model.Nai(nai.user, realm)
            self._nais[ev.nai] = nai
        msg = AaaMessage(
            msg_id=f"m{self._msg_seq:06d}",
            kind=MsgKind.REQUEST,
            nai=nai,
            dest_realm=nai.realm,
            attributes={"password": ev.password},
        )
        self.metrics.injected += 1
        self.network.registry[msg.msg_id] = {"status": "pending", "error": None}
        self.transcript.add({"time": self.loop.now, "actor": ev.node, "direction": "inject",
                             "message": msg})
        target = self.nodes[ev.node]
        if target.is_up():
            target.handle_message(msg, self.loop.now)
        else:
            self.metrics.lost_in_flight += 1

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
        self.metrics.still_pending = sum(
            1 for r in self.network.registry.values() if r["status"] == "pending"
        )


def run(scenario: Scenario) -> tuple[Metrics, Transcript]:
    """Execute the scenario to stop_time; identical inputs give identical
    (metrics, transcript) outputs."""
    return Simulation(scenario).run()
