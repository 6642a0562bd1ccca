"""Control plane: topology and realm assignments, northbound policy
ingestion, next-hop computation, adjacency establishment with rollback,
route installation, and reactions to node notifications (reactive route
acquisition, expirations, forward failures).

The controller is one logical state machine: provisioning commands and
notification handlers run as queued jobs, one at a time; a job awaiting a
southbound reply keeps the queue parked until it completes.
"""

from __future__ import annotations

import hashlib
import json
import logging
import random
from collections import deque
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional

from . import model, southbound
from .model import (
    Action,
    CodedError,
    Notification,
    PeerEntry,
    Realm,
    RealmEntry,
    RealmPattern,
    SharedSecret,
    TlsProfile,
    TlsRef,
    Transport,
)
from .southbound import ConfigChange, Reply

log = logging.getLogger("sdnaaa.controller")

CLIENT = "CLIENT"
SERVER = "SERVER"
AGENT = "AGENT"

PSK = "psk"
TLS = "tls"


@dataclass
class NodeInfo:
    address: str
    role: str
    served_realms: tuple[Realm, ...] = ()
    state: str = "UP"


@dataclass
class Topology:
    """Controller-side view: nodes, allowed adjacencies, realm homes.

    Links and roles are fixed for a run, so the sorted neighbour lists and
    the sorted client list are built once, here. A node's ``state`` is the
    loaded one and stays fixed too; the controller caches each home's
    next-hop tree until its liveness view (``suspected``) changes."""

    nodes: dict[str, NodeInfo]
    allowed_links: set[frozenset]
    home_of: dict[str, str] = field(default_factory=dict)
    adjacent: dict[str, tuple[str, ...]] = field(init=False, repr=False)
    clients: tuple[str, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        adjacent: dict[str, list[str]] = {n: [] for n in self.nodes}
        for a, b in self.allowed_links:
            adjacent[a].append(b)
            adjacent[b].append(a)
        self.adjacent = {n: tuple(sorted(ms)) for n, ms in adjacent.items()}
        self.clients = tuple(sorted(n for n, info in self.nodes.items() if info.role == CLIENT))


@dataclass(frozen=True)
class Policy:
    policy_id: str
    realm_pattern: RealmPattern
    home_node: str
    security: str  # psk | tls
    default_entry_ttl: Optional[int] = None


def load_policy(text: str, topology: Topology) -> list[Policy]:
    """Parse northbound directives, one per line:

        route <pattern> via <node_id> security <psk|tls> [ttl <ms>]

    '#' starts a comment. Errors: PARSE_ERROR, UNKNOWN_HOME_NODE.
    """
    policies: list[Policy] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if (
            len(tokens) not in (6, 8)
            or tokens[0] != "route"
            or tokens[2] != "via"
            or tokens[4] != "security"
        ):
            raise CodedError("PARSE_ERROR", f"line {lineno}: {line!r}")
        try:
            pattern = RealmPattern.parse(tokens[1])
        except CodedError:
            raise CodedError("PARSE_ERROR", f"line {lineno}: bad pattern {tokens[1]!r}") from None
        home = tokens[3]
        if home not in topology.nodes:
            raise CodedError("UNKNOWN_HOME_NODE", home)
        security = tokens[5]
        if security not in (PSK, TLS):
            raise CodedError("PARSE_ERROR", f"line {lineno}: bad security {security!r}")
        ttl = None
        if len(tokens) == 8:
            digits = tokens[7] if tokens[6] == "ttl" and tokens[7].isascii() else ""
            if not digits.isdigit() or int(digits) <= 0:
                raise CodedError("PARSE_ERROR", f"line {lineno}: bad ttl")
            ttl = int(digits)
        policies.append(Policy(f"p{len(policies) + 1}", pattern, home, security, ttl))
    return policies


def compute_next_hops(
    topology: Topology, target: str, exclude: frozenset = frozenset()
) -> dict[str, str]:
    """BFS shortest-path next hops toward ``target`` over UP nodes.

    Ties between equal-distance next hops break toward the
    lexicographically smallest node id; unreachable nodes are absent.
    """
    up = {
        n
        for n, info in topology.nodes.items()
        if info.state == "UP" and n not in exclude
    }
    if target not in up:
        return {}
    adjacent = topology.adjacent
    dist = {target: 0}
    frontier = deque([target])
    while frontier:
        n = frontier.popleft()
        for m in adjacent[n]:
            if m in up and m not in dist:
                dist[m] = dist[n] + 1
                frontier.append(m)
    # neighbour tuples are sorted: the first one a step closer is the smallest
    return {
        n: next(m for m in adjacent[n] if dist.get(m) == d - 1)
        for n, d in dist.items()
        if d
    }


@dataclass
class AdjacencyRecord:
    pair: frozenset
    status: str  # NONE | HALF | ESTABLISHED
    security: str
    credential_fingerprint: Optional[str] = None


@dataclass(frozen=True)
class EstablishResult:
    status: str  # ESTABLISHED | FAILED
    failed_step: Optional[int] = None
    error: Optional[str] = None


class _Route(NamedTuple):
    """A route to send to a node: its policy, its MERGE change, its report
    entry (filled when the frame is answered) and the ledger entry for its
    pattern at the node when it was planned."""

    policy: Policy
    change: ConfigChange
    report: dict
    over: Optional[dict]


class _RouteBatch:
    """The routes the bulk provisioning pass collects, per node in
    first-touch order."""

    def __init__(self):
        self.routes: dict[str, list[_Route]] = {}
        self._latest: dict[tuple[str, str], _Route] = {}

    def add(self, n: str, item: _Route) -> None:
        self.routes.setdefault(n, []).append(item)
        self._latest[(n, item.policy.realm_pattern.text)] = item

    def planned(self, n: str, pattern_text: str, ledgered: Optional[dict]) -> Optional[RealmEntry]:
        """The latest route collected for the pattern at ``n``, unless the
        ledger entry has changed since (``ledgered`` is the current one)."""
        item = self._latest.get((n, pattern_text))
        return item.change.value if item is not None and item.over is ledgered else None


class Controller:
    def __init__(
        self,
        topology: Topology,
        loop,
        policies,
        seed: int = 0,
        parallel_adjacency: bool = False,
    ):
        self.topology = topology
        self.loop = loop
        self.rng = random.Random(seed)
        self.parallel_adjacency = parallel_adjacency
        self.sessions: dict[str, southbound.Session] = {}
        self.policies: tuple[Policy, ...] = tuple(policies)
        # built in reverse, so a repeated pattern keeps its first policy
        self._policy_for_pattern = {p.realm_pattern.text: p for p in reversed(self.policies)}
        self._policy_for_id = {p.policy_id: p for p in self.policies}
        self.adjacencies: dict[frozenset, AdjacencyRecord] = {}
        # desired state confirmed by OK replies; holds no credential bytes
        self.ledger: dict[str, dict] = {}
        self.suspected: set[str] = set()
        # next-hop tree per home; dropped whenever ``suspected`` changes
        self._next_hops: dict[str, dict[str, str]] = {}
        self.reports: list[dict] = []
        self._jobs: deque = deque()
        self._active = False
        self._pumping = False

    # ------------------------------------------------------------------
    # wiring

    def attach_session(self, node_id: str, session: southbound.Session) -> None:
        self.sessions[node_id] = session

    def node_registered(self, node_id: str) -> None:
        """Re-registration of a node clears any failure suspicion."""
        if node_id in self.suspected:
            self.suspected.remove(node_id)
            self._next_hops.clear()

    # ------------------------------------------------------------------
    # job queue: handlers and provisioning run strictly one at a time

    def _submit(self, gen) -> Reply:
        done = Reply()
        self._jobs.append((gen, done))
        self._pump()
        return done

    def _pump(self) -> None:
        if self._pumping:
            return
        self._pumping = True
        try:
            while not self._active and self._jobs:
                gen, done = self._jobs.popleft()
                self._active = True

                def finish(result, done=done):
                    self._active = False
                    done.resolve(result)
                    self._pump()

                southbound.run_workflow(gen).add_done_callback(finish)
        finally:
            self._pumping = False

    # ------------------------------------------------------------------
    # public operations (each returns a Reply resolved when the job ends)

    def establish_adjacency(self, node_a: str, node_b: str, security: str, ttl=None) -> Reply:
        return self._submit(self._adjacency_job(node_a, node_b, security, ttl))

    def provision_realm(self, policy: Policy) -> Reply:
        return self._submit(self._provision_job(policy))

    def provision_all(self) -> Reply:
        """Provision every policy in one job; resolves with their reports."""
        return self._submit(self._provision_all_job())

    def get_node_config(self, node_id: str) -> Reply:
        return self._submit(self._get_config_job(node_id))

    def push_document(self, node_id: str, doc: model.ConfigDocument) -> Reply:
        """Administrator-style seeding of a full document (scenario
        static_config); applied through the ordinary session, not ledgered."""
        changes = []
        for container in model.REFERENTS_FIRST:
            entries = getattr(doc, container)
            for key in sorted(entries):
                changes.append(ConfigChange(southbound.MERGE, f"{container}/{key}", entries[key]))
        return self._submit(self._push_job(node_id, changes))

    def on_notification(self, note: Notification) -> Reply:
        if note.kind == Notification.ACQUIRE_ROUTE:
            return self._submit(self._acquire_job(note))
        if note.kind in (Notification.PEER_EXPIRED, Notification.ROUTE_EXPIRED):
            return self._submit(self._expired_job(note))
        if note.kind == Notification.FORWARD_FAILURE:
            return self._submit(self._forward_failure_job(note))
        done = Reply()
        done.resolve(None)
        return done

    # ------------------------------------------------------------------
    # credentials

    def _address(self, node_id: str) -> str:
        return self.topology.nodes[node_id].address

    def _adjacency_changes(self, a: str, b: str, security: str):
        """Fabricate one credential pair; the raw material lives only in the
        returned changes, the controller keeps the fingerprint."""
        def side(other: str, identity: str, transport: Transport, credential, *material) -> list:
            """The credential material, then the peer entry for ``other``."""
            entry = PeerEntry(other, identity, self._address(other),
                              model.TRANSPORT_PORTS[transport], transport, credential)
            return [*material, ConfigChange(southbound.MERGE, f"peers/{other}", entry)]

        if security == PSK:
            secret = self.rng.randbytes(32)
            credential = SharedSecret(secret)
            return (side(b, b, Transport.RADIUS_UDP, credential),
                    side(a, a, Transport.RADIUS_UDP, credential),
                    hashlib.sha256(secret).hexdigest())
        key_a = self.rng.randbytes(32)
        key_b = self.rng.randbytes(32)
        sides = []
        for own, other, key in ((a, b, key_a), (b, a, key_b)):
            profile = TlsProfile(f"tls-{own}-{other}", f"{own}-cert", key, frozenset({f"{other}-cert"}))
            sides.append(side(other, f"{other}-cert", Transport.RADIUS_TLS, TlsRef(profile.name),
                              ConfigChange(southbound.MERGE, f"tls/{profile.name}", profile)))
        return sides[0], sides[1], hashlib.sha256(key_a + key_b).hexdigest()

    def _stamp(self, changes, ttl: Optional[int]):
        """Fix absolute expirations so entry lifetime measured from node-side
        creation equals ttl (send time + channel latency + ttl)."""
        if ttl is None:
            return list(changes)
        exp = self.loop.now + southbound.LATENCY + ttl
        out = []
        for ch in changes:
            if ch.op == southbound.MERGE and isinstance(ch.value, (PeerEntry, RealmEntry)):
                out.append(ConfigChange(ch.op, ch.path, replace(ch.value, expiration=exp)))
            else:
                out.append(ch)
        return out

    # ------------------------------------------------------------------
    # ledger bookkeeping

    def _node_ledger(self, node_id: str) -> dict:
        return self.ledger.setdefault(node_id, {"peers": {}, "routes": {}})

    def _ledger_changes(self, node_id: str, changes, policy_id) -> None:
        """Record confirmed changes; the controller only ever ledgers merges."""
        entry = self._node_ledger(node_id)
        for ch in changes:
            container, key = ch.container_key()
            if container == "peers":
                entry["peers"][key] = {
                    "peer_id": key,
                    "transport": ch.value.transport.value,
                    "security": PSK if isinstance(ch.value.credential, SharedSecret) else TLS,
                    "expiration": ch.value.expiration,
                    "policy": policy_id,
                }
            elif container == "routing":
                entry["routes"][key] = {
                    "pattern": key,
                    "next_hop": ch.value.next_hop,
                    "action": ch.value.action.value,
                    "expiration": ch.value.expiration,
                    "policy": policy_id,
                }

    def _ledgered_route(self, node_id: str, pattern_text: str) -> Optional[dict]:
        return self.ledger.get(node_id, {}).get("routes", {}).get(pattern_text)

    def _next_hops_to(self, home: str) -> dict[str, str]:
        """The shared, read-only next-hop tree toward ``home`` for the
        current liveness view."""
        hops = self._next_hops.get(home)
        if hops is None:
            hops = compute_next_hops(self.topology, home, frozenset(self.suspected))
            self._next_hops[home] = hops
        return hops

    def _match_policy(self, realm: Realm) -> Optional[Policy]:
        """The policy of the most specific pattern that matches ``realm``."""
        for key in realm.lookup_keys:
            policy = self._policy_for_pattern.get(key)
            if policy is not None:
                return policy
        return None

    # ------------------------------------------------------------------
    # jobs

    def _adjacency_job(
        self, a, b, security, ttl, extra_a=(), extra_b=(), policy_id=None
    ):
        """Two-step exchange: configure a, await OK, configure b, await OK;
        roll back a when the second step fails. ``extra_*`` are freshly
        needed changes (routes) combined into the same frames."""
        session_a = self.sessions.get(a)
        session_b = self.sessions.get(b)
        if session_a is None:
            return EstablishResult("FAILED", 1, "NO_SESSION")
        if session_b is None:
            return EstablishResult("FAILED", 3, "NO_SESSION")
        changes_a, changes_b, fingerprint = self._adjacency_changes(a, b, security)
        changes_a = self._stamp(changes_a + list(extra_a), ttl)
        changes_b = changes_b + list(extra_b)
        pair = frozenset((a, b))

        if self.parallel_adjacency:
            changes_b = self._stamp(changes_b, ttl)
            reply_a = session_a.edit_config(changes_a)
            reply_b = session_b.edit_config(changes_b)
            frame_a = yield reply_a
            frame_b = yield reply_b
        else:
            frame_a = yield session_a.edit_config(changes_a)
            frame_b = None
            if frame_a.type == southbound.OK:
                self.adjacencies[pair] = AdjacencyRecord(pair, "HALF", security)
                # stamped at its own send time so ttl counts from node-side creation
                changes_b = self._stamp(changes_b, ttl)
                frame_b = yield session_b.edit_config(changes_b)

        ok_a = frame_a.type == southbound.OK
        ok_b = frame_b is not None and frame_b.type == southbound.OK
        if not (ok_a and ok_b):
            # undo the side that applied; a failed frame changed nothing
            if ok_a:
                yield session_a.edit_config(self._rollback_changes(changes_a))
            elif ok_b:
                yield session_b.edit_config(self._rollback_changes(changes_b))
            self.adjacencies[pair] = AdjacencyRecord(pair, "NONE", security)
            if ok_a:
                return EstablishResult("FAILED", 3, frame_b.error["code"])
            return EstablishResult("FAILED", 1, frame_a.error["code"])

        self.adjacencies[pair] = AdjacencyRecord(pair, "ESTABLISHED", security, fingerprint)
        self._ledger_changes(a, changes_a, policy_id)
        self._ledger_changes(b, changes_b, policy_id)
        log.info("adjacency %s-%s established (%s)", a, b, security)
        return EstablishResult("ESTABLISHED")

    @staticmethod
    def _rollback_changes(changes):
        # delete in reverse so routes go before the peers they reference
        return [
            ConfigChange(southbound.DELETE, ch.path)
            for ch in reversed(changes)
            if ch.op == southbound.MERGE
        ]

    def _get_config_job(self, node_id):
        session = self.sessions.get(node_id)
        if session is None:
            return None
        frame = yield session.get_config()
        return frame.doc if frame.type == southbound.CONFIG else None

    def _push_job(self, node_id, changes):
        session = self.sessions.get(node_id)
        if session is None:
            return {"op": "push", "node": node_id, "outcome": "FAILED", "error": "NO_SESSION"}
        frame = yield session.edit_config(changes)
        outcome = "OK" if frame.type == southbound.OK else "FAILED"
        return {"op": "push", "node": node_id, "outcome": outcome}

    def _client_paths(self, policy: Policy, next_hops: dict[str, str]):
        """Nodes on client->home shortest paths, in first-visit order."""
        home = policy.home_node
        order: list[str] = []
        seen: set[str] = set()
        unreachable: list[str] = []
        for client in self.topology.clients:
            if client != home and client not in next_hops:
                unreachable.append(client)
                continue
            n = client
            while n != home:
                if n not in seen:
                    seen.add(n)
                    order.append(n)
                n = next_hops[n]
        return order, unreachable

    def _missing_route(self, policy: Policy, node: str, hop: Optional[str], batch=None):
        """[the MERGE of the policy's route at ``node``]: RELAY via ``hop``,
        or LOCAL when ``hop`` is None; [] when the ledger already holds it,
        or when the latest route ``batch`` collected there over that ledger
        entry does."""
        pattern = policy.realm_pattern
        action = Action.LOCAL if hop is None else Action.RELAY
        have = self._ledgered_route(node, pattern.text)
        held = have is not None and have["next_hop"] == hop and have["action"] == action.value
        planned = batch.planned(node, pattern.text, have) if batch is not None else None
        if planned is not None:
            held = planned.next_hop == hop and planned.action is action
        if held:
            return []
        entry = RealmEntry(pattern, hop, action)
        return [ConfigChange(southbound.MERGE, f"routing/{pattern.text}", entry)]

    def _ensure_hop(self, policy: Policy, n: str, next_hop: Optional[str], batch=None):
        """Give ``n`` the policy's route: RELAY via ``next_hop``, or LOCAL
        when ``next_hop`` is None (``n`` is the home). A missing adjacency
        is established with n's route in n's frame and, when the next hop
        is the home, the home's LOCAL route in the mirror frame; with the
        adjacency in place a missing route goes alone in one frame, or into
        ``batch`` when one is given.

        Returns the adjacency's EstablishResult, the route's report entry
        (filled once its frame is answered), or None when nothing was
        missing."""
        route = self._missing_route(policy, n, next_hop, batch)
        if next_hop is not None:
            record = self.adjacencies.get(frozenset((n, next_hop)))
            if record is None or record.status != "ESTABLISHED":
                # Mirror side first: if n holds parked traffic, its lazy
                # handshake must find the counterpart entry already in place.
                mirror = (self._missing_route(policy, next_hop, None, batch)
                          if next_hop == policy.home_node else [])
                return (yield from self._adjacency_job(
                    next_hop, n, policy.security, policy.default_entry_ttl, mirror, route,
                    policy.policy_id,
                ))
        if not route:
            return None
        if n not in self.sessions:
            return {"op": "route", "node": n, "outcome": "FAILED", "error": "NO_SESSION"}
        text = policy.realm_pattern.text
        item = _Route(policy, route[0], {"op": "route", "node": n}, self._ledgered_route(n, text))
        if batch is not None:
            batch.add(n, item)
        else:
            changes, reply = self._send_routes(n, [item])
            self._settle_routes(n, [item], changes, (yield reply))
        return item.report

    def _send_routes(self, n: str, items) -> tuple[list[ConfigChange], Reply]:
        """One edit-config to ``n`` carrying each item's route, stamped with
        its own policy's ttl."""
        changes = [self._stamp((item.change,), item.policy.default_entry_ttl)[0] for item in items]
        return changes, self.sessions[n].edit_config(changes)

    def _settle_routes(self, n: str, items, changes, frame) -> None:
        """Ledger the routes of an answered route frame in order, so a later
        route to the same pattern wins, and fill their report entries."""
        if frame.type != southbound.OK:
            for item in items:
                item.report.update(outcome="FAILED", error=frame.error["code"])
            return
        for item, change in zip(items, changes):
            self._ledger_changes(n, (change,), item.policy.policy_id)
            item.report.update(pattern=change.value.pattern.text, outcome="OK")

    def _provision_job(self, policy: Policy, batch=None):
        """Install peers and routes along every client->home path, pairing
        each new adjacency with the new route in one edit-config frame; with
        a ``batch``, the routes that need no new adjacency are collected in it."""
        report: list[dict] = []
        home = policy.home_node
        next_hops = self._next_hops_to(home)
        order, unreachable = self._client_paths(policy, next_hops)
        for client in unreachable:
            report.append({"op": "path", "node": client, "outcome": "UNREACHABLE"})
        failed: set[str] = set()
        for n in order:
            next_hop = next_hops[n]
            if n in failed or next_hop in failed:
                report.append({"op": "route", "node": n, "outcome": "SKIPPED"})
                continue
            result = yield from self._ensure_hop(policy, n, next_hop, batch)
            if isinstance(result, EstablishResult):
                report.append({"op": "adjacency", "node": n, "next_hop": next_hop,
                               "outcome": result.status, "error": result.error})
                if result.status != "ESTABLISHED":
                    failed.add(next_hop if result.failed_step == 1 else n)
            elif result is not None:
                report.append(result)
        if home not in failed:
            result = yield from self._ensure_hop(policy, home, None, batch)
            if result is not None:
                report.append(result)
        self.reports.append({"event": "provision", "policy": policy.policy_id, "report": report})
        return report

    def _provision_all_job(self):
        """Every policy's walk in order, with its missing adjacencies
        established on the way as in ``_provision_job``; the routes that
        need no new adjacency are collected per node, and each node then
        gets all of its routes in one edit-config, every node's frame in
        flight at once. A merged frame that fails is resent one route per
        frame, so each route gets the outcome it would get alone. A route
        that a later policy's adjacency exchange replaced before the flush
        is not sent and is reported SUPERSEDED."""
        batch = _RouteBatch()
        reports = []
        for policy in self.policies:
            reports.append((yield from self._provision_job(policy, batch)))
        flights = []
        for n, items in batch.routes.items():
            live = []
            for item in items:
                if self._ledgered_route(n, item.policy.realm_pattern.text) is item.over:
                    live.append(item)
                else:
                    item.report["outcome"] = "SUPERSEDED"
            if live:
                flights.append((n, live, *self._send_routes(n, live)))
        for n, items, changes, reply in flights:
            frame = yield reply
            if frame.type == southbound.OK or len(items) == 1:
                self._settle_routes(n, items, changes, frame)
                continue
            for item in items:
                changes, reply = self._send_routes(n, [item])
                self._settle_routes(n, [item], changes, (yield reply))
        return reports

    def _acquire_job(self, note: Notification):
        """Reactive path: give the notifying node its hop of the matched
        policy, with one combined peer+route frame (plus the mirror frame)
        when the adjacency is missing."""
        n = note.node_id
        realm = note.realm
        policy = self._match_policy(realm)
        if policy is None:
            self.reports.append({"event": "unroutable", "node": n, "realm": realm.text})
            log.info("acquire from %s for %s: no policy", n, realm.text)
            return None
        next_hop = None
        if n != policy.home_node:
            next_hop = self._next_hops_to(policy.home_node).get(n)
            if next_hop is None:
                self.reports.append(
                    {"event": "unroutable", "node": n, "realm": realm.text, "reason": "no path"}
                )
                return None
        return (yield from self._ensure_hop(policy, n, next_hop))

    def _expired_job(self, note: Notification):
        """Re-provision an expired entry when its policy is still active."""
        node_entry = self.ledger.get(note.node_id, {})
        if note.kind == Notification.PEER_EXPIRED:
            gone = node_entry.get("peers", {}).pop(note.peer_id, None)
            record = self.adjacencies.get(frozenset((note.node_id, note.peer_id)))
            if record is not None:
                record.status = "NONE"
        else:
            gone = node_entry.get("routes", {}).pop(note.pattern.text, None)
        policy = self._policy_for_id.get(gone["policy"]) if gone else None
        return (yield from self._reprovision(policy, "expired", note, "REMOVAL_CONFIRMED"))

    def _forward_failure_job(self, note: Notification):
        """Suspect the failed peer's node, recompute next hops without it,
        and re-provision the affected policy."""
        if note.peer_id not in self.suspected:
            self.suspected.add(note.peer_id)
            self._next_hops.clear()
        log.info("forward failure at %s via %s; suspecting %s", note.node_id, note.peer_id, note.peer_id)
        policy = self._match_policy(note.realm)
        return (yield from self._reprovision(policy, "forward-failure", note, "NO_POLICY"))

    def _reprovision(self, policy: Optional[Policy], event: str, note: Notification, outcome: str):
        """Re-provision the policy a notification concerns, or report that
        there is none."""
        if policy is None:
            self.reports.append({"event": event, "node": note.node_id, "outcome": outcome})
            return None
        return (yield from self._provision_job(policy))

    # ------------------------------------------------------------------
    # snapshot

    def snapshot_json(self) -> str:
        """Serialized desired state: policies, adjacencies, ledger. Contains
        credential fingerprints, never raw material."""
        state = {
            "policies": [
                {
                    "policy_id": p.policy_id,
                    "pattern": p.realm_pattern.text,
                    "home": p.home_node,
                    "security": p.security,
                    "ttl": p.default_entry_ttl,
                }
                for p in self.policies
            ],
            "adjacencies": [
                {
                    "pair": sorted(record.pair),
                    "status": record.status,
                    "security": record.security,
                    "fingerprint": record.credential_fingerprint,
                }
                for record in sorted(self.adjacencies.values(), key=lambda r: sorted(r.pair))
            ],
            "ledger": {
                node: {
                    "peers": {k: dict(v) for k, v in sorted(entry["peers"].items())},
                    "routes": {k: dict(v) for k, v in sorted(entry["routes"].items())},
                }
                for node, entry in sorted(self.ledger.items())
            },
        }
        return json.dumps(state, separators=(",", ":"))
