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
import logging
import random
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from . import model, southbound
from .model import (
    Action,
    CodedError,
    Notification,
    PeerEntry,
    RealmEntry,
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
    served_realms: tuple[str, ...] = ()  # as model.parse_realm gives them
    state: str = "UP"


@dataclass
class Topology:
    """Controller-side view: nodes, allowed adjacencies, realm homes.

    Links and roles are fixed for a run, so the sorted neighbour lists and
    the sorted client list are built once, here. A node's ``state`` is the
    loaded one: the controller's liveness view (``suspected``) starts from
    it, and the controller caches each home's shortest paths until that
    view changes."""

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
    realm_pattern: str  # as model.parse_pattern gives it
    home_node: str
    security: str  # psk | tls
    default_entry_ttl: Optional[int] = None


def load_policy(text: str, topology: Topology) -> list[Policy]:
    """Parse northbound directives, one per line:

        route <pattern> via <node_id> security <psk|tls> [ttl <ms>]

    '#' starts a comment. Errors: PARSE_ERROR, UNKNOWN_HOME_NODE, and
    DUPLICATE_PATTERN for a pattern an earlier line gave (a node's routing
    list is keyed by pattern).
    """
    policies: dict[str, Policy] = {}  # by pattern
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
            pattern = model.parse_pattern(tokens[1])
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
        if pattern in policies:
            raise CodedError("DUPLICATE_PATTERN", f"line {lineno}: {pattern}")
        policies[pattern] = Policy(f"p{len(policies) + 1}", pattern, home, security, ttl)
    return list(policies.values())


def compute_next_hops(
    topology: Topology, target: str, exclude: frozenset = frozenset()
) -> dict[str, str]:
    """BFS shortest-path next hops toward ``target`` over the nodes not in
    ``exclude``.

    Ties between equal-distance next hops break toward the
    lexicographically smallest node id; unreachable nodes are absent.
    """
    up = topology.nodes.keys() - exclude
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


@dataclass(frozen=True)
class EstablishResult:
    status: str  # ESTABLISHED | FAILED
    failed_step: Optional[int] = None
    error: Optional[str] = None


class _Paths(NamedTuple):
    """Shortest paths toward one home for one liveness view: each node's
    next hop, the nodes on client->home paths in first-visit order, and the
    clients with no path."""

    next_hops: dict[str, str]
    order: tuple[str, ...]
    unreachable: tuple[str, ...]


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
        self._policy_for_pattern = {p.realm_pattern: p for p in self.policies}
        self._policy_for_id = {p.policy_id: p for p in self.policies}
        # desired state confirmed by OK replies; holds no credential bytes.
        # An adjacency is established when each side holds the other's peer.
        self.ledger: dict[str, dict] = {}
        # each pair's credential fingerprint, from its last successful exchange
        self._fingerprints: dict[frozenset, str] = {}
        # a node loaded DOWN is suspect until it registers
        self.suspected = {n for n, info in topology.nodes.items() if info.state != "UP"}
        # shortest paths per home; dropped whenever ``suspected`` changes
        self._paths: dict[str, _Paths] = {}
        self._jobs: deque = deque()
        # pushed changes held for a node with no session, sent when it gets one
        self._unsent: dict[str, list[ConfigChange]] = {}

    # ------------------------------------------------------------------
    # wiring

    def attach_session(self, node_id: str, session: southbound.Session) -> None:
        self.sessions[node_id] = session
        if node_id in self._unsent:
            self._submit(self._push_job(node_id, self._unsent.pop(node_id)))

    def node_registered(self, node_id: str) -> None:
        """Re-registration of a node clears any failure suspicion."""
        if node_id in self.suspected:
            self.suspected.remove(node_id)
            self._paths.clear()

    # ------------------------------------------------------------------
    # job queue: handlers and provisioning run strictly one at a time

    def _submit(self, gen) -> Reply:
        done = Reply()
        self._jobs.append((gen, done))
        if len(self._jobs) == 1:  # idle: the running job stays queued until it ends
            southbound.run_workflow(self._drain())
        return done

    def _drain(self):
        """Run the queued jobs in submission order, resolving each one's
        Reply with its result."""
        jobs = self._jobs
        while jobs:
            gen, done = jobs[0]
            done.resolve((yield from gen))
            jobs.popleft()

    # ------------------------------------------------------------------
    # public operations (each returns a Reply resolved when the job ends)

    def establish_adjacency(self, node_a: str, node_b: str, security: str, ttl=None) -> Reply:
        return self._submit(self._adjacency_job(node_a, node_b, security, ttl))

    def provision_realm(self, policy: Policy) -> Reply:
        return self._submit(self._provision_job((policy,)))

    def provision_all(self) -> Reply:
        """Provision every policy in one job."""
        return self._submit(self._provision_job(self.policies, bulk=True))

    def get_node_config(self, node_id: str) -> Reply:
        return self._submit(self._get_config_job(node_id))

    def push_document(self, node_id: str, doc: model.ConfigDocument) -> Reply:
        """Administrator-style seeding of a full document (scenario
        static_config); applied through the node's session once it has one, not ledgered."""
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
        sides, the controller keeps the fingerprint. A side is its TLS
        profile (None for psk) and the fields of its peer entry but the
        expiration; ``_frame_changes`` builds its changes when its frame is
        sent."""
        def peer(other: str, identity: str, transport: Transport, credential) -> tuple:
            return (other, identity, self._address(other), model.TRANSPORT_PORTS[transport],
                    transport, credential)

        if security == PSK:
            secret = self.rng.randbytes(32)
            credential = SharedSecret(secret)
            return ((None, peer(b, b, Transport.RADIUS_UDP, credential)),
                    (None, peer(a, a, Transport.RADIUS_UDP, credential)),
                    hashlib.sha256(secret).hexdigest())
        key_a = self.rng.randbytes(32)
        key_b = self.rng.randbytes(32)
        sides = []
        for own, other, key in ((a, b, key_a), (b, a, key_b)):
            name = f"tls-{own}-{other}"
            sides.append((TlsProfile(name, f"{own}-cert", key, frozenset({f"{other}-cert"})),
                          peer(other, f"{other}-cert", Transport.RADIUS_TLS, TlsRef(name))))
        return sides[0], sides[1], hashlib.sha256(key_a + key_b).hexdigest()

    def _expiration(self, ttl: Optional[int]) -> Optional[int]:
        """The absolute expiration of an entry sent now: its lifetime measured
        from node-side creation equals ttl (send time + channel latency +
        ttl). None without a ttl."""
        return None if ttl is None else self.loop.now + southbound.LATENCY + ttl

    @staticmethod
    def _route_change(policy: Policy, hop: Optional[str], exp: Optional[int]) -> ConfigChange:
        """The MERGE of the policy's route: RELAY via ``hop``, or LOCAL when
        ``hop`` is None."""
        pattern = policy.realm_pattern
        action = Action.LOCAL if hop is None else Action.RELAY
        return ConfigChange(southbound.MERGE, f"routing/{pattern}",
                            RealmEntry(pattern, hop, action, (), exp))

    def _frame_changes(self, side, policy: Optional[Policy], hops, ttl: Optional[int]):
        """An adjacency frame's changes, built at its send time: the side's
        TLS profile (if any), its peer, then the policy's routes via ``hops``."""
        profile, peer = side
        exp = self._expiration(ttl)
        changes = [] if profile is None else [
            ConfigChange(southbound.MERGE, f"tls/{profile.name}", profile)]
        changes.append(ConfigChange(southbound.MERGE, f"peers/{peer[0]}", PeerEntry(*peer, exp)))
        return changes + [self._route_change(policy, hop, exp) for hop in hops]

    # ------------------------------------------------------------------
    # ledger bookkeeping

    def _node_ledger(self, node_id: str) -> dict:
        entry = self.ledger.get(node_id)
        if entry is None:
            entry = self.ledger[node_id] = {"peers": {}, "routes": {}}
        return entry

    def _ledger_changes(self, node_id: str, changes, policy_id) -> None:
        """Record confirmed changes: a MERGE ledgers its peer or route, and a
        DELETE (a rollback's) drops it."""
        for ch in changes:
            container, key = ch.container_key()
            if ch.op == southbound.DELETE:
                table = self.ledger.get(node_id, {}).get("routes" if container == "routing" else container)
                if table is not None:
                    table.pop(key, None)
            elif container == "peers":
                self._node_ledger(node_id)["peers"][key] = {
                    "peer_id": key,
                    "transport": ch.value.transport.value,
                    "security": PSK if isinstance(ch.value.credential, SharedSecret) else TLS,
                    "expiration": ch.value.expiration,
                    "policy": policy_id,
                }
            elif container == "routing":
                self._node_ledger(node_id)["routes"][key] = {
                    "pattern": key,
                    "next_hop": ch.value.next_hop,
                    "action": ch.value.action.value,
                    "expiration": ch.value.expiration,
                    "policy": policy_id,
                }

    def _ledgered_route(self, node_id: str, pattern: str) -> Optional[dict]:
        entry = self.ledger.get(node_id)
        return None if entry is None else entry["routes"].get(pattern)

    def _established(self, a: str, b: str) -> bool:
        """Whether each of ``a`` and ``b`` holds the other's ledgered peer."""
        ledger = self.ledger
        return a in ledger and b in ledger and b in ledger[a]["peers"] and a in ledger[b]["peers"]

    def _paths_to(self, home: str) -> _Paths:
        """The shared, read-only shortest paths toward ``home`` for the
        current liveness view."""
        paths = self._paths.get(home)
        if paths is None:
            next_hops = compute_next_hops(self.topology, home, frozenset(self.suspected))
            paths = self._paths[home] = _Paths(next_hops, *self._client_paths(home, next_hops))
        return paths

    def _match_policy(self, realm: str) -> Optional[Policy]:
        """The policy of the most specific pattern that matches ``realm``."""
        for key in model.lookup_keys(realm):
            policy = self._policy_for_pattern.get(key)
            if policy is not None:
                return policy
        return None

    # ------------------------------------------------------------------
    # jobs

    def _adjacency_job(self, a, b, security, ttl, policy=None, hops_a=(), hops_b=()):
        """Two-step exchange: configure a, await OK, configure b, await OK;
        roll back a when the second step fails. ``hops_*`` are the next hops
        of the policy's routes missing at each side (None for the home's
        LOCAL route), sent in the same frames."""
        session_a = self.sessions.get(a)
        session_b = self.sessions.get(b)
        if session_a is None:
            return EstablishResult("FAILED", 1, "NO_SESSION")
        if session_b is None:
            return EstablishResult("FAILED", 3, "NO_SESSION")
        side_a, side_b, fingerprint = self._adjacency_changes(a, b, security)
        changes_a = self._frame_changes(side_a, policy, hops_a, ttl)

        if self.parallel_adjacency:
            changes_b = self._frame_changes(side_b, policy, hops_b, ttl)
            reply_a = session_a.edit_config(changes_a)
            reply_b = session_b.edit_config(changes_b)
            frame_a = yield reply_a
            frame_b = yield reply_b
        else:
            frame_a = yield session_a.edit_config(changes_a)
            frame_b = None
            if frame_a.type == southbound.OK:
                # built at its own send time so ttl counts from node-side creation
                changes_b = self._frame_changes(side_b, policy, hops_b, ttl)
                frame_b = yield session_b.edit_config(changes_b)

        ok_a = frame_a.type == southbound.OK
        ok_b = frame_b is not None and frame_b.type == southbound.OK
        if not (ok_a and ok_b):
            # undo the side that applied and unledger what the undo deletes;
            # a failed frame changed nothing
            if ok_a or ok_b:
                node, session, changes = (a, session_a, changes_a) if ok_a else (b, session_b, changes_b)
                # in reverse, so routes go before the peers they reference
                rollback = [ConfigChange(southbound.DELETE, ch.path) for ch in reversed(changes)]
                if (yield session.edit_config(rollback)).type == southbound.OK:
                    self._ledger_changes(node, rollback, None)
            if ok_a:
                return EstablishResult("FAILED", 3, frame_b.error["code"])
            return EstablishResult("FAILED", 1, frame_a.error["code"])

        self._fingerprints[frozenset((a, b))] = fingerprint
        policy_id = None if policy is None else policy.policy_id
        self._ledger_changes(a, changes_a, policy_id)
        self._ledger_changes(b, changes_b, policy_id)
        log.info("adjacency %s-%s established (%s)", a, b, security)
        return EstablishResult("ESTABLISHED")

    def _get_config_job(self, node_id):
        session = self.sessions.get(node_id)
        if session is None:
            return None
        frame = yield session.get_config()
        return frame.doc if frame.type == southbound.CONFIG else None

    def _push_job(self, node_id, changes):
        session = self.sessions.get(node_id)
        if session is None:
            self._unsent.setdefault(node_id, []).extend(changes)
        else:
            yield session.edit_config(changes)

    def _client_paths(self, home: str, next_hops: dict[str, str]):
        """Nodes on client->home shortest paths in first-visit order, and
        the clients with no path."""
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
        return tuple(order), tuple(unreachable)

    def _missing_route(self, policy: Policy, node: str, hop: Optional[str]) -> bool:
        """Whether the ledger lacks the policy's route at ``node``: RELAY via
        ``hop``, or LOCAL when ``hop`` is None."""
        have = self._ledgered_route(node, policy.realm_pattern)
        action = Action.LOCAL if hop is None else Action.RELAY
        return have is None or have["next_hop"] != hop or have["action"] != action.value

    def _ensure_hop(self, policy: Policy, n: str, next_hop: Optional[str], routes: dict):
        """Give ``n`` the policy's route: RELAY via ``next_hop``, or LOCAL
        when ``next_hop`` is None (``n`` is the home). A missing adjacency
        is established with n's route in n's frame and, when the next hop
        is the home, the home's LOCAL route in the mirror frame; with the
        adjacency in place a missing route is collected into ``routes``, per
        node, as a (policy, next hop) pair for the caller's ``_flush``.

        Returns the adjacency's EstablishResult, or None when no adjacency
        was missing."""
        missing = self._missing_route(policy, n, next_hop)
        if next_hop is not None and not self._established(n, next_hop):
            # Mirror side first: if n holds parked traffic, its lazy
            # handshake must find the counterpart entry already in place.
            mirror = next_hop == policy.home_node and self._missing_route(policy, next_hop, None)
            result = yield from self._adjacency_job(
                next_hop, n, policy.security, policy.default_entry_ttl, policy,
                (None,) if mirror else (), (next_hop,) if missing else (),
            )
            if result.status != "ESTABLISHED":
                log.info("adjacency %s-%s failed at step %s (%s)",
                         next_hop, n, result.failed_step, result.error)
            return result
        if missing and n in self.sessions:
            routes.setdefault(n, []).append((policy, next_hop))
        return None

    def _flush(self, routes: dict[str, list[tuple[Policy, Optional[str]]]]):
        """Send each node its collected routes in one edit-config, every
        node's frame in flight at once, each route built now with its own
        policy's ttl. The routes of an OK frame are ledgered; a merged frame
        that fails is resent one route per frame, so each route gets the
        outcome it would get alone. The only code that sends route-only
        frames."""
        flights = []
        for n, items in routes.items():
            changes = [self._route_change(policy, hop, self._expiration(policy.default_entry_ttl))
                       for policy, hop in items]
            flights.append((n, items, changes, self.sessions[n].edit_config(changes)))
        for n, items, changes, reply in flights:
            frame = yield reply
            if frame.type == southbound.OK:
                for (policy, _hop), change in zip(items, changes):
                    self._ledger_changes(n, (change,), policy.policy_id)
            elif len(items) > 1:
                for item in items:
                    yield from self._flush({n: [item]})

    def _provision_job(self, policies, nodes=None, bulk=False, realm=None):
        """The one provisioning walk. Each policy in turn gives each of
        ``nodes`` its hop through ``_ensure_hop``: by default the clients
        with no path, then the nodes on client->home paths in first-visit
        order, then the home. A non-home node with no next hop is logged
        (naming ``realm``, the one an acquire asked for, if given) and
        skipped, as are the hops behind a failed adjacency. Route-only hops
        are flushed hop by hop or, with ``bulk``, once after the last
        policy."""
        routes: dict[str, list] = {}
        for policy in policies:
            home = policy.home_node
            next_hops, walk = None, nodes
            if nodes is None:
                next_hops, order, unreachable = self._paths_to(home)
                walk = (*unreachable, *order, home)
            failed: set[str] = set()
            for n in walk:
                next_hop = None
                if n != home:
                    if next_hops is None:  # only a walk that leaves the home needs paths
                        next_hops = self._paths_to(home).next_hops
                    next_hop = next_hops.get(n)
                    if next_hop is None:
                        if realm is None:
                            log.info("policy %s: no path from %s", policy.policy_id, n)
                        else:
                            log.info("acquire from %s for %s: no path", n, realm)
                        continue
                if n in failed or next_hop in failed:
                    continue
                result = yield from self._ensure_hop(policy, n, next_hop, routes)
                if routes and not bulk:
                    yield from self._flush(routes)
                    routes = {}
                if result is not None and result.status != "ESTABLISHED":
                    failed.add(next_hop if result.failed_step == 1 else n)
        if routes:
            yield from self._flush(routes)

    def _acquire_job(self, note: Notification):
        """Reactive path: walk the notifying node's hop of the matched
        policy."""
        policy = self._match_policy(note.realm)
        if policy is None:
            log.info("acquire from %s for %s: no policy", note.node_id, note.realm)
            return
        yield from self._provision_job((policy,), (note.node_id,), realm=note.realm)

    def _expired_job(self, note: Notification):
        """Re-provision an expired entry when its policy is still active."""
        node_entry = self.ledger.get(note.node_id, {})
        if note.kind == Notification.PEER_EXPIRED:
            gone = node_entry.get("peers", {}).pop(note.peer_id, None)
        else:
            gone = node_entry.get("routes", {}).pop(note.pattern, None)
        policy = self._policy_for_id.get(gone["policy"]) if gone else None
        if policy is not None:
            yield from self._provision_job((policy,))

    def _forward_failure_job(self, note: Notification):
        """Suspect the failed peer's node, recompute next hops without it,
        and re-provision the affected policy."""
        if note.peer_id not in self.suspected:
            self.suspected.add(note.peer_id)
            self._paths.clear()
        log.info("forward failure at %s via %s; suspecting %s", note.node_id, note.peer_id, note.peer_id)
        policy = self._match_policy(note.realm)
        if policy is not None:
            yield from self._provision_job((policy,))

    # ------------------------------------------------------------------
    # snapshot

    def snapshot(self) -> dict:
        """The desired state as JSON values: policies, adjacencies (the
        pairs whose sides hold each other's ledgered peer), ledger. Built of
        fresh containers (the ledger's entries copied), so a later change of
        the ledger leaves it as it was. Contains credential fingerprints,
        never raw material."""
        return {
            "policies": [
                {
                    "policy_id": p.policy_id,
                    "pattern": p.realm_pattern,
                    "home": p.home_node,
                    "security": p.security,
                    "ttl": p.default_entry_ttl,
                }
                for p in self.policies
            ],
            "adjacencies": [
                {
                    "pair": [a, b],
                    "status": "ESTABLISHED",
                    "security": peer["security"],
                    "fingerprint": self._fingerprints.get(frozenset((a, b))),
                }
                for a, entry in sorted(self.ledger.items())
                for b, peer in sorted(entry["peers"].items())
                if a < b and self._established(a, b)
            ],
            "ledger": {
                node: {
                    "peers": {k: dict(v) for k, v in sorted(entry["peers"].items())},
                    "routes": {k: dict(v) for k, v in sorted(entry["routes"].items())},
                }
                for node, entry in sorted(self.ledger.items())
            },
        }
