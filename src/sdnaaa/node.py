"""Data plane agent: applies southbound configuration, manages simulated
security channels with its peers, and routes AAA messages by realm with
LOCAL/RELAY/PROXY/REDIRECT semantics, reactive acquire notifications and
entry expirations.

A node is a single logical state machine: southbound frames, AAA records
and timer ticks are processed one at a time in event-loop order. Nothing
blocks; every inter-node interaction is message passing with explicit
latency supplied by the surrounding harness.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from . import model, southbound
from .model import (
    AaaMessage,
    Action,
    CodedError,
    Direction,
    MsgKind,
    Notification,
    RealmEntry,
    RuleOp,
    SharedSecret,
    TlsRef,
)

HOP_LIMIT = model.HOP_LIMIT
PENDING_LIMIT = 64
PENDING_TIMEOUT_MS = 5000
REDIRECT_HINT_TTL_MS = 30000

UP = "UP"
DOWN = "DOWN"


def apply_attribute_rules(msg: AaaMessage, rules, direction: Direction) -> AaaMessage:
    """Apply matching rules in list order to a copy of the attribute map.

    ADD of an existing attribute raises ADD_EXISTS, REPLACE of a missing
    one raises REPLACE_MISSING, REMOVE of a missing one is a no-op. The
    hop trace and the NAI are never touched.
    """
    attrs = dict(msg.attributes)
    for rule in rules:
        if rule.direction is not direction:
            continue
        if rule.op is RuleOp.ADD:
            if rule.attribute in attrs:
                raise CodedError("ADD_EXISTS", rule.attribute)
            attrs[rule.attribute] = rule.value
        elif rule.op is RuleOp.REMOVE:
            attrs.pop(rule.attribute, None)
        else:  # REPLACE
            if rule.attribute not in attrs:
                raise CodedError("REPLACE_MISSING", rule.attribute)
            attrs[rule.attribute] = rule.value
    return msg._replace(attributes=attrs)


# records exchanged between nodes besides AAA messages


@dataclass(frozen=True)
class RedirectQuery:
    realm: str
    requester: str

    def to_json(self) -> dict:
        return {"kind": "redirect-query", "realm": self.realm, "from": self.requester}


@dataclass(frozen=True)
class RedirectHint:
    realm: str
    next_host: str
    ttl: int

    def to_json(self) -> dict:
        return {"kind": "redirect-hint", "realm": self.realm, "next": self.next_host, "ttl": self.ttl}


@dataclass(frozen=True)
class RedirectMiss:
    realm: str

    def to_json(self) -> dict:
        return {"kind": "redirect-miss", "realm": self.realm}


class _PendingQueue:
    """FIFO of messages waiting for a usable route to one realm, kept in
    ``Node.pending`` under that realm.

    The queue's lifetime is the deduplication window for both the
    acquire-route notification and forward-failure notifications.
    """

    __slots__ = ("items", "acquire_sent", "failures_reported")

    def __init__(self):
        self.items: deque = deque()
        self.acquire_sent = False
        self.failures_reported: set[str] = set()


class Node:
    """One AAA node: running configuration plus routing behavior."""

    def __init__(
        self,
        node_id: str,
        address: str,
        loop,
        network,
        served_realms=(),
        users: Optional[dict[str, str]] = None,
        authorized_controller: str = "controller",
        state: str = UP,
    ):
        self.node_id = node_id
        self.address = address
        self.loop = loop
        self.network = network
        self.served_realms: frozenset[str] = frozenset(served_realms)  # hashed lookup per request
        self.users = dict(users or {})
        self.authorized_controller = authorized_controller
        self.state = state
        self.session = None

        self.running = model.ConfigDocument()
        self.channels: dict[str, Node] = {}  # peer id -> node at the end of an established channel
        self.pending: dict[str, _PendingQueue] = {}  # by realm
        self.route_cache: dict[str, RealmEntry] = {}

        self.forwards = 0
        self.queue_drops = 0
        self.notification_drops = 0
        self.redirect_queries_sent = 0

        self._handshakes: dict[str, list] = {}  # peer id -> records waiting for its handshake
        self._redirect_inflight: set[str] = set()

    def is_up(self) -> bool:
        return self.state == UP

    # ------------------------------------------------------------------
    # southbound configuration

    def apply_changes(self, changes) -> tuple[bool, Optional[dict]]:
        """Atomic validate-then-swap: either every change lands or none.

        Only the touched entities and their referrers are validated, which
        relies on the running document being valid: every swap here is
        validated, and tick removes expired peers together with the routes
        that use them. Returns (True, None) or (False, {"code", "detail"}).
        """
        try:
            doc = model.with_entries(self.running, map(self._edit, changes))
        except CodedError as err:
            return False, {"code": err.code, "detail": [str(err)]}
        violations = model.validate_changes(doc, [c.container_key() for c in changes])
        if violations:
            return False, {
                "code": "VALIDATION_FAILED",
                "detail": [v.to_json() for v in violations],
            }
        old = self.running
        self.running = doc
        self._after_apply(old, changes)
        return True, None

    @staticmethod
    def _edit(change) -> tuple[str, str, object]:
        """``change`` as a ``model.with_entries`` edit. Errors: BAD_PATH."""
        container, key = change.container_key()
        if change.op == southbound.MERGE:
            if change.value is None:
                raise CodedError("BAD_PATH", f"{change.path}: merge without value")
            if model.entry_key(container, change.value) != key:
                raise CodedError("BAD_PATH", f"{change.path}: key mismatch")
            return container, key, change.value
        if change.op == southbound.DELETE:
            return container, key, None
        raise CodedError("BAD_PATH", f"{change.path}: bad op {change.op!r}")

    def _after_apply(self, old: model.ConfigDocument, changes) -> None:
        routing_touched = False
        for change in changes:
            container, key = change.container_key()
            if container == "peers":
                before = old.peer(key)
                after = self.running.peer(key)
                if before is not None and before != after:
                    self._drop_channel_pair(before)
                if after is not None and after.expiration is not None:
                    self.loop.call_at(after.expiration, self._timer_tick)
            elif container == "routing":
                routing_touched = True
                before = old.route(key)
                after = self.running.route(key)
                if before is not None and after is not None and before.next_hop != after.next_hop:
                    self.network.metrics.reroutes += 1
                if after is not None and after.expiration is not None:
                    self.loop.call_at(after.expiration, self._timer_tick)
        if routing_touched:
            self._flush_pending()

    def _drop_channel_pair(self, entry: model.PeerEntry) -> None:
        self.channels.pop(entry.peer_id, None)
        peer_node = self.network.by_address.get(entry.host)
        if peer_node is None:
            return
        mirror = peer_node.peer_for_host(self.address)
        if mirror is not None:
            peer_node.channels.pop(mirror.peer_id, None)

    def peer_for_host(self, host: str) -> Optional[model.PeerEntry]:
        """The peer entry behind ``host``; the smallest peer_id when
        several entries share it."""
        matches = (p for p in self.running.peers.values() if p.host == host)
        return min(matches, key=lambda p: p.peer_id, default=None)

    # ------------------------------------------------------------------
    # security channels

    def establish_channel(self, peer_id: str, *records) -> None:
        """Simulated handshake with the peer behind ``peer_id``, settled one
        time unit later, when each of ``records`` is sent over the channel or
        passed to _unsent. Concurrent attempts share one handshake."""
        waiting = self._handshakes.get(peer_id)
        if waiting is None:
            waiting = self._handshakes[peer_id] = []
            self.loop.call_later(1, lambda: self._finish_handshake(peer_id))
        waiting.extend(records)

    def _finish_handshake(self, peer_id: str) -> None:
        waiting = self._handshakes.pop(peer_id, [])
        if not self.is_up():
            return
        reason, peer_node, mirror = self._handshake_verdict(peer_id)
        ok = reason is None
        if ok:
            self.channels[peer_id] = peer_node
            peer_node.channels[mirror.peer_id] = self
            self.network.transcript.add((self.loop.now, self.node_id, "channel-up", peer_node.node_id))
        else:
            self.channels.pop(peer_id, None)
        for record in waiting:
            if ok:
                self._send(peer_id, record)
            else:
                self._unsent(record, peer_id, reason)
        if ok:
            # fresh connectivity may unblock messages parked on a channel
            # failure; both endpoints retry their queues
            self._flush_pending()
            peer_node._flush_pending()

    def _handshake_verdict(self, peer_id: str) -> tuple:
        """(None, peer node, its mirror entry) when the channel can come up,
        else (reason, None, None)."""
        entry = self.running.peer(peer_id)
        if entry is None:
            return "NO_MIRROR_ENTRY", None, None
        peer_node = self.network.by_address.get(entry.host)
        if peer_node is None or not peer_node.is_up():
            return "PEER_DOWN", None, None
        mirror = peer_node.peer_for_host(self.address)
        if mirror is None:
            return "NO_MIRROR_ENTRY", None, None
        if mirror.transport is not entry.transport:
            return "TRANSPORT_MISMATCH", None, None
        mine, theirs = entry.credential, mirror.credential
        if isinstance(mine, SharedSecret) and isinstance(theirs, SharedSecret):
            if (
                isinstance(mine.secret, bytes)
                and isinstance(theirs.secret, bytes)
                and mine.secret == theirs.secret
            ):
                return None, peer_node, mirror
            return "CREDENTIAL_MISMATCH", None, None
        if isinstance(mine, TlsRef) and isinstance(theirs, TlsRef):
            my_prof = self.running.profile(mine.profile)
            their_prof = peer_node.running.profile(theirs.profile)
            if (
                my_prof is not None
                and their_prof is not None
                and their_prof.local_identity in my_prof.trusted_identities
                and my_prof.local_identity in their_prof.trusted_identities
            ):
                return None, peer_node, mirror
        return "CREDENTIAL_MISMATCH", None, None

    # ------------------------------------------------------------------
    # message routing

    def handle_message(self, msg: AaaMessage, now: int) -> None:
        if msg.kind is MsgKind.RESPONSE:
            self._route_response(msg)
            return
        if self.node_id in msg.hop_trace:
            self._fail(msg, "ROUTE_LOOP")
            return
        if len(msg.hop_trace) >= HOP_LIMIT:
            self._fail(msg, "HOP_LIMIT")
            return
        msg = msg.hop(self.node_id)
        entry = self._select(msg.dest_realm, now)
        if entry is None:
            self._park(msg, now, acquire=True)
        else:
            self._dispatch(msg, entry, now)

    def _select(self, realm: str, now: int) -> Optional[RealmEntry]:
        # a live redirect hint overrides the running entry it refined; hints
        # are keyed by the exact realm text, so one probe finds the realm's
        # own, and an expired one is dropped here
        hint = self.route_cache.get(realm)
        if hint is not None:
            if now < hint.expiration:
                return hint
            del self.route_cache[realm]
        return model.select_route(self.running.routing, realm, now)

    def _dispatch(self, msg: AaaMessage, entry: RealmEntry, now: int) -> None:
        if entry.action is Action.RELAY:
            self._forward(msg, entry.next_hop)
        elif entry.action is Action.LOCAL:
            self.authenticate_local(msg)
        elif entry.action is Action.PROXY:
            rules = [self.running.rule(ref) for ref in entry.rule_refs]
            try:
                msg = apply_attribute_rules(msg, rules, Direction.OUTGOING)
            except CodedError as err:
                self._fail(msg, err.code)
                return
            self._forward(msg, entry.next_hop)
        else:  # REDIRECT
            self.query_redirect(msg, entry.next_hop, now)

    def _forward(self, msg: AaaMessage, peer_id: str) -> None:
        peer = self.channels.get(peer_id)
        if msg.dest_realm in self.pending:
            # a backlog means the last dispatch round could not get through;
            # join it to keep per-realm FIFO, and keep probing the channel so
            # a recovery flushes the whole queue
            self._park(msg, self.loop.now, acquire=False)
            if peer is None:
                self.establish_channel(peer_id)
        elif peer is None:
            self._send(peer_id, msg)
        else:
            self.forwards += 1
            self.network.send_record(self, peer, msg)

    def _send(self, peer_id: str, record) -> None:
        """Transmit ``record`` to ``peer_id`` over an established channel,
        else after a handshake; a record that cannot go out goes to _unsent."""
        peer = self.channels.get(peer_id)
        if peer is None:
            self.establish_channel(peer_id, record)
            return
        if type(record) is RedirectQuery:
            self.redirect_queries_sent += 1
        else:
            self.forwards += 1
        self.network.send_record(self, peer, record)

    def _unsent(self, record, peer_id: str, reason: Optional[str]) -> None:
        """A request is recorded and parked for a retry after a reroute, a
        response ends CHANNEL_FAILED, a redirect query frees its realm for a
        new query. Parked traffic reports a peer once per pending queue."""
        if isinstance(record, RedirectQuery):
            realm = record.realm
            self._redirect_inflight.discard(realm)
            queue = self.pending.get(realm)
            if queue is None:
                return
        elif record.kind is MsgKind.RESPONSE:
            self.emit_notification(
                Notification.forward_failure(self.node_id, peer_id, record.dest_realm)
            )
            self._fail(record, "CHANNEL_FAILED")
            return
        else:
            realm = record.dest_realm
            self.network.transcript.add((self.loop.now, self.node_id, "channel-failed",
                                         peer_id, reason, record))
            queue = self._park(record, self.loop.now, acquire=False)
        if peer_id not in queue.failures_reported:
            queue.failures_reported.add(peer_id)
            self.emit_notification(Notification.forward_failure(self.node_id, peer_id, realm))

    def _park(self, msg: AaaMessage, now: int, acquire: bool) -> _PendingQueue:
        queue = self.pending.get(msg.dest_realm)
        if queue is None:
            queue = self.pending[msg.dest_realm] = _PendingQueue()
        if len(queue.items) >= PENDING_LIMIT:
            self.queue_drops += 1
            self._fail(msg, "QUEUE_FULL")
            return queue
        queue.items.append((msg, now))
        self.loop.call_at(now + PENDING_TIMEOUT_MS, self._timer_tick)
        if acquire and not queue.acquire_sent:
            queue.acquire_sent = True
            self.emit_notification(Notification.acquire_route(self.node_id, msg.dest_realm))
        return queue

    def _flush_pending(self) -> None:
        now = self.loop.now
        for realm, queue in list(self.pending.items()):
            # dispatching changes no route, so one lookup serves the queue
            entry = self._select(realm, now)
            if entry is None:
                continue
            del self.pending[realm]
            for msg, _enqueued in queue.items:
                self._dispatch(msg, entry, now)

    def authenticate_local(self, msg: AaaMessage) -> None:
        """Terminal LOCAL action on the home server: check the stub user
        registry and send the verdict back along the reversed hop trace."""
        if msg.dest_realm not in self.served_realms:
            self._fail(msg, "REALM_NOT_SERVED")
            return
        expected = self.users.get(msg.nai.user)
        accepted = expected is not None and expected == msg.attributes.get("password")
        self.network.metrics.hops[msg.msg_id] = len(msg.hop_trace)
        self._route_response(msg.answer(accepted))

    def _route_response(self, resp: AaaMessage) -> None:
        idx = resp.hop_trace.index(self.node_id)
        if idx == 0:
            self.network.finalize_message(self.node_id, resp)
            return
        prev = resp.hop_trace[idx - 1]
        peer = self.channels.get(prev)
        if peer is not None:  # the channel the request came in on
            self.forwards += 1
            self.network.send_record(self, peer, resp)
        elif (entry := self._peer_for_node(prev)) is None:
            self._fail(resp, "CHANNEL_FAILED")
        else:
            self._send(entry.peer_id, resp)

    def _peer_for_node(self, node_id: str) -> Optional[model.PeerEntry]:
        entry = self.running.peer(node_id)
        if entry is not None:
            return entry
        other = self.network.nodes.get(node_id)
        return self.peer_for_host(other.address) if other else None

    # ------------------------------------------------------------------
    # redirect

    def query_redirect(self, msg: AaaMessage, agent_peer_id: str, now: int) -> None:
        """Ask the redirect agent for the next hop; park the message until
        the hint arrives, then route through the cached synthesized entry.

        Only one query per realm is in flight; later messages share it.
        """
        realm = msg.dest_realm
        self._park(msg, now, acquire=False)
        if realm in self._redirect_inflight:
            return
        self._redirect_inflight.add(realm)
        self._send(agent_peer_id, RedirectQuery(realm, self.node_id))

    def _handle_redirect_query(self, query: RedirectQuery) -> None:
        now = self.loop.now
        entry = model.select_route(self.running.routing, query.realm, now)
        requester = self.network.nodes[query.requester]
        if entry is None:
            reply: object = RedirectMiss(query.realm)
        elif entry.next_hop is not None:
            hop = self.running.peer(entry.next_hop)
            ttl = (
                entry.expiration - now
                if entry.expiration is not None
                else REDIRECT_HINT_TTL_MS
            )
            reply = RedirectHint(query.realm, hop.host, ttl)
        else:
            reply = RedirectHint(query.realm, self.address, REDIRECT_HINT_TTL_MS)
        self.network.send_record(self, requester, reply)

    def _handle_redirect_hint(self, hint: RedirectHint) -> None:
        now = self.loop.now
        realm = hint.realm
        self._redirect_inflight.discard(realm)
        peer = self.peer_for_host(hint.next_host)
        if peer is None:
            self._fail_queue(realm, "CHANNEL_FAILED")
            return
        self.route_cache[realm] = RealmEntry(
            pattern=realm,
            next_hop=peer.peer_id,
            action=Action.RELAY,
            expiration=now + hint.ttl,
        )
        self._flush_pending()

    def _handle_redirect_miss(self, miss: RedirectMiss) -> None:
        self._redirect_inflight.discard(miss.realm)
        self._fail_queue(miss.realm, "REDIRECT_NO_ROUTE")

    def _fail_queue(self, realm: str, code: str) -> None:
        queue = self.pending.pop(realm, None)
        if queue is None:
            return
        for msg, _enqueued in queue.items:
            self._fail(msg, code)

    # ------------------------------------------------------------------
    # record delivery entry point

    def receive(self, record) -> None:
        """A record sent one tick earlier, or a request injected here; lost in
        flight if this node is DOWN, where a lost message ends its request."""
        if self.state != UP:
            self.network.metrics.lost_in_flight += 1
            if type(record) is AaaMessage:
                self._fail(record, "LOST_IN_FLIGHT")
        elif type(record) is AaaMessage:
            self.handle_message(record, self.loop.now)
        elif isinstance(record, RedirectQuery):
            self._handle_redirect_query(record)
        elif isinstance(record, RedirectHint):
            self._handle_redirect_hint(record)
        elif isinstance(record, RedirectMiss):
            self._handle_redirect_miss(record)

    # ------------------------------------------------------------------
    # timers and expiry

    def _timer_tick(self) -> None:
        self.tick(self.loop.now)

    def tick(self, now: int) -> list[Notification]:
        """Remove entries whose expiration has passed, cascade routes whose
        next hop vanished, and time out stale pending messages. Emits one
        notification per removed entry; idempotent across repeated calls.
        A tick before ``running.first_expiration`` scans and builds nothing."""
        notes: list[Notification] = []
        if (first := self.running.first_expiration) is not None and first <= now:
            # notifications go out in key order, peers before routes
            expired_peers = sorted(
                (key, p) for key, p in self.running.peers.items()
                if p.expiration is not None and p.expiration <= now
            )
            gone = {key for key, _p in expired_peers}
            expired_routes = sorted(
                (key, r) for key, r in self.running.routing.items()
                if (r.expiration is not None and r.expiration <= now)
                or (r.next_hop is not None and r.next_hop in gone)
            )
            notes = [Notification.peer_expired(self.node_id, key) for key, _p in expired_peers]
            notes += [Notification.route_expired(self.node_id, r.pattern) for _key, r in expired_routes]
            self.running = model.with_entries(self.running, [
                *(("peers", key, None) for key, _p in expired_peers),
                *(("routing", key, None) for key, _r in expired_routes)])
            for _key, p in expired_peers:
                self._drop_channel_pair(p)

        for realm, queue in list(self.pending.items()):
            while queue.items and now - queue.items[0][1] >= PENDING_TIMEOUT_MS:
                msg, _enqueued = queue.items.popleft()
                self._fail(msg, "NO_ROUTE_TIMEOUT")
            if not queue.items:
                del self.pending[realm]

        for note in notes:
            self.emit_notification(note)
        return notes

    # ------------------------------------------------------------------
    # notifications, failures, liveness

    def emit_notification(self, note: Notification) -> None:
        if self.session is None:
            self.notification_drops += 1
            return
        self.session.notify(note)

    def _fail(self, msg: AaaMessage, code: str) -> None:
        self.network.finalize_message(self.node_id, msg.failed(code))

    def set_down(self) -> None:
        """Go DOWN, keeping no state to wait on: each parked request ends
        NODE_DOWN, queue by queue, each front to back, then each request or
        response waiting on a handshake; redirect queries free their realms."""
        self.state = DOWN
        self.channels.clear()
        waiting = [msg for queue in self.pending.values() for msg, _enqueued in queue.items]
        for records in self._handshakes.values():
            waiting += (r for r in records if type(r) is AaaMessage)
            records.clear()  # the handshake still settles, with nothing to send
        for msg in waiting:
            self._fail(msg, "NODE_DOWN")
        self.pending.clear()
        self.route_cache.clear()
        self._redirect_inflight.clear()

    def set_up(self) -> None:
        self.state = UP
