"""Domain model for SDN-managed AAA routing.

Value types for peer tables, realm routing tables, TLS profiles and
attribute rules; ``SCHEMAS`` declares each keyed list once and drives its
keying, validation and canonical JSON encoding (frames, fixtures, CLI).

Everything here is a value: entities are frozen, a document's containers
are never changed in place, and the operations are pure functions, so the
types are safe to share across the simulator without copying.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property, lru_cache
from operator import attrgetter
from typing import Callable, NamedTuple, Optional, Union

REDACTED = "<redacted>"

HOP_LIMIT = 16

_LABEL_RE = re.compile(r"[a-z0-9-]{1,63}")
_MAX_REALM_LABELS = 32

MIN_SECRET_LEN = 16
MAX_SECRET_LEN = 64


class CodedError(Exception):
    """Any layer's failure on bad input or state; ``code`` is the
    machine-readable reason, the message ``code: detail`` or just ``code``.
    The message is one line: a detail with a line break is shown as its
    repr, while ``detail`` keeps the raw text."""

    def __init__(self, code: str, detail: str = ""):
        shown = detail if detail.splitlines() == [detail] else repr(detail)
        super().__init__(f"{code}: {shown}" if detail else code)
        self.code = code
        self.detail = detail


# ---------------------------------------------------------------------------
# identities and routing patterns


def parse_realm(text: str) -> str:
    """A realm's key text: ``text`` lower-cased, 1 to 32 labels joined by
    '.', each 1 to 63 of ``[a-z0-9-]``. Errors: BAD_REALM."""
    realm = text.lower()
    labels = realm.split(".")
    if not (1 <= len(labels) <= _MAX_REALM_LABELS) or not all(
        _LABEL_RE.fullmatch(label) for label in labels
    ):
        raise CodedError("BAD_REALM", repr(text))
    return realm


@lru_cache(maxsize=1024)
def lookup_keys(realm: str) -> tuple[str, ...]:
    """The texts of the patterns that match ``realm``, most specific first:
    the realm itself, then ``*.<suffix>`` for ever shorter suffixes, then
    ``*``. This is the one longest-match order, built once per realm."""
    labels = realm.split(".")
    wildcards = ("*." + ".".join(labels[i:]) for i in range(1, len(labels)))
    return (realm, *wildcards, "*")


@dataclass(frozen=True)
class Nai:
    """Network access identifier: user plus the realm that routes it."""

    user: str
    realm: str  # as parse_realm gives it

    @cached_property
    def text(self) -> str:
        return f"{self.user}@{self.realm}"

    def __str__(self) -> str:
        return self.text


def split_nai(text: str) -> tuple[str, str]:
    """Split ``user@realm`` at the last '@' into the user and the realm text.

    Errors: NO_AT_SIGN, EMPTY_USER, BAD_USER (embedded '@').
    """
    if "@" not in text:
        raise CodedError("NO_AT_SIGN", text)
    user, _, realm = text.rpartition("@")
    if not user:
        raise CodedError("EMPTY_USER", text)
    if "@" in user:
        raise CodedError("BAD_USER", text)
    return user, realm


def parse_nai(text: str) -> Nai:
    """split_nai, then parse the realm. Errors: those of split_nai, BAD_REALM."""
    user, realm = split_nai(text)
    return Nai(user, parse_realm(realm))


def parse_pattern(text: str) -> str:
    """A routing pattern's key text: ``*``, a ``*.<realm>`` wildcard (at
    least one extra label in front of the realm), or an exact ``<realm>``,
    the realm lower-cased by ``parse_realm``. The patterns that match a
    realm are those in ``lookup_keys``. Errors: BAD_REALM."""
    if text == "*":
        return text
    if text.startswith("*."):
        return "*." + parse_realm(text[2:])
    return parse_realm(text)


@lru_cache(maxsize=1024)
def _canonical_pattern(text: str) -> bool:
    """Whether ``text`` is a pattern's key text as ``parse_pattern`` gives it:
    the one validity check, made once per text, of the YANG decoder and of
    validation."""
    try:
        return parse_pattern(text) == text
    except CodedError:  # BAD_REALM
        return False


# ---------------------------------------------------------------------------
# peer table, tls container, routing table, attribute rules


class Transport(Enum):
    RADIUS_UDP = "radius-udp"
    RADIUS_TLS = "radius-tls"
    DIAMETER_TCP = "diameter-tcp"
    DIAMETER_TLS = "diameter-tls"


TLS_TRANSPORTS = frozenset({Transport.RADIUS_TLS, Transport.DIAMETER_TLS})

#: conventional ports used when the controller fabricates peer entries
TRANSPORT_PORTS = {
    Transport.RADIUS_UDP: 1812,
    Transport.RADIUS_TLS: 2083,
    Transport.DIAMETER_TCP: 3868,
    Transport.DIAMETER_TLS: 3868,
}


@dataclass(frozen=True)
class SharedSecret:
    """Shared secret credential; ``secret`` is raw bytes, or the redaction
    token once the document has passed through a read path."""

    secret: Union[bytes, str]


@dataclass(frozen=True)
class TlsRef:
    profile: str


Credential = Union[SharedSecret, TlsRef]


@dataclass(frozen=True)
class TlsProfile:
    """Simulated TLS identity: who this node claims to be and who it trusts."""

    name: str
    local_identity: str
    local_key: Union[bytes, str]  # write-only material; str only when redacted
    trusted_identities: frozenset[str]


@dataclass(frozen=True)
class PeerEntry:
    peer_id: str
    identity: str
    host: str
    port: int
    transport: Transport
    credential: Credential
    expiration: Optional[int] = None  # absolute logical ms


class Action(Enum):
    LOCAL = "local"
    RELAY = "relay"
    PROXY = "proxy"
    REDIRECT = "redirect"


class Direction(Enum):
    INCOMING = "incoming"
    OUTGOING = "outgoing"


class RuleOp(Enum):
    ADD = "add"
    REMOVE = "remove"
    REPLACE = "replace"


@dataclass(frozen=True)
class AttributeRule:
    rule_id: str
    direction: Direction
    op: RuleOp
    attribute: str
    value: Optional[str] = None  # absent for REMOVE


@dataclass(frozen=True)
class RealmEntry:
    pattern: str  # as parse_pattern gives it
    next_hop: Optional[str]  # peer_id; None for LOCAL
    action: Action
    rule_refs: tuple[str, ...] = ()
    expiration: Optional[int] = None


# ---------------------------------------------------------------------------
# messages and notifications


class MsgKind(Enum):
    REQUEST = "request"
    RESPONSE = "response"


class AaaMessage(NamedTuple):
    """Protocol-independent AAA message with its accumulated hop trace, changed by
    ``hop``, ``answer``, ``failed`` or ``_replace``; assigning to a field raises ``AttributeError``.

    ``attributes`` is treated as a value: handlers copy it before changing
    anything. ``error`` carries the code when status is "error".
    """

    msg_id: str
    kind: MsgKind
    nai: Nai
    dest_realm: str
    attributes: dict[str, str]
    hop_trace: tuple[str, ...] = ()
    status: str = "pending"  # pending | accept | reject | error
    error: Optional[str] = None

    def hop(self, node_id: str) -> "AaaMessage":
        """``_replace(hop_trace=self.hop_trace + (node_id,))`` for every request hop,
        without ``_replace``'s keyword handling."""
        msg_id, kind, nai, dest_realm, attributes, hop_trace, status, error = self
        return tuple.__new__(AaaMessage, (msg_id, kind, nai, dest_realm, attributes,
                                          hop_trace + (node_id,), status, error))

    def answer(self, accepted: bool) -> "AaaMessage":
        """``_replace(kind=RESPONSE, attributes={}, status="accept"/"reject")``, built like ``hop``."""
        msg_id, _kind, nai, dest_realm, _attributes, hop_trace, _status, error = self
        return tuple.__new__(AaaMessage, (msg_id, MsgKind.RESPONSE, nai, dest_realm, {},
                                          hop_trace, "accept" if accepted else "reject", error))

    def failed(self, code: str) -> "AaaMessage":
        """``_replace(status="error", error=code)``, built like ``hop``."""
        return tuple.__new__(AaaMessage, (*self[:6], "error", code))

    def to_json(self) -> dict:
        """The transcript form. It shares ``attributes`` and ``hop_trace``
        (a tuple, written as a JSON list) with the message, so it must not be
        changed; the transcript encoder does not check for cycles, so a
        cyclic attribute value raises ``RecursionError``."""
        out = {
            "kind": self.kind.value,
            "msg_id": self.msg_id,
            "nai": self.nai.text,
            "dest_realm": self.dest_realm,
            "attributes": self.attributes,
            "trace": self.hop_trace,
            "status": self.status,
        }
        if self.error is not None:
            out["error"] = self.error
        return out


@dataclass(frozen=True)
class Notification:
    """Node-to-controller event (acquire-route, expirations, forward failure)."""

    kind: str
    node_id: str
    realm: Optional[str] = None
    peer_id: Optional[str] = None
    pattern: Optional[str] = None

    ACQUIRE_ROUTE = "acquire-route"
    PEER_EXPIRED = "peer-expired"
    ROUTE_EXPIRED = "route-expired"
    FORWARD_FAILURE = "forward-failure"

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind, "node": self.node_id}
        if self.realm is not None:
            out["realm"] = self.realm
        if self.peer_id is not None:
            out["peer"] = self.peer_id
        if self.pattern is not None:
            out["pattern"] = self.pattern
        return out

    @classmethod
    def acquire_route(cls, node_id: str, realm: str) -> "Notification":
        return cls(cls.ACQUIRE_ROUTE, node_id, realm=realm)

    @classmethod
    def peer_expired(cls, node_id: str, peer_id: str) -> "Notification":
        return cls(cls.PEER_EXPIRED, node_id, peer_id=peer_id)

    @classmethod
    def route_expired(cls, node_id: str, pattern: str) -> "Notification":
        return cls(cls.ROUTE_EXPIRED, node_id, pattern=pattern)

    @classmethod
    def forward_failure(cls, node_id: str, peer_id: str, realm: str) -> "Notification":
        return cls(cls.FORWARD_FAILURE, node_id, realm=realm, peer_id=peer_id)


# ---------------------------------------------------------------------------
# configuration document


@dataclass(frozen=True)
class ConfigDocument:
    """A node's full configuration: peers, routing, tls and attributes.

    Each container is a YANG-style keyed list (its schema is in ``SCHEMAS``)
    held as a dict from entity key (the schema's first leaf) to entity. Dict
    order carries no meaning; the canonical encoding sorts by key. A
    container given as a sequence is keyed on construction, and a repeated
    key raises CodedError with the container's DUPLICATE_* code. Containers
    are never changed in place; with_entries copies them.
    """

    peers: dict[str, PeerEntry] = field(default_factory=dict)
    routing: dict[str, RealmEntry] = field(default_factory=dict)
    tls: dict[str, TlsProfile] = field(default_factory=dict)
    attributes: dict[str, AttributeRule] = field(default_factory=dict)

    def __post_init__(self):
        for container in CONTAINERS:
            entries = getattr(self, container)
            if not isinstance(entries, dict):
                object.__setattr__(self, container, _keyed(container, entries))

    def peer(self, peer_id: str) -> Optional[PeerEntry]:
        return self.peers.get(peer_id)

    def route(self, pattern: str) -> Optional[RealmEntry]:
        return self.routing.get(pattern)

    def profile(self, name: str) -> Optional[TlsProfile]:
        return self.tls.get(name)

    def rule(self, rule_id: str) -> Optional[AttributeRule]:
        return self.attributes.get(rule_id)

    @cached_property  # a document never changes, so this is computed once
    def first_expiration(self) -> Optional[int]:
        """The earliest expiration of any peer or route, or None."""
        return min((e.expiration for entries in (self.peers, self.routing)
                    for e in entries.values() if e.expiration is not None), default=None)


def entry_key(container: str, entity) -> str:
    """The unique key an entity is stored under within its container."""
    if container not in SCHEMAS:
        raise CodedError("BAD_CONTAINER", container)
    return SCHEMAS[container].key_of(entity)


def _keyed(container: str, entities) -> dict:
    schema = SCHEMAS[container]
    out = {}
    for entity in entities:
        key = schema.key_of(entity)
        if key in out:
            raise CodedError(schema.duplicate, f"{container}/{key}")
        out[key] = entity
    return out


def with_entries(doc: ConfigDocument, edits) -> ConfigDocument:
    """``doc`` with ``edits`` applied in order, copying each touched
    container once. An edit ``(container, key, entity)`` upserts ``entity``
    under ``key``, which must be its entry_key, or removes ``key`` when
    ``entity`` is None. Errors: BAD_PATH for the removal of a key that is
    not there at its turn."""
    copies: dict[str, dict] = {}
    for container, key, entity in edits:
        entries = copies.get(container)
        if entries is None:
            entries = copies[container] = dict(getattr(doc, container))
        if entity is not None:
            entries[key] = entity
        elif entries.pop(key, None) is None:
            raise CodedError("BAD_PATH", f"{container}/{key}: no such entry")
    return ConfigDocument(**{c: copies.get(c, getattr(doc, c)) for c in CONTAINERS}) if copies else doc


# ---------------------------------------------------------------------------
# route selection


def select_route(table: dict[str, RealmEntry], realm: str, now: int) -> Optional[RealmEntry]:
    """Most-specific non-expired entry of ``table`` (a map from pattern
    text to entry) matching ``realm``, or None.

    The keys are probed in ``lookup_keys(realm)`` order, so a lookup costs
    at most one probe per realm label plus one, whatever the table size.
    An entry is selectable strictly before its expiration time; an expired
    one is passed over for the next less specific pattern.
    """
    for key in lookup_keys(realm):
        entry = table.get(key)
        if entry is not None and (entry.expiration is None or now < entry.expiration):
            return entry
    return None


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class Violation:
    code: str
    subject: str

    def __str__(self) -> str:
        return f"{self.code}: {self.subject}"

    def to_json(self) -> dict:
        return {"code": self.code, "subject": self.subject}


def _valid_token(value) -> bool:
    return isinstance(value, str) and bool(value)


def _valid_expiration(value) -> bool:
    return value is None or (isinstance(value, int) and not isinstance(value, bool) and value > 0)


# Each checker appends the violations of the entity stored under ``key`` to
# ``out``; the cross-reference checks read the referenced container of
# ``doc``.


def _check_tls(doc: ConfigDocument, key: str, t: TlsProfile, out: list) -> None:
    where = f"tls/{key}"
    if not _valid_token(t.name):
        out.append(Violation("BAD_ID", where))
    if not _valid_token(t.local_identity):
        out.append(Violation("BAD_IDENTITY", where))
    if not t.trusted_identities:
        out.append(Violation("EMPTY_TRUST", where))
    if isinstance(t.local_key, str) and t.local_key != REDACTED:
        out.append(Violation("BAD_KEY", where))


def _check_rule(doc: ConfigDocument, key: str, a: AttributeRule, out: list) -> None:
    where = f"attributes/{key}"
    if not _valid_token(a.rule_id):
        out.append(Violation("BAD_ID", where))
    if not _valid_token(a.attribute):
        out.append(Violation("BAD_ATTRIBUTE", where))
    if a.op is RuleOp.REMOVE:
        if a.value is not None:
            out.append(Violation("UNEXPECTED_VALUE", where))
    elif a.value is None:
        out.append(Violation("MISSING_VALUE", where))


def _check_peer(doc: ConfigDocument, key: str, p: PeerEntry, out: list) -> None:
    where = f"peers/{key}"
    if not _valid_token(p.peer_id):
        out.append(Violation("BAD_ID", where))
    if not _valid_token(p.identity):
        out.append(Violation("BAD_IDENTITY", where))
    if not _valid_token(p.host):
        out.append(Violation("BAD_HOST", where))
    if not (
        isinstance(p.port, int)
        and not isinstance(p.port, bool)
        and 1 <= p.port <= 65535
    ):
        out.append(Violation("BAD_PORT", where))
    if not _valid_expiration(p.expiration):
        out.append(Violation("BAD_EXPIRATION", where))
    if p.transport in TLS_TRANSPORTS:
        if not isinstance(p.credential, TlsRef):
            out.append(Violation("TRANSPORT_CREDENTIAL_MISMATCH", where))
    elif p.transport is Transport.RADIUS_UDP:
        if not isinstance(p.credential, SharedSecret):
            out.append(Violation("TRANSPORT_CREDENTIAL_MISMATCH", where))
    if isinstance(p.credential, SharedSecret):
        secret = p.credential.secret
        if isinstance(secret, str):
            if secret != REDACTED:
                out.append(Violation("BAD_SECRET", where))
        elif not (MIN_SECRET_LEN <= len(secret) <= MAX_SECRET_LEN):
            out.append(Violation("BAD_SECRET_LENGTH", where))
    if isinstance(p.credential, TlsRef):
        prof = doc.profile(p.credential.profile)
        if prof is None:
            out.append(Violation("DANGLING_TLS_REF", where))
        elif p.identity not in prof.trusted_identities:
            out.append(Violation("IDENTITY_NOT_TRUSTED", where))


def _check_route(doc: ConfigDocument, key: str, r: RealmEntry, out: list) -> None:
    where = f"routing/{key}"
    if not (isinstance(r.pattern, str) and _canonical_pattern(r.pattern)):
        out.append(Violation("BAD_REALM", where))
    if r.action is Action.LOCAL:
        if r.next_hop is not None:
            out.append(Violation("UNEXPECTED_NEXT_HOP", where))
    else:
        if r.next_hop is None:
            out.append(Violation("MISSING_NEXT_HOP", where))
        elif r.next_hop not in doc.peers:
            out.append(Violation("DANGLING_NEXT_HOP", where))
    if r.rule_refs and r.action is not Action.PROXY:
        out.append(Violation("RULE_REFS_NOT_ALLOWED", where))
    for ref in r.rule_refs:
        if ref not in doc.attributes:
            out.append(Violation("DANGLING_RULE_REF", where))
    if not _valid_expiration(r.expiration):
        out.append(Violation("BAD_EXPIRATION", where))


def _ordered(out: list[Violation]) -> list[Violation]:
    # within one container the subjects share a prefix, so they sort by key;
    # the sort is stable, so one subject keeps its check order
    if out:
        out.sort(key=lambda v: (_VALIDATION_RANK[v.subject.partition("/")[0]], v.subject))
    return out


def validate_document(doc: ConfigDocument) -> list[Violation]:
    """Check every type invariant plus cross-reference resolution of every
    entity: the full check behind ``sdn-aaa validate`` and the oracle for
    validate_changes.

    Keys are unique by construction. Returns every violation found, ordered
    by container (in REFERENTS_FIRST order), then key, then check
    order, whatever order the document was built in; [] means consistent.
    """
    out: list[Violation] = []
    for container in REFERENTS_FIRST:
        check = SCHEMAS[container].check
        for key, entity in getattr(doc, container).items():
            check(doc, key, entity, out)
    return _ordered(out)


def validate_changes(doc: ConfigDocument, touched) -> list[Violation]:
    """validate_document(doc), computed from what a batch changed.

    ``touched`` holds the ``(container, key)`` pairs the batch merged or
    deleted, and the document before the batch must have been valid. Only
    these entities can hold a new violation: the touched entities that
    still exist, the peers that name a touched TLS profile, and the routes
    whose next hop or rule refs name a deleted peer or rule. Referrers are
    found by a scan, run only when a referent is in the batch.
    """
    subjects: set[tuple[str, str]] = set()
    profiles: set[str] = set()
    gone_peers: set[str] = set()
    gone_rules: set[str] = set()
    for container, key in touched:
        if key in getattr(doc, container):
            subjects.add((container, key))
        elif container == "peers":
            gone_peers.add(key)
        elif container == "attributes":
            gone_rules.add(key)
        if container == "tls":
            profiles.add(key)
    if profiles:
        for key, p in doc.peers.items():
            if isinstance(p.credential, TlsRef) and p.credential.profile in profiles:
                subjects.add(("peers", key))
    if gone_peers or gone_rules:
        for key, r in doc.routing.items():
            if r.next_hop in gone_peers or not gone_rules.isdisjoint(r.rule_refs):
                subjects.add(("routing", key))
    out: list[Violation] = []
    for container, key in subjects:
        SCHEMAS[container].check(doc, key, getattr(doc, container)[key], out)
    return _ordered(out)


# ---------------------------------------------------------------------------
# the data model: one schema per YANG list, and the canonical encoding


REQUIRED = object()  # Leaf.default of a leaf that must be present
_VALUE = attrgetter("value")  # Leaf.encode of an enum leaf
_HEX_RE = re.compile(r"(?:[0-9a-f]{2})*")  # bytes.fromhex alone also skips whitespace


@dataclass(frozen=True)
class Leaf:
    """One YANG leaf: ``name`` is the entity field and the JSON member,
    ``encode`` maps the field to JSON and ``decode(value, where)`` maps it
    back or raises SCHEMA_ERROR. An absent member decodes to ``default``
    (REQUIRED: a schema error); a leaf whose default is None takes null."""

    name: str
    encode: Callable
    decode: Callable
    default: object = REQUIRED


@dataclass(frozen=True)
class Schema:
    """One YANG list, or one case of a choice: the entity class and its
    leaves in field order. A keyed list's first leaf is its key; it names
    the code for a repeated key and the checker validation runs on each
    entry. A choice case names the ``kind`` that selects it."""

    cls: type
    leaves: tuple[Leaf, ...]
    duplicate: str = ""
    check: Optional[Callable] = None
    kind: str = ""

    @cached_property
    def _members(self) -> frozenset[str]:
        return frozenset(leaf.name for leaf in self.leaves) | ({"kind"} if self.kind else set())

    def key_of(self, entity) -> str:
        leaf = self.leaves[0]
        return leaf.encode(getattr(entity, leaf.name))

    @cached_property
    def _encoders(self) -> tuple:  # (name, encode) per leaf; None: the field is its own JSON
        return tuple((leaf.name, None if leaf.encode is _same else leaf.encode)
                     for leaf in self.leaves)

    def to_json(self, entity) -> dict:
        return {name: getattr(entity, name) if encode is None else encode(getattr(entity, name))
                for name, encode in self._encoders}

    def from_json(self, obj, where: str):
        """Strict decode: no member but the leaves (and a case's ``kind``)."""
        if not isinstance(obj, dict):
            raise CodedError("SCHEMA_ERROR", f"{where}: expected object")
        for name in obj:
            if name not in self._members:
                raise CodedError("SCHEMA_ERROR", f"{where}: unknown key {name!r}")
        values = []
        for leaf in self.leaves:
            value = obj.get(leaf.name, leaf.default)
            if value is REQUIRED:
                raise CodedError("SCHEMA_ERROR", f"{where}: missing key {leaf.name!r}")
            values.append(value if value is leaf.default else leaf.decode(value, f"{where}.{leaf.name}"))
        return self.cls(*values)


@dataclass(frozen=True)
class Choice:
    """A YANG choice held in one leaf: the ``kind`` member selects the case,
    and only that case's leaves may appear beside it."""

    cases: tuple[Schema, ...]

    def encode(self, value) -> dict:
        for case in self.cases:
            if type(value) is case.cls:
                return {"kind": case.kind, **case.to_json(value)}
        raise TypeError(f"no case of this choice holds {value!r}")

    def decode(self, obj, where: str):
        kind = obj.get("kind") if isinstance(obj, dict) else None
        for case in self.cases:
            if kind == case.kind:
                return case.from_json(obj, where)
        raise CodedError("SCHEMA_ERROR", f"{where}: bad kind {kind!r}")


def _same(value):
    return value


def _string(value, where: str) -> str:
    if not isinstance(value, str):
        raise CodedError("SCHEMA_ERROR", f"{where}: expected string")
    return value


def _integer(value, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise CodedError("SCHEMA_ERROR", f"{where}: expected integer")
    return value


def _strings(collect: Callable) -> Callable:
    """A leaf-list of strings; a repeated value is an error (RFC 7950 §7.7)."""
    def decode(value, where: str):
        if not isinstance(value, list):
            raise CodedError("SCHEMA_ERROR", f"{where}: expected list")
        items = [_string(item, where) for item in value]
        if len(set(items)) != len(items):
            raise CodedError("SCHEMA_ERROR", f"{where}: repeated value")
        return collect(items)
    return decode


def _enum(enum_cls) -> Callable:
    def decode(value, where: str):
        text = _string(value, where)
        try:
            return enum_cls(text)
        except ValueError:
            raise CodedError("SCHEMA_ERROR", f"{where}: bad value {value!r}") from None
    return decode


def _pattern(value, where: str) -> str:
    text = _string(value, where)
    if not _canonical_pattern(text):  # upper case is rejected, not lower-cased, as in a hex leaf
        raise CodedError("SCHEMA_ERROR", f"{where}: bad pattern")
    return text


def _key_bytes_to_json(value: Union[bytes, str]) -> str:
    return value.hex() if isinstance(value, bytes) else value


def _key_bytes(value, where: str) -> Union[bytes, str]:
    """Hex digit pairs in lower case, the form the encoder writes, or the
    redaction token. Upper case is rejected rather than accepted and
    re-encoded in lower case, so decoding stays the inverse of encoding."""
    text = _string(value, where)
    if text == REDACTED:
        return text
    if not _HEX_RE.fullmatch(text):
        raise CodedError("SCHEMA_ERROR", f"{where}: expected hex bytes")
    return bytes.fromhex(text)


_CREDENTIAL = Choice((
    Schema(SharedSecret, (Leaf("secret", _key_bytes_to_json, _key_bytes),), kind="shared-secret"),
    Schema(TlsRef, (Leaf("profile", _same, _string),), kind="tls-ref"),
))

#: every keyed list, in the canonical encoding order
SCHEMAS = {
    "peers": Schema(PeerEntry, (
        Leaf("peer_id", _same, _string),
        Leaf("identity", _same, _string),
        Leaf("host", _same, _string),
        Leaf("port", _same, _integer),
        Leaf("transport", _VALUE, _enum(Transport)),
        Leaf("credential", _CREDENTIAL.encode, _CREDENTIAL.decode),
        Leaf("expiration", _same, _integer, None),
    ), duplicate="DUPLICATE_PEER_ID", check=_check_peer),
    "routing": Schema(RealmEntry, (
        Leaf("pattern", _same, _pattern),
        Leaf("next_hop", _same, _string, None),
        Leaf("action", _VALUE, _enum(Action)),
        Leaf("rule_refs", list, _strings(tuple), ()),
        Leaf("expiration", _same, _integer, None),
    ), duplicate="DUPLICATE_PATTERN", check=_check_route),
    "tls": Schema(TlsProfile, (
        Leaf("name", _same, _string),
        Leaf("local_identity", _same, _string),
        Leaf("local_key", _key_bytes_to_json, _key_bytes),
        Leaf("trusted_identities", sorted, _strings(frozenset)),
    ), duplicate="DUPLICATE_TLS_PROFILE", check=_check_tls),
    "attributes": Schema(AttributeRule, (
        Leaf("rule_id", _same, _string),
        Leaf("direction", _VALUE, _enum(Direction)),
        Leaf("op", _VALUE, _enum(RuleOp)),
        Leaf("attribute", _same, _string),
        Leaf("value", _same, _string, None),
    ), duplicate="DUPLICATE_RULE_ID", check=_check_rule),
}
CONTAINERS = tuple(SCHEMAS)

#: the containers with every referenced entity before its referrers: the
#: order of violations in a report, and of a full document pushed as changes
REFERENTS_FIRST = ("tls", "attributes", "peers", "routing")
_VALIDATION_RANK = {container: rank for rank, container in enumerate(REFERENTS_FIRST)}


_SCHEMA_OF_CLASS = {schema.cls: schema for schema in SCHEMAS.values()}


def entity_to_json(entity) -> dict:
    """The JSON form of a keyed-list entry, by the schema of its class."""
    return _SCHEMA_OF_CLASS[type(entity)].to_json(entity)


def document_to_json(doc: ConfigDocument) -> dict:
    """The canonical form: fixed container order, each a list sorted by key."""
    out = {}
    for container, schema in SCHEMAS.items():
        entries = getattr(doc, container)
        out[container] = [schema.to_json(entries[key]) for key in sorted(entries)]
    return out


def encode_document(doc: ConfigDocument) -> str:
    """Canonical UTF-8 JSON: fixed container order, entries sorted by key."""
    return json.dumps(document_to_json(doc), separators=(",", ":"))


def document_from_json(obj) -> ConfigDocument:
    """Errors: SCHEMA_ERROR, or a DUPLICATE_* code for a repeated key."""
    if not isinstance(obj, dict):
        raise CodedError("SCHEMA_ERROR", "top level must be an object")
    if set(obj) != set(CONTAINERS):
        bad = sorted(set(obj) ^ set(CONTAINERS))[0]
        raise CodedError("SCHEMA_ERROR", f"bad top-level key {bad!r}")
    parts = {}
    for container, schema in SCHEMAS.items():
        entries = obj[container]
        if not isinstance(entries, list):
            raise CodedError("SCHEMA_ERROR", f"{container} must be a list")
        parts[container] = tuple(schema.from_json(e, container) for e in entries)
    return ConfigDocument(**parts)


# ---------------------------------------------------------------------------
# redaction


def redact_entity(entity):
    """The one key-material rule: a TLS profile's ``local_key`` and a
    shared-secret peer's ``secret`` become the redaction token; any other
    entity is returned as the same object. Idempotent; every other leaf is
    kept, and ``entity`` itself is never changed."""
    cls = type(entity)
    if cls is TlsProfile:
        return replace(entity, local_key=REDACTED)
    if cls is PeerEntry and type(entity.credential) is SharedSecret:
        return replace(entity, credential=SharedSecret(REDACTED))
    return entity


def redact(doc: ConfigDocument) -> ConfigDocument:
    """``doc`` with ``redact_entity`` applied to every entry."""
    return ConfigDocument(**{
        container: {key: redact_entity(e) for key, e in getattr(doc, container).items()}
        for container in CONTAINERS
    })
