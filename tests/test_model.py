import dataclasses
import json
import random
import re
import string

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import make_random_valid_doc, secret_hexes
from sdnaaa import model
from sdnaaa.controller import SERVER, NodeInfo, Topology, load_policy
from sdnaaa.model import (
    Action,
    AttributeRule,
    CodedError,
    ConfigDocument,
    Direction,
    PeerEntry,
    RealmEntry,
    RuleOp,
    SharedSecret,
    TlsProfile,
    TlsRef,
    Transport,
    lookup_keys,
    parse_nai,
    parse_realm,
    select_route,
)

LABEL = st.from_regex(r"[a-z0-9-]{1,8}", fullmatch=True)
REALMS = st.lists(LABEL, min_size=1, max_size=6).map(".".join)
USERS = st.from_regex(r"[A-Za-z0-9._-]{1,12}", fullmatch=True)


# ---------------------------------------------------------------------------
# NAI parsing


def test_parse_nai_splits_user_and_realm():
    nai = parse_nai("alice@realm.org")
    assert nai.user == "alice"
    assert nai.realm == "realm.org"


def test_parse_nai_single_label_realm():
    nai = parse_nai("bob@x")
    assert nai.user == "bob"
    assert nai.realm == "x"


@pytest.mark.parametrize(
    "text,code",
    [
        ("noatsign", "NO_AT_SIGN"),
        ("@realm.org", "EMPTY_USER"),
        ("alice@", "BAD_REALM"),
        ("alice@bad_label.org", "BAD_REALM"),
        ("alice@a..b", "BAD_REALM"),
        ("a@b@realm.org", "BAD_USER"),
        ("alice@" + ".".join(["x"] * 33), "BAD_REALM"),
        ("alice@realm.org\n", "BAD_REALM"),
    ],
)
def test_parse_nai_errors(text, code):
    with pytest.raises(CodedError) as err:
        parse_nai(text)
    assert err.value.code == code


@pytest.mark.parametrize(
    "detail,message",
    [
        ("alice.realm.org", "NO_AT_SIGN: alice.realm.org"),
        ("alice.realm.org\n", "NO_AT_SIGN: 'alice.realm.org\\n'"),
        ("a\rb", "NO_AT_SIGN: 'a\\rb'"),
        ("a\u2028b", "NO_AT_SIGN: 'a\\u2028b'"),
        ("", "NO_AT_SIGN"),
    ],
)
def test_coded_error_message_is_one_line_and_detail_stays_raw(detail, message):
    err = CodedError("NO_AT_SIGN", detail)
    assert str(err) == message and len(message.splitlines()) == 1
    assert err.detail == detail


def test_parse_nai_lowercases_realm():
    assert parse_nai("alice@Realm.ORG").realm == "realm.org"


@given(USERS, REALMS)
def test_parse_nai_inverts_for_valid_pairs(user, realm):
    nai = parse_nai(f"{user}@{realm}")
    assert nai.user == user
    assert nai.realm == realm


# ---------------------------------------------------------------------------
# realm parsing

# an independent statement of a valid realm: 1 to 32 dot-separated labels of
# 1 to 63 ASCII lower-case letters, digits or hyphens
REALM_ORACLE = re.compile(r"[a-z0-9-]{1,63}(?:\.[a-z0-9-]{1,63}){0,31}")
# ASCII realm characters plus non-ASCII letters: the Kelvin sign (U+212A)
# lower-cases to "k", the dotted capital I (U+0130) to "i" and a combining
# dot, and sharp s (U+00DF) stays as it is
REALM_CHARS = (st.sampled_from(string.ascii_letters + string.digits + "-")
               | st.sampled_from("\u212a\u0130\u00df"))
REALM_TEXTS = (st.text(REALM_CHARS | st.just("."), max_size=16)
               | st.lists(st.text(REALM_CHARS, max_size=66), min_size=1, max_size=34).map(".".join))


@given(REALM_TEXTS)
@example("Realm.ORG")
@example("\u212a.org")
@example("\u0130.org")
@example(".".join(["a" * 63] * 32))
@example(".".join(["a" * 63] * 33))
@example("a" * 64)
@example("realm.org\n")
def test_parse_realm_is_the_lower_cased_text_exactly_when_that_is_a_realm(text):
    lowered = text.lower()
    if REALM_ORACLE.fullmatch(lowered):
        assert parse_realm(text) == lowered
    else:
        with pytest.raises(CodedError) as err:
            parse_realm(text)
        assert err.value.code == "BAD_REALM" and err.value.detail == repr(text)


# ---------------------------------------------------------------------------
# realm pattern matching


def match_realm(pattern: str, realm: str):
    """Linear-scan oracle: the pattern's specificity if it matches
    ``realm``, else None. Specificity is 2n+1 for an exact pattern of n
    labels, 2n for a wildcard with an n-label suffix and 0 for the default;
    a wildcard requires at least one extra label in front of its suffix."""
    if pattern == "*":
        return 0
    wildcard = pattern.startswith("*.")
    suffix = tuple(pattern.removeprefix("*.").split("."))
    labels = tuple(realm.split("."))
    if not wildcard:
        return 2 * len(suffix) + 1 if labels == suffix else None
    if len(labels) > len(suffix) and labels[-len(suffix):] == suffix:
        return 2 * len(suffix)
    return None


def test_wildcard_matches_longer_realm():
    realm = parse_realm("realm.org")
    assert match_realm("*.org", realm) == 2
    assert "*.org" in lookup_keys(realm)


def test_exact_match_specificity():
    realm = parse_realm("realm.org")
    assert match_realm("realm.org", realm) == 5
    assert lookup_keys(realm)[0] == "realm.org"


def test_wildcard_requires_extra_label():
    realm = parse_realm("org")
    assert match_realm("*.org", realm) is None
    assert "*.org" not in lookup_keys(realm)


def test_default_matches_everything():
    realm = parse_realm("any.where.at.all")
    assert match_realm("*", realm) == 0
    assert lookup_keys(realm)[-1] == "*"


# text over [A-Za-z0-9.*-], empty included, half of its characters ".*-"
PATTERN_TEXTS = st.text(st.sampled_from(string.ascii_letters + string.digits) | st.sampled_from(".*-"),
                        max_size=12) | st.from_regex(
    r"\*|(\*\.)?[A-Za-z0-9-]{1,4}(\.[A-Za-z0-9-]{1,4}){0,2}", fullmatch=True)


@given(PATTERN_TEXTS)
def test_pattern_text_round_trip(text):
    """The YANG decoder, validation and the policy loader all accept a
    pattern exactly when ``parse_pattern`` gives it back unchanged."""
    try:
        parsed = model.parse_pattern(text)
    except CodedError as e:
        assert e.code == "BAD_REALM"
        parsed = None
    canonical = parsed == text
    if parsed is not None:
        assert model.parse_pattern(parsed) == parsed

    entry = {"pattern": text, "action": "local"}
    try:
        doc = model.document_from_json({"peers": [], "routing": [entry], "tls": [], "attributes": []})
    except CodedError as e:
        assert e.code == "SCHEMA_ERROR"
        doc = None
    assert (doc is not None) == canonical
    if doc is not None:
        assert list(doc.routing) == [text]

    violations = model.validate_document(ConfigDocument(routing=(RealmEntry(text, None, Action.LOCAL),)))
    assert violations == ([] if canonical else [model.Violation("BAD_REALM", f"routing/{text}")])

    topology = Topology({"h": NodeInfo("h.sim", SERVER)}, set())
    try:
        policies = load_policy(f"route {text} via h security psk", topology)
    except CodedError as e:
        assert e.code == "PARSE_ERROR"
        policies = None
    assert (policies is not None) == (parsed is not None)
    if policies is not None:
        assert [p.realm_pattern for p in policies] == [parsed]


@pytest.mark.parametrize("value", [None, 7, ("realm", "org")])
def test_a_pattern_that_is_not_a_string_is_a_bad_realm(value):
    doc = ConfigDocument(routing={"x": RealmEntry(value, None, Action.LOCAL)})
    assert model.validate_document(doc) == [model.Violation("BAD_REALM", "routing/x")]


@pytest.mark.parametrize(
    "text,keys",
    [
        ("org", ("org", "*")),
        ("a.b.org", ("a.b.org", "*.b.org", "*.org", "*")),
    ],
)
def test_lookup_keys_walk_from_the_realm_to_the_default(text, keys):
    assert lookup_keys(parse_realm(text)) == keys


@given(REALMS)
def test_lookup_keys_are_the_matching_patterns_most_specific_first(realm):
    # every pattern that can match this realm, constructed exhaustively
    labels = realm.split(".")
    patterns = ["*", realm]
    for cut in range(1, len(labels)):
        patterns.append("*." + ".".join(labels[cut:]))
    specs = [match_realm(p, realm) for p in patterns]
    assert all(s is not None for s in specs)
    assert len(set(specs)) == len(specs)
    ranked = sorted(zip(specs, patterns), key=lambda pair: pair[0], reverse=True)
    assert tuple(p for _, p in ranked) == lookup_keys(realm)


SMALL_LABEL = st.sampled_from(["a", "b", "org"])
SMALL_REALMS = st.lists(SMALL_LABEL, min_size=1, max_size=4).map(".".join)
PATTERNS = st.one_of(
    st.just("*"),
    SMALL_REALMS,
    SMALL_REALMS.map(lambda r: "*." + r),
)


@given(PATTERNS, SMALL_REALMS)
def test_a_pattern_matches_exactly_when_its_text_is_a_lookup_key(pattern, realm):
    assert (match_realm(pattern, realm) is not None) == (pattern in lookup_keys(realm))


@given(REALMS)
def test_exact_beats_wildcard_and_default(realm):
    exact = realm
    labels = realm.split(".")
    others = ["*"]
    for cut in range(1, len(labels)):
        others.append("*." + ".".join(labels[cut:]))
    table = {p: RealmEntry(p, None, Action.LOCAL) for p in others}
    table[exact] = RealmEntry(exact, None, Action.LOCAL)
    chosen = select_route(table, realm, now=0)
    assert chosen is not None and chosen.pattern == exact


# ---------------------------------------------------------------------------
# route selection


def _relay(pattern: str, peer: str, expiration=None) -> RealmEntry:
    return RealmEntry(pattern, peer, Action.RELAY, (), expiration)


def _table(*entries: RealmEntry) -> dict[str, RealmEntry]:
    return {e.pattern: e for e in entries}


def test_select_route_prefers_exact_over_default():
    table = _table(_relay("realm.org", "aj"), _relay("*", "up"))
    chosen = select_route(table, "realm.org", now=0)
    assert chosen.next_hop == "aj"


def test_select_route_falls_back_to_default():
    table = _table(_relay("*", "up"))
    chosen = select_route(table, "any.where", now=0)
    assert chosen.next_hop == "up"


def oracle_select(table, realm, now):
    # independent linear scan: filter expired, filter non-matching, max spec
    alive = [e for e in table if e.expiration is None or now < e.expiration]
    scored = [(match_realm(e.pattern, realm), e) for e in alive]
    scored = [(s, e) for s, e in scored if s is not None]
    return max(scored, key=lambda pair: pair[0])[1] if scored else None


def test_select_route_skips_expired_entries():
    table = _table(_relay("*.org", "aj", expiration=100))
    realm = "realm.org"
    assert oracle_select(table.values(), realm, 150) is None
    assert select_route(table, realm, 150) is None


def test_select_route_expiry_boundary_is_exclusive():
    table = _table(_relay("*.org", "aj", expiration=100))
    realm = "realm.org"
    for now in (0, 50, 99):
        assert select_route(table, realm, now) is not None
    for now in (100, 101, 10_000):
        assert select_route(table, realm, now) is None


def test_select_route_expired_entries_fall_back_to_less_specific():
    table = _table(
        _relay("a.realm.org", "exact", expiration=100),
        _relay("*.realm.org", "wild", expiration=200),
        _relay("*", "default"),
    )
    realm = "a.realm.org"
    assert select_route(table, realm, 99).next_hop == "exact"
    # the exact entry expired: the live wildcard answers
    assert select_route(table, realm, 100).next_hop == "wild"
    # the wildcard expired too: the default answers
    assert select_route(table, realm, 200).next_hop == "default"


def _random_table(rng: random.Random, realm: str) -> dict[str, RealmEntry]:
    labels = realm.split(".")
    table = {}
    for i in range(rng.randint(0, 6)):
        kind = rng.choice(("exact", "wild", "default"))
        if kind == "exact":
            pattern = realm
        elif kind == "wild" and len(labels) > 1:
            cut = rng.randint(1, len(labels) - 1)
            pattern = "*." + ".".join(labels[cut:])
        else:
            pattern = "*"
        if pattern in table:
            continue
        expiration = rng.choice((None, rng.randint(1, 200)))
        table[pattern] = _relay(pattern, f"r{i}", expiration)
    # entries for other realms, which must never be chosen
    for i in range(rng.randint(0, 3)):
        other = f"x{i}.{realm}" if rng.random() < 0.5 else f"*.y{i}.{realm}"
        table[other] = _relay(other, f"other{i}")
    return table


@given(REALMS, st.integers(0, 200))
def test_select_route_agrees_with_linear_scan_oracle(realm, now):
    table = _random_table(random.Random(now * 7919 + realm.count(".") + 1), realm)
    assert select_route(table, realm, now) is oracle_select(table.values(), realm, now)


# ---------------------------------------------------------------------------
# validation


def mid_path_agent_doc() -> ConfigDocument:
    # the provisioned state of a mid-path agent: one upstream peer over TLS,
    # one downstream, a relay route and a proxy rule
    prof_up = TlsProfile("tls-up", "me-cert", b"k" * 32, frozenset({"up-cert"}))
    prof_down = TlsProfile("tls-down", "me-cert", b"j" * 32, frozenset({"down-cert"}))
    peers = (
        PeerEntry("up", "up-cert", "up.sim", 2083, Transport.RADIUS_TLS, TlsRef("tls-up")),
        PeerEntry("down", "down-cert", "down.sim", 2083, Transport.RADIUS_TLS, TlsRef("tls-down")),
    )
    rules = (AttributeRule("r1", Direction.OUTGOING, RuleOp.ADD, "Operator-Name", "fed1"),)
    routing = (
        RealmEntry("realm.org", "up", Action.RELAY),
        RealmEntry("*.org", "up", Action.PROXY, ("r1",)),
        RealmEntry("*", "down", Action.RELAY),
    )
    return ConfigDocument(peers, routing, (prof_up, prof_down), rules)


def test_validate_consistent_document_is_ok():
    assert model.validate_document(mid_path_agent_doc()) == []


def test_validate_dangling_next_hop():
    doc = ConfigDocument(routing=(_relay("realm.org", "pX"),))
    codes = [v.code for v in model.validate_document(doc)]
    assert "DANGLING_NEXT_HOP" in codes


def test_validate_duplicate_peer_id():
    peer = PeerEntry("aj", "aj", "aj.sim", 1812, Transport.RADIUS_UDP, SharedSecret(b"s" * 16))
    with pytest.raises(CodedError) as err:
        ConfigDocument(peers=(peer, peer))
    assert err.value.code == "DUPLICATE_PEER_ID"


@pytest.mark.parametrize(
    "doc,code",
    [
        (
            ConfigDocument(
                peers=(
                    PeerEntry("p", "p", "p.sim", 0, Transport.RADIUS_UDP, SharedSecret(b"s" * 16)),
                )
            ),
            "BAD_PORT",
        ),
        (
            ConfigDocument(
                peers=(
                    PeerEntry("p", "p", "p.sim", 1812, Transport.RADIUS_UDP, TlsRef("nope")),
                )
            ),
            "TRANSPORT_CREDENTIAL_MISMATCH",
        ),
        (
            ConfigDocument(
                peers=(
                    PeerEntry("p", "p", "p.sim", 1812, Transport.RADIUS_UDP, SharedSecret(b"s" * 8)),
                )
            ),
            "BAD_SECRET_LENGTH",
        ),
        (
            ConfigDocument(
                tls=(TlsProfile("t", "me", b"k" * 16, frozenset({"peer-cert"})),),
                peers=(
                    PeerEntry("p", "other-cert", "p.sim", 2083, Transport.RADIUS_TLS, TlsRef("t")),
                ),
            ),
            "IDENTITY_NOT_TRUSTED",
        ),
        (
            ConfigDocument(
                peers=(
                    PeerEntry("p", "p", "p.sim", 2083, Transport.RADIUS_TLS, TlsRef("missing")),
                )
            ),
            "DANGLING_TLS_REF",
        ),
        (
            ConfigDocument(
                attributes=(AttributeRule("r", Direction.INCOMING, RuleOp.REMOVE, "X", "v"),)
            ),
            "UNEXPECTED_VALUE",
        ),
        (
            ConfigDocument(
                attributes=(AttributeRule("r", Direction.INCOMING, RuleOp.ADD, "X", None),)
            ),
            "MISSING_VALUE",
        ),
        (
            ConfigDocument(routing=(RealmEntry("a.b", "x", Action.LOCAL),)),
            "UNEXPECTED_NEXT_HOP",
        ),
        (
            ConfigDocument(routing=(RealmEntry("a.b", None, Action.RELAY),)),
            "MISSING_NEXT_HOP",
        ),
        (
            ConfigDocument(
                peers=(
                    PeerEntry("p", "p", "p.sim", 1812, Transport.RADIUS_UDP, SharedSecret(b"s" * 16)),
                ),
                routing=(RealmEntry("a.b", "p", Action.RELAY, ("r9",)),),
            ),
            "RULE_REFS_NOT_ALLOWED",
        ),
        (
            ConfigDocument(tls=(TlsProfile("t", "me", b"k" * 16, frozenset()),)),
            "EMPTY_TRUST",
        ),
    ],
)
def test_validate_reports_entity_violations(doc, code):
    codes = [v.code for v in model.validate_document(doc)]
    assert code in codes


def test_validate_returns_all_violations_not_just_first():
    doc = ConfigDocument(
        peers=(
            PeerEntry("p", "p", "p.sim", 0, Transport.RADIUS_UDP, SharedSecret(b"x" * 4)),
        ),
        routing=(_relay("realm.org", "ghost"),),
    )
    codes = [v.code for v in model.validate_document(doc)]
    assert {"BAD_PORT", "BAD_SECRET_LENGTH", "DANGLING_NEXT_HOP"} <= set(codes)


def with_entry(doc: ConfigDocument, container: str, key: str, entity) -> ConfigDocument:
    """One-change oracle for ``model.with_entries``: ``doc`` with ``entity``
    upserted under ``key`` (its entry_key), one container copy per change."""
    entries = dict(getattr(doc, container))
    entries[key] = entity
    return dataclasses.replace(doc, **{container: entries})


def without_entry(doc: ConfigDocument, container: str, key: str) -> ConfigDocument:
    """One-removal oracle for ``model.with_entries``: ``doc`` without ``key``,
    one container copy per removal."""
    entries = dict(getattr(doc, container))
    entries.pop(key, None)
    return dataclasses.replace(doc, **{container: entries})


def _random_batch(rng: random.Random, doc: ConfigDocument) -> list[tuple]:
    """A mixed edit batch as (container, key, entity or None for delete)."""
    donor = make_random_valid_doc(rng, max_entities=6)
    referenced = {
        "peers": sorted({r.next_hop for r in doc.routing.values() if r.next_hop}),
        "attributes": sorted({ref for r in doc.routing.values() for ref in r.rule_refs}),
        "tls": sorted({
            p.credential.profile for p in doc.peers.values() if isinstance(p.credential, TlsRef)
        }),
    }
    batch = []
    for _ in range(rng.randint(1, 6)):
        kind = rng.randrange(5)
        if kind == 0:
            # merge an entity of a second valid document over the same key space
            container = rng.choice(model.CONTAINERS)
            entries = getattr(donor, container)
            if entries:
                key = rng.choice(sorted(entries))
                batch.append((container, key, entries[key]))
        elif kind == 1:
            # delete an entity that others refer to
            container = rng.choice(sorted(referenced))
            if referenced[container]:
                batch.append((container, rng.choice(referenced[container]), None))
        elif kind == 2:
            # delete any entity
            container = rng.choice(model.CONTAINERS)
            entries = getattr(doc, container)
            if entries:
                batch.append((container, rng.choice(sorted(entries)), None))
        elif kind == 3:
            # replace a profile so that a peer using it is no longer trusted
            if referenced["tls"]:
                name = rng.choice(referenced["tls"])
                prof = doc.profile(name)
                batch.append(("tls", name, TlsProfile(
                    name, prof.local_identity, prof.local_key, frozenset({"stranger-cert"}))))
        else:
            # the poisoned changes of the atomicity fuzz (acceptance C9)
            tag = rng.randrange(1000)
            poison = rng.randrange(3)
            if poison == 0:
                entry = _relay(f"x{tag}.org", "ghost")
                batch.append(("routing", entry.pattern, entry))
            else:
                secret = rng.randbytes(32) if poison == 1 else b"short"
                port = 0 if poison == 1 else 1812
                bad = PeerEntry(f"b{tag}", f"b{tag}", f"b{tag}.sim", port,
                                Transport.RADIUS_UDP, SharedSecret(secret))
                batch.append(("peers", bad.peer_id, bad))
    return batch


@given(st.integers(0, 2**32 - 1))
def test_validate_changes_agrees_with_validate_document(seed):
    rng = random.Random(seed)
    doc = make_random_valid_doc(rng, max_entities=6)
    batch = _random_batch(rng, doc)
    for container, key, entity in batch:
        if entity is None:
            doc = without_entry(doc, container, key)
        else:
            doc = with_entry(doc, container, key, entity)
    touched = [(container, key) for container, key, _entity in batch]
    assert model.validate_changes(doc, touched) == model.validate_document(doc)


@given(st.integers(0, 2**32 - 1))
def test_with_entries_equals_one_copy_per_change(seed):
    rng = random.Random(seed)
    doc = make_random_valid_doc(rng, max_entities=6)
    before = model.encode_document(doc)
    batch = _random_batch(rng, doc)
    expected, missing = doc, None
    for container, key, entity in batch:
        if entity is not None:
            expected = with_entry(expected, container, key, entity)
        elif key in getattr(expected, container):
            expected = without_entry(expected, container, key)
        else:
            missing = f"{container}/{key}"
            break
    if missing is not None:
        with pytest.raises(CodedError) as err:
            model.with_entries(doc, batch)
        assert (err.value.code, err.value.detail) == ("BAD_PATH", f"{missing}: no such entry")
    else:
        got = model.with_entries(doc, batch)
        assert got == expected
        touched = {container for container, _key, _entity in batch}
        for container in model.CONTAINERS:
            if container not in touched:
                assert getattr(got, container) is getattr(doc, container)
    assert model.encode_document(doc) == before


def test_with_entries_applies_its_edits_in_order():
    first, second = _relay("realm.org", "a"), _relay("realm.org", "b")
    doc = ConfigDocument(routing=(first,))
    replaced = model.with_entries(doc, [("routing", "realm.org", None),
                                        ("routing", "realm.org", second)])
    assert replaced.routing == {"realm.org": second}
    undone = model.with_entries(doc, [("routing", "new.org", second), ("routing", "new.org", None)])
    assert undone.routing == {"realm.org": first}
    with pytest.raises(CodedError) as err:
        model.with_entries(doc, [("routing", "realm.org", None), ("routing", "realm.org", None)])
    assert str(err.value) == "BAD_PATH: routing/realm.org: no such entry"
    assert model.with_entries(doc, []) is doc


# ---------------------------------------------------------------------------
# canonical encoding


def test_empty_document_encoding_is_exact():
    assert model.encode_document(ConfigDocument()) == (
        '{"peers":[],"routing":[],"tls":[],"attributes":[]}'
    )


def test_document_round_trips_byte_identically():
    doc = mid_path_agent_doc()
    text = model.encode_document(doc)
    again = model.document_from_json(json.loads(text))
    assert again == doc
    assert model.encode_document(again) == text


def test_decode_rejects_unknown_top_level_key():
    text = '{"peers":[],"rooting":[],"tls":[],"attributes":[]}'
    with pytest.raises(CodedError) as err:
        model.document_from_json(json.loads(text))
    assert err.value.code == "SCHEMA_ERROR"


@pytest.mark.parametrize(
    "mutate",
    [
        lambda o: o["peers"][0].update(port="1812"),
        lambda o: o["peers"][0].update(transport="radius-over-carrier-pigeon"),
        lambda o: o["peers"][0].update(bogus=1),
        lambda o: o["peers"][0]["credential"].update(secret="not-hex"),
        lambda o: o["routing"].append({"pattern": 7, "action": "relay"}),
        lambda o: o["attributes"].append(
            {"rule_id": "r", "direction": "sideways", "op": "add", "attribute": "X", "value": "v"}
        ),
        # a credential member of the other choice case would be dropped
        lambda o: o["peers"][0]["credential"].update(profile="x"),
        lambda o: o["peers"].append({
            "peer_id": "p1", "identity": "p1", "host": "p1.sim", "port": 2083,
            "transport": "radius-tls",
            "credential": {"kind": "tls-ref", "profile": "t", "secret": "00" * 16},
        }),
        # bytes.fromhex skips whitespace, so these would re-encode differently
        lambda o: o["peers"][0]["credential"].update(secret="00 11"),
        lambda o: o["tls"].append({
            "name": "t", "local_identity": "p0", "local_key": "00\n11", "trusted_identities": [],
        }),
        # a repeated leaf-list value (RFC 7950 §7.7) and upper-case hex
        lambda o: o["tls"].append({
            "name": "t", "local_identity": "p0", "local_key": "00", "trusted_identities": ["b", "b"],
        }),
        lambda o: o["routing"][0].update(rule_refs=["r1", "r1"]),
        lambda o: o["peers"][0]["credential"].update(secret="AB" * 16),
        # a realm label cannot end in a line break
        lambda o: o["routing"][0].update(pattern="realm.org\n"),
    ],
)
def test_decode_rejects_schema_errors(mutate):
    doc = ConfigDocument(
        peers=(
            PeerEntry("p0", "p0", "p0.sim", 1812, Transport.RADIUS_UDP, SharedSecret(b"s" * 16)),
        ),
        routing=(_relay("realm.org", "p0"),),
        attributes=(AttributeRule("r1", Direction.OUTGOING, RuleOp.ADD, "X", "v"),),
    )
    obj = model.document_to_json(doc)
    mutate(obj)
    with pytest.raises(CodedError) as err:
        model.document_from_json(json.loads(json.dumps(obj)))
    assert err.value.code == "SCHEMA_ERROR"


def test_non_string_enum_member_is_expected_string_like_every_string_leaf():
    peer = PeerEntry("p0", "p0", "p0.sim", 1812, Transport.RADIUS_UDP, SharedSecret(b"s" * 16))
    obj = model.document_to_json(ConfigDocument(peers=(peer,)))
    obj["peers"][0]["transport"] = 5
    with pytest.raises(CodedError) as err:
        model.document_from_json(json.loads(json.dumps(obj)))
    assert (err.value.code, err.value.detail) == ("SCHEMA_ERROR", "peers.transport: expected string")


def test_each_schema_declares_exactly_the_entity_fields():
    schemas = [*model.SCHEMAS.values(), *model._CREDENTIAL.cases]
    assert {s.cls for s in schemas} == {
        PeerEntry, RealmEntry, TlsProfile, AttributeRule, SharedSecret, TlsRef,
    }
    for schema in schemas:
        leaves = tuple(leaf.name for leaf in schema.leaves)
        assert leaves == tuple(f.name for f in dataclasses.fields(schema.cls)), schema.cls


def _normalising_rewrites(obj):
    """(path, value) pairs, each rewriting one leaf of ``obj`` into a form
    decoding could only normalise: a repeated leaf-list value, or hex or a
    routing pattern in upper case."""
    for i, t in enumerate(obj["tls"]):
        yield ("tls", i, "trusted_identities"), t["trusted_identities"] * 2
        yield ("tls", i, "local_key"), t["local_key"].upper()
    for i, r in enumerate(obj["routing"]):
        yield ("routing", i, "pattern"), r["pattern"].upper()
        if r["rule_refs"]:
            yield ("routing", i, "rule_refs"), r["rule_refs"] * 2
    for i, p in enumerate(obj["peers"]):
        if p["credential"]["kind"] == "shared-secret":
            yield ("peers", i, "credential", "secret"), p["credential"]["secret"].upper()


def test_every_decodable_text_re_encodes_to_its_canonical_form():
    """Reordering entries and set members keeps the document; every other
    rewrite that decoding would have to normalise is a SCHEMA_ERROR."""
    rng = random.Random(20261018)
    rewrites = 0
    for _ in range(300):
        doc = make_random_valid_doc(rng, max_entities=6)
        text = model.encode_document(doc)
        obj = json.loads(text)
        for entries in obj.values():
            rng.shuffle(entries)
        for t in obj["tls"]:
            rng.shuffle(t["trusted_identities"])
        reordered = model.document_from_json(obj)
        assert reordered == doc
        assert model.encode_document(reordered) == text
        for (*parents, leaf), value in _normalising_rewrites(obj):
            mutant = json.loads(json.dumps(obj))
            holder = mutant
            for key in parents:
                holder = holder[key]
            if holder[leaf] == value:
                continue  # hex without a letter reads the same in upper case
            holder[leaf] = value
            with pytest.raises(CodedError) as err:
                model.document_from_json(mutant)
            assert err.value.code == "SCHEMA_ERROR", (leaf, value)
            rewrites += 1
    assert rewrites > 300


def test_round_trip_on_1000_random_documents():
    rng = random.Random(20260808)
    for _ in range(1000):
        doc = make_random_valid_doc(rng)
        text = model.encode_document(doc)
        decoded = model.document_from_json(json.loads(text))
        assert decoded == doc
        assert model.encode_document(decoded) == text


# ---------------------------------------------------------------------------
# redaction


def test_redact_replaces_psk_and_keys():
    doc = mid_path_agent_doc()
    red = model.redact(doc)
    for t in red.tls.values():
        assert t.local_key == model.REDACTED
    assert model.validate_document(red) == []


def test_redact_keeps_other_fields_and_is_idempotent():
    rng = random.Random(7)
    doc = make_random_valid_doc(rng)
    red = model.redact(doc)
    assert red.routing == doc.routing
    assert red.attributes == doc.attributes
    assert [p.peer_id for p in red.peers.values()] == [p.peer_id for p in doc.peers.values()]
    assert model.redact(red) == red


def test_redact_without_credentials_is_identity():
    doc = ConfigDocument(routing=(RealmEntry("*", None, Action.LOCAL),))
    assert model.redact(doc) == doc


def test_redaction_completeness_over_random_documents():
    rng = random.Random(99)
    for _ in range(200):
        doc = make_random_valid_doc(rng)
        secrets = secret_hexes(doc)
        redacted_text = model.encode_document(model.redact(doc))
        for secret in secrets:
            assert secret not in redacted_text
