import json

import pytest
from click.testing import CliRunner

from conftest import FIXTURES, secret_hexes
from sdnaaa import model, simnet
from sdnaaa.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args))


# ---------------------------------------------------------------------------
# validate


def test_validate_scenario_ok(runner):
    result = invoke(runner, "validate", str(FIXTURES / "chain.json"))
    assert result.exit_code == 0
    assert result.stdout == ""


def test_validate_document_ok(runner, tmp_path):
    doc = tmp_path / "empty.json"
    doc.write_text('{"peers":[],"routing":[],"tls":[],"attributes":[]}')
    result = invoke(runner, "validate", str(doc))
    assert result.exit_code == 0


def test_validate_dangling_next_hop_fails_with_violation(runner, tmp_path):
    doc = tmp_path / "bad.json"
    doc.write_text(json.dumps({
        "peers": [],
        "routing": [{"pattern": "realm.org", "next_hop": "pX", "action": "relay",
                     "rule_refs": [], "expiration": None}],
        "tls": [],
        "attributes": [],
    }))
    result = invoke(runner, "validate", str(doc))
    assert result.exit_code == 1
    assert "DANGLING_NEXT_HOP" in result.stderr


def test_validate_missing_file_is_io_error(runner):
    result = invoke(runner, "validate", "no-such-file.json")
    assert result.exit_code == 2


def test_validate_invalid_json_is_one_line(runner, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    result = invoke(runner, "validate", str(path))
    assert result.exit_code == 1
    assert len(result.stderr.splitlines()) == 1 and result.stderr.startswith("invalid JSON: ")


def test_file_that_is_not_utf8_is_invalid_json_on_one_line(runner, tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"a":\n "x\xffy"}')
    detail = "Invalid UTF-8 byte 0xff: line 2 column 4 (char 9)"
    validated = invoke(runner, "validate", str(path))
    assert validated.exit_code == 1
    assert validated.stderr.splitlines() == [f"invalid JSON: {detail}"]
    for args in (["run", str(path)], ["inspect", str(path), "ai", "--at", "0"]):
        result = invoke(runner, *args)
        assert result.exit_code == 2
        assert result.stderr.splitlines() == [f"PARSE_ERROR: {detail}"]


def test_validate_unrecognized_kind(runner, tmp_path):
    path = tmp_path / "odd.json"
    path.write_text('{"something": 1}')
    result = invoke(runner, "validate", str(path))
    assert result.exit_code == 1


# ---------------------------------------------------------------------------
# run


def test_run_chain_writes_metrics_and_transcript(runner, tmp_path):
    metrics_path = tmp_path / "metrics.json"
    transcript_path = tmp_path / "transcript.ndjson"
    result = invoke(
        runner, "run", str(FIXTURES / "chain.json"),
        "--metrics", str(metrics_path), "--transcript", str(transcript_path),
    )
    assert result.exit_code == 0
    metrics = json.loads(result.stdout)
    assert metrics["delivered"] == 1
    assert json.loads(metrics_path.read_text()) == metrics
    lines = transcript_path.read_text().splitlines()
    assert lines and all(json.loads(line) for line in lines)


def test_run_mode_override_to_reactive(runner):
    result = invoke(runner, "run", str(FIXTURES / "chain.json"), "--mode", "reactive")
    assert result.exit_code == 0
    metrics = json.loads(result.stdout)
    assert metrics["notifications"]["acquire-route"] == 3


def test_run_loop_fixture_exits_one_with_route_loop(runner, tmp_path):
    transcript_path = tmp_path / "t.ndjson"
    result = invoke(
        runner, "run", str(FIXTURES / "loop.json"), "--transcript", str(transcript_path)
    )
    assert result.exit_code == 1
    assert "ROUTE_LOOP" in transcript_path.read_text()


def test_run_missing_file_exits_two(runner):
    result = invoke(runner, "run", "missing.json")
    assert result.exit_code == 2


@pytest.mark.parametrize("option", ["--transcript", "--metrics"])
def test_run_unwritable_output_exits_two_with_one_line(runner, tmp_path, option):
    target = tmp_path / "no-such-dir" / "out"
    result = invoke(runner, "run", str(FIXTURES / "chain.json"), option, str(target))
    assert result.exit_code == 2
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"cannot write {target}: ")


_PEER = {
    "peer_id": "ai", "identity": "ai", "host": "ai.sim", "port": 1812,
    "transport": "radius-udp", "expiration": None,
    "credential": {"kind": "shared-secret", "secret": "ab" * 16},
}
_EMPTY_DOC = {"peers": [], "routing": [], "tls": [], "attributes": []}


def _rename_aj_to_empty(obj: dict) -> None:
    """Node aj gets the id "", in the nodes and in the links."""
    topology = obj["topology"]
    topology["nodes"] = {("" if nid == "aj" else nid): node for nid, node in topology["nodes"].items()}
    topology["links"] = [["" if end == "aj" else end for end in pair] for pair in topology["links"]]


MALFORMED_SCENARIOS = {
    "static_config-list": (lambda o: o.update(static_config=[]), "PARSE_ERROR"),
    "homes-list": (lambda o: o["topology"].update(homes=[["realm.org", "ah"]]), "PARSE_ERROR"),
    "users-list": (lambda o: o["topology"]["nodes"]["ah"].update(users=["alice"]), "PARSE_ERROR"),
    "realms-string": (lambda o: o["topology"]["nodes"]["ai"].update(realms="abc"), "PARSE_ERROR"),
    "events-object": (lambda o: o.update(events={}), "PARSE_ERROR"),
    "password-number": (lambda o: o["events"][0].update(password=123), "PARSE_ERROR"),
    "parallel-not-bool": (lambda o: o.update(options={"parallel_adjacency": "yes"}), "PARSE_ERROR"),
    "nai-without-at": (lambda o: o["events"][0].update(nai="alice.realm.org"), "NO_AT_SIGN"),
    "nai-without-at-newline": (
        lambda o: o["events"][0].update(nai="alice.realm.org\n"), "NO_AT_SIGN",
    ),
    "inject-at-newline": (lambda o: o["events"][0].update(at="ac\n"), "UNKNOWN_NODE"),
    "duplicate-static-peer": (
        lambda o: o.update(static_config={"ac": dict(_EMPTY_DOC, peers=[_PEER, _PEER])}),
        "DUPLICATE_PEER_ID",
    ),
    "policy-unknown-home": (
        lambda o: o.update(policies=["route realm.org via zz security tls"]), "UNKNOWN_HOME_NODE",
    ),
    "policy-bad-pattern": (
        lambda o: o.update(policies=["route realm..org via ah security tls"]), "PARSE_ERROR",
    ),
    "policy-dup-pattern": (
        lambda o: o["policies"].append("route realm.org via ai security psk"), "DUPLICATE_PATTERN",
    ),
    "node-realm-bad": (lambda o: o["topology"]["nodes"]["ai"].update(realms=["a..b"]), "BAD_REALM"),
    "node-realm-newline": (
        lambda o: o["topology"]["nodes"]["ai"].update(realms=["realm.org\n"]), "BAD_REALM",
    ),
    "nai-realm-newline": (lambda o: o["events"][0].update(nai="alice@realm.org\n"), "BAD_REALM"),
    "policy-ttl-superscript": (
        lambda o: o.update(policies=["route realm.org via ah security tls ttl \u00b2"]), "PARSE_ERROR",
    ),
    "policy-ttl-arabic-indic": (
        lambda o: o.update(policies=["route realm.org via ah security tls ttl \u0663"]), "PARSE_ERROR",
    ),
    "node-id-empty": (_rename_aj_to_empty, "PARSE_ERROR"),
    "node-address-empty": (lambda o: o["topology"]["nodes"]["aj"].update(address=""), "PARSE_ERROR"),
    "duplicate-address": (
        lambda o: o["topology"]["nodes"]["aj"].update(address="ai.sim"), "PARSE_ERROR",
    ),
    "static-container-not-list": (
        lambda o: o.update(static_config={"ac": dict(_EMPTY_DOC, peers={})}), "SCHEMA_ERROR",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SCENARIOS))
def test_malformed_scenario_is_a_coded_load_error(runner, tmp_path, case):
    mutate, code = MALFORMED_SCENARIOS[case]
    obj = json.loads((FIXTURES / "chain.json").read_text())
    mutate(obj)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(model.CodedError) as err:
        simnet.load_scenario(path.read_text())
    assert err.value.code == code
    message = str(err.value)
    assert message == code or message.startswith(f"{code}: ")
    assert not message.startswith(f"{code}: {code}")
    validated = invoke(runner, "validate", str(path))
    assert validated.exit_code == 1 and validated.stderr.splitlines() == [message]
    ran = invoke(runner, "run", str(path))
    assert ran.exit_code == 2 and ran.stderr.splitlines() == [message]


def test_validate_document_with_duplicate_key_names_it(runner, tmp_path):
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(dict(_EMPTY_DOC, peers=[_PEER, _PEER])))
    result = invoke(runner, "validate", str(path))
    assert result.exit_code == 1
    assert "DUPLICATE_PEER_ID: peers/ai" in result.stderr


def test_run_seed_override_changes_credentials_not_outcome(runner, tmp_path):
    out = []
    for seed in ("1", "2"):
        t = tmp_path / f"t{seed}.ndjson"
        result = invoke(
            runner, "run", str(FIXTURES / "chain.json"),
            "--seed-override", seed, "--transcript", str(t),
        )
        assert result.exit_code == 0
        out.append((json.loads(result.stdout), t.read_text()))
    assert out[0][0] == out[1][0]  # same metrics
    # the transcript holds no credential material, so the seeds write the same bytes,
    # while the credentials the nodes hold differ
    assert out[0][1] == out[1][1]
    held = []
    for seed in (1, 2):
        scenario = simnet.load_scenario((FIXTURES / "chain.json").read_text())
        scenario.seed = seed
        sim = simnet.Simulation(scenario)
        sim.run()
        held.append(set().union(*(secret_hexes(n.running) for n in sim.nodes.values())))
    assert held[0] and held[1] and held[0].isdisjoint(held[1])


# ---------------------------------------------------------------------------
# inspect


def test_inspect_after_provisioning_shows_redacted_peer(runner):
    result = invoke(runner, "inspect", str(FIXTURES / "chain.json"), "ai", "--at", "40")
    assert result.exit_code == 0
    doc = model.document_from_json(json.loads(result.stdout))
    assert doc.peer("aj") is not None
    assert all(t.local_key == model.REDACTED for t in doc.tls.values())
    assert model.REDACTED in result.stdout


def test_inspect_reactive_at_time_zero_is_empty(runner, tmp_path):
    obj = json.loads((FIXTURES / "chain.json").read_text())
    obj["mode"] = "REACTIVE"
    path = tmp_path / "reactive.json"
    path.write_text(json.dumps(obj))
    result = invoke(runner, "inspect", str(path), "ai", "--at", "0")
    assert result.exit_code == 0
    assert result.stdout.strip() == '{"peers":[],"routing":[],"tls":[],"attributes":[]}'


def test_inspect_unknown_node_exits_one(runner):
    result = invoke(runner, "inspect", str(FIXTURES / "chain.json"), "zz", "--at", "40")
    assert result.exit_code == 1


def test_inspect_output_never_contains_secret_material(runner):
    result = invoke(runner, "inspect", str(FIXTURES / "diamond.json"), "cl", "--at", "80")
    assert result.exit_code == 0
    doc = model.document_from_json(json.loads(result.stdout))
    peer = doc.peer("aa")
    assert peer is not None and peer.credential.secret == model.REDACTED


def test_log_env_var_writes_diagnostics_to_stderr(runner):
    result = runner.invoke(
        main, ["run", str(FIXTURES / "chain.json")], env={"SDN_AAA_LOG": "info"}
    )
    assert result.exit_code == 0
    assert "adjacency" in result.stderr
    # stdout stays machine-readable
    json.loads(result.stdout)
