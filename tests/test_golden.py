"""Golden transcript digests: the behaviour-preservation gate for refactors.

Each case pins the sha256 of the full NDJSON transcript of one run. A
change that alters any frame, record or ordering changes the digest; a
refactor that keeps behaviour must leave every digest as it is.
"""

import hashlib
from pathlib import Path

import pytest

from sdnaaa import simnet

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

REALMS = ("realm.org", "b.example.net", "c.example.net")


def fixture_scenario(name: str, mode: str) -> simnet.Scenario:
    scenario = simnet.load_scenario((FIXTURES / f"{name}.json").read_text())
    scenario.mode = mode
    return scenario


def random_scenario(seed: int, mode: str) -> simnet.Scenario:
    """Three realms (one reached through a wildcard policy), tls and psk
    adjacencies with entry ttls, and an agent that goes down and comes back
    while requests for every realm keep arriving."""
    topology = simnet.gen_random_topology(seed, 10, 0.35, realms=REALMS)
    homes = [topology.home_of[r] for r in REALMS]
    client = next(n for n, i in topology.nodes.items() if i.role == "CLIENT")
    agents = sorted(n for n, i in topology.nodes.items() if i.role == "AGENT")
    policy_lines = "\n".join([
        f"route realm.org via {homes[0]} security tls ttl 1500",
        f"route *.example.net via {homes[1]} security psk ttl 1500",
        f"route c.example.net via {homes[2]} security psk",
    ])
    events = []
    for i in range(30):
        realm = REALMS[i % 3]
        password = "bad" if i % 7 == 3 else "pw"
        events.append(simnet.Event(100 + 150 * i, "inject", node=client,
                                   nai=f"u@{realm}", password=password))
    events += [
        simnet.Event(1000, "node-down", node=agents[0]),
        simnet.Event(2500, "node-up", node=agents[0]),
        simnet.Event(3000, "snapshot"),
    ]
    events.sort(key=lambda ev: ev.time)
    return simnet.scenario_for_topology(
        topology,
        seed=seed,
        mode=mode,
        policy_lines=policy_lines,
        users={home: {"u": "pw"} for home in homes},
        events=events,
        stop_time=6000,
        options={"parallel_adjacency": seed % 2 == 1},
    )


GOLDEN = {
    ("chain", "PROACTIVE"):
        "7a9eae7dba18b83964d948ef2b5943eda9d5c878b56f59610f36012fc011e3b5",
    ("chain", "REACTIVE"):
        "600f51a6c090cc4f1ed569f34d728e0d589c693b3b2f42863da75552d35db0c5",
    ("diamond", "PROACTIVE"):
        "2b4af1a5b19489de2f50be3413e03a14e6650eef33dbeb14fa6b9a7d5e3db753",
    ("diamond", "REACTIVE"):
        "849c5f30b6c71fe39cc049dfb75ac35b5562f32ed65db8617f19651cceaafea3",
    ("loop", "PROACTIVE"):
        "4b486c0e1f1509124523b1be6347e052ea015165a1723a932101c044946ff307",
    ("loop", "REACTIVE"):
        "4b486c0e1f1509124523b1be6347e052ea015165a1723a932101c044946ff307",
    ("random-4", "PROACTIVE"):
        "537517638bd11222c15324766ff9a95c41e50ba45dee2bd70f16e21113490a1d",
    ("random-4", "REACTIVE"):
        "65b6153bc9f9fe157a4cbf5654978c378b33ce828ff9fc5017c626f25d9d3ffd",
    ("random-9", "PROACTIVE"):
        "1f988c31a747f2121848265935ba5cb64a5e37e331f7e9d16aa807150861dce8",
    ("random-9", "REACTIVE"):
        "a75d90d744e8c0120e790f2277dc257303de6aa0ec253db69208bd90faa5d153",
}


def build(name: str, mode: str) -> simnet.Scenario:
    if name.startswith("random-"):
        return random_scenario(int(name.split("-")[1]), mode)
    return fixture_scenario(name, mode)


@pytest.mark.parametrize("name,mode", sorted(GOLDEN))
def test_transcript_digest_is_unchanged(name, mode):
    _metrics, transcript = simnet.run(build(name, mode))
    digest = hashlib.sha256(transcript.to_ndjson().encode()).hexdigest()
    assert digest == GOLDEN[(name, mode)]
