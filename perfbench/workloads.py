"""Seeded scenario generators for the benchmark workloads.

The generators are the benchmark's own: they do not call
``simnet.gen_random_topology`` or any other program code, so a change to the
program cannot change the inputs it is measured on. Each generator returns a
plain scenario dict in the ``sdn-aaa run`` file format; ``scenario_text``
turns it into the canonical JSON text the program loads.

Every workload is an open loop in logical time: one request is injected per
tick on a schedule fixed in the scenario, whatever the program does.
"""

from __future__ import annotations

import json
import random

# Provenance of each workload: why it exists, the generator parameters, the
# seed used while writing a change (default) and a seed kept back for the
# claim check (holdout).
WORKLOADS = {
    "dataplane": {
        "why": "per-hop message handling and transcript records: 4x5 grid, one realm, "
               "3 clients at 3, 4 and 7 hops, one-entry route tables",
        "params": {"rows": 4, "cols": 5, "requests": 3000, "wrong_password_share": 0.1},
        "default_seed": 1,
        "holdout_seed": 1009,
    },
    "provision": {
        "why": "controller, southbound and apply/validate as node documents grow to "
               "200 routes, then select_route over 200-entry tables",
        "params": {"rows": 4, "cols": 5, "realms": 200, "homes": 4, "wildcard_share": 0.1,
                   "rounds": 5},
        "default_seed": 1,
        "holdout_seed": 1009,
    },
    "reactive_ttl": {
        "why": "reactive acquire, TTL re-provisioning and forward-failure reroutes "
               "interleaved with data-plane reads under agent churn",
        "params": {"fabric_seed": 7, "nodes": 30, "realms": 12, "clients": 4, "extra_links": 14,
                   "requests": 4000, "ttl": 600, "churn_every": 300, "down_for": 150,
                   "wrong_password_share": 0.1},
        "default_seed": 1,
        "holdout_seed": 1009,
    },
}


def scenario_text(scenario: dict) -> str:
    """Canonical text of a generated scenario: same dict, same bytes."""
    return json.dumps(scenario, sort_keys=True, separators=(",", ":"))


def generate(name: str, seed: int, **overrides) -> dict:
    """Scenario dict for workload ``name``; ``overrides`` replace generator
    parameters (the tests use them to build small scenarios quickly)."""
    params = {**WORKLOADS[name]["params"], **overrides}
    return _GENERATORS[name](random.Random(f"{name}:{seed}"), seed, **params)


# ---------------------------------------------------------------------------
# building blocks


def _grid(rows: int, cols: int):
    ids = {(r, c): f"g{r}{c}" for r in range(rows) for c in range(cols)}
    links = []
    for (r, c), nid in sorted(ids.items()):
        if c + 1 < cols:
            links.append([nid, ids[(r, c + 1)]])
        if r + 1 < rows:
            links.append([nid, ids[(r + 1, c)]])
    return ids, links


def _users(rng: random.Random, count: int) -> dict[str, str]:
    return {f"u{i:03d}": f"pw-{rng.getrandbits(32):08x}" for i in range(count)}


def _password(rng: random.Random, users: dict[str, str], user: str, wrong_share: float) -> str:
    if rng.random() < wrong_share:
        return "wrong-" + users[user]
    return users[user]


def _inject(time: int, at: str, user: str, realm: str, password: str) -> dict:
    return {"time": time, "kind": "inject", "at": at, "nai": f"{user}@{realm}",
            "password": password}


# ---------------------------------------------------------------------------
# workloads


def _dataplane(rng, seed, *, rows, cols, requests, wrong_password_share):
    """One realm homed at corner g00; clients at the other three corners,
    which lie 3 (g30), 4 (g04) and 7 (g34) hops from the home."""
    ids, links = _grid(rows, cols)
    home = ids[(0, 0)]
    clients = sorted([ids[(rows - 1, 0)], ids[(0, cols - 1)], ids[(rows - 1, cols - 1)]])
    realm = "dp.example"
    users = _users(rng, 32)
    nodes = {}
    for nid in sorted(ids.values()):
        nodes[nid] = {"address": f"{nid}.sim", "role": "CLIENT" if nid in clients else "AGENT"}
    nodes[home] = {"address": f"{home}.sim", "role": "SERVER", "realms": [realm],
                   "users": users}
    security = rng.choice(["psk", "tls"])
    start = 200
    user_ids = sorted(users)
    events = []
    for i in range(requests):
        user = rng.choice(user_ids)
        events.append(_inject(start + i, rng.choice(clients), user, realm,
                              _password(rng, users, user, wrong_password_share)))
    return {
        "seed": seed,
        "topology": {"nodes": nodes, "links": links, "homes": {realm: home}},
        "policies": [f"route {realm} via {home} security {security}"],
        "mode": "PROACTIVE",
        "events": events,
        "stop_time": start + requests + 200,
    }


def _provision(rng, seed, *, rows, cols, realms, homes, wildcard_share, rounds):
    """Several hundred realms over four home servers on the grid's right
    column, clients at g00 and g20. Requests start once every policy has
    been provisioned, then go round by round to every realm.

    With clients at the two left corners the path lengths 4..7 would be
    equally likely and the median latency would sit on the boundary between
    two values, flipping with the seed; from g00 and g20 a request is 5
    hops away with probability 3/8 and the median is 5 hops for every seed.
    """
    ids, links = _grid(rows, cols)
    home_ids = [ids[(r, cols - 1)] for r in range(rows)][:homes]
    clients = [ids[(0, 0)], ids[(2, 0)]]
    users = {h: _users(rng, 8) for h in home_ids}
    tag = f"{rng.getrandbits(24):06x}"
    served: dict[str, list[str]] = {h: [] for h in home_ids}
    policies = []
    targets = []  # (request realm, home)
    order = list(range(realms))
    rng.shuffle(order)
    for i in order:
        home = home_ids[i % len(home_ids)]
        security = rng.choice(["psk", "tls"])
        if rng.random() < wildcard_share:
            suffix = f"w{i:03d}.{tag}.example"
            realm = f"{rng.choice(['a', 'b', 'c'])}.{suffix}"
            policies.append(f"route *.{suffix} via {home} security {security}")
        else:
            realm = f"r{i:03d}.{tag}.example"
            policies.append(f"route {realm} via {home} security {security}")
        served[home].append(realm)
        targets.append((realm, home))
    nodes = {}
    for nid in sorted(ids.values()):
        nodes[nid] = {"address": f"{nid}.sim", "role": "CLIENT" if nid in clients else "AGENT"}
    for h in home_ids:
        nodes[h] = {"address": f"{h}.sim", "role": "SERVER", "realms": sorted(served[h]),
                    "users": users[h]}
    # a provisioning frame takes two ticks and a realm needs at most one
    # route frame per node; twice that, for every realm, also covers the
    # frames that set up adjacencies, so requests start after provisioning
    start = 4 * realms * (len(ids) + 2) + 100
    events = []
    t = start
    for _round in range(rounds):
        batch = list(targets)
        rng.shuffle(batch)
        for realm, home in batch:
            user = rng.choice(sorted(users[home]))
            events.append(_inject(t, rng.choice(clients), user, realm,
                                  _password(rng, users[home], user, 0.1)))
            t += 1
    return {
        "seed": seed,
        "topology": {"nodes": nodes, "links": links,
                     "homes": {realm: home for realm, home in sorted(targets)}},
        "policies": policies,
        "mode": "PROACTIVE",
        "events": events,
        "stop_time": t + 200,
    }


def _reactive_ttl(rng, seed, *, fabric_seed, nodes, realms, clients, extra_links, requests,
                  ttl, churn_every, down_for, wrong_password_share):
    """Random connected graph (a random spanning tree plus extra links), one
    home per realm, a TTL on every policy, and one agent down for
    ``down_for`` ticks every ``churn_every`` ticks while requests flow.

    The graph, the churn schedule and the (time, client, realm) stream come
    from ``fabric_seed``; ``seed`` draws realm names, users, passwords and
    which requests carry a wrong password. The program's stranding defects
    make its outcomes chaotic in the fabric: over eight seeds that also drew
    the fabric, the answered share spread 16-17% and p99 latency 100-160%,
    wider than any usable bound, so the fabric stays fixed across seeds.
    """
    fabric = random.Random(f"reactive_ttl-fabric:{fabric_seed}")
    names = [f"n{i:02d}" for i in range(nodes)]
    fabric.shuffle(names)
    link_set = set()
    for i in range(1, nodes):
        link_set.add(tuple(sorted((names[i], names[fabric.randrange(i)]))))
    while len(link_set) < nodes - 1 + extra_links:
        link_set.add(tuple(sorted(fabric.sample(names, 2))))
    links = [list(pair) for pair in sorted(link_set)]
    ordered = sorted(names)
    fabric.shuffle(ordered)
    home_ids = ordered[:realms]
    client_ids = sorted(ordered[realms:realms + clients])
    agents = sorted(ordered[realms + clients:])
    tag = f"{rng.getrandbits(24):06x}"
    realm_of = {h: f"t{i:02d}.{tag}.example" for i, h in enumerate(home_ids)}
    users = {h: _users(rng, 8) for h in home_ids}
    node_specs = {}
    for nid in sorted(names):
        if nid in realm_of:
            node_specs[nid] = {"address": f"{nid}.sim", "role": "SERVER",
                               "realms": [realm_of[nid]], "users": users[nid]}
        else:
            role = "CLIENT" if nid in client_ids else "AGENT"
            node_specs[nid] = {"address": f"{nid}.sim", "role": role}
    policies = [
        f"route {realm_of[h]} via {h} security {'psk' if i % 2 == 0 else 'tls'} ttl {ttl}"
        for i, h in enumerate(home_ids)
    ]
    start = 100
    end = start + requests
    timed = []
    for t in range(start + churn_every, end, churn_every):
        agent = fabric.choice(agents)
        timed.append((t, 0, {"time": t, "kind": "node-down", "node": agent}))
        timed.append((t + down_for, 0, {"time": t + down_for, "kind": "node-up", "node": agent}))
    for t in range(start, end):
        home = fabric.choice(home_ids)
        at = fabric.choice(client_ids)
        user = rng.choice(sorted(users[home]))
        password = _password(rng, users[home], user, wrong_password_share)
        timed.append((t, 1, _inject(t, at, user, realm_of[home], password)))
    timed.sort(key=lambda item: (item[0], item[1]))
    return {
        "seed": seed,
        "topology": {"nodes": node_specs, "links": links,
                     "homes": {realm_of[h]: h for h in sorted(home_ids)}},
        "policies": policies,
        "mode": "REACTIVE",
        "events": [ev for _t, _k, ev in timed],
        "stop_time": end + 6000,
    }


_GENERATORS = {
    "dataplane": _dataplane,
    "provision": _provision,
    "reactive_ttl": _reactive_ttl,
}
