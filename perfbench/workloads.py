"""Seeded inputs for the pblayers benchmark.

Each workload draws its configs from a fixed pool: per stratum (dimension,
shape and mass set), the number of configs set in WORKLOADS is drawn once
from the continuous draw space below, each from its own string-seeded
generator, so a pool member never changes when the pool grows.  `--seed` then picks the order
in which a run visits the pool: strata are visited round-robin in a seeded
order, and each stratum's members in a seeded permutation, so every prefix of
a run is balanced across strata.  A fixed pool lets `reference.json` hold the
values every config produced at the baseline commit, whatever seed a run uses.

Configs are never re-drawn.  The only conditional draws are the ones the draw
space itself requires (distinct boundary potentials; T sqrt(eps) < eps**beta
for the region bands).  A run never visits the pool members in EXCLUDED: the
benchmark's workloads must be ones on which no op fails, and `verify` reports
failure on these at the baseline commit (see README.md, *Known failures*).
"""

from __future__ import annotations

import math
import random

MASS_SETS = {
    # neutral (valence, amount) pairs
    "1:1": ((1, 1), (-1, 1)),
    "2:1": ((2, 1), (-1, 2)),
    "1:2": ((1, 2), (-2, 1)),
}
VERIFY_EPS = (1e-2, 1e-3, 1e-4)
README_REGION = {"T": 5.0, "beta": 0.25}
ANNULUS = {"inner_radius": 1.0, "outer_radius": 2.0}

CCPB_STRATA = tuple((d, m) for d in (2, 3) for m in MASS_SETS)
PB_STRATA = tuple(
    (shape, d, m)
    for shape, d in (("disk", 2), ("ball", 3), ("annulus", 2), ("annulus", 3))
    for m in MASS_SETS
)

WORKLOADS = {
    # name: (strata, pool members per stratum, commands of one op)
    "verify_ccpb": (CCPB_STRATA, 16, ("verify",)),
    "verify_pb": (PB_STRATA, 24, ("verify",)),
    "asymptotics_ccpb": (CCPB_STRATA, 16, ("constants", "expand", "profiles")),
}

# Pool members on which `pblayers verify` exits 1 at the baseline commit;
# reference.json records each one's failed checks.  verify_ccpb: the drift
# gap |(phi_eps* - phi0*)/sqrt(eps) - q| is not monotone over eps 1e-2,
# 1e-3, 1e-4 (a finer oracle does not help).
# verify_pb: E2 or the field error is not decreasing, because the oracle's
# default points_per_layer = 800 is too coarse at eps = 1e-4 (they pass at
# 2400).  All are 2:1 or 1:2 salts.
EXCLUDED = {
    "verify_ccpb": frozenset({"1/2", "1/4", "4/2", "4/11", "4/13", "4/15", "5/0", "5/2", "5/5"}),
    "verify_pb": frozenset({"1/19", "1/21", "7/11", "7/18", "7/22", "8/2", "8/5", "8/7", "8/10",
                            "8/11", "8/12", "8/15", "8/16", "8/18", "10/11", "11/1"}),
}


def _species(mass_set: str, role: str) -> list[dict]:
    return [{"z": z, "amount": a, "role": role} for z, a in MASS_SETS[mass_set]]


def _potential_pair(rng: random.Random) -> tuple[float, float]:
    p1 = round(rng.uniform(-2.0, 2.0), 3)
    p2 = round(rng.uniform(-2.0, 2.0), 3)
    while p2 == p1:
        p2 = round(rng.uniform(-2.0, 2.0), 3)
    return p1, p2


def _ccpb_annulus(rng: random.Random, d: int, mass_set: str) -> dict:
    gamma = round(rng.uniform(0.0, 1.0), 3)
    p1, p2 = _potential_pair(rng)
    return {
        "model": "ccpb",
        "species": _species(mass_set, "mass"),
        "domain": {"type": "annulus", "d": d, **ANNULUS},
        "robin": [{"gamma": gamma, "phi_bd": p1}, {"gamma": gamma, "phi_bd": p2}],
    }


def _draw_verify_ccpb(rng, stratum) -> dict:
    d, mass_set = stratum
    cfg = _ccpb_annulus(rng, d, mass_set)
    cfg.update(eps=list(VERIFY_EPS), region=dict(README_REGION))
    return cfg


def _draw_verify_pb(rng, stratum) -> dict:
    shape, d, mass_set = stratum
    gamma = round(rng.uniform(0.0, 1.0), 3)
    p1, p2 = _potential_pair(rng)
    if shape == "annulus":
        domain = {"type": "annulus", "d": d, **ANNULUS}
        robin = [{"gamma": gamma, "phi_bd": p1}, {"gamma": gamma, "phi_bd": p2}]
    else:
        domain = {"type": shape, "d": d, "radius": 1.0}
        robin = [{"gamma": gamma, "phi_bd": p1}]
    return {
        "model": "pb",
        "species": _species(mass_set, "bulk"),
        "domain": domain,
        "robin": robin,
        "eps": list(VERIFY_EPS),
        "region": dict(README_REGION),
    }


def _draw_asymptotics_ccpb(rng, stratum) -> dict:
    d, mass_set = stratum
    cfg = _ccpb_annulus(rng, d, mass_set)
    eps_max = 10.0 ** rng.uniform(-3.0, -2.0)
    beta = round(rng.uniform(0.1, 0.4), 4)
    # expand requires T sqrt(eps) < eps**beta for every eps; the largest eps
    # binds, because eps**(beta - 1/2) grows as eps shrinks
    t_cap = min(8.0, 0.95 * eps_max ** (beta - 0.5))
    T = round(rng.uniform(1.0, t_cap), 4)
    eps = [float(f"{eps_max / 10.0 ** j:.4e}") for j in range(3)]
    if not all(T * math.sqrt(e) < e**beta for e in eps):
        raise ValueError("region draw violates T sqrt(eps) < eps**beta")
    cfg.update(eps=eps, region={"T": T, "beta": beta})
    return cfg


_DRAW = {
    "verify_ccpb": _draw_verify_ccpb,
    "verify_pb": _draw_verify_pb,
    "asymptotics_ccpb": _draw_asymptotics_ccpb,
}


def pool_config(workload: str, stratum_index: int, member: int) -> dict:
    """The `member`-th pool config of a stratum; independent of the seed."""
    strata, _, _ = WORKLOADS[workload]
    rng = random.Random(f"pblayers-bench/{workload}/{stratum_index}/{member}")
    return _DRAW[workload](rng, strata[stratum_index])


def pool_keys(workload: str) -> list[str]:
    strata, per_stratum, _ = WORKLOADS[workload]
    return [f"{s}/{m}" for s in range(len(strata)) for m in range(per_stratum)]


def config_for_key(workload: str, key: str) -> dict:
    s, m = (int(x) for x in key.split("/"))
    return pool_config(workload, s, m)


WARMUP_KEY = "0/0"


def op_keys(workload: str, seed: int):
    """Endless seeded sequence of pool keys for one run, EXCLUDED left out."""
    strata, per_stratum, _ = WORKLOADS[workload]
    excluded = EXCLUDED.get(workload, frozenset())
    members = [[m for m in range(per_stratum) if f"{s}/{m}" not in excluded]
               for s in range(len(strata))]
    rng = random.Random(f"pblayers-bench/{workload}/seed/{seed}")
    orders = [rng.sample(ms, len(ms)) for ms in members]
    cursor = [0] * len(strata)
    while True:
        for s in rng.sample(range(len(strata)), len(strata)):
            if cursor[s] == len(orders[s]):
                orders[s] = rng.sample(members[s], len(members[s]))
                cursor[s] = 0
            yield f"{s}/{orders[s][cursor[s]]}"
            cursor[s] += 1
