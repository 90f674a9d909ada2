"""Records reference.json: what every pool config produces at this commit.

    python3 perfbench/make_reference.py [workload ...]

Run from the root of a source checkout.  For each pool config of each named
workload (default: all) it runs the workload's op once and stores the values
that worker.check compares later runs against: the conserved-charge constants
and oracle normalizers, the fine-eps accuracy, and for asymptotics_ccpb the
oracle solution sampled on the `expand` t grid at the config's smallest eps
(that workload never runs the oracle itself).  Regenerate it only together
with a deliberate change of the program's numbers.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads

# pin BLAS before numpy loads it, as run.py does for its workers
os.environ.update(run.THREAD_ENV)
sys.path.insert(0, str(run.ROOT / "src"))

import numpy as np  # noqa: E402

import pblayers.cli as cli  # noqa: E402
import worker  # noqa: E402
from pblayers.radial_oracle import graded_radial_grid, solve_radial_ccpb  # noqa: E402

EXPAND_T = np.linspace(0.0, 5.0, 201)  # the defaults of `pblayers expand`


def oracle_samples(cfg: dict) -> dict:
    """Oracle phi and field coefficient at the smallest eps, on every
    EXPAND_STRIDE-th point of the expand grid, reached by the same eps
    continuation `pblayers verify` uses."""
    domain, species = cli._domain(cfg), cli._species(cfg)
    radii = [c.radius for c in domain.components]
    prev = None
    for eps in sorted(cfg["eps"], reverse=True):
        initial = None
        if prev is not None:
            initial = prev.phi_at(graded_radial_grid(domain.dimension, radii[0], radii[1], eps))
        prev = solve_radial_ccpb(domain, species, eps, initial=initial)
    ts = EXPAND_T[::worker.EXPAND_STRIDE]
    sq = math.sqrt(prev.eps)
    boundaries = []
    for comp in domain.components:
        if comp.orientation == "outer":
            rs = comp.radius - ts * sq
            coef = -prev.dphi_at(rs)
        else:
            rs = comp.radius + ts * sq
            coef = prev.dphi_at(rs)
        boundaries.append({"phi": prev.phi_at(rs).tolist(), "coef": coef.tolist()})
    return {"eps": prev.eps, "t": ts.tolist(), "boundaries": boundaries}


def reference_entry(workload: str, cfg: dict, capture, scratch: Path) -> dict:
    op = worker.run_op(cli, workload, cfg, scratch)
    obs = worker.observe(workload, cfg, op, capture)
    capture.clear()
    shutil.rmtree(scratch)
    entry = {"op_s": op["op_s"]}
    if "constants" in obs:
        entry.update({k: obs["constants"][k] for k in ("phi0_star", "q", "mhat")})
    if workload == "verify_ccpb":
        entry["oracle"] = obs["oracle"]
    if workload == "asymptotics_ccpb":
        entry["samples"] = oracle_samples(cfg)
    failures, wrong = worker.check(workload, cfg, obs, entry)
    if failures or wrong:
        entry["failures"] = failures + wrong
    if not wrong and all(rc in (0, 1) for rc in op["rcs"]):
        entry["e2_fine"], entry["field_err_fine"] = worker.accuracy(workload, obs, entry)
    return entry


def main(names) -> int:
    path = run.HERE / "reference.json"
    capture = worker.Capture(cli)
    (run.ROOT / ".perfbench").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="reference-", dir=run.ROOT / ".perfbench"))
    try:
        for wl in names or run.WORKLOADS:
            table = {}
            for key in workloads.pool_keys(wl):
                cfg = workloads.config_for_key(wl, key)
                table[key] = reference_entry(wl, cfg, capture, scratch / key.replace("/", "-"))
                status = table[key].get("failures", "ok")
                print(f"{wl} {key} {table[key]['op_s']:.3f}s {status}", flush=True)
            reference = json.loads(path.read_text()) if path.is_file() else {}
            reference[wl] = table
            path.write_text(json.dumps(reference, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
