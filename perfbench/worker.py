"""One benchmark workload in one fresh process.

Started by run.py with BLAS/OpenMP pinned to one thread.  It times the import
of pblayers plus one discarded warm-up op (set-up), then pushes seeded pool
configs through `pblayers.cli.main` in-process, closed loop, for the given
number of seconds, and checks every op's outputs.  It prints one JSON object
as its last stdout line.

Nothing here imports numpy before the set-up clock starts, so the import cost
of the program's dependencies is part of set-up.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent

# acceptance criterion 5 of the test suite
DIAGNOSTIC_TOLS = {
    "compatibility_residual": 1e-10,
    "flux_residual": 1e-10,
    "mhat_charge_rel": 1e-8,
    "drift_balance_rel": 1e-8,
}
# relative tolerances (scale max(|reference|, 1)) against reference.json;
# constants come from 1e-14 bisections, oracle values from a 1e-10 Newton
# tolerance and a 1e-12 normalizer fixed point
CONST_RTOL = 1e-10
ORACLE_RTOL = 1e-8
# fine-eps accuracy of `expand` is measured against oracle samples at every
# EXPAND_STRIDE-th point of its default 201-point t grid
EXPAND_STRIDE = 5
# calibration kernels timed after set-up and after every op
CAL_REPEATS = 3


def calibration_kernel() -> float:
    """Seconds for a fixed mix of interpreter and numpy work that no change
    to pblayers can touch.  Timed between ops, it measures how fast the
    machine runs at that moment; run.py scales op times by it."""
    import numpy as np

    a = np.linspace(0.0, 1.0, 40000).reshape(200, 200)
    t0 = time.perf_counter()
    acc = 0
    for i in range(60000):
        acc += i * i
    for _ in range(10):
        a @ a
    np.sort(np.sin(np.arange(100000.0)))
    return time.perf_counter() - t0


class Capture:
    """Keeps the results that `cli` gets from the solvers whose values the
    CLI does not write out (verify writes neither constants nor normalizers)."""

    NAMES = ("ccpb_constants", "solve_radial_ccpb")

    def __init__(self, cli):
        self.results = {n: [] for n in self.NAMES}
        for name in self.NAMES:
            setattr(cli, name, self._wrap(name, getattr(cli, name)))

    def _wrap(self, name, fn):
        sink = self.results[name]

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            sink.append(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def clear(self):
        for sink in self.results.values():
            sink.clear()


def run_op(cli, workload: str, cfg: dict, workdir: Path) -> dict:
    """Writes the config, runs the op's commands, returns exit codes and the
    time spent inside `cli.main`."""
    workdir.mkdir(parents=True)
    cfg_path = workdir / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = workdir / "out"
    argv_tail = ["--config", str(cfg_path), "--output-dir", str(out)]
    rcs = []
    elapsed = 0.0
    for command in workloads.WORKLOADS[workload][2]:
        t0 = time.perf_counter()
        rcs.append(cli.main([command, *argv_tail]))
        elapsed += time.perf_counter() - t0
    return {"rcs": rcs, "op_s": elapsed, "out": out}


def _read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_rows(path: Path) -> list[list[float]]:
    with open(path, encoding="utf-8") as fh:
        next(fh)
        return [[float(x) for x in line.split(",")] for line in fh]


def _constants_view(c) -> dict:
    return {"phi0_star": c.phi0_star, "q": c.q, "mhat": list(c.mhat),
            "diagnostics": dict(c.diagnostics)}


def _fine_expansion(out: Path, n_components: int) -> list[dict]:
    """Potential and field rows of `expand` at its smallest eps, per boundary."""
    fine = []
    for k in range(n_components):
        best = None
        for path in sorted(out.glob(f"expansion_potential_k{k}_eps*.csv")):
            rows = _read_rows(path)
            if best is None or rows[0][1] < best[0][0][1]:
                best = (rows, path.name.replace("potential", "field"))
        if best is None:
            fine.append(None)
            continue
        pot, field_name = best
        field = _read_rows(out / field_name)
        fine.append({"eps": pot[0][1], "t": [r[0] for r in pot],
                     "potential": [r[2] for r in pot], "field": [r[2] for r in field]})
    return fine


def observe(workload: str, cfg: dict, op: dict, capture: Capture) -> dict:
    """The values of one op that the checks and the accuracy metrics read."""
    out = op["out"]
    obs = {"rcs": op["rcs"], "files": {}}
    if out.is_dir():
        obs["files"] = {p.name: p.stat().st_size for p in out.iterdir()}
    if workload.startswith("verify"):
        path = out / "verify_summary.json"
        if path.is_file():
            summary = _read_json(path)
            obs["passed"] = summary["passed"]
            obs["failed_checks"] = sorted(k for k, ok in summary["checks"].items() if not ok)
            obs["e2_fine"] = summary["series"]["E2"][-1]  # eps sorted descending
            obs["field_err_fine"] = summary["series"]["field"][-1]
        if workload == "verify_ccpb":
            if capture.results["ccpb_constants"]:
                obs["constants"] = _constants_view(capture.results["ccpb_constants"][-1])
            obs["oracle"] = [
                {"eps": r.eps, "normalizers": list(r.normalizers),
                 "phi_eps_star": r.phi_eps_star}
                for r in capture.results["solve_radial_ccpb"]
            ]
    else:
        if (out / "ccpb_constants.json").is_file():
            payload = _read_json(out / "ccpb_constants.json")
            obs["constants"] = {k: payload[k] for k in ("phi0_star", "q", "mhat", "diagnostics")}
        if (out / "profiles_meta.json").is_file():
            meta = _read_json(out / "profiles_meta.json")
            obs["profiles_constants"] = {k: meta["constants"][k] for k in ("phi0_star", "q", "mhat")}
            obs["profiles_u0"] = [b["u"]["meta"]["u0"] for b in meta["boundaries"]]
            obs["csv_u0"] = []
            for k in range(len(meta["boundaries"])):
                with open(out / f"u_k{k}.csv", encoding="utf-8") as fh:
                    next(fh)
                    obs["csv_u0"].append(float(next(fh).split(",")[1]))
        obs["expansion"] = _fine_expansion(out, len(cfg["robin"]))
    return obs


def _matches_samples(fine: list[dict], samples: dict) -> bool:
    return all(
        rows is not None
        and rows["eps"] == samples["eps"]
        and len(rows["t"][::EXPAND_STRIDE]) == len(samples["t"])
        and all(abs(a - b) <= 1e-12 for a, b in zip(rows["t"][::EXPAND_STRIDE], samples["t"]))
        for rows in fine
    )


def expansion_errors(fine: list[dict], samples: dict) -> tuple[float, float]:
    """Max over boundaries of E2 and of the field error of `expand` at its
    smallest eps, against the recorded oracle samples."""
    sq = math.sqrt(samples["eps"])
    e2 = fe = 0.0
    for rows, ref in zip(fine, samples["boundaries"]):
        pot = rows["potential"][::EXPAND_STRIDE]
        field = rows["field"][::EXPAND_STRIDE]
        e2 = max(e2, max(abs(a - b) for a, b in zip(ref["phi"], pot)) / sq)
        fe = max(fe, max(abs(a - b) for a, b in zip(ref["coef"], field)))
    return e2, fe


def _close(x, ref, rtol) -> bool:
    return abs(x - ref) <= rtol * max(abs(ref), 1.0)


def _check_constants(got: dict | None, ref: dict, where: str, fails: list):
    if got is None:
        fails.append(f"{where}: missing")
        return
    for name in ("phi0_star", "q"):
        if not _close(got[name], ref[name], CONST_RTOL):
            fails.append(f"{where}.{name} {got[name]!r} != {ref[name]!r}")
    if len(got["mhat"]) != len(ref["mhat"]) or not all(
        _close(a, b, CONST_RTOL) for a, b in zip(got["mhat"], ref["mhat"])
    ):
        fails.append(f"{where}.mhat {got['mhat']} != {ref['mhat']}")
    for name, tol in DIAGNOSTIC_TOLS.items():
        if "diagnostics" in got and not got["diagnostics"][name] <= tol:
            fails.append(f"{where}.diagnostics.{name} = {got['diagnostics'][name]:.3e} > {tol:g}")


def check(workload: str, cfg: dict, obs: dict, ref: dict) -> tuple[list[str], list[str]]:
    """(why the op failed, which of its values are wrong) for one op.

    An op fails when a command exits nonzero or `verify` does not pass.  A
    value is wrong when it misses the reference or an invariant tolerance;
    values are checked whenever the commands wrote them, failed or not.
    """
    commands = workloads.WORKLOADS[workload][2]
    failures = [f"{c} exit code {rc}" for c, rc in zip(commands, obs["rcs"]) if rc != 0]
    wrong = []
    if any(rc not in (0, 1) for rc in obs["rcs"]):  # an error: nothing was written
        return failures, wrong
    if workload.startswith("verify"):
        if obs.get("passed") is not True:
            failures.append(f"verify failed checks {obs.get('failed_checks')}")
        for name in ("e2_fine", "field_err_fine"):
            if not math.isfinite(obs.get(name, math.nan)):
                wrong.append(f"{name} not finite")
        if workload == "verify_ccpb":
            _check_constants(obs.get("constants"), ref, "constants", wrong)
            if len(obs["oracle"]) != len(ref["oracle"]):
                wrong.append("number of conserved-charge oracle solves differs")
            for got, want in zip(obs["oracle"], ref["oracle"]):
                if not _close(got["phi_eps_star"], want["phi_eps_star"], ORACLE_RTOL):
                    wrong.append(f"phi_eps_star at eps={got['eps']:g}")
                if not all(_close(a, b, ORACLE_RTOL)
                           for a, b in zip(got["normalizers"], want["normalizers"])):
                    wrong.append(f"normalizers at eps={got['eps']:g}")
        return failures, wrong
    _check_constants(obs.get("constants"), ref, "ccpb_constants.json", wrong)
    _check_constants(obs.get("profiles_constants"), ref, "profiles_meta.json", wrong)
    n_k = len(cfg["robin"])
    csv_u0, meta_u0 = obs.get("csv_u0", []), obs.get("profiles_u0", [])
    if len(csv_u0) != n_k or not all(map(lambda a, b: _close(a, b, 1e-12), csv_u0, meta_u0)):
        wrong.append("u_k*.csv first value differs from profiles_meta.json u0")
    for k in range(n_k):
        for kind in ("u", "v", "theta", "w"):
            if not obs["files"].get(f"{kind}_k{k}.csv"):
                wrong.append(f"{kind}_k{k}.csv missing or empty")
    n_expand = sum(name.startswith("expansion_") for name in obs["files"])
    n_region = sum(name.startswith("region_charge_") for name in obs["files"])
    if n_expand != 4 * n_k * len(cfg["eps"]) or n_region != n_k * len(cfg["eps"]):
        wrong.append(f"expand wrote {n_expand} grids and {n_region} band charges")
    if not _matches_samples(obs["expansion"], ref["samples"]):
        wrong.append("expand grids at the smallest eps missing or unlike the recorded samples")
    elif not all(math.isfinite(x) for x in expansion_errors(obs["expansion"], ref["samples"])):
        wrong.append("expansion error not finite")
    return failures, wrong


def accuracy(workload: str, obs: dict, ref: dict) -> tuple[float, float]:
    if workload.startswith("verify"):
        return obs["e2_fine"], obs["field_err_fine"]
    return expansion_errors(obs["expansion"], ref["samples"])


def load_reference(workload: str) -> dict:
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)[workload]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "untraced", "traced"), required=True)
    ap.add_argument("--scratch", required=True, help="directory for op outputs")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)
    wl = args.workload
    reference = load_reference(wl)
    scratch = Path(tempfile.mkdtemp(prefix=f"{wl}-", dir=args.scratch))
    try:
        return _run(args, wl, reference, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run(args, wl, reference, scratch: Path) -> int:
    warm_cfg = workloads.config_for_key(wl, workloads.WARMUP_KEY)
    t0 = time.perf_counter()
    import pblayers.cli as cli

    capture = Capture(cli)
    warm = run_op(cli, wl, warm_cfg, scratch / "warmup")
    setup_s = time.perf_counter() - t0
    warm_failures, warm_wrong = check(wl, warm_cfg, observe(wl, warm_cfg, warm, capture),
                                      reference[workloads.WARMUP_KEY])
    capture.clear()
    shutil.rmtree(scratch / "warmup")
    result = {"setup_s": setup_s, "warmup_failures": warm_failures, "warmup_wrong": warm_wrong,
              "setup_cal_s": [calibration_kernel() for _ in range(CAL_REPEATS)]}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = None
    if args.mode == "traced":
        import spans

        tracer = spans.Tracer()
    op_s, op_keys, traced_s, nbytes, problems = [], [], [], [], []
    acc = {"e2_fine": [], "field_err_fine": [], "e2_fine_rel": [], "field_err_fine_rel": []}
    n_failed = n_wrong = 0
    cal_s = []
    keys = workloads.op_keys(wl, args.seed)
    begin = time.perf_counter()
    n_configs = 0
    while time.perf_counter() - begin < args.seconds:
        key = next(keys)
        cfg = workloads.config_for_key(wl, key)
        ref = reference[key]
        # a traced run repeats each config untraced, alternating which goes
        # first so that the overhead estimate does not favour the second
        order = ((False, True) if n_configs % 2 == 0 else (True, False)) if tracer else (False,)
        n_configs += 1
        for traced in order:
            if traced:
                tracer.op = len(traced_s)
                tracer.install()
            try:
                op = run_op(cli, wl, cfg, scratch / "op")
            finally:
                if traced:
                    tracer.uninstall()
            obs = observe(wl, cfg, op, capture)
            capture.clear()
            failures, wrong = check(wl, cfg, obs, ref)
            n_failed += bool(failures or wrong)
            n_wrong += bool(wrong)
            if failures or wrong:
                problems.append({"key": key, "failures": failures, "wrong": wrong})
            if not wrong and all(rc in (0, 1) for rc in op["rcs"]):
                for name, value in zip(("e2_fine", "field_err_fine"), accuracy(wl, obs, ref)):
                    acc[name].append(value)
                    acc[name + "_rel"].append(value / ref[name])
            if traced:
                traced_s.append(op["op_s"])
            else:
                op_s.append(op["op_s"])
                op_keys.append(key)
            nbytes.append(sum(obs["files"].values()))
            shutil.rmtree(scratch / "op")
            cal_s.extend(calibration_kernel() for _ in range(CAL_REPEATS))
    result.update(
        attempted=len(op_s) + len(traced_s),
        failed=n_failed,
        wrong=n_wrong,
        problems=problems,
        op_s=op_s,
        op_keys=op_keys,
        cal_s=cal_s,
        accuracy=acc,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer:
        layer = tracer.per_op_metrics(len(traced_s))
        layer["cli.bytes_written"] = statistics.fmean(nbytes)
        layer["trace.op_s.p50"] = statistics.median(traced_s)
        layer["trace.untraced_op_s.p50"] = statistics.median(op_s)
        layer["trace.overhead_s"] = layer["trace.op_s.p50"] - layer["trace.untraced_op_s.p50"]
        result["layer"] = layer
        if args.spans_out:
            tracer.write(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
