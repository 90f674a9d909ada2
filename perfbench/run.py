"""pblayers benchmark: seeded CLI workloads, end to end or traced by layer.

    python3 perfbench/run.py --workload verify_ccpb --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from `src/`.
Each run starts fresh worker processes (worker.py) with BLAS and OpenMP
pinned to one thread: SETUP_PROBES processes that only time set-up, then one
that measures the workload closed loop, one client, for `--seconds`.  With
`--trace 1` the measuring worker runs every config twice, untraced and
traced, and reports per-layer means per traced op instead.  Op outputs go to
a temporary directory under `.perfbench/`, which is removed afterwards; the
traced run leaves its spans in `.perfbench/spans-<workload>-<seed>.json`.

End-to-end times are in nominal seconds (see CAL_NOMINAL_S).  The last
stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify_ccpb", "verify_pb", "asymptotics_ccpb")
THREAD_ENV = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}
SETUP_PROBES = 2  # plus the measuring worker's own set-up: three samples
DEADLINE_S = 170.0
# Median time of worker.calibration_kernel on the baseline machine.  The
# machine this benchmark was built on runs a fixed CPU kernel up to 1.4x
# slower for seconds to minutes at a time, in CPU and wall time alike, and
# the kernel's slowdowns track those of the program (window correlation
# 0.93).  End-to-end times are therefore reported in nominal seconds: raw
# seconds times CAL_NOMINAL_S / (median time of the kernels timed just
# before and just after, in the same process).
CAL_NOMINAL_S = 0.009


def _metric_units() -> tuple[dict, dict]:
    """Names and units of the end-to-end and per-layer metrics."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _worker(args, mode: str, deadline: float, extra=()) -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    # compile the sources afresh in every worker, so set-up time does not
    # depend on whether an earlier run left bytecode behind
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--scratch", str(ROOT / ".perfbench"), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          timeout=max(deadline - time.monotonic(), 1.0), text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _percentile(values, p):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def _speed(cal_s: list[float]) -> float:
    """How much faster than nominal the machine ran while cal_s was timed."""
    return CAL_NOMINAL_S / statistics.median(cal_s)


def _nominal_op_s(run: dict) -> list[float]:
    """Untraced op times in nominal seconds.  The worker times the same
    number of kernels after set-up and after every op, so op i lies between
    kernel groups i and i + 1."""
    k = len(run["setup_cal_s"])
    cal = run["setup_cal_s"] + run["cal_s"]
    return [t * _speed(cal[k * i:k * (i + 2)]) for i, t in enumerate(run["op_s"])]


def end_to_end(run: dict, setups: list[dict]) -> dict:
    ops = _nominal_op_s(run)
    # the median within each stratum (shape, dimension, mass set), averaged
    # over strata: op times are multimodal across strata (verify_pb: disks
    # and balls about 0.1 s, annuli about 0.22 s, half each), so a plain
    # median of a run's ops jumps between the modes from seed to seed
    by_stratum = {}
    for key, t in zip(run["op_keys"], ops):
        by_stratum.setdefault(key.split("/")[0], []).append(t)
    return {
        "op_s.stratum_p50": statistics.fmean(map(statistics.median, by_stratum.values())),
        "ops_per_s": len(ops) / sum(ops),
        "setup_s": statistics.median(s["setup_s"] * _speed(s["setup_cal_s"]) for s in setups),
        "peak_rss_mb": run["peak_rss_mb"],
        # accuracy relative to the same configs at the baseline commit: the
        # raw values differ by orders of magnitude between configs, so their
        # median over a run's ops moves with the seed
        "e2_fine_rel.p50": statistics.median(run["accuracy"]["e2_fine_rel"]),
        "field_err_fine_rel.p50": statistics.median(run["accuracy"]["field_err_fine_rel"]),
    }


def per_layer(run: dict) -> dict:
    layer = dict(run["layer"])
    layer["trace.untraced_op_s.p90"] = _percentile(run["op_s"], 90)
    layer["calibration.kernel_s"] = statistics.median(run["cal_s"])
    for name in ("e2_fine", "field_err_fine"):
        layer[f"accuracy.{name}.p50"] = statistics.median(run["accuracy"][name])
    return layer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        ap.error("--seconds must lie in 1..60")
    if not (ROOT / "src" / "pblayers" / "cli.py").is_file():
        print(f"no pblayers sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    e2e_units, layer_units = _metric_units()
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    try:
        if args.trace:
            spans_out = ROOT / ".perfbench" / f"spans-{args.workload}-{args.seed}.json"
            run = _worker(args, "traced", deadline, ("--spans-out", str(spans_out)))
            values = per_layer(run)
            # a layer the workload never enters has no spans: it took 0 s
            metrics = {k: (values.get(k, 0.0), u) for k, u in layer_units.items()}
        else:
            setups = [_worker(args, "setup", deadline) for _ in range(SETUP_PROBES)]
            run = _worker(args, "untraced", deadline)
            setups.append(run)
            values = end_to_end(run, setups)
            metrics = {k: (values[k], u) for k, u in e2e_units.items()}
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError,
            statistics.StatisticsError) as exc:
        print(f"benchmark run failed: {exc!r}", file=sys.stderr)
        return 1
    for p in run["problems"]:
        print(f"op {p['key']}: failed {p['failures']} wrong {p['wrong']}", file=sys.stderr)
    if run["warmup_failures"] or run["warmup_wrong"]:
        print(f"warm-up op: failed {run['warmup_failures']} wrong {run['warmup_wrong']}",
              file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {run['attempted']} ops "
          f"({len(run['op_s'])} untraced), {run['failed']} failed, {run['wrong']} with wrong values; "
          f"untraced op_s p90 {_percentile(run['op_s'], 90):.6g} s over {len(run['op_s'])} samples")
    ops = run["op_s"]
    print(f"  raw seconds: op_s median {statistics.median(ops):.6g}, "
          f"p90 {_percentile(ops, 90):.6g}, ops_per_s {len(ops) / sum(ops):.6g}; "
          f"machine speed {_speed(run['cal_s']):.4g}x nominal")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:.6g} {unit}")
    print(json.dumps({
        "correct": run["wrong"] == 0 and not run["warmup_wrong"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
