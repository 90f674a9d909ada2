"""Command-line front end.

One JSON config document drives every command; flags only pick the command,
the config path, the output directory and verbosity, so runs are
reproducible from a single artifact.  All emitted files are deterministic:
floats are written with shortest round-trip repr and JSON keys are sorted.

Exit codes: 0 success, 1 verification failure, 2 config error, 3 solver
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import asymptotics
from .ccpb import CcpbConstants, ccpb_constants
from .errors import ConfigError, InconsistentParams, PBLayersError, SolverError
from .geometry import DomainSpec, RegionParams, make_annulus, make_ball, make_disk
from .nonlinearity import IonSpecies, Nonlinearity, make_classical_pb
from .numerics import write_csv
from .profiles import DEFAULT_NODES, LayerBundle, RobinData, solve_u, solve_v
from .radial_oracle import (
    RadialSolveResult,
    compare_expansion,
    solve_radial_ccpb,
    solve_radial_robin_pb,
    stretched_layers,
)

# the keys each config section allows; model, eps and output_dir are plain
# values at the top level
_SECTION_KEYS = {
    "species": {"z", "amount", "role"},
    "domain": {"type", "d", "radius", "inner_radius", "outer_radius"},
    "robin": {"gamma", "phi_bd"},
    "grid": {"n_nodes"},
    "region": {"T", "beta"},
    "oracle": {"points_per_layer"},
    "expand": {"t_max", "n_t", "order"},
    "verify": {"flip_curvature"},
    "figures": {"gamma"},
}
_TOP_KEYS = {"model", "eps", "output_dir", *_SECTION_KEYS}

# verify fails unless the worst E2 and field error at the smallest eps are at
# most this fraction of those at the largest eps
E2_HALVING = 0.5


def _object(value, allowed: set, where: str) -> dict:
    """A config section: a JSON object with no key outside `allowed`."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(value) - allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {', '.join(unknown)}")
    return value


def _section(cfg: dict, key: str) -> dict:
    """The optional section `key` of the config; {} when absent or null."""
    value = cfg.get(key)
    return {} if value is None else _object(value, _SECTION_KEYS[key], key)


def _rows(cfg: dict, key: str) -> list[dict]:
    """The section `key` of the config: a nonempty list of JSON objects."""
    rows = cfg.get(key)
    if not isinstance(rows, list) or not rows:
        raise ConfigError(f"{key} must be a nonempty list of JSON objects")
    return [_object(row, _SECTION_KEYS[key], f"{key}[{i}]") for i, row in enumerate(rows)]


def _float(value, where: str) -> float:
    """A JSON number as a finite float: no bool (a subclass of int) and no
    numeric string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an integer beyond the range of a float
        x = math.inf
    if not math.isfinite(x):
        # json.load accepts NaN, Infinity and -Infinity
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return x


def _number(section: dict, key: str, where: str, default=None) -> float:
    """section[key] as a number; `default` when the key is absent, and a
    config error then if there is no default."""
    if key not in section:
        if default is None:
            raise ConfigError(f"{where} missing key {key!r}")
        return default
    return _float(section[key], f"{where}.{key}")


def _integer(section: dict, key: str, where: str, default=None) -> int:
    value = _number(section, key, where, default)
    if not float(value).is_integer():
        raise ConfigError(f"{where}.{key} must be an integer, got {section[key]!r}")
    return int(value)


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _object(cfg, _TOP_KEYS, "config")
    if cfg.get("model") not in ("pb", "ccpb"):
        raise ConfigError("model must be 'pb' or 'ccpb'")
    return cfg


def _species(cfg) -> list[IonSpecies]:
    out = []
    for i, row in enumerate(_rows(cfg, "species")):
        where = f"species[{i}]"
        role = row.get("role", "mass" if cfg["model"] == "ccpb" else "bulk")
        out.append(IonSpecies(_number(row, "z", where), _number(row, "amount", where), role))
    return out


def _robin_list(cfg, n_components) -> list[RobinData]:
    rows = _rows(cfg, "robin")
    if len(rows) != n_components:
        raise ConfigError(f"robin must list exactly {n_components} boundary entries")
    out = []
    for i, row in enumerate(rows):
        where = f"robin[{i}]"
        out.append(RobinData(_number(row, "gamma", where), _number(row, "phi_bd", where)))
    return out


def _domain(cfg) -> DomainSpec:
    dom = _object(cfg.get("domain"), _SECTION_KEYS["domain"], "domain")
    kind = dom.get("type")
    d = _integer(dom, "d", "domain", 2)
    if kind == "disk":
        if d != 2:
            raise ConfigError(f"domain.d of a disk must be 2, got {d}")
        robin = _robin_list(cfg, 1)
        return make_disk(_number(dom, "radius", "domain"), robin[0])
    if kind == "ball":
        robin = _robin_list(cfg, 1)
        return make_ball(d, _number(dom, "radius", "domain"), robin[0])
    if kind == "annulus":
        robin = _robin_list(cfg, 2)
        return make_annulus(
            d, _number(dom, "inner_radius", "domain"), _number(dom, "outer_radius", "domain"),
            robin[0], robin[1],
        )
    raise ConfigError("domain.type must be disk, ball or annulus")


def _nodes(cfg) -> int:
    return _integer(_section(cfg, "grid"), "n_nodes", "grid", DEFAULT_NODES)


def _region(cfg, need_beta: bool) -> tuple[float, float | None]:
    """(T, beta) of the region section: T defaults to 5.0 and must be
    positive; beta is None when absent, a config error if need_beta."""
    region = _section(cfg, "region")
    T = _number(region, "T", "region", 5.0)
    # T = 0 puts every stretched sample at the boundary point
    if T <= 0:
        raise ConfigError(f"region.T must be positive, got {T!r}")
    beta = _number(region, "beta", "region") if need_beta or "beta" in region else None
    return T, beta


def _eps_list(cfg) -> list[float]:
    """The config's eps values: distinct positive numbers."""
    eps = cfg.get("eps")
    if not isinstance(eps, list) or not eps:
        raise ConfigError("eps must be a nonempty list of numbers for this command")
    values = [_float(e, f"eps[{i}]") for i, e in enumerate(eps)]
    for i, x in enumerate(values):
        if not x > 0:
            raise ConfigError(f"eps[{i}] must be positive, got {eps[i]!r}")
        if x in values[:i]:
            raise ConfigError(f"eps[{i}] = {eps[i]!r} repeats eps[{values.index(x)}]")
    return values


def _eps_tag(eps: float) -> str:
    return np.format_float_scientific(eps, trim="-", exp_digits=2)


def _write_json(path: Path, payload: dict):
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")


def _pb_bundles(domain, f, n_nodes: int) -> list[LayerBundle]:
    us = [solve_u(f, comp.robin, n_nodes) for comp in domain.components]
    return [LayerBundle(u, solve_v(u)) for u in us]


class _Model(NamedTuple):
    """What a config builds; constants is None for the pb model."""

    f: Nonlinearity
    bundles: list[LayerBundle]
    constants: CcpbConstants | None


def _build_model(cfg, species, domain) -> _Model:
    if cfg["model"] == "pb":
        f = make_classical_pb(species)
        return _Model(f, _pb_bundles(domain, f, _nodes(cfg)), None)
    constants = ccpb_constants(domain, species, _nodes(cfg))
    return _Model(constants.f0, list(constants.profiles), constants)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_profiles(cfg, out: Path) -> int:
    model = _build_model(cfg, _species(cfg), _domain(cfg))
    meta = {"config": cfg, "boundaries": []}
    for k, bundle in enumerate(model.bundles):
        entry = {"k": k}
        for prof in bundle.layers():
            prof.to_csv(out / f"{prof.kind}_k{k}.csv")
            entry[prof.kind] = prof.to_json_dict()
        meta["boundaries"].append(entry)
    if model.constants is not None:
        meta["constants"] = model.constants.to_json_dict()
    _write_json(out / "profiles_meta.json", meta)
    return 0


def cmd_constants(cfg, out: Path) -> int:
    if cfg["model"] != "ccpb":
        raise ConfigError("constants requires model 'ccpb'")
    constants = ccpb_constants(_domain(cfg), _species(cfg), _nodes(cfg))
    payload = constants.to_json_dict()
    payload["config"] = cfg
    _write_json(out / "ccpb_constants.json", payload)
    return 0


def cmd_expand(cfg, out: Path) -> int:
    opts = _section(cfg, "expand")
    t_max = _number(opts, "t_max", "expand", 5.0)
    n_t = _integer(opts, "n_t", "expand", 201)
    if n_t < 1:
        raise ConfigError(f"expand.n_t must be at least 1, got {n_t}")
    if t_max < 0:
        raise ConfigError(f"expand.t_max must be at least 0, got {t_max!r}")
    order = _integer(opts, "order", "expand", 2)
    ts = np.linspace(0.0, t_max, n_t)
    # every query and band is validated before the model solve, so a bad
    # (T, beta, eps) writes nothing
    domain = _domain(cfg)
    # a region section asks for the region charges, which need beta
    has_region = cfg.get("region") is not None
    T, beta = _region(cfg, need_beta=has_region)
    plan = []
    for eps in _eps_list(cfg):
        queries = [
            asymptotics.ExpansionQuery(comp.mean_curvature, eps, order, domain.dimension)
            for comp in domain.components
        ]
        plan.append((eps, queries, RegionParams(eps, beta, T) if has_region else None))
    bundles = _build_model(cfg, _species(cfg), domain).bundles
    for eps, queries, params in plan:
        tag = _eps_tag(eps)
        for k, (q, bundle) in enumerate(zip(queries, bundles)):
            values = asymptotics.grid_rows(q, bundle, ts=ts)
            eps_col = np.full_like(ts, q.eps)
            for name, vals in sorted(values.items()):
                write_csv(
                    out / f"expansion_{name}_k{k}_eps{tag}.csv",
                    "t,eps,value", (ts, eps_col, vals),
                )
            if params is not None:
                report = asymptotics.region_charge(domain, k, params, bundle)
                _write_json(
                    out / f"region_charge_k{k}_eps{tag}.json",
                    report.to_json_dict(),
                )
    return 0


def _solve_oracle(cfg, domain, species, f, eps, initial=None) -> RadialSolveResult:
    opts = _section(cfg, "oracle")
    opts = {key: _integer(opts, key, "oracle") for key in opts}
    if cfg["model"] == "pb":
        return solve_radial_robin_pb(domain, f, eps, initial=initial, **opts)
    return solve_radial_ccpb(domain, species, eps, initial=initial, **opts)


def cmd_oracle(cfg, out: Path) -> int:
    species = _species(cfg)
    domain = _domain(cfg)
    f = make_classical_pb(species) if cfg["model"] == "pb" else None
    for eps in _eps_list(cfg):
        res = _solve_oracle(cfg, domain, species, f, eps)
        tag = _eps_tag(eps)
        res.to_csv(out / f"oracle_eps{tag}.csv")
        _write_json(out / f"oracle_eps{tag}.json", res.to_json_dict())
    return 0


def _decreasing(series) -> bool:
    return all(a > b for a, b in zip(series, series[1:]))


def cmd_verify(cfg, out: Path) -> int:
    flip = _section(cfg, "verify").get("flip_curvature", False)
    if not isinstance(flip, bool):
        raise ConfigError(f"verify.flip_curvature must be true or false, got {flip!r}")
    T, beta = _region(cfg, need_beta=False)
    species, domain = _species(cfg), _domain(cfg)
    eps_list = sorted(_eps_list(cfg), reverse=True)
    # eps**beta / (T sqrt(eps)) grows as eps falls, so bands unordered at the
    # smallest eps are unordered at every eps: a config error.  At a larger
    # eps, unordered bands only drop the band deviations from the report.
    bands = [None] * len(eps_list)
    for i, eps in enumerate(eps_list):
        try:
            bands[i] = None if beta is None else RegionParams(eps, beta, T)
        except InconsistentParams:
            if eps == eps_list[-1]:
                raise
    if len(eps_list) < 2:
        # the E2 checks compare the largest eps with the smallest
        raise ConfigError(f"verify needs at least two eps values, got {eps_list}")
    model = _build_model(cfg, species, domain)
    expanded = domain
    if flip:
        # negative control: corrupt the curvature sign on the expansion side
        expanded = replace(domain, components=tuple(
            replace(c, mean_curvature=-c.mean_curvature,
                    curvature_integral=-c.curvature_integral)
            for c in domain.components
        ))
    # the profiles at the compared depths, which are the same at every eps
    layers = stretched_layers(model.bundles, T)
    sweep, reports = [], []
    neutrality_scale = sum(abs(s.amount * s.z) for s in species)
    res = None
    for eps, eps_bands in zip(eps_list, bands):
        # continuation: warm-start from the previous (larger) eps solve
        res = _solve_oracle(cfg, domain, species, model.f, eps, initial=res)
        rep = compare_expansion(res, expanded, layers, eps_bands)
        reports.append(rep)
        entry = {"eps": eps, "report": rep.to_json_dict()}
        if model.constants is not None:
            entry["neutrality_rel"] = abs(res.neutrality) / neutrality_scale
            entry["drift_gap"] = abs(
                (res.phi_eps_star - model.constants.phi0_star) / math.sqrt(eps) - model.constants.q
            )
        sweep.append(entry)

    e2 = [max(b.E2 for b in rep.boundaries) for rep in reports]
    e1 = [max(b.E1 for b in rep.boundaries) for rep in reports]
    fe = [max(b.field_err for b in rep.boundaries) for rep in reports]
    c1 = [v / math.sqrt(eps) for v, eps in zip(e1, eps_list)]
    checks = {
        "e2_strictly_decreasing": _decreasing(e2),
        "e2_halving": e2[-1] <= E2_HALVING * e2[0],
    }
    if model.constants is None:
        # the first-order coefficient and field patterns are PB assertions;
        # layer overlap at large eps makes them meaningless on small annuli
        checks.update(
            e1_decreasing=_decreasing(e1),
            e1_coefficient_stable=max(c1) <= 2.0 * min(c1),
            field_strictly_decreasing=_decreasing(fe),
            field_halving=fe[-1] <= E2_HALVING * fe[0],
        )
    else:
        checks["drift_gap_decreasing"] = _decreasing([e["drift_gap"] for e in sweep])
        checks["neutrality"] = max(e["neutrality_rel"] for e in sweep) <= 1e-8
    passed = all(checks.values())
    summary = {
        "config": cfg,
        "sweep": sweep,
        "series": {"E1": e1, "E2": e2, "field": fe, "E1_over_sqrt_eps": c1},
        "checks": checks,
        "passed": passed,
    }
    _write_json(out / "verify_summary.json", summary)
    with open(out / "verify_table.txt", "w", encoding="utf-8") as fh:
        fh.write(f"{'eps':>10} {'E1':>12} {'E2':>12} {'field':>12}\n")
        for e, a, b, c in zip(eps_list, e1, e2, fe):
            fh.write(f"{e:>10.1e} {a:>12.4e} {b:>12.4e} {c:>12.4e}\n")
        for name, ok in sorted(checks.items()):
            fh.write(f"{name}: {'pass' if ok else 'FAIL'}\n")
    return 0 if passed else 1


def cmd_figures(cfg, out: Path) -> int:
    gamma = _number(_section(cfg, "figures"), "gamma", "figures", 0.1)
    n_nodes = _nodes(cfg)
    f = make_classical_pb(_species(cfg))
    meta = {"config": cfg, "curves": [], "verdicts": {}}
    for label, phi_bd in (("plus", 1.0), ("minus", -1.0)):
        u = solve_u(f, RobinData(gamma, phi_bd), n_nodes)
        v = solve_v(u)
        for prof in (u, v):
            prof.to_csv(out / f"figure_{prof.kind}_{label}.csv")
            meta["curves"].append({"name": f"{prof.kind}_{label}", "phi_bd": phi_bd})
        # u falls monotonically for phi_bd = 1 and rises for phi_bd = -1, and
        # phi_bd * v is positive past t = 0 with one peak
        interior = v.derivs[np.abs(v.derivs) > 1e-12]
        flips = int(np.sum(np.diff(np.sign(interior)) != 0))
        meta["verdicts"].update({
            f"u_{label}_monotone": bool(np.all(phi_bd * np.diff(u.values) < 0)),
            f"v_{label}_signed_positive": bool(np.all(phi_bd * v.values[1:] > 0)),
            f"v_{label}_unimodal": flips == 1,
        })
    ok = all(meta["verdicts"].values())
    meta["passed"] = ok
    _write_json(out / "figures_meta.json", meta)
    return 0 if ok else 1


_COMMANDS = {
    "profiles": cmd_profiles,
    "constants": cmd_constants,
    "expand": cmd_expand,
    "oracle": cmd_oracle,
    "verify": cmd_verify,
    "figures": cmd_figures,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pblayers",
        description="Boundary-layer expansions of PB-type equations and their radial verification",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--output-dir", default=None, help="output directory (default from config or ./out)")
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        out = args.output_dir or cfg.get("output_dir", "out")
        if not isinstance(out, str):
            raise ConfigError(f"output_dir must be a string, got {out!r}")
        out = Path(out)
        out.mkdir(parents=True, exist_ok=True)
        rc = _COMMANDS[args.command](cfg, out)
        if args.verbose:
            print(f"{args.command}: exit {rc}", file=sys.stderr)
        return rc
    except SolverError as exc:
        json.dump({"error": "solver", "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 3
    except PBLayersError as exc:
        json.dump({"error": "config", "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
