"""The benchmark's span tracer wraps package functions by name; a rename or
deletion of any of them must fail here rather than in a traced benchmark run.
The asymptotic commands must start without scipy, which only the oracle
loads, and of it only the LAPACK extension: never the scipy.linalg package.
Profiles travel as LayerBundle attributes, and the model is whether a bundle
has w, so the package neither keys profiles by string nor branches on a model
string outside config handling and JSON output.  Every module constant of the
package is read somewhere in it, and of the radial oracle only the comparison
with the expansion names the expansion."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

# run in a fresh interpreter: main() for each command in turn, then the
# number of scipy modules loaded so far and whether the scipy.linalg package
# and the LAPACK extension are among them, one JSON line per command
_SCIPY_PROBE = """
import json, sys
from pblayers import cli
for command in sys.argv[2:]:
    rc = cli.main([command, "--config", sys.argv[1], "--output-dir", command])
    scipy = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
    print(json.dumps({"command": command, "rc": rc, "scipy": len(scipy),
                      "linalg": "scipy.linalg" in sys.modules,
                      "flapack": "scipy.linalg._flapack" in sys.modules}))
"""


def test_benchmark_tracer_installs(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import pblayers.cli as cli
    import spans

    main = cli.main
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert cli.main is not main and cli.main.__wrapped__ is main
    finally:
        tracer.uninstall()
    assert cli.main is main


def test_traced_profiles_run_records_layer_spans(monkeypatch, tmp_path):
    # the per-layer bench spans wrap Profile.to_csv and the module-level
    # solvers; a typed profile subclass that overrode one would zero its span
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import pblayers.cli as cli
    import spans

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": "pb",
        "species": [{"z": 1, "amount": 1}, {"z": -1, "amount": 1}],
        "domain": {"type": "disk", "d": 2, "radius": 1.0},
        "robin": [{"gamma": 0.1, "phi_bd": 1.0}],
        "grid": {"n_nodes": 2001},
    }))
    tracer = spans.Tracer()
    try:
        tracer.install()
        argv = ["profiles", "--config", str(cfg), "--output-dir", str(tmp_path / "out")]
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    calls = [s[3] for s in tracer.spans]
    for name in ("profiles.solve_u", "profiles.solve_v", "profiles.to_csv"):
        assert name in calls, name


def test_traced_constants_run_records_correction_spans(monkeypatch, tmp_path):
    # ccpb_constants must reach v and w through the public solvers, which the
    # bench spans wrap in every module that binds them
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import pblayers.cli as cli
    import spans

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": "ccpb",
        "species": [{"z": 1, "amount": 1}, {"z": -1, "amount": 1}],
        "domain": {"type": "annulus", "d": 2, "inner_radius": 1.0, "outer_radius": 2.0},
        "robin": [{"gamma": 0.1, "phi_bd": 1.0}, {"gamma": 0.1, "phi_bd": -1.0}],
        "grid": {"n_nodes": 2001},
    }))
    tracer = spans.Tracer()
    try:
        tracer.install()
        argv = ["constants", "--config", str(cfg), "--output-dir", str(tmp_path / "out")]
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    calls = [s[3] for s in tracer.spans]
    for name in ("profiles.solve_v", "profiles.solve_w"):
        assert calls.count(name) == 2, name


def test_traced_expand_run_counts_grid_points(monkeypatch, tmp_path):
    # the grid_rows counter reads ts by keyword (its positional branch reads
    # args[3], one past grid_rows(q, bundle, ts)); on the README annulus,
    # expand evaluates its 201 depths on 2 boundaries at 3 eps
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import pblayers.cli as cli
    import spans

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": "ccpb",
        "species": [{"z": 1, "amount": 1, "role": "mass"}, {"z": -1, "amount": 1, "role": "mass"}],
        "domain": {"type": "annulus", "d": 2, "inner_radius": 1.0, "outer_radius": 2.0},
        "robin": [{"gamma": 0.1, "phi_bd": 1.0}, {"gamma": 0.1, "phi_bd": -1.0}],
        "eps": [1e-2, 1e-3, 1e-4],
        "region": {"T": 3.0, "beta": 0.2},
    }))
    tracer = spans.Tracer()
    try:
        tracer.install()
        argv = ["expand", "--config", str(cfg), "--output-dir", str(tmp_path / "out")]
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert tracer.per_op_metrics(1)["asymptotics.grid_rows.points"] == 201 * 2 * 3


def test_declared_dependencies_cover_imports():
    # a module imported by the package but missing from pyproject.toml would
    # only fail on a fresh install
    import ast
    import re
    import sys

    import pytest

    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    root = Path(__file__).resolve().parents[1]
    imported = set()
    for path in (root / "src" / "pblayers").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"__future__", "pblayers"}
    with open(root / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", d).group(0).lower() for d in deps}
    assert {"numpy", "scipy", "orjson"} <= third_party
    assert third_party <= declared, sorted(third_party - declared)


def test_asymptotic_commands_start_without_scipy(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(block)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    commands = ["constants", "expand", "profiles", "figures", "verify"]
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, str(cfg), *commands],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [r["command"] for r in rows] == commands
    assert all(r["rc"] == 0 for r in rows), rows
    assert [r["scipy"] for r in rows[:-1]] == [0, 0, 0, 0], rows
    # the oracle's LAPACK extension (dgbsv, dgtsv) after scipy's own
    # __init__ (11 modules), and not the scipy.linalg package
    verify = rows[-1]
    assert not verify["linalg"], verify
    assert verify["flapack"], verify
    assert 0 < verify["scipy"] <= 12, verify


# where "pb"/"ccpb" may appear outside cli.py, which parses the config: the
# JSON names of the model of a bundle and of an oracle result
_MODEL_NAME_SCOPES = {
    ("profiles", "LayerBundle"),
    ("radial_oracle", "RadialSolveResult.to_json_dict"),
    ("radial_oracle", "solve_radial_robin_pb"),
    ("radial_oracle", "solve_radial_ccpb"),
}


def _scopes(tree, hit):
    """The enclosing def or class path of each node of tree for which hit is
    true; a def's annotations, defaults and decorators are in its scope."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if hit(child):
                found.add(scope or "<module>")
            visit(child, scope)

    visit(tree, "")
    return found


def _model_name_scopes(tree):
    """The enclosing def or class path of each "pb"/"ccpb" literal in tree."""
    return _scopes(tree, lambda n: isinstance(n, ast.Constant) and n.value in ("pb", "ccpb"))


def test_profiles_are_attributes_and_model_strings_stay_in_config_and_json():
    for path in sorted((ROOT / "src" / "pblayers").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        keyed = re.findall(r'\["(?:u|v|theta|w)"\]', text)
        assert not keyed, (path.name, keyed)
        if path.stem != "cli":
            scopes = {(path.stem, s) for s in _model_name_scopes(ast.parse(text))}
            assert scopes <= _MODEL_NAME_SCOPES, sorted(scopes - _MODEL_NAME_SCOPES)


def test_expansion_is_read_through_the_public_asymptotics_interface():
    # the oracle comparison and the CLI evaluate the expansion through
    # sample, grid_rows and region_charge, never through a private helper
    for path in sorted((ROOT / "src" / "pblayers").glob("*.py")):
        if path.stem != "asymptotics":
            text = path.read_text(encoding="utf-8")
            assert "asymptotics._" not in text, path.name


def test_oracle_solvers_never_name_the_expansion():
    # the radial oracle is ground truth only if its solvers never consult the
    # expansion: of its code, annotations included, only the comparison side
    # names the asymptotics module, LayerBundle or a name imported from
    # asymptotics
    tree = ast.parse((ROOT / "src" / "pblayers" / "radial_oracle.py").read_text(encoding="utf-8"))
    names = {"asymptotics", "LayerBundle"} | {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "asymptotics"
        for alias in node.names
    }

    def names_expansion(node):
        return (isinstance(node, ast.Name) and node.id in names) or (
            isinstance(node, ast.Attribute) and node.attr in names)

    assert _scopes(tree, names_expansion) == {"stretched_layers", "compare_expansion"}


def test_readme_config_keys_table_matches_cli():
    # one row per (section, key) the config parser allows, "—" for the
    # top-level values, so an option added or removed shows in the docs
    from pblayers import cli

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (table,) = re.findall(r"^#+ Config keys\n(.*?)(?=^#)", readme, flags=re.S | re.M)
    rows = [line.split("|")[1:3] for line in table.splitlines() if line.startswith("| ")]
    listed = [(s.strip().strip("`"), k.strip().strip("`")) for s, k in rows[2:]]
    expected = {(section, key) for section, keys in cli._SECTION_KEYS.items() for key in keys}
    expected |= {("—", key) for key in cli._TOP_KEYS - set(cli._SECTION_KEYS)}
    assert len(listed) == len(set(listed)), listed
    assert set(listed) == expected, sorted(set(listed) ^ expected)


def test_module_constants_are_read():
    # an UPPER_CASE constant at module level that no code of the package
    # reads, apart from its own assignment, is left over from code that went
    constant = re.compile(r"_*[A-Z][A-Z0-9_]*")
    assigned, read = {}, set()
    for path in sorted((ROOT / "src" / "pblayers").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        own = set()
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else (
                [node.target] if isinstance(node, ast.AnnAssign) else []
            )
            for target in targets:
                if isinstance(target, ast.Name) and constant.fullmatch(target.id):
                    assigned[target.id] = path.name
                    own.update(ast.walk(node))
        for node in ast.walk(tree):
            if node in own:
                continue
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert len(assigned) > 10
    unread = sorted((module, name) for name, module in assigned.items() if name not in read)
    assert not unread, unread
