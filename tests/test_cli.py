import filecmp
import json
import math
import re
from pathlib import Path

import pytest

from pblayers.cli import main
from pblayers.profiles import Tail, profile_eval

PB_BASE = {
    "model": "pb",
    "species": [{"z": 1, "amount": 1}, {"z": -1, "amount": 1}],
    "domain": {"type": "disk", "d": 2, "radius": 1.0},
    "robin": [{"gamma": 0.1, "phi_bd": 1.0}],
}

CCPB_BASE = {
    "model": "ccpb",
    "species": [
        {"z": 1, "amount": 1, "role": "mass"},
        {"z": -1, "amount": 1, "role": "mass"},
    ],
    "domain": {"type": "annulus", "d": 2, "inner_radius": 1.0, "outer_radius": 2.0},
    "robin": [{"gamma": 0.1, "phi_bd": 1.0}, {"gamma": 0.1, "phi_bd": -1.0}],
}


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(command, cfg_path, out_dir):
    return main([command, "--config", cfg_path, "--output-dir", str(out_dir)])


@pytest.fixture()
def fast_pb(tmp_path):
    cfg = dict(PB_BASE, grid={"n_nodes": 2001})
    return write_cfg(tmp_path, cfg)


class TestProfilesCommand:
    def test_outputs_and_config_roundtrip(self, tmp_path, fast_pb):
        out = tmp_path / "out"
        assert run("profiles", fast_pb, out) == 0
        assert (out / "u_k0.csv").exists() and (out / "v_k0.csv").exists()
        meta = json.loads((out / "profiles_meta.json").read_text())
        assert meta["config"] == json.loads(Path(fast_pb).read_text())
        assert meta["boundaries"][0]["u"]["meta"]["u0"] == pytest.approx(0.8726373409, abs=1e-9)

    def test_csv_values_round_trip(self, tmp_path, fast_pb):
        out = tmp_path / "out"
        assert run("profiles", fast_pb, out) == 0
        lines = (out / "u_k0.csv").read_text().splitlines()
        assert lines[0] == "t,value,derivative"
        t0, v0, d0 = (float(x) for x in lines[1].split(","))
        assert (t0, v0) == (0.0, pytest.approx(0.8726373409, abs=1e-9))
        assert d0 == pytest.approx((v0 - 1.0) / 0.1, abs=1e-9)

    def test_flat_layer_writes_full_meta(self, tmp_path):
        # phi_bd = phi* = 0: no layer, so every profile is constant
        cfg = write_cfg(tmp_path, dict(
            PB_BASE, robin=[{"gamma": 0.1, "phi_bd": 0.0}], grid={"n_nodes": 2001}
        ))
        out = tmp_path / "out"
        assert run("profiles", cfg, out) == 0
        meta = json.loads((out / "profiles_meta.json").read_text())
        (bundle,) = meta["boundaries"]
        assert bundle["u"]["meta"]["degenerate"] is True
        assert bundle["v"]["meta"]["degenerate"] is True

    def test_ccpb_profiles_include_all_kinds(self, tmp_path):
        cfg = write_cfg(tmp_path, dict(CCPB_BASE, grid={"n_nodes": 2001}))
        out = tmp_path / "out"
        assert run("profiles", cfg, out) == 0
        for kind in ("u", "v", "theta", "w"):
            assert (out / f"{kind}_k0.csv").exists()
            assert (out / f"{kind}_k1.csv").exists()

    def test_determinism(self, tmp_path, fast_pb):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run("profiles", fast_pb, out1) == 0
        assert run("profiles", fast_pb, out2) == 0
        names = sorted(p.name for p in out1.iterdir())
        match, mismatch, errors = filecmp.cmpfiles(out1, out2, names, shallow=False)
        assert mismatch == [] and errors == []


    def test_tail_round_trip(self, tmp_path):
        # README annulus at the default grid: each tail is {limit, rate, a, b}
        # and, rebuilt from the JSON, continues the last CSV row in value and
        # slope; a second run writes the same bytes
        cfg = write_cfg(tmp_path, CCPB_BASE)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run("profiles", cfg, out1) == 0
        meta = json.loads((out1 / "profiles_meta.json").read_text())
        for entry in meta["boundaries"]:
            for kind in ("u", "v", "theta", "w"):
                assert set(entry[kind]["tail"]) == {"limit", "rate", "a", "b"}
                tail = Tail(**entry[kind]["tail"])
                last = (out1 / f"{kind}_k{entry['k']}.csv").read_text().splitlines()[-1]
                _, value, slope = (float(x) for x in last.split(","))
                val, der = tail(0.0)
                assert abs(val - value) <= 4 * math.ulp(max(abs(tail.limit), abs(value)))
                assert abs(der - slope) <= 4 * math.ulp(abs(slope))
        assert run("profiles", cfg, out2) == 0
        names = sorted(p.name for p in out1.iterdir())
        match, mismatch, errors = filecmp.cmpfiles(out1, out2, names, shallow=False)
        assert mismatch == [] and errors == []


class TestConstantsCommand:
    def test_writes_constants(self, tmp_path):
        cfg = write_cfg(tmp_path, dict(CCPB_BASE, grid={"n_nodes": 2001}))
        out = tmp_path / "out"
        assert run("constants", cfg, out) == 0
        payload = json.loads((out / "ccpb_constants.json").read_text())
        assert -1 < payload["phi0_star"] < 1
        assert payload["diagnostics"]["mhat_charge_rel"] <= 1e-8

    def test_pb_rejected(self, tmp_path, fast_pb):
        assert run("constants", fast_pb, tmp_path / "out") == 2


class TestExpandCommand:
    def test_emits_grids_and_region_reports(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            dict(
                PB_BASE,
                grid={"n_nodes": 2001},
                eps=[1e-4],
                region={"T": 5.0, "beta": 0.25},
                expand={"t_max": 5.0, "n_t": 51},
            ),
        )
        out = tmp_path / "out"
        assert run("expand", cfg, out) == 0
        csv = out / "expansion_potential_k0_eps1e-04.csv"
        assert csv.exists()
        lines = csv.read_text().splitlines()
        assert lines[0] == "t,eps,value" and len(lines) == 52
        report = json.loads((out / "region_charge_k0_eps1e-04.json").read_text())
        assert "region3" not in report
        assert report["region1"]["value"] and report["region2"]["value"]

    def test_invalid_region_writes_nothing(self, tmp_path):
        # T sqrt(eps) = 0.5 exceeds eps**beta = 0.316 at eps = 1e-2 only, the
        # last eps listed: the error comes before any solve or file
        cfg = write_cfg(
            tmp_path,
            dict(CCPB_BASE, grid={"n_nodes": 2001}, eps=[1e-4, 1e-3, 1e-2],
                 region={"T": 5.0, "beta": 0.25}),
        )
        out = tmp_path / "out"
        assert run("expand", cfg, out) == 2
        assert not any(p.name.startswith(("expansion_", "region_charge_")) for p in out.iterdir())


class TestOracleCommand:
    def test_writes_solution_and_diagnostics(self, tmp_path):
        cfg = write_cfg(tmp_path, dict(PB_BASE, eps=[1e-3], oracle={"points_per_layer": 200}))
        out = tmp_path / "out"
        assert run("oracle", cfg, out) == 0
        diag = json.loads((out / "oracle_eps1e-03.json").read_text())
        assert diag["residual_norm"] <= 1e-9
        assert (out / "oracle_eps1e-03.csv").read_text().startswith("r,phi")


class TestVerifyCommand:
    def test_pb_acceptance_preset_passes(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            dict(PB_BASE, grid={"n_nodes": 4001}, eps=[1e-2, 1e-3, 1e-4],
                 region={"T": 5.0, "beta": 0.25}),
        )
        out = tmp_path / "out"
        assert run("verify", cfg, out) == 0
        summary = json.loads((out / "verify_summary.json").read_text())
        assert summary["passed"] is True
        assert (out / "verify_table.txt").exists()

    def test_negative_control_flipped_curvature(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            dict(PB_BASE, grid={"n_nodes": 4001}, eps=[1e-2, 1e-3, 1e-4],
                 region={"T": 5.0, "beta": 0.25}, verify={"flip_curvature": True}),
        )
        out = tmp_path / "out"
        assert run("verify", cfg, out) == 1
        summary = json.loads((out / "verify_summary.json").read_text())
        assert summary["checks"]["e2_halving"] is False

    def test_verify_determinism(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            dict(PB_BASE, grid={"n_nodes": 2001}, eps=[1e-2, 1e-3],
                 oracle={"points_per_layer": 400}),
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run("verify", cfg, out1) == 0
        assert run("verify", cfg, out2) == 0
        names = sorted(p.name for p in out1.iterdir())
        match, mismatch, errors = filecmp.cmpfiles(out1, out2, names, shallow=False)
        assert mismatch == [] and errors == []

    @pytest.mark.parametrize("base, n_profiles", [(PB_BASE, 2), (CCPB_BASE, 6)],
                             ids=["pb-disk", "ccpb-annulus"])
    def test_each_profile_sampled_once(self, tmp_path, monkeypatch, base, n_profiles):
        # the compared depths are the same at every eps, so a verify over three
        # eps evaluates each profile of each boundary (u, v; and w for ccpb) once
        from pblayers import asymptotics

        sampled = []

        def counting(p, t):
            sampled.append(id(p))
            return profile_eval(p, t)

        monkeypatch.setattr(asymptotics, "profile_eval", counting)
        cfg = write_cfg(tmp_path, dict(base, eps=[1e-2, 1e-3, 1e-4]))
        assert run("verify", cfg, tmp_path / "out") == 0
        assert len(sampled) == len(set(sampled)) == n_profiles

    def test_bands_unordered_at_smallest_eps_rejected(self, tmp_path, capsys):
        # T sqrt(eps) = 0.05 exceeds eps**beta = 0.025 at eps = 1e-4, so at
        # every eps: exit 2 before any solve
        cfg = write_cfg(tmp_path, dict(PB_BASE, grid={"n_nodes": 2001}, eps=[1e-2, 1e-3, 1e-4],
                                       region={"T": 5.0, "beta": 0.4}))
        out = tmp_path / "out"
        assert run("verify", cfg, out) == 2
        assert "eps**beta" in json.loads(capsys.readouterr().err)["message"]
        assert not (out / "verify_summary.json").exists()
        # beta = 0.25 orders the bands at eps 1e-3 and 1e-4 but not at 1e-2,
        # whose report carries no beta and no band deviations
        cfg = write_cfg(tmp_path, dict(PB_BASE, grid={"n_nodes": 2001}, eps=[1e-2, 1e-3, 1e-4],
                                       region={"T": 5.0, "beta": 0.25}))
        assert run("verify", cfg, out) == 0
        sweep = json.loads((out / "verify_summary.json").read_text())["sweep"]
        assert [e["report"]["beta"] for e in sweep] == [None, 0.25, 0.25]
        assert sweep[0]["report"]["boundaries"][0]["region2_max_dev"] is None
        assert sweep[2]["report"]["boundaries"][0]["region2_max_dev"] is not None


class TestFiguresCommand:
    def test_sign_corrected_curves(self, tmp_path):
        cfg = write_cfg(tmp_path, dict(PB_BASE, grid={"n_nodes": 2001}))
        out = tmp_path / "out"
        assert run("figures", cfg, out) == 0
        meta = json.loads((out / "figures_meta.json").read_text())
        assert meta["passed"] is True
        for name in ("u_plus", "u_minus", "v_plus", "v_minus"):
            assert (out / f"figure_{name}.csv").exists()
        assert meta["verdicts"]["u_plus_monotone"]
        assert meta["verdicts"]["v_minus_unimodal"]


class TestErrorPaths:
    def test_empty_species_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"model": "pb", "species": []})
        assert run("profiles", cfg, tmp_path / "out") == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"

    def test_unknown_key_exit_2(self, tmp_path):
        cfg = write_cfg(tmp_path, dict(PB_BASE, bogus=1))
        assert run("profiles", cfg, tmp_path / "out") == 2

    def test_missing_config_exit_2(self, tmp_path):
        assert run("profiles", str(tmp_path / "nope.json"), tmp_path / "out") == 2

    def test_invalid_json_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run("profiles", str(bad), tmp_path / "out") == 2

    def test_output_dir_not_a_string_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_cfg(tmp_path, dict(PB_BASE, output_dir=3))
        assert main(["profiles", "--config", cfg]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and "output_dir" in err["message"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_output_dir_created(self, tmp_path, fast_pb):
        out = tmp_path / "deep" / "nested" / "dir"
        assert run("profiles", fast_pb, out) == 0
        assert out.exists()


def test_readme_example_config_runs(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    cfg = write_cfg(tmp_path, json.loads(blocks[0]))
    for command in ("constants", "expand", "verify"):
        assert run(command, cfg, tmp_path / command) == 0, command


@pytest.mark.parametrize(
    "command, base, section, value, key",
    [
        pytest.param("expand", PB_BASE, "region", {"T": 3.0}, "beta", id="region-beta"),
        # T defaults to 5.0 in expand and verify alike; a given T must be positive
        pytest.param("expand", PB_BASE, "region", {"T": 0, "beta": 0.2}, "region.T",
                     id="region-T"),
        pytest.param("profiles", PB_BASE, "domain", {"type": "disk"}, "radius",
                     id="disk-radius"),
        pytest.param("profiles", PB_BASE, "domain", {"type": "ball", "d": 3}, "radius",
                     id="ball-radius"),
        pytest.param("oracle", PB_BASE, "domain", {"type": "disk", "d": 3, "radius": 1.0},
                     "domain.d", id="disk-d-3"),
        pytest.param("profiles", CCPB_BASE, "domain",
                     {"type": "annulus", "d": 2, "outer_radius": 2.0}, "inner_radius",
                     id="annulus-inner_radius"),
        pytest.param("profiles", CCPB_BASE, "domain",
                     {"type": "annulus", "d": 2, "inner_radius": 1.0}, "outer_radius",
                     id="annulus-outer_radius"),
        pytest.param("profiles", PB_BASE, "robin", [{"phi_bd": 1.0}], "gamma",
                     id="robin-gamma"),
        pytest.param("profiles", PB_BASE, "robin", [{"gamma": 0.1}], "phi_bd",
                     id="robin-phi_bd"),
        pytest.param("profiles", PB_BASE, "robin", [{"gamma": "x", "phi_bd": 1.0}], "gamma",
                     id="robin-gamma-not-a-number"),
        # only JSON numbers are numbers: no booleans, no numeric strings
        pytest.param("expand", PB_BASE, "eps", [True, 1e-3], "eps[0]", id="eps-true"),
        pytest.param("expand", PB_BASE, "eps", [1e-2, "1e-3"], "eps[1]", id="eps-string"),
        pytest.param("profiles", PB_BASE, "robin", [{"gamma": "0.1", "phi_bd": 1.0}],
                     "robin[0].gamma", id="robin-gamma-string"),
        pytest.param("profiles", PB_BASE, "robin", [{"gamma": False, "phi_bd": 1.0}],
                     "robin[0].gamma", id="robin-gamma-false"),
        pytest.param("profiles", PB_BASE, "robin", [{"gamma": 0.1, "phi_bd": True}],
                     "robin[0].phi_bd", id="robin-phi_bd-true"),
        pytest.param("profiles", PB_BASE, "grid", {"n_nodes": "401"}, "grid.n_nodes",
                     id="grid-n_nodes-string"),
        pytest.param("profiles", PB_BASE, "robin", [{"gamma": 10**400, "phi_bd": 1.0}],
                     "robin[0].gamma", id="robin-gamma-huge-int"),
        # sections of the wrong shape
        pytest.param("expand", PB_BASE, "region", 3, "region", id="region-not-object-expand"),
        pytest.param("verify", PB_BASE, "region", 3, "region", id="region-not-object-verify"),
        *(
            pytest.param(command, CCPB_BASE, "robin", [3, 3], "robin",
                         id=f"robin-row-{command}")
            for command in ("profiles", "constants", "expand", "oracle", "verify")
        ),
        *(
            pytest.param(command, CCPB_BASE, "species", [3], "species",
                         id=f"species-row-{command}")
            for command in ("profiles", "constants", "expand", "oracle", "verify", "figures")
        ),
        # masses off neutral by more than rounding
        *(
            pytest.param("constants", CCPB_BASE, "species",
                         [{"z": 1, "amount": 1, "role": "mass"},
                          {"z": -1, "amount": 1 + slack, "role": "mass"}],
                         "neutral", id=f"species-off-neutral-{slack}")
            for slack in (5e-13, -5e-13)
        ),
        pytest.param("oracle", PB_BASE, "oracle", 3, "oracle", id="oracle-not-object"),
        pytest.param("oracle", PB_BASE, "eps", 5, "eps", id="eps-not-list"),
        pytest.param("oracle", PB_BASE, "eps", ["x"], "eps", id="eps-not-a-number"),
        pytest.param("profiles", PB_BASE, "domain", {"type": "ball", "d": "x", "radius": 1.0},
                     "d", id="domain-d-not-a-number"),
        pytest.param("profiles", PB_BASE, "domain", {"type": "ball", "d": 2.5, "radius": 1.0},
                     "integer", id="domain-d-not-integer"),
        pytest.param("profiles", PB_BASE, "grid", {"n_nodes": "x"}, "n_nodes",
                     id="grid-n_nodes-not-a-number"),
        pytest.param("profiles", PB_BASE, "grid", {"n_nodes": 2001.5}, "n_nodes",
                     id="grid-n_nodes-not-integer"),
        pytest.param("expand", PB_BASE, "expand", {"n_t": "x"}, "n_t", id="expand-n_t"),
        pytest.param("expand", PB_BASE, "expand", {"n_t": -1}, "n_t", id="expand-n_t-negative"),
        pytest.param("expand", PB_BASE, "expand", {"n_t": 0}, "n_t", id="expand-n_t-zero"),
        pytest.param("profiles", PB_BASE, "grid", {"n_nodes": 0}, "n_nodes",
                     id="grid-n_nodes-zero"),
        # every command that solves profiles reads grid.n_nodes
        pytest.param("constants", CCPB_BASE, "grid", {"n_nodes": 4}, "n_nodes",
                     id="grid-n_nodes-4-constants"),
        pytest.param("figures", PB_BASE, "grid", {"n_nodes": 4}, "n_nodes",
                     id="grid-n_nodes-4-figures"),
        pytest.param("expand", PB_BASE, "expand", {"order": 1.5}, "order", id="expand-order"),
        # removed options: verify takes T from region, as expand does, and
        # halves E2 and the field error by the fixed E2_HALVING; figures
        # always writes u and v
        pytest.param("verify", PB_BASE, "verify", {"T": "x"}, "unknown keys in verify: T",
                     id="verify-T"),
        pytest.param("verify", PB_BASE, "verify", {"e2_halving": 0},
                     "unknown keys in verify: e2_halving", id="verify-e2_halving-zero"),
        pytest.param("verify", PB_BASE, "verify", {"e2_halving": -1},
                     "unknown keys in verify: e2_halving", id="verify-e2_halving-negative"),
        pytest.param("verify", PB_BASE, "verify", {"T": 0}, "unknown keys in verify: T",
                     id="verify-T-zero"),
        pytest.param("figures", PB_BASE, "figures", {"preset": "both"},
                     "unknown keys in figures: preset", id="figures-preset"),
        # T = 0 compares one point; without beta, only the CLI checks T
        pytest.param("verify", PB_BASE, "region", {"T": 0.0, "beta": 0.25}, "region.T",
                     id="verify-region-T-zero"),
        pytest.param("verify", PB_BASE, "region", {"T": 0}, "region.T",
                     id="verify-region-T-zero-no-beta"),
        # beta outside (0, 1/2), which expand rejects through RegionParams; T is
        # small enough that the bands would be ordered
        *(
            pytest.param("verify", PB_BASE, "region", {"T": 0.01, "beta": beta}, "beta",
                         id=f"verify-region-beta-{beta}")
            for beta in (0.0, 0.5, 0.7)
        ),
        pytest.param("oracle", PB_BASE, "oracle", {"points_per_layer": 0}, "points_per_layer",
                     id="oracle-points_per_layer-zero"),
        # a fraction of a node per layer is no grid
        pytest.param("oracle", PB_BASE, "oracle", {"points_per_layer": 100.5},
                     "oracle.points_per_layer", id="oracle-points_per_layer-fraction"),
        # the fine zone is a module constant, LAYER_WIDTHS
        pytest.param("oracle", PB_BASE, "oracle", {"layer_widths": 10.0},
                     "unknown keys in oracle: layer_widths", id="oracle-layer_widths"),
        *(
            pytest.param("verify", PB_BASE, "verify", {"flip_curvature": value},
                         "flip_curvature", id=f"verify-flip_curvature-{value}")
            for value in ("no", "yes", 1, None)
        ),
        # the E2 checks need a largest and a smallest eps
        pytest.param("verify", PB_BASE, "eps", [1e-2], "eps", id="verify-one-eps"),
        pytest.param("verify", PB_BASE, "eps", [1e-3, 1e-3], "eps", id="verify-repeated-eps"),
        # every command takes distinct positive eps, checked before any solve
        pytest.param("verify", PB_BASE, "eps", [1e-2, 1e-3, 1e-3], "eps[2]",
                     id="verify-repeated-last-eps"),
        pytest.param("expand", PB_BASE, "eps", [1e-3, 1e-3], "eps[1]", id="expand-repeated-eps"),
        pytest.param("verify", PB_BASE, "eps", [1e-2, 0.0], "eps[1]", id="verify-zero-eps"),
        pytest.param("expand", PB_BASE, "expand", {"t_max": -1}, "expand.t_max",
                     id="expand-t_max-negative"),
        # json.load reads NaN and Infinity as floats
        pytest.param("expand", PB_BASE, "expand", {"t_max": math.nan}, "t_max",
                     id="expand-t_max-nan"),
        pytest.param("profiles", PB_BASE, "robin", [{"gamma": math.nan, "phi_bd": 1.0}],
                     "gamma", id="robin-gamma-nan"),
        pytest.param("profiles", PB_BASE, "robin", [{"gamma": 0.1, "phi_bd": math.inf}],
                     "phi_bd", id="robin-phi_bd-inf"),
        pytest.param("oracle", PB_BASE, "eps", [math.inf], "eps", id="eps-inf"),
    ],
)
def test_missing_or_bad_key_is_config_error(tmp_path, capsys, command, base, section, value, key):
    cfg = write_cfg(tmp_path, dict(base, **{"eps": [1e-2], section: value}))
    out = tmp_path / "out"
    assert run(command, cfg, out) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert key in err["message"]
    assert list(out.iterdir()) == []
