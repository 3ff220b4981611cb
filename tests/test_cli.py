"""Command pipelines: exit codes, caches, reports, manifests, determinism."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import weakkam
from weakkam.cli import main
from weakkam.config import parse_config_text
from weakkam.grid import load_gridfn_csv

CFG_TEXT = """\
[environment]
kind = periodic
amplitudes = 1.0

[hamiltonian]
model = mechanical
field_bound = 1.0

[grid]
n = 64

[ladder]
dt = 0.015625
t_max = 2.0
"""


@pytest.fixture(scope="module")
def clirun(tmp_path_factory):
    """One config file plus an outdir pre-seeded by the critical command."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "run.cfg"
    cfg.write_text(CFG_TEXT)
    outdir = root / "out"
    rc = main(["critical", str(cfg), "--outdir", str(outdir)])
    assert rc == 0
    return {"root": root, "cfg": str(cfg), "outdir": str(outdir)}


def test_version_and_print_config_roundtrip():
    # the child interpreter imports the same package as this test
    src = os.path.dirname(os.path.dirname(weakkam.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    head = subprocess.run([sys.executable, "-m", "weakkam.cli", "--version"],
                          capture_output=True, text=True, env=env)
    assert head.returncode == 0 and "0.1.0" in head.stdout
    shown = subprocess.run([sys.executable, "-m", "weakkam.cli", "print-config"],
                           capture_output=True, text=True, env=env)
    assert shown.returncode == 0
    cfg = parse_config_text(shown.stdout)
    assert cfg.get("grid", "n") == 256


def test_critical_cache_and_manifest(clirun, capsys):
    outdir = clirun["outdir"]
    cache = json.load(open(os.path.join(outdir, "critical.json")))
    assert cache["critical"]["c_disc"] == 1.0
    assert abs(cache["critical"]["c_bisect"] - 1.0) <= 2e-2
    manifest = json.load(open(os.path.join(outdir, "manifest_critical.json")))
    assert manifest["command"] == "critical"
    assert manifest["config_hash"] == cache["config_hash"]
    assert manifest["results"]["iterations"] >= 1
    # rerunning is idempotent and prints the bracket
    assert main(["critical", clirun["cfg"], "--outdir", outdir]) == 0
    assert "critical value:" in capsys.readouterr().out


def test_aubry_refuses_without_cache_then_computes(tmp_path, clirun, capsys):
    fresh = tmp_path / "fresh"
    rc = main(["aubry", clirun["cfg"], "--outdir", str(fresh)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "configuration error" in captured.err
    assert "--compute-c" in captured.err
    rc = main(["aubry", clirun["cfg"], "--outdir", str(fresh), "--compute-c"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "computing the level first" in captured.out
    assert os.path.exists(fresh / "critical.json")


def test_aubry_outputs_parse_and_cache_is_reused(clirun, capsys):
    outdir = clirun["outdir"]
    rc = main(["aubry", clirun["cfg"], "--outdir", outdir])
    captured = capsys.readouterr()
    assert rc == 0
    assert "computing the level" not in captured.out
    assert "aubry mask: 1 of 64 cells" in captured.out
    w = load_gridfn_csv(os.path.join(outdir, "aubry_w.csv"))
    res = load_gridfn_csv(os.path.join(outdir, "aubry_residual.csv"))
    assert w.grid.size == 64 and res.grid.size == 64
    assert res.values[0] == 0.0
    rows = [line.split(",") for line in
            open(os.path.join(outdir, "aubry_mask.csv")) if not line.startswith("#")]
    header, body = rows[0], rows[1:]
    assert header == ["index", "x0", "residual", "in_half", "in_one", "in_two\n"]
    assert len(body) == 64
    assert [r[3:6] for r in body][0] == ["1", "1", "1\n"]  # node 0 in all three
    manifest = json.load(open(os.path.join(outdir, "manifest_aubry.json")))
    assert manifest["results"]["mask_size"] == {"half": 1, "one": 1, "two": 1}


def test_strict_report_is_all_pass(clirun, capsys):
    outdir = clirun["outdir"]
    rc = main(["strict", clirun["cfg"], "--outdir", outdir])
    assert rc == 0
    report = open(os.path.join(outdir, "strict_report.txt")).read()
    assert report.count("PASS") == 4 and "FAIL" not in report
    assert "branch: time-mix" in report
    out = capsys.readouterr().out
    assert "strict margin" in out
    margin = load_gridfn_csv(os.path.join(outdir, "strict_margin.csv"))
    assert margin.grid.size == 64


def test_strict_refuses_unreachable_eps_target(clirun, tmp_path, capsys):
    cfg = tmp_path / "tight.cfg"
    cfg.write_text(CFG_TEXT + "\n[tolerances]\neps_target = 1e-6\n")
    rc = main(["strict", str(cfg), "--outdir", str(tmp_path / "o"), "--compute-c"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "certificate failure" in captured.err
    assert "budget travel" in captured.err
    assert "budget truncation" in captured.err


def test_regularize_earns_five_passes(clirun, capsys):
    outdir = clirun["outdir"]
    rc = main(["regularize", clirun["cfg"], "--outdir", outdir])
    assert rc == 0
    report = open(os.path.join(outdir, "regularize_report.txt")).read()
    assert report.count("PASS") == 5 and "FAIL" not in report
    manifest = json.load(open(os.path.join(outdir, "manifest_regularize.json")))
    results = manifest["results"]
    # auto smoothing times resolve to the certified window on its own ladder
    assert results["s"] == results["t"] == results["window_t0"] == 2.0**-8
    assert results["smoothing_dt"] == 2.0**-8
    assert results["warnings"] == []
    assert results["passed"] is True
    reg = load_gridfn_csv(os.path.join(outdir, "regularized.csv"))
    assert reg.grid.size == 64


def test_tampered_cache_trips_a_numeric_refusal(clirun, tmp_path, capsys):
    outdir = tmp_path / "tampered"
    outdir.mkdir()
    cache = json.load(open(os.path.join(clirun["outdir"], "critical.json")))
    cache["critical"]["c_disc"] -= 0.5  # below the true ladder level
    (outdir / "critical.json").write_text(json.dumps(cache))
    rc = main(["aubry", clirun["cfg"], "--outdir", str(outdir)])
    captured = capsys.readouterr()
    assert rc == 3
    assert "numeric refusal" in captured.err
    assert "SubcriticalLevelError" in captured.err


def test_config_errors_exit_two(tmp_path, capsys):
    missing = main(["critical", str(tmp_path / "absent.cfg")])
    assert missing == 2
    assert "cannot read" in capsys.readouterr().err
    bad = tmp_path / "bad.cfg"
    bad.write_text("[grid]\nn = 4\n")
    assert main(["critical", str(bad), "--outdir", str(tmp_path / "o")]) == 2
    assert "at least 8" in capsys.readouterr().err


def test_more_seeds_than_nodes_is_refused(tmp_path, capsys):
    # 1000 seeds on a 64-node axis would put seeds off the grid
    cfg = tmp_path / "seeds.cfg"
    cfg.write_text("[grid]\nn = 64\n\n[tolerances]\nn_seeds = 1000\n")
    rc = main(["aubry", str(cfg), "--compute-c", "--outdir", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "configuration error" in err and "n_seeds=1000" in err


def test_disconnected_kernel_is_refused_with_the_speed_condition(tmp_path, capsys):
    # dt = 1/64 on n = 16 asks speed h/dt = 4 of a one-cell move; the
    # eikonal speed cone ends at 1, so only the zero offset would remain
    cfg = tmp_path / "eikonal2d.cfg"
    cfg.write_text("[environment]\nkind = periodic\ndimension = 2\n\n"
                   "[hamiltonian]\nmodel = eikonal\n\n[grid]\ndim = 2\nn = 16\n")
    rc = main(["critical", str(cfg), "--outdir", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "configuration error" in err and "not strongly connected" in err
    assert "h/dt = 4" in err


def test_verify_battery_passes_and_is_deterministic(clirun, tmp_path, capsys):
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["verify", clirun["cfg"], "--outdir", out_a]) == 0
    first = capsys.readouterr().out
    assert "15/15 checks passed" in first
    assert main(["verify", clirun["cfg"], "--outdir", out_b]) == 0
    capsys.readouterr()
    report_a = open(os.path.join(out_a, "verify_report.txt"), "rb").read()
    report_b = open(os.path.join(out_b, "verify_report.txt"), "rb").read()
    assert report_a == report_b
    man_a = json.load(open(os.path.join(out_a, "manifest_verify.json")))
    man_b = json.load(open(os.path.join(out_b, "manifest_verify.json")))
    man_a.pop("outputs"), man_b.pop("outputs")  # paths name the outdirs
    assert man_a == man_b


def test_verify_json_mode(clirun, tmp_path, capsys):
    rc = main(["verify", clirun["cfg"], "--outdir", str(tmp_path / "j"), "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"checks", "config_hash"}
    statuses = {row["status"] for row in payload["checks"].values()}
    assert statuses == {"PASS"}
    assert len(payload["checks"]) == 15


TILTED_TEXT = """\
[environment]
kind = periodic
amplitudes = 1.0

[hamiltonian]
model = tilted_mechanical
field_bound = 1.0

[grid]
n = 64
"""


def test_reversal_row_reads_the_reversed_kernel(tmp_path, capsys, monkeypatch):
    """The tilt makes h_dt asymmetric, so a reversal that turns nothing
    around must show up as a gap between the two stencils."""
    cfg = tmp_path / "tilted.cfg"
    cfg.write_text(TILTED_TEXT)

    def reversal_row(outdir):
        main(["verify", str(cfg), "--outdir", str(tmp_path / outdir), "--json"])
        return json.loads(capsys.readouterr().out)["checks"]["reversal_transposes_kernel"]

    assert reversal_row("plain") == {"status": "PASS", "detail": "gap=0.0"}
    monkeypatch.setattr(weakkam.hamiltonian, "reversed_model", lambda model: model)
    row = reversal_row("unreversed")
    assert row["status"] == "FAIL"
    # the one-step tables, compared whole, differ by the same amount
    assert float(row["detail"].removeprefix("gap=")) == pytest.approx(0.171875, abs=1e-12)


def test_reversal_row_matches_half_period_moves_mod_n(tmp_path, capsys):
    """At n=8 and dt=1/4 the one-step reach wraps half the torus: the kernel
    keeps the move +4 and the reversed kernel, turned around, the move -4.
    They join the same nodes, and on a flat field they cost the same."""
    cfg = tmp_path / "flat8.cfg"
    cfg.write_text(TILTED_TEXT.replace("tilted_mechanical", "mechanical")
                   .replace("amplitudes = 1.0", "amplitudes = 0.0")
                   .replace("n = 64", "n = 8\n\n[ladder]\ndt = 0.25"))
    main(["verify", str(cfg), "--outdir", str(tmp_path / "out"), "--json"])
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks["reversal_transposes_kernel"] == {"status": "PASS", "detail": "gap=0.0"}


@pytest.mark.parametrize("model", ["tilted_mechanical", "mechanical"])
def test_half_period_moves_keep_the_cheaper_price(model, tmp_path, capsys):
    """At n=8 and dt=1/4 the moves +4 and -4 join the same nodes through
    different midpoints; the kernel and the reversed kernel must both keep
    the cheaper one, so on the cosine field the reversal still transposes."""
    cfg = tmp_path / "half.cfg"
    cfg.write_text(TILTED_TEXT.replace("tilted_mechanical", model)
                   .replace("n = 64", "n = 8\n\n[ladder]\ndt = 0.25"))
    main(["verify", str(cfg), "--outdir", str(tmp_path / "out"), "--json"])
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks["reversal_transposes_kernel"] == {"status": "PASS", "detail": "gap=0.0"}


def test_one_tilt_number_tilts_every_axis(tmp_path, capsys):
    cfg = tmp_path / "tilted2d.cfg"
    cfg.write_text("[environment]\nkind = periodic\ndimension = 2\n\n"
                   "[hamiltonian]\nmodel = tilted_mechanical\n\n[grid]\ndim = 2\nn = 16\n")
    assert main(["critical", str(cfg), "--outdir", str(tmp_path / "o")]) == 0
    assert "tilt vector" not in capsys.readouterr().err
    bad = tmp_path / "tilted1d.cfg"
    bad.write_text("[hamiltonian]\nmodel = tilted_mechanical\np0 = 0.5, 0.25\n\n[grid]\nn = 16\n")
    assert main(["critical", str(bad), "--outdir", str(tmp_path / "b")]) == 2
    assert "tilt vector has size 2, expected 1" in capsys.readouterr().err


def test_curvature_row_names_the_failed_certificates(clirun, tmp_path, capsys):
    cfg = tmp_path / "mech2d.cfg"
    cfg.write_text("[environment]\nkind = periodic\ndimension = 2\n\n[grid]\ndim = 2\nn = 16\n")
    main(["verify", str(cfg), "--outdir", str(tmp_path / "o"), "--json"])
    row = json.loads(capsys.readouterr().out)["checks"]["two_sided_curvature_bounds"]
    assert row["status"] == "FAIL"
    assert row["detail"].startswith("k=[") and row["detail"].endswith(" failed=curvature,strict")
    main(["verify", clirun["cfg"], "--outdir", str(tmp_path / "p"), "--json"])
    row = json.loads(capsys.readouterr().out)["checks"]["two_sided_curvature_bounds"]
    assert row["status"] == "PASS" and "failed" not in row["detail"]
