"""Command pipelines: exit codes, caches, reports, manifests, determinism."""

import gc
import hashlib
import json
import os
import subprocess
import sys

import pytest
from conftest import VERIFY_CONFIGS
from oracles import load_gridfn_csv

import weakkam
from weakkam import cli
from weakkam.cli import main
from weakkam.config import manifest_json, parse_config_text
from weakkam.errors import LadderError, SubcriticalLevelError
from weakkam.semigroup import ActionKernel

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
    """The critical manifest is the one record of the level: it names no
    other output, and no second copy is written beside it."""
    outdir = clirun["outdir"]
    path = os.path.join(outdir, "manifest_critical.json")
    manifest = json.load(open(path))
    assert manifest["command"] == "critical"
    assert manifest["results"]["c_disc"] == 1.0
    assert abs(manifest["results"]["c_bisect"] - 1.0) <= 2e-2
    assert manifest["results"]["iterations"] >= 1
    assert manifest["outputs"] == []
    assert not os.path.exists(os.path.join(outdir, "critical.json"))
    # rerunning is idempotent and prints the bracket
    before = open(path, "rb").read()
    assert main(["critical", clirun["cfg"], "--outdir", outdir]) == 0
    assert "critical value:" in capsys.readouterr().out
    assert open(path, "rb").read() == before


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
    # the level is recorded as the critical command records it
    recorded = (fresh / "manifest_critical.json").read_bytes()
    assert recorded == open(os.path.join(clirun["outdir"], "manifest_critical.json"), "rb").read()


# manifests that cannot be read as a record of the level: cut short (not
# JSON), JSON that is not an object, and an object without its results
UNREADABLE_MANIFESTS = {
    "truncated": lambda text: text[:200],
    "not_an_object": lambda text: "[1.0, 2.0]\n",
    "no_results": lambda text: json.dumps({k: v for k, v in json.loads(text).items()
                                           if k != "results"}),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_MANIFESTS))
def test_unreadable_critical_manifest_is_no_usable_cache(case, clirun, tmp_path, capsys):
    """aubry, strict and regularize refuse an unreadable critical manifest
    with exit 2 and its path; under --compute-c they compute the level and
    write the manifest anew, as the critical command writes it."""
    good = open(os.path.join(clirun["outdir"], "manifest_critical.json")).read()
    path = tmp_path / "manifest_critical.json"
    for command in ("aubry", "strict", "regularize"):
        path.write_text(UNREADABLE_MANIFESTS[case](good))
        rc = main([command, clirun["cfg"], "--outdir", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert "configuration error" in captured.err and str(path) in captured.err
        assert "Traceback" not in captured.err
    rc = main(["aubry", clirun["cfg"], "--outdir", str(tmp_path), "--compute-c"])
    assert rc == 0
    assert "computing the level first" in capsys.readouterr().out
    assert path.read_text() == good


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


def test_strict_report_prints_the_stage_verdicts(clirun, tmp_path, monkeypatch, capsys):
    """strict_report.txt formats the sup and mask verdicts stage_strict
    returns; it does not decide them again."""
    stage = cli.stage_strict

    def flipped(cfg, kern, aub):
        strict = stage(cfg, kern, aub)
        assert strict["sup_ok"] and strict["mask_ok"]
        return {**strict, "sup_ok": False, "mask_ok": False}

    monkeypatch.setattr(cli, "stage_strict", flipped)
    outdir = tmp_path / "o"
    main(["strict", clirun["cfg"], "--outdir", str(outdir), "--compute-c"])
    capsys.readouterr()
    report = open(outdir / "strict_report.txt").read()
    lines = report.splitlines()
    sup = [line for line in lines if line.startswith("sup change ")]
    mask = [line for line in lines if line.startswith("mask agreement ")]
    assert len(sup) == 1 and sup[0].endswith(": FAIL")
    assert len(mask) == 1 and mask[0].endswith(": FAIL")
    assert report.count("PASS") == 2 and report.count("FAIL") == 2


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
    record = json.load(open(os.path.join(clirun["outdir"], "manifest_critical.json")))
    record["results"]["c_disc"] -= 0.5  # below the true ladder level
    (outdir / "manifest_critical.json").write_text(manifest_json(record))
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


def test_an_outdir_that_is_a_file_exits_two(clirun, tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("")
    for outdir in (afile, afile / "sub"):
        assert main(["critical", clirun["cfg"], "--outdir", str(outdir)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and f"--outdir {outdir} is not a directory" in err


def test_a_field_with_a_seam_on_the_unit_torus_exits_two(tmp_path, capsys):
    # 1D quasiperiodic has the frequencies (1, sqrt 2): V jumps at x = 0 ~ 1
    cfg = tmp_path / "quasi.cfg"
    cfg.write_text("[environment]\nkind = quasiperiodic\n[grid]\nn = 64\n")
    rc = main(["critical", str(cfg), "--outdir", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "configuration error" in err and "kind = quasiperiodic" in err
    assert "growing boxes" in err and not (tmp_path / "o").exists()


def test_more_seeds_than_nodes_is_refused(tmp_path, capsys):
    # 1000 seeds on a 64-node axis would put seeds off the grid
    cfg = tmp_path / "seeds.cfg"
    cfg.write_text("[grid]\nn = 64\n\n[tolerances]\nn_seeds = 1000\n")
    rc = main(["aubry", str(cfg), "--compute-c", "--outdir", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "configuration error" in err and "n_seeds=1000" in err


def test_a_2d_seed_count_that_is_not_a_square_is_refused(tmp_path, capsys):
    # 2D seeds sit on a square lattice: 2 seeds would silently build one cone
    cfg = tmp_path / "seeds.cfg"
    cfg.write_text("[grid]\ndim = 2\nn = 16\n\n[environment]\ndimension = 2\n\n"
                   "[tolerances]\nn_seeds = 2\n")
    rc = main(["aubry", str(cfg), "--compute-c", "--outdir", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "configuration error" in err and "the nearest squares are 1 and 4" in err
    assert not (tmp_path / "o").exists()


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


def test_verify_prices_one_cost_graph(clirun, tmp_path, monkeypatch):
    """The extension row and the triangle row read one sigma_a graph at
    the kernel's level, wherever the package would price one."""
    levels = []
    build = weakkam.metric.build_cost_graph

    def counted(model, a, *args):
        levels.append(a)
        return build(model, a, *args)

    for module in (weakkam.metric, weakkam.aubry, cli):
        monkeypatch.setattr(module, "build_cost_graph", counted, raising=False)
    assert main(["verify", clirun["cfg"], "--outdir", str(tmp_path / "v")]) == 0
    assert levels == [1.0]    # the pendulum's exact discrete critical value


def test_a_refused_graph_fails_both_rows_after_an_empty_mask(clirun, tmp_path, monkeypatch,
                                                             capsys):
    """A refused sigma_a graph is reported by both rows that read it; an
    empty mask is still refused first by the extension row."""
    def refused(*args):
        raise SubcriticalLevelError("planted refusal")

    def rows(outdir):
        main(["verify", clirun["cfg"], "--outdir", str(tmp_path / outdir), "--json"])
        checks = json.loads(capsys.readouterr().out)["checks"]
        return [checks[name] for name in ("mask_extension_is_corrector", "semidistance_triangle")]

    monkeypatch.setattr(cli, "build_cost_graph", refused)
    planted = {"status": "FAIL", "detail": "SubcriticalLevelError: planted refusal"}
    assert rows("refused") == [planted, planted]
    stage_aubry = cli.stage_aubry

    def emptied(cfg, kern):
        aub = stage_aubry(cfg, kern)
        aub["mask"].mask[:] = False
        return aub

    monkeypatch.setattr(cli, "stage_aubry", emptied)
    extension, triangle = rows("empty")
    assert extension["detail"].startswith("EmptyAubryMaskError: empty source mask")
    assert triangle == planted


# a config whose sigma_a graph is refused (verify1d's random one), and one
# whose strict stage is refused, with the rows that report each refusal
STORED_REFUSALS = {
    "graph": (VERIFY_CONFIGS["random"] + "[grid]\ndim = 1\nn = 512\n",
              ("mask_extension_is_corrector", "semidistance_triangle"),
              "SubcriticalLevelError: sublevel {H <= "),
    "strict": (CFG_TEXT + "[tolerances]\neps_target = 1e-9\n",
               ("strict_subsolution_margin", "two_sided_curvature_bounds"),
               "CertificateFailure: requested closeness 1e-09"),
}


@pytest.mark.parametrize("stage", sorted(STORED_REFUSALS))
def test_a_stored_refusal_leaves_no_kernel_alive(stage, tmp_path, capsys):
    """The battery keeps a refused stage's error for the two rows that
    need the stage, and each reports it.  With the cyclic collector off,
    no kernel that verify made may outlive main: a refusal whose traceback
    reaches the frames that hold it would keep them, and every array of
    the battery, alive."""
    text, names, detail = STORED_REFUSALS[stage]
    cfg = tmp_path / "refused.cfg"
    cfg.write_text(text)

    def kernels():
        return {id(obj) for obj in gc.get_objects() if isinstance(obj, ActionKernel)}

    gc.collect()
    before = kernels()
    gc.disable()
    try:
        assert main(["verify", str(cfg), "--outdir", str(tmp_path / "o"), "--json"]) == 1
        left = kernels() - before
    finally:
        gc.enable()
    checks = json.loads(capsys.readouterr().out)["checks"]
    first, second = (checks[name] for name in names)
    assert first["status"] == "FAIL" and first["detail"].startswith(detail)
    assert second == first
    assert not left


def test_smoothing_times_on_the_ladder_are_counted_as_the_kernel_counts_steps(pend64):
    """_smoothing_ladder keeps the working ladder for times that
    ActionKernel.steps_of accepts (within 1e-9 steps of a multiple of dt)
    and builds a finer ladder at the same level for the others."""
    kern = pend64["kernel"]
    dt = kern.dt
    assert cli._smoothing_ladder(kern, 2 * dt, 4 * dt) is kern
    near = dt * (4 + 1e-10)    # 1e-10 steps, 2.5e-11 relative, off 4 dt
    assert near != 4 * dt and kern.steps_of(near) == 4
    assert cli._smoothing_ladder(kern, near, 2 * dt) is kern
    fine = cli._smoothing_ladder(kern, 1.5 * dt, 3 * dt)
    assert fine.dt == 1.5 * dt and fine.shift == kern.shift and fine.theta == kern.theta


def test_smoothing_times_off_each_other_share_their_largest_common_step(pend64, tmp_path,
                                                                        capsys):
    """s = 3/128 and t = 4/128 are not multiples of the working dt = 1/64 nor
    of each other: the finer ladder runs at their largest common step 1/128,
    and regularize completes on it; times with no common step are refused."""
    fine = cli._smoothing_ladder(pend64["kernel"], 0.0234375, 0.03125)
    assert fine.dt == 1 / 128 and (fine.steps_of(0.0234375), fine.steps_of(0.03125)) == (3, 4)
    assert cli._common_step(0.01, 0.0317) == 0.0001
    with pytest.raises(LadderError, match="share no step"):
        cli._common_step(0.1, 0.1 * 2 ** 0.5)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[grid]\nn = 64\n\n[tolerances]\ns = 0.0234375\nt = 0.03125\n")
    assert main(["regularize", str(cfg), "--compute-c", "--outdir", str(tmp_path / "o")]) == 0
    assert "PASS" in capsys.readouterr().out


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


# sha256 of verify_report.txt for a model on its 1D defaults at n cells;
# every row of both reports reads PASS or SKIP
VERIFY_REPORT_BITS = {
    ("tilted_mechanical", 128): "400b144603f13b7ee55238134c5f1706c594b1915b22130d9b1c6d66505efa36",
    ("eikonal", 64): "56188f07dd900639636ca24820811efa225dbdfc7e8a5792f0a1600e2d00b828",
}


@pytest.mark.parametrize("model,n", sorted(VERIFY_REPORT_BITS))
def test_verify_report_keeps_its_bytes(model, n, tmp_path, capsys):
    """The verify battery of the tilted and the eikonal model, which no
    benchmark workload runs, writes the report recorded for it."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[hamiltonian]\nmodel = {model}\n\n[grid]\nn = {n}\n")
    assert main(["verify", str(cfg), "--outdir", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    report = (tmp_path / "o" / "verify_report.txt").read_bytes()
    assert b"FAIL" not in report
    assert hashlib.sha256(report).hexdigest() == VERIFY_REPORT_BITS[model, n], report.decode()


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


# the command chain on the 1D n=64 defaults, run with relative outdirs: each
# command's exit code and stdout, then the sha256 of every CSV and report it
# leaves and of the canonical JSON of every manifest's results
_REGULARIZE_LINES = (
    "subsolution edges: PASS (worst 0.0)\n"
    "two-sided curvature [-38.52903024558009, 17.29636936128697] within "
    "256.0385454014345: PASS\n"
    "sup change 2.7755575615628914e-17 <= 0.03772208691207961: PASS\n"
    "mask agreement 0.0 <= 1e-06: PASS\n"
    "strict margin delta=0.13439204454800213: PASS\n")
CHAIN = [
    ("critical run.cfg --outdir out", 0,
     "critical value: 0.99853515625 in [0.9970703125, 1.0] "
     "(bracket 0.0029296875, ladder fold 1.0)\n"
     "manifest: out/manifest_critical.json\n"),
    ("aubry run.cfg --outdir out", 0,
     "aubry mask: 1 of 64 cells at eps=1e-06 (level 1.0)\n"
     "manifest: out/manifest_aubry.json\n"),
    ("strict run.cfg --outdir out", 0,
     "branch: time-mix\n"
     "subsolution edges: PASS (worst violation 0.0)\n"
     "sup change 0.11133843340804664 <= budget 0.6062672942528234: PASS\n"
     "mask agreement 0.0 <= 1e-06: PASS\n"
     "strict margin delta=0.13439204454800213 at d0=0.1 over 51 cells: PASS\n"
     "manifest: out/manifest_strict.json\n"),
    ("regularize run.cfg --outdir out", 0,
     _REGULARIZE_LINES + "manifest: out/manifest_regularize.json\n"),
    ("regularize run.cfg --outdir fresh --compute-c", 0,
     "no usable critical cache; computing the level first\n"
     + _REGULARIZE_LINES + "manifest: fresh/manifest_regularize.json\n"),
]
CHAIN_FILE_BITS = {
    "out/aubry_mask.csv": "6abcaac477eba396d32c37e67fdd803317439ed3d4008c1fd1aea6e207820bd2",
    "out/aubry_residual.csv": "af014170656a5332d489375324a1640565af96d1a33d6ae4adfcc648e760449a",
    "out/aubry_w.csv": "8ebb912faef58ea99e7230fef3f53ff19dadd1e26a7befadc208a56823044325",
    "out/strict_margin.csv": "d06b3816ebada88e314a8568367eef2bbdf803d991ba0682703f024cecce2764",
    "out/strict_report.txt": "a48d0ba9702d03c8b276028649ca11463f3930d101fc04307f815d6a70c22d38",
    "out/strict_w_eps.csv": "0b64ffb0d2497a032dec6d8d95d2526c65afce3ce60bd0b1e43f2cc08b4f1315",
    "out/regularize_report.txt":
        "725c4710cf82d1e5a2985548ba145ee9d51af5ed9930ce006eda267fbd95baf6",
    "out/regularized.csv": "a689f0823991db54232bf61678de48abad128258218c50aac70eb71508ff7be2",
    "fresh/regularize_report.txt":
        "725c4710cf82d1e5a2985548ba145ee9d51af5ed9930ce006eda267fbd95baf6",
    "fresh/regularized.csv": "a689f0823991db54232bf61678de48abad128258218c50aac70eb71508ff7be2",
}
CHAIN_RESULT_BITS = {
    "out/manifest_critical.json":
        "adc25713211d792d77d7e44410b184f6bea49cd0bc887b36fcf48780c8ddd3fc",
    "out/manifest_aubry.json":
        "dfdc128492f4b07c3e9adccb55e3e4c59558321b506b6ac51cb8b4e50c6fd692",
    "out/manifest_strict.json":
        "e665dd1a3bcfab7e2c190303558e85ebbb6c1b540ad38fb5ed536ad4b413eef8",
    "out/manifest_regularize.json":
        "41bb076a449d0140ca70a1470e7e7adeb3ae4f63af0d66bb6567179c28f2eb8d",
    "fresh/manifest_regularize.json":
        "41bb076a449d0140ca70a1470e7e7adeb3ae4f63af0d66bb6567179c28f2eb8d",
}


def test_the_command_chain_keeps_its_bits(tmp_path, monkeypatch, capsys):
    """critical -> aubry -> strict -> regularize, then regularize --compute-c
    into a fresh directory: every exit code, stdout, CSV, report and
    manifest result reads as recorded."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text("[grid]\nn = 64\n")
    for argv, rc, stdout in CHAIN:
        assert (main(argv.split()), capsys.readouterr().out) == (rc, stdout), argv
    left = {str(p.relative_to(tmp_path)) for pattern in ("*/*.csv", "*/*_report.txt")
            for p in tmp_path.glob(pattern)}
    assert left == set(CHAIN_FILE_BITS)
    for path, bits in CHAIN_FILE_BITS.items():
        assert hashlib.sha256((tmp_path / path).read_bytes()).hexdigest() == bits, path
    for path, bits in CHAIN_RESULT_BITS.items():
        results = json.loads((tmp_path / path).read_text())["results"]
        assert hashlib.sha256(manifest_json(results).encode()).hexdigest() == bits, path
