"""INI parsing, schema validation, canonical hashing, object builders."""

import pytest

from weakkam.config import (build_environment, build_grid, build_model,
                            config_hash, default_config_text, load_config,
                            manifest_json, parse_config_text)
from weakkam.errors import ConfigError

MINIMAL = """
[grid]
n = 64

[ladder]
dt = 0.015625
"""


def test_defaults_fill_every_key():
    cfg = parse_config_text(MINIMAL, source="inline")
    assert cfg.get("grid", "n") == 64
    assert cfg.get("environment", "kind") == "periodic"
    assert cfg.get("tolerances", "tau") == 0.125
    assert cfg.get("hamiltonian", "p0") == [0.5]
    assert cfg.source == "inline"
    flat = cfg.flat()
    assert flat["grid.n"] == "64"
    assert flat["ladder.dt"] == "0.015625"


def test_default_text_roundtrips_through_the_parser():
    text = default_config_text()
    cfg = parse_config_text(text)
    assert cfg.get("grid", "n") == 256
    assert cfg.get("tolerances", "s") == "auto"
    # empty text resolves to the same defaults
    assert config_hash(cfg) == config_hash(parse_config_text(""))


def test_inline_comments_are_stripped():
    cfg = parse_config_text("[grid]\nn = 32  ; per axis\ndim = 1 # one")
    assert cfg.get("grid", "n") == 32


def test_unknown_section_and_key_are_rejected_with_source():
    with pytest.raises(ConfigError, match=r"bad\.cfg.*\[mesh\]"):
        parse_config_text("[mesh]\nn = 4\n", source="bad.cfg")
    with pytest.raises(ConfigError, match="unknown key 'm'"):
        parse_config_text("[grid]\nm = 4\n")


@pytest.mark.parametrize("snippet,needle", [
    ("[grid]\nn = 4\n", "at least 8"),
    ("[grid]\nn = few\n", "integer"),
    ("[grid]\ndim = 3\n", "1 or 2"),
    ("[grid]\ndim = 2\n", "dimension must match"),
    ("[ladder]\ndt = 0.01\n", "power of two"),
    ("[ladder]\ndt = 0.5\nt_max = 0.25\n", "t_max"),
    ("[environment]\nkind = fractal\n", "kind"),
    ("[hamiltonian]\nmodel = burgers\n", "catalog"),
    ("[tolerances]\neps_aubry = soon\n", "eps_aubry"),
    ("[tolerances]\ns = -0.5\n", "positive"),
    ("[tolerances]\nt = later\n", "'auto' or a number"),
    ("[tolerances]\neps_target = tiny\n", "eps_target"),
    ("[tolerances]\nn_seeds = 0\n", "n_seeds"),
    ("[grid]\ndim = 2\n[environment]\ndimension = 2\n[tolerances]\nn_seeds = 5\n",
     "n_seeds must be a perfect square in 2D, got 5; the nearest squares are 4 and 9"),
    ("[tolerances]\nm_terms = 0\n", "m_terms"),
    ("[tolerances]\neps_aubry = -1\n", "eps_aubry"),
    ("[hamiltonian]\nfield_bound = big\n", "number"),
])
def test_validation_rejects_bad_values(snippet, needle):
    with pytest.raises(ConfigError, match=needle):
        parse_config_text(snippet)


def test_hash_is_stable_and_sensitive(tmp_path):
    base = parse_config_text(MINIMAL)
    again = parse_config_text(MINIMAL, source="elsewhere")
    assert config_hash(base) == config_hash(again)  # source not hashed
    bumped = parse_config_text(MINIMAL + "\n[tolerances]\ntau = 0.25\n")
    assert config_hash(bumped) != config_hash(base)
    path = tmp_path / "run.cfg"
    path.write_text(MINIMAL)
    assert config_hash(load_config(path)) == config_hash(base)
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.cfg")


def test_builders_produce_matching_objects():
    cfg = parse_config_text(MINIMAL)
    grid = build_grid(cfg)
    assert grid.dim == 1 and grid.n == 64
    spec, env = build_environment(cfg)
    assert spec.kind == "periodic" and env.spec.dimension == 1
    model = build_model(cfg)
    assert model.name == "mechanical" and model.dim == 1
    tilted = parse_config_text("[hamiltonian]\nmodel = tilted_mechanical\np0 = 0.25\n")
    assert build_model(tilted).name == "tilted_mechanical"
    eik = parse_config_text("[hamiltonian]\nmodel = eikonal\noffset = 2.0\n")
    assert build_model(eik).tonelli is False


def test_random_fourier_params_flow_through():
    cfg = parse_config_text(
        "[environment]\nkind = random_fourier\nk_max = 3\namplitude = 0.5\n"
        "period = 16.0\ndecay = 1.0\nseed = 7\n")
    spec, env = build_environment(cfg)
    assert spec.params["period"] == 16.0
    assert spec.params["k_max"] == 3
    assert env.field_bound() > 0


def test_manifest_json_is_canonical():
    text = manifest_json({"b": 1.5, "a": {"z": [1, 2]}})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert manifest_json({"b": 1.5, "a": {"z": [1, 2]}}) == text
