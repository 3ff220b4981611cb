"""INI parsing, schema validation, canonical hashing, object builders."""

import numpy as np
import pytest

from weakkam.config import (SCHEMA, build_environment, build_grid, build_model,
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
    ("[environment]\nkind = quasiperiodic\n", r"quasiperiodic in 1D has the frequencies \[1\.0, 1\.41"),
    ("[environment]\nkind = random_fourier\nperiod = 16\n", r"period = 16\.0 \(1/period = 0\.0625\)"),
    ("[environment]\nkind = random_fourier\nperiod = 0\n", r"1/period = inf"),
    ("[environment]\nkind = poisson_bumps\n", "poisson_bumps is not periodic"),
])
def test_validation_rejects_bad_values(snippet, needle):
    with pytest.raises(ConfigError, match=needle):
        parse_config_text(snippet)


# every key that holds numbers: float and float-list keys, and the str keys
# that hold a number unless they read 'auto' or are empty
NUMERIC_KEYS = sorted([(sec, key) for sec, sub in SCHEMA.items()
                       for key, (parser, _, _) in sub.items()
                       if parser is float or parser == "floats"]
                      + [("tolerances", key) for key in ("eps_aubry", "s", "t", "eps_target")])


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
@pytest.mark.parametrize("sec,key", NUMERIC_KEYS)
def test_a_number_that_is_not_finite_is_refused_by_name(sec, key, value):
    """nan and +-inf, also spelled as a literal that overflows, are refused
    up front, in any entry of a list, whether or not the config's kind or
    model reads the key."""
    raw = f"1.0, {value}" if SCHEMA[sec][key][0] == "floats" else value
    with pytest.raises(ConfigError, match=rf"\[{sec}\] {key} must be finite"):
        parse_config_text(f"[{sec}]\n{key} = {raw}\n")


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
        "period = 0.5\ndecay = 1.0\nseed = 7\n")
    spec, env = build_environment(cfg)
    assert spec.params["period"] == 0.5
    assert spec.params["k_max"] == 3
    assert env.field_bound() > 0


def test_manifest_json_is_canonical():
    text = manifest_json({"b": 1.5, "a": {"z": [1, 2]}})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert manifest_json({"b": 1.5, "a": {"z": [1, 2]}}) == text


# environment keys per kind, some accepted on the unit torus and some not
TORUS_CANDIDATES = {
    "periodic": ["", "amplitudes = 0.5, 0.25\n"],
    "quasiperiodic": ["", "amplitudes = 1.0, 0.3\n"],
    "random_fourier": ["", "period = 0.5\nk_max = 2\n", "period = 0.25\ndecay = 1.0\n",
                       "period = 16\n", "period = 0.3\n", "period = 3\n"],
    "poisson_bumps": ["", "intensity = 4.0\n"],
}


def test_every_field_the_validator_accepts_is_periodic_on_the_unit_torus():
    """The CLI evaluates V at points wrapped to the unit torus, so an
    accepted field must agree at x and x + e_i on the seam x_i = 0, to
    rounding, on sampled seam points of each axis.  Every candidate of
    each kind and dimension is tried; each kind but poisson_bumps has an
    accepted one, and a refusal names its kind."""
    rng = np.random.default_rng(0)
    accepted = set()
    for dim in (1, 2):
        for kind, extras in TORUS_CANDIDATES.items():
            for extra in extras:
                text = (f"[environment]\nkind = {kind}\ndimension = {dim}\nseed = 3\n{extra}"
                        f"[grid]\ndim = {dim}\nn = 64\n")
                try:
                    cfg = parse_config_text(text)
                except ConfigError as exc:
                    assert f"kind = {kind}" in str(exc)
                    continue
                accepted.add(kind)
                _, env = build_environment(cfg)
                for axis in range(dim):
                    x = rng.uniform(0.0, 1.0, size=(64, dim))
                    x[:, axis] = 0.0
                    jump = np.abs(env.evaluate(x) - env.evaluate(x + np.eye(dim)[axis]))
                    assert float(np.max(jump)) <= 1e-12, (text, float(np.max(jump)))
    assert accepted == {"periodic", "quasiperiodic", "random_fourier"}
