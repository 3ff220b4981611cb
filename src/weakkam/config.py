"""Run configuration: one INI file per run, hashed into the manifest.

Five sections — [environment], [hamiltonian], [grid], [ladder],
[tolerances] — with every key schema-checked and every default printed
back into the manifest, so a run is reproducible from its manifest alone.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .env import EnvSpec, sample_realization
from .errors import ConfigError
from .grid import GridSpec
from .hamiltonian import (eikonal_model, mechanical_model, nonstrict_model,
                          tilted_mechanical_model)

__all__ = [
    "MODELS",
    "SCHEMA",
    "RunConfig",
    "default_config_text",
    "load_config",
    "parse_config_text",
    "config_hash",
    "build_environment",
    "build_model",
    "build_grid",
    "manifest_json",
]

# [hamiltonian] model -> its factory, called on the section and the grid
# dimension; the catalog that the validator and the schema help name
MODELS = {
    "mechanical": lambda sec, dim: mechanical_model(dim=dim, field_bound=sec["field_bound"]),
    # one number tilts every axis alike; the model refuses other sizes
    "tilted_mechanical": lambda sec, dim: tilted_mechanical_model(
        sec["p0"] * dim if len(sec["p0"]) == 1 else sec["p0"], dim=dim,
        field_bound=sec["field_bound"]),
    "eikonal": lambda sec, dim: eikonal_model(offset=sec["offset"], dim=dim,
                                              field_bound=sec["field_bound"]),
    "nonstrict": lambda sec, dim: nonstrict_model(dim=dim, field_bound=sec["field_bound"]),
}

# section -> key -> (parser, default-as-string, help)
SCHEMA = {
    "environment": {
        "kind": (str, "periodic", "periodic | quasiperiodic | random_fourier | poisson_bumps"),
        "dimension": (int, "1", "spatial dimension (1 or 2)"),
        "seed": (int, "0", "ensemble seed"),
        "index": (int, "0", "realization index within the ensemble"),
        "amplitudes": ("floats", "", "cosine amplitudes (periodic and quasiperiodic kinds)"),
        "k_max": (int, "3", "frequency lattice cutoff (random_fourier)"),
        "decay": (float, "2.0", "spectral decay exponent (random_fourier)"),
        "period": (float, "1.0", "mode lattice period (random_fourier)"),
        "amplitude": (float, "1.0", "field scale (random_fourier)"),
        "intensity": (float, "1.0", "bump rate (poisson_bumps)"),
        "bump_radius": (float, "0.35", "bump support radius (poisson_bumps)"),
        "coverage": (float, "8.0", "half-width of the sampled window (poisson_bumps)"),
    },
    "hamiltonian": {
        "model": (str, "mechanical", " | ".join(MODELS)),
        "field_bound": (float, "1.0", "declared sup bound of the sampled field"),
        "p0": ("floats", "0.5", "drift covector (tilted_mechanical only)"),
        "offset": (float, "2.0", "positive speed offset (eikonal only)"),
    },
    "grid": {
        "dim": (int, "1", "grid dimension (1 or 2)"),
        "n": (int, "256", "nodes per axis"),
    },
    "ladder": {
        "dt": (float, "0.015625", "one-step time; must be 2^-k"),
        "t_max": (float, "4.0", "top of the dyadic test ladder"),
        "theta_extra": (float, "1.0", "kernel reach margin added to kappa(c)"),
    },
    "tolerances": {
        "tol_bisect": (float, "0.005", "bisection half-width for the critical value"),
        "eps_aubry": (str, "auto", "fixed-point threshold, or 'auto'"),
        "d0": (float, "0.1", "mask clearance for strictness certificates"),
        "tau": (float, "0.125", "time window of the strict builders"),
        "m_terms": (int, "6", "terms kept in geometric mixes"),
        "delta": (float, "0.05", "sup-convolution penalty scale"),
        "s": (str, "auto", "forward smoothing time, or 'auto' for the certified window"),
        "t": (str, "auto", "backward smoothing time, or 'auto' for the certified window"),
        "lam": (float, "1.0", "gradient Lipschitz scale for the flow window"),
        "n_seeds": (int, "4", "semidistance cone seeds in the library; a square in 2D"),
        "eps_target": (str, "", "requested closeness of strict builds (optional)"),
    },
}

_KIND_PARAM_KEYS = {
    "periodic": ("amplitudes",),
    "quasiperiodic": ("amplitudes",),
    "random_fourier": ("k_max", "decay", "amplitude", "period"),
    "poisson_bumps": ("intensity", "bump_radius", "coverage"),
}


@dataclass
class RunConfig:
    """Fully resolved configuration: every schema key has a value."""

    values: dict = field(default_factory=dict)
    source: str = ""

    def get(self, section: str, key: str):
        return self.values[section][key]

    def flat(self) -> dict:
        return {f"{sec}.{key}": _canonical(v)
                for sec, sub in sorted(self.values.items())
                for key, v in sorted(sub.items())}


def _canonical(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (list, tuple)):
        return ",".join(repr(float(x)) for x in v)
    return str(v)


def _parse_value(parser, raw: str):
    raw = raw.strip()
    if parser == "floats":
        if not raw:
            return []
        try:
            return [float(tok) for tok in raw.split(",")]
        except ValueError as exc:
            raise ConfigError(f"expected a comma list of numbers, got {raw!r}") from exc
    if parser is int:
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"expected an integer, got {raw!r}") from exc
    if parser is float:
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(f"expected a number, got {raw!r}") from exc
    return raw


def default_config_text() -> str:
    lines = []
    for sec, sub in SCHEMA.items():
        lines.append(f"[{sec}]")
        for key, (_, default, hint) in sub.items():
            lines.append(f"{key} = {default}  ; {hint}")
        lines.append("")
    return "\n".join(lines)


def parse_config_text(text: str, source: str = "<string>") -> RunConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        cp.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigError(f"{source}: {exc}") from exc
    values = {}
    for sec in cp.sections():
        if sec not in SCHEMA:
            raise ConfigError(f"{source}: unknown section [{sec}] "
                              f"(expected one of {sorted(SCHEMA)})")
    for sec, sub in SCHEMA.items():
        values[sec] = {}
        present = cp[sec] if cp.has_section(sec) else {}
        for key in present:
            if key not in sub:
                raise ConfigError(f"{source}: unknown key '{key}' in [{sec}] "
                                  f"(expected one of {sorted(sub)})")
        for key, (parser, default, _) in sub.items():
            raw = present.get(key, default) if present else default
            try:
                values[sec][key] = _parse_value(parser, raw)
            except ConfigError as exc:
                raise ConfigError(f"{source}: [{sec}] {key}: {exc}") from exc
    cfg = RunConfig(values=values, source=source)
    _validate(cfg)
    return cfg


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, source=str(path))


# str keys that hold a number unless they read 'auto' or are empty
_NUMERIC_STR_KEYS = {("tolerances", key) for key in ("eps_aubry", "s", "t", "eps_target")}


def _validate_finite(cfg: RunConfig) -> None:
    """Refuse nan and +-inf (also spelled as an overflowing literal such as
    1e999) in every number the config holds: no later check or stage can
    give such a value a meaning."""
    for sec, sub in SCHEMA.items():
        for key, (parser, _, _) in sub.items():
            val = cfg.get(sec, key)
            if parser == "floats":
                nums = val
            elif parser is float:
                nums = [val]
            elif (sec, key) in _NUMERIC_STR_KEYS:
                try:
                    nums = [float(val)]
                except ValueError:    # 'auto', empty, or refused below by name
                    continue
            else:
                continue
            if not all(math.isfinite(x) for x in nums):
                raise ConfigError(f"[{sec}] {key} must be finite, got {val}")


def _validate(cfg: RunConfig) -> None:
    _validate_finite(cfg)
    kind = cfg.get("environment", "kind")
    if kind not in _KIND_PARAM_KEYS:
        raise ConfigError(f"[environment] kind must be one of "
                          f"{sorted(_KIND_PARAM_KEYS)}, got {kind!r}")
    model = cfg.get("hamiltonian", "model")
    if model not in MODELS:
        raise ConfigError(f"[hamiltonian] model {model!r} not in the catalog")
    dim = cfg.get("grid", "dim")
    if dim not in (1, 2):
        raise ConfigError("[grid] dim must be 1 or 2")
    if cfg.get("environment", "dimension") != dim:
        raise ConfigError("[environment] dimension must match [grid] dim")
    n = cfg.get("grid", "n")
    if n < 8:
        raise ConfigError("[grid] n must be at least 8")
    dt = cfg.get("ladder", "dt")
    if dt <= 0 or abs(np.log2(dt) - round(np.log2(dt))) > 1e-9:
        raise ConfigError(f"[ladder] dt must be a power of two, got {dt}")
    if cfg.get("ladder", "t_max") < dt:
        raise ConfigError("[ladder] t_max must be at least dt")
    eps = cfg.get("tolerances", "eps_aubry")
    if eps != "auto":
        try:
            num = float(eps)
        except ValueError as exc:
            raise ConfigError("[tolerances] eps_aubry must be 'auto' or a number") from exc
        if not num > 0:
            raise ConfigError(f"[tolerances] eps_aubry must be positive, got {num}")
    for key in ("n_seeds", "m_terms"):
        val = cfg.get("tolerances", key)
        if val < 1:
            raise ConfigError(f"[tolerances] {key} must be at least 1, got {val}")
    seeds = cfg.get("tolerances", "n_seeds")
    side = math.isqrt(seeds)
    if dim == 2 and side * side != seeds:
        # build_library lays 2D seeds out on a side x side lattice
        raise ConfigError(f"[tolerances] n_seeds must be a perfect square in 2D, got {seeds}; "
                          f"the nearest squares are {side * side} and {(side + 1) ** 2}")
    for key in ("s", "t"):
        val = cfg.get("tolerances", key)
        if val == "auto":
            continue
        try:
            num = float(val)
        except ValueError as exc:
            raise ConfigError(f"[tolerances] {key} must be 'auto' or a number") from exc
        if num <= 0:
            raise ConfigError(f"[tolerances] {key} must be positive, got {num}")
    tgt = cfg.get("tolerances", "eps_target")
    if tgt:
        try:
            float(tgt)
        except ValueError as exc:
            raise ConfigError("[tolerances] eps_target must be empty or a number") from exc
    _validate_torus_field(cfg)


# where a field that the unit torus cannot carry runs instead
_ELSEWHERE = ("; run it on growing boxes (metric.critical_value_stationary) or on a torus "
              "whose side is a whole number of its periods, which the CLI does not offer yet")


def _validate_torus_field(cfg: RunConfig) -> None:
    """Refuse a field that is not 1-periodic: the CLI runs on the unit
    torus, which evaluates V at points wrapped to [0, 1)^dim, so such a
    field would jump across the seam x ~ x + e_i, where its bounds do not
    hold.  A cosine sum is 1-periodic when every frequency is an integer:
    random_fourier's are the integer modes times 1/period, quasiperiodic's
    the kind's defaults.  A Poisson bump cloud never is."""
    kind = cfg.get("environment", "kind")
    if kind == "random_fourier":
        period = cfg.get("environment", "period")
        inverse = 1.0 / period if period else math.inf
        if not inverse.is_integer():
            raise ConfigError(f"[environment] kind = random_fourier needs 1/period to be an "
                              f"integer on the unit torus, got period = {period!r} "
                              f"(1/period = {inverse!r}){_ELSEWHERE}")
    elif kind == "quasiperiodic":
        freqs = build_environment(cfg)[1].freqs
        if not np.array_equal(freqs, np.round(freqs)):
            raise ConfigError(f"[environment] kind = quasiperiodic in {freqs.shape[1]}D has the "
                              f"frequencies {freqs.ravel().tolist()}, not all integers, so its "
                              f"field is not periodic on the unit torus{_ELSEWHERE}")
    elif kind == "poisson_bumps":
        raise ConfigError("[environment] kind = poisson_bumps is not periodic on the unit torus: "
                          "its bumps (intensity, bump_radius, coverage) are not repeated across "
                          f"the seam{_ELSEWHERE}")


def config_hash(cfg: RunConfig) -> str:
    payload = "\n".join(f"{k}={v}" for k, v in sorted(cfg.flat().items()))
    return hashlib.sha256(payload.encode()).hexdigest()


# -- object builders --------------------------------------------------------


def build_environment(cfg: RunConfig):
    sec = cfg.values["environment"]
    params = {}
    for key in _KIND_PARAM_KEYS[sec["kind"]]:
        val = sec[key]
        if key == "amplitudes" and not val:
            continue
        params[key] = tuple(val) if isinstance(val, list) else val
    spec = EnvSpec(kind=sec["kind"], dimension=sec["dimension"],
                   seed=sec["seed"], params=params)
    return spec, sample_realization(spec, sec["index"])


def build_model(cfg: RunConfig):
    sec = cfg.values["hamiltonian"]
    return MODELS[sec["model"]](sec, cfg.get("grid", "dim"))


def build_grid(cfg: RunConfig) -> GridSpec:
    return GridSpec(dim=cfg.get("grid", "dim"), n=cfg.get("grid", "n"))


def manifest_json(manifest: dict) -> str:
    """Canonical JSON: sorted keys, repr floats via json, newline-terminated."""
    return json.dumps(manifest, sort_keys=True, indent=1) + "\n"
