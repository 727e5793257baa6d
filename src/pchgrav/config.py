"""Run configuration: strict JSON schema with path-precise errors."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

ALL_SUITES = ("algebra", "kernels", "reduction", "constraints", "brackets", "eh", "halfshell")

DEFAULTS = {
    "signature": "lorentzian",
    "gamma": 1.0,
    "Lambda": 0.0,
    "grid_n": [8],
    "seed": 1,
    "suites": list(ALL_SUITES),
    "tolerances": {},
}


#: every check tolerance a config may override, with its default
TOLERANCES = {
    "twist_determinant": 1e-12,
    "star_cyclic": 1e-13,
    "morphism_zero": 1e-13,
    "morphism_floor": 0.1,
    "star_square": 1e-14,
    "lie_axioms": 1e-13,
    "wedge_axioms": 1e-13,
    "twist_symmetry": 1e-13,
    "sv_gap": 1e6,
    "projector_algebra": 1e-12,
    "annihilator": 1e-10,
    "projector_smoothness": 1e3,
    "matrix_crosscheck": 1e-13,
    "exact_sequence_wedge": 1e-12,
    "exact_sequence_containment": 1e-10,
    "structural_residual": 1e-9,
    "gauge_invariance": 1e-9,
    "kernel_wedge": 1e-11,
    "idempotence": 1e-10,
    "slice_symplecto": 1e-11,
    "order_low": 3.2,
    "order_high": 4.8,
    "linearity": 1e-12,
    "psi_budget": 0.05,
    "hvf_wedge": 1e-8,
    "constrained_variation": 1e-9,
    "bracket_ll": 1e-4,
    "bracket_onshell_budget": 2.0,
    "fd_linear": 1e-10,
    "exact_divergence": 1e-12,
    "eh_identities": 1e-11,
    "gaugefix_budget": 0.05,
    "isotropy": 1e-10,
    "kernel_flow": 1e-11,
    "round_trip": 1e-10,
    "pairing_match": 1e-9,
    "loci_floor": 0.1,
    "loci_coincide": 1e-10,
}


class ConfigError(ValueError):
    pass


def _finite_number(value, path: str, what: str = "a finite number") -> float:
    """value as a float; booleans, non-numbers, NaN and infinities are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path} must be {what}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{path} must be {what}")
    return number


@dataclass
class RunConfig:
    """A validated config; `validate_config` fills every field, defaults from DEFAULTS."""

    signature: str
    gamma: float
    Lambda: float
    grid_n: list
    seed: int
    suites: list
    tolerances: dict

    def as_dict(self) -> dict:
        gamma = "infinity" if math.isinf(self.gamma) else self.gamma
        return {
            "signature": self.signature,
            "gamma": gamma,
            "Lambda": self.Lambda,
            "grid_n": list(self.grid_n),
            "seed": self.seed,
            "suites": list(self.suites),
            "tolerances": dict(self.tolerances),
        }

    def tol(self, name: str) -> float:
        return float(self.tolerances.get(name, TOLERANCES[name]))


def validate_config(raw: dict) -> RunConfig:
    unknown = set(raw) - set(DEFAULTS)
    if unknown:
        key = sorted(unknown)[0]
        raise ConfigError(f"unknown key at $.{key}")
    merged = {**DEFAULTS, **raw}

    signature = merged["signature"]
    if signature not in ("euclidean", "lorentzian"):
        raise ConfigError("$.signature must be 'euclidean' or 'lorentzian'")

    gamma = merged["gamma"]
    if gamma == "infinity":
        gamma = math.inf
    else:
        gamma = _finite_number(gamma, "$.gamma", "a finite number or 'infinity'")
    if gamma == 0:
        raise ConfigError("$.gamma must be nonzero")
    if signature == "euclidean" and abs(gamma) == 1:
        # star^2 = 1 makes T_gamma = 1 + gamma^-1 star singular, so the twisted
        # pairing of the constraint adjoints is degenerate
        raise ConfigError("$.gamma must not be +-1 for the euclidean signature: "
                          "T_gamma = 1 + gamma^-1 star is singular there")

    lam = _finite_number(merged["Lambda"], "$.Lambda")

    grid_n = merged["grid_n"]
    if not isinstance(grid_n, list) or not grid_n:
        raise ConfigError("$.grid_n must be a nonempty list of even integers")
    suites = merged["suites"]
    if not isinstance(suites, list):
        raise ConfigError("$.suites must be a list")
    for s in suites:
        if s not in ALL_SUITES:
            raise ConfigError(f"$.suites: unknown suite {s!r}")
    for i, n in enumerate(grid_n):
        if not isinstance(n, int) or n < 2 or n % 2:
            raise ConfigError(f"$.grid_n[{i}] must be an even integer >= 2")
        if n < 4 and any(s != "halfshell" for s in suites):
            raise ConfigError(f"$.grid_n[{i}] = {n} requires suites to be halfshell only")

    seed = merged["seed"]
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**64:
        raise ConfigError("$.seed must be a uint64")

    tolerances = merged["tolerances"]
    if not isinstance(tolerances, dict):
        raise ConfigError("$.tolerances must be an object")
    for k in sorted(tolerances):
        if k not in TOLERANCES:
            raise ConfigError(f"unknown tolerance at $.tolerances.{k}")
        _finite_number(tolerances[k], f"$.tolerances.{k}")

    return RunConfig(
        signature=signature,
        gamma=gamma,
        Lambda=lam,
        grid_n=list(grid_n),
        seed=seed,
        suites=list(suites),
        tolerances=dict(tolerances),
    )


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return validate_config(raw)
