"""Run configuration: JSON parsing, defaults, tolerance registry and seeded
generation of admissible inhomogeneities."""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParameterError
from .model import DELTA_MIN_DEFAULT, ModelParams

MAX_N_HARD = 8
MAX_N_OBSERVABLES = 5
XI_MAX_TRIES = 100

DEFAULT_TOLERANCES: dict[str, float] = {
    "sov_measure": 1e-9,
    "tq_residual": 1e-7,
    "bethe_residual": 1e-9,
    "discrete_char": 1e-8,
    "eigenstate_residual": 1e-8,
    "negation_closure": 1e-9,
    "isospectral": 1e-9,
    "cross_representation": 1e-7,
    "oracle_comparison": 1e-7,
    "orthogonality": 1e-8,
    "pm_equality": 1e-8,
    "inverse_problem": 1e-8,
    "identity_bench": 1e-9,
    "extension_limit": 1e-6,
    "wronskian": 1e-8,
    "sum_rule": 1e-8,
    "sov_actions": 1e-8,
    "lattice_residual": 1e-10,
}

DEFAULT_REPRESENTATIONS = ("direct", "izergin", "slavnov", "tau_izergin", "tau_slavnov")

DEFAULT_CONFIG: dict = {
    "schema": 1,
    "n": 3,
    "eta": [0.6, 0.35],
    "xi": {
        "seed": 7,
        "box": {"re_range": [-1.0, 1.0], "im_range": [-0.4, 0.4]},
        "min_separation": 0.1,
    },
    "kappa": [1.0, 0.0],
    "kappa_prime": [1.3, 0.2],
    "sites": None,          # defaults to 1..n
    "operators": ["z", "+", "-"],
    "representations": list(DEFAULT_REPRESENTATIONS),
    "tolerances": {},
    "seed": 7,
    "out": None,
}


def _as_complex(value, name: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        z = complex(value)
    elif isinstance(value, (list, tuple)) and len(value) == 2:
        z = complex(_number(float, value[0], name), _number(float, value[1], name))
    else:
        raise ParameterError(f"field {name!r} must be a number or a [re, im] pair")
    if not cmath.isfinite(z):
        raise ParameterError(f"field {name!r} must be finite, got {value!r}")
    return z


def _seed(value, name: str) -> int:
    seed = _number(int, value, name)
    if seed < 0:
        raise ParameterError(f"field {name!r} must be a non-negative integer, got {seed}")
    return seed


def _list(value, name: str, default=()):
    """``value`` if it is a list; a missing (null) or empty one gives ``default``."""
    if value is None:
        return default
    if not isinstance(value, list):
        raise ParameterError(f"field {name!r} must be a list, got {value!r}")
    return value or default


def _bounds(value, name: str) -> list[float]:
    bounds = [_number(float, v, name) for v in _list(value, name)]
    if len(bounds) != 2 or not all(map(math.isfinite, bounds)):
        raise ParameterError(f"field {name!r} must be a pair [lo, hi] of finite numbers")
    return bounds


def _distinct(values: tuple, name: str):
    """Refuse ``values`` if an entry repeats."""
    repeated = [v for i, v in enumerate(values) if v in values[:i]]
    if repeated:
        raise ParameterError(f"field {name!r} repeats the entry {repeated[0]!r}")


def _reject_unknown(keys, known, where: str):
    for key in keys:
        if key not in known:
            raise ParameterError(f"unknown config key {where}{key!r}")


def _number(kind: type, value, name: str):
    """``kind(value)``; a boolean, or a fractional float where an int is due,
    is refused instead of truncated."""
    try:
        if isinstance(value, bool) or (kind is int and isinstance(value, float)
                                       and not value.is_integer()):
            raise TypeError
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ParameterError(f"field {name!r} must be {kind.__name__}, got {value!r}") from None


@dataclass
class RunConfig:
    """Validated run configuration; ``params`` is the derived ModelParams.

    ``delta_min`` is the config's xi separation, capped at the model default.
    """

    n: int
    eta: complex
    xi: tuple[complex, ...]
    kappa: complex
    kappa_prime: complex
    sites: tuple[int, ...]
    operators: tuple[str, ...]
    representations: tuple[str, ...]
    tolerances: dict[str, float]
    seed: int
    out: str | None = None
    delta_min: float = DELTA_MIN_DEFAULT

    @property
    def params(self) -> ModelParams:
        return ModelParams(n=self.n, eta=self.eta, xi=self.xi,
                           kappa=self.kappa, delta_min=self.delta_min)

    def tol(self, name: str) -> float:
        return self.tolerances[name]


def generate_xi(n: int, eta: complex, seed: int, box: dict,
                min_separation: float) -> tuple[complex, ...]:
    """Draw inhomogeneities in a box until the shift-set separation holds,
    at most XI_MAX_TRIES times."""
    rng = np.random.default_rng(seed)
    re_lo, re_hi = box.get("re_range", [-1.0, 1.0])
    im_lo, im_hi = box.get("im_range", [-0.4, 0.4])
    for _ in range(XI_MAX_TRIES):
        xi = tuple(complex(rng.uniform(re_lo, re_hi), rng.uniform(im_lo, im_hi))
                   for _ in range(n))
        try:
            ModelParams(n=n, eta=eta, xi=xi, delta_min=min_separation)
        except ParameterError:
            continue
        return xi
    raise ParameterError(
        f"could not generate {n} admissible inhomogeneities in {XI_MAX_TRIES} tries; "
        "enlarge the box or lower min_separation"
    )


def load_config(path: str | Path | None = None, seed_override: int | None = None,
                tol_overrides: dict | None = None) -> RunConfig:
    """Load a JSON config file (or the defaults) into a validated RunConfig;
    ``tol_overrides`` values may be numbers or numeric strings."""
    data = dict(DEFAULT_CONFIG)
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                user = json.load(fh)
        except OSError as exc:
            raise ParameterError(f"cannot read config {path}: {exc.strerror}") from exc
        except UnicodeDecodeError:
            raise ParameterError(f"cannot read config {path}: not UTF-8 text") from None
        except json.JSONDecodeError as exc:
            raise ParameterError(f"config parse error at line {exc.lineno}, "
                                 f"column {exc.colno}: {exc.msg}") from exc
        if not isinstance(user, dict):
            raise ParameterError("config root must be a JSON object")
        _reject_unknown(user, DEFAULT_CONFIG, "")
        data.update(user)
    schema = _number(int, data["schema"], "schema")
    if schema != 1:
        raise ParameterError(f"field 'schema' must be 1, got {schema}")
    n = _number(int, data["n"], "n")
    if not 1 <= n <= MAX_N_HARD:
        raise ParameterError(f"n must lie in 1..{MAX_N_HARD}, got {n}")
    eta = _as_complex(data["eta"], "eta")
    kappa = _as_complex(data["kappa"], "kappa")
    kappa_prime = _as_complex(data["kappa_prime"], "kappa_prime")
    seed = _seed(data["seed"], "seed") if seed_override is None \
        else _seed(seed_override, "--seed")

    xi_field = data["xi"]
    if isinstance(xi_field, dict):
        _reject_unknown(xi_field, DEFAULT_CONFIG["xi"], "xi.")
        box = xi_field.get("box", {})
        if not isinstance(box, dict):
            raise ParameterError("field 'xi.box' must be an object")
        _reject_unknown(box, DEFAULT_CONFIG["xi"]["box"], "xi.box.")
        box = {key: _bounds(value, f"xi.box.{key}") for key, value in box.items()}
        xi_seed = _seed(xi_field.get("seed", seed), "xi.seed") if seed_override is None else seed
        min_sep = _number(float, xi_field.get("min_separation", 0.1), "xi.min_separation")
        if not (math.isfinite(min_sep) and min_sep > 0):
            raise ParameterError(
                f"field 'xi.min_separation' must be a finite number > 0, got {min_sep}")
        xi = generate_xi(n, eta, xi_seed, box, min_sep)
    elif isinstance(xi_field, list):
        if len(xi_field) != n:
            raise ParameterError(f"explicit xi list must have {n} entries")
        xi = tuple(_as_complex(v, f"xi[{i}]") for i, v in enumerate(xi_field))
        min_sep = DELTA_MIN_DEFAULT
    else:
        raise ParameterError("field 'xi' must be a list or a generator object")

    sites = tuple(_number(int, s, "sites")
                  for s in _list(data.get("sites"), "sites", range(1, n + 1)))
    for s in sites:
        if not 1 <= s <= n:
            raise ParameterError(f"site {s} outside 1..{n}")
    _distinct(sites, "sites")
    operators = tuple(_list(data.get("operators"), "operators", ("z", "+", "-")))
    for op in operators:
        if op not in ("z", "+", "-"):
            raise ParameterError(f"unknown operator {op!r} (expected 'z', '+', '-')")
    _distinct(operators, "operators")
    representations = tuple(_list(data.get("representations"), "representations",
                                  DEFAULT_REPRESENTATIONS))
    for rep in representations:
        if rep not in DEFAULT_REPRESENTATIONS:
            raise ParameterError(f"unknown representation {rep!r}")
    _distinct(representations, "representations")

    tolerances = dict(DEFAULT_TOLERANCES)
    user_tolerances = data.get("tolerances")
    if user_tolerances is None:
        user_tolerances = {}
    elif not isinstance(user_tolerances, dict):
        raise ParameterError("field 'tolerances' must be an object")
    for key, val in [*user_tolerances.items(), *(tol_overrides or {}).items()]:
        if key not in DEFAULT_TOLERANCES:
            raise ParameterError(f"unknown tolerance {key!r}")
        tol = _number(float, val, f"tolerances.{key}")
        if not (math.isfinite(tol) and tol >= 0):
            raise ParameterError(f"tolerance {key!r} must be finite and non-negative, got {tol}")
        tolerances[key] = tol

    out = data.get("out")
    if out is not None and not isinstance(out, str):
        raise ParameterError("field 'out' must be a path string")
    cfg = RunConfig(n=n, eta=eta, xi=xi, kappa=kappa, kappa_prime=kappa_prime,
                    sites=sites, operators=operators,
                    representations=representations, tolerances=tolerances,
                    seed=seed, out=out, delta_min=min(min_sep, DELTA_MIN_DEFAULT))
    if kappa_prime == 0:  # ModelParams checks only kappa
        raise ParameterError("twists must be nonzero")
    cfg.params  # raises ParameterError for inadmissible explicit xi
    return cfg
