"""Affine model parameters, standing-assumption validation, JSON IO."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DomainError, NonFiniteIntegrand
from .measures import LevyMeasure, _try_integral, check_keys, number, reading


@dataclass(frozen=True)
class ModelParams:
    """All scalar coefficients plus the two jump measures.

    `m` drives state-dependent branching jumps, `n` immigration jumps.
    """

    a1: float
    a2: float
    b0: float
    b1: float
    b2: float
    sigma: float
    alpha: tuple[tuple[float, float], tuple[float, float]]
    m: LevyMeasure = field(default_factory=LevyMeasure.zero)
    n: LevyMeasure = field(default_factory=LevyMeasure.zero)

    def __post_init__(self):
        if self.a2 < 0:
            raise DomainError("a2 must be >= 0")
        if self.sigma < 0:
            raise DomainError("sigma must be >= 0")
        for row in self.alpha:
            for v in row:
                if v < 0:
                    raise DomainError("alpha entries must be >= 0")

    @property
    def a11(self) -> float:
        return self.alpha[0][0]

    @property
    def a12(self) -> float:
        return self.alpha[0][1]

    @property
    def a21(self) -> float:
        return self.alpha[1][0]

    @property
    def a22(self) -> float:
        return self.alpha[1][1]

    @property
    def alpha_y(self) -> float:
        """Branching diffusion coefficient alpha11 + alpha12."""
        return self.a11 + self.a12

    @cached_property
    def mechanisms(self):
        """phi/psi on frozen quadrature rules (`mechanisms.Mechanisms`),
        built on first use and kept for the life of this object."""
        from .mechanisms import Mechanisms

        return Mechanisms(self)

    @cached_property
    def vbar(self):
        """The coalescence rate vbar (`riccati.Vbar`), built on first use and
        kept; raises ConditionAViolated, uncached, when (A) fails."""
        from .riccati import Vbar

        return Vbar(self)

    @property
    def subcritical_strict(self) -> bool:
        """0 < 2*b2 < a1, required by the second-moment coupling estimates."""
        return 0.0 < 2.0 * self.b2 < self.a1

    def to_json(self) -> dict:
        return {
            "a1": self.a1,
            "a2": self.a2,
            "b0": self.b0,
            "b1": self.b1,
            "b2": self.b2,
            "sigma": self.sigma,
            "alpha": [list(self.alpha[0]), list(self.alpha[1])],
            "m": self.m.to_json(),
            "n": self.n.to_json(),
        }

    @staticmethod
    def from_json(d: dict) -> "ModelParams":
        scalars = ("a1", "a2", "b0", "b1", "b2", "sigma")
        check_keys(d, "model", (*scalars, "alpha", "m", "n"))
        values = {key: number(d[key], f"model {key}") for key in scalars}
        key = "model alpha"
        with reading(key):
            (a11, a12), (a21, a22) = d["alpha"]
        alpha = ((number(a11, key), number(a12, key)), (number(a21, key), number(a22, key)))
        return ModelParams(
            **values, alpha=alpha, m=LevyMeasure.from_json(d["m"]), n=LevyMeasure.from_json(d["n"])
        )


def load_model(path: str | Path) -> ModelParams:
    with open(path) as fh, reading(f"model file {path}"):
        d = json.load(fh)
    return ModelParams.from_json(d)


def save_model(params: ModelParams, path: str | Path) -> None:
    with open(path, "w") as fh:
        json.dump(params.to_json(), fh, indent=2)
        fh.write("\n")


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    value: float
    threshold: str
    passed: bool


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[ValidationCheck, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return _jsonable({
            "all_pass": self.all_pass,
            "checks": [
                {"name": c.name, "value": c.value, "threshold": c.threshold, "pass": c.passed}
                for c in self.checks
            ],
        })


def _jsonable(v):
    """JSON-ready copy of v: numpy scalars and arrays become Python values,
    containers are converted recursively, and non-finite floats become None
    (null), so the result serializes under json.dumps(..., allow_nan=False)."""
    if isinstance(v, np.generic):
        v = v.item()
    if isinstance(v, np.ndarray):
        v = v.tolist()
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, float) and not math.isfinite(v):
        return None
    return v


def _check_integral(mu: LevyMeasure, f, region=None) -> float:
    """`_try_integral`, and inf also when a density or f is NaN/inf at a node."""
    try:
        return _try_integral(mu, f, region)
    except NonFiniteIntegrand:
        return math.inf


def validate(params: ModelParams) -> ValidationReport:
    """Numeric report on the standing integrability and sign assumptions.

    Report-only: a failing check never raises; callers decide.  An integral
    that diverges, or whose density or integrand is NaN/inf at a node, is
    reported as inf.  The two integrability integrands switch branch at
    z1 = 1 and |z2| = 1, so they are integrated on pieces cut there.
    """
    m_int = _check_integral(
        params.m.split_at((1.0,), (-1.0, 1.0)), lambda z1, z2: np.minimum(z1, z1**2) + np.abs(z2) ** 2
    )
    n_int = _check_integral(
        params.n.split_at((1.0,), (-1.0, 1.0)),
        lambda z1, z2: np.minimum(1.0, z1) + np.minimum(np.abs(z2), np.abs(z2) ** 2),
    )
    n_log = _check_integral(
        params.n, lambda z1, z2: np.log(z1), region=((1.0, np.inf), (-np.inf, np.inf))
    )
    n_z1_tail = _check_integral(
        params.n, lambda z1, z2: z1, region=((1.0, np.inf), (-np.inf, np.inf))
    )
    checks = (
        ValidationCheck(
            "m_integrability", m_int, "int (z1 ^ z1^2 + |z2|^2) m(dz) < inf", math.isfinite(m_int)
        ),
        ValidationCheck(
            "n_integrability",
            n_int,
            "int (1 ^ z1 + |z2| ^ |z2|^2) n(dz) < inf",
            math.isfinite(n_int),
        ),
        ValidationCheck(
            "n_log_moment",
            n_log,
            "int_{z1>=1} log z1 n(dz) < inf",
            math.isfinite(n_log),
        ),
        ValidationCheck(
            "n_z1_tail_moment",
            n_z1_tail,
            "int_{z1>=1} z1 n(dz) < inf",
            math.isfinite(n_z1_tail),
        ),
        ValidationCheck("a2_nonneg", params.a2, "a2 >= 0", params.a2 >= 0),
        ValidationCheck("sigma_nonneg", params.sigma, "sigma >= 0", params.sigma >= 0),
        ValidationCheck(
            "alpha_nonneg",
            min(min(row) for row in params.alpha),
            "alpha_ij >= 0",
            all(v >= 0 for row in params.alpha for v in row),
        ),
        ValidationCheck(
            "subcriticality",
            2.0 * params.b2,
            "0 < 2*b2 < a1",
            params.subcritical_strict,
        ),
    )
    return ValidationReport(checks=checks)
