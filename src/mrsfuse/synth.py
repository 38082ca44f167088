"""Synthetic cohort generation with analytically known module discrimination.

Module scores follow a binormal model: within-class scores are unit-variance
Gaussians whose means are separated by sqrt(2) * ndtri(target_auc), so the
module's true AUC equals the target exactly; a logistic squash maps the
latent score onto [0, 1] without changing any ranking. Clinical covariates
are tied to the outcome latent through a Gaussian copula with a per-variable
correlation knob, and the recorded mRS grade is sampled inside the range
implied by the patient's binary outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from ._normal import ndtr, ndtri
from .cohort import DEFAULT_MODULE_NAMES, NIHSS_MAX, Cohort, non_string_module_name
from .errors import ConfigError, is_number, require_int

# Default per-module discrimination targets for the five standard modules.
DEFAULT_MODULE_AUCS = (0.69, 0.64, 0.56, 0.71, 0.58)

AGE_MIN, AGE_MAX = 20.0, 95.0


@dataclass(frozen=True)
class SyntheticSpec:
    """Generative parameters for one synthetic cohort."""

    n_patients: int
    prevalence_poor: float = 0.34
    module_aucs: tuple[float, ...] = DEFAULT_MODULE_AUCS
    module_names: tuple[str, ...] = DEFAULT_MODULE_NAMES
    rho_age: float = 0.6
    rho_nihss: float = 0.6
    seed: int = 0

    def __post_init__(self) -> None:
        if isinstance(self.module_names, str):  # a bare string would read as one module per letter
            raise ConfigError(("module_names", "must be a sequence of strings, not a string", self.module_names))
        object.__setattr__(self, "module_aucs", tuple(self.module_aucs))
        object.__setattr__(self, "module_names", tuple(self.module_names))
        require_int("n_patients", self.n_patients, 1, "a positive integer")
        if not (is_number(self.prevalence_poor) and 0.0 < self.prevalence_poor < 1.0):
            raise ConfigError(("prevalence_poor", "must lie in (0, 1)", self.prevalence_poor))
        if len(self.module_aucs) != len(self.module_names):
            raise ConfigError(
                f"{len(self.module_aucs)} AUC targets for {len(self.module_names)} modules"
            )
        if not self.module_names:
            raise ConfigError("module list must not be empty")
        if unnamed := non_string_module_name(self.module_names):
            raise ConfigError(unnamed)
        for target in self.module_aucs:
            if not (is_number(target) and 0.5 < target < 1.0):
                raise ConfigError(f"module AUC targets must lie in (0.5, 1), got {target!r}")
        for name, rho in (("rho_age", self.rho_age), ("rho_nihss", self.rho_nihss)):
            if not (is_number(rho) and 0.0 <= rho <= 1.0):
                raise ConfigError((name, "must lie in [0, 1]", rho))
        require_int("seed", self.seed, 0, "a non-negative integer")


def generate_cohort(spec: SyntheticSpec) -> Cohort:
    """Draw one cohort; identical specs produce identical cohorts."""
    # ndtr and ndtri equal scipy's bit for bit, and the cohorts depend on these exact floats
    rng = np.random.default_rng(spec.seed)
    n = spec.n_patients
    n_modules = len(spec.module_names)

    # Outcome from a latent threshold: poor prevalence is exact by construction.
    z_outcome = rng.standard_normal(n)
    poor = z_outcome > ndtri(1.0 - spec.prevalence_poor)

    # Binormal module scores, squashed onto (0, 1) rank-preservingly by 1 / (1 + exp(-z)) in place.
    deltas = sqrt(2.0) * np.array([ndtri(target) for target in spec.module_aucs])
    probs = rng.standard_normal((n, n_modules))
    np.add(probs, deltas, out=probs, where=poor[:, None])
    np.negative(probs, out=probs)
    np.exp(probs, out=probs)
    probs += 1.0
    np.divide(1.0, probs, out=probs)

    def copula_uniform(rho: float) -> np.ndarray:
        noise = rng.standard_normal(n)
        return ndtr(rho * z_outcome + sqrt(1.0 - rho * rho) * noise)

    age = AGE_MIN + (AGE_MAX - AGE_MIN) * copula_uniform(spec.rho_age)
    nihss = np.clip(
        np.floor(copula_uniform(spec.rho_nihss) * (NIHSS_MAX + 1)).astype(int), 0, NIHSS_MAX
    )

    mrs_poor = rng.integers(3, 7, size=n)
    mrs_good = rng.integers(0, 3, size=n)
    mrs = np.where(poor, mrs_poor, mrs_good)

    width = max(4, len(str(n)))
    ids = np.fromiter(map(f"S%0{width}d".__mod__, range(n)), dtype=object, count=n)
    return Cohort.of_columns(spec.module_names, ids, probs, age, nihss, mrs)
