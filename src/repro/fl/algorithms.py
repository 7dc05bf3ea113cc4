"""Server optimizers and client-side algorithm variants.

The paper's evaluation uses plain FedAvg; §7 cites the adaptive federated
optimizers of Reddi et al. (2020) — FedAdagrad / FedAdam / FedYogi — and
FedProx (Li et al., 2020) as orthogonal algorithm work LIFL complements.
They are implemented here so the platform demonstrably supports them: each
consumes the aggregated *pseudo-gradient* (global minus averaged model) and
produces the next global model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import ConfigError
from repro.common.registry import Registry
from repro.fl.fedavg import ModelUpdate
from repro.fl.model import Model


class ServerOptimizer:
    """Interface: fold one round's aggregate into the global model."""

    def step(self, global_model: Model, round_average: ModelUpdate) -> Model:
        raise NotImplementedError


#: server optimizer classes by name
SERVER_OPTIMIZERS: Registry[type[ServerOptimizer]] = Registry("server optimizer")


@SERVER_OPTIMIZERS.register("fedavg")
class FedAvgServer(ServerOptimizer):
    """Vanilla FedAvg: the new global model *is* the weighted average."""

    def step(self, global_model: Model, round_average: ModelUpdate) -> Model:
        return round_average.model.copy()


@dataclass
class _AdaptiveServer(ServerOptimizer):
    """Common machinery for the Reddi et al. family.

    Maintains first moment m and second moment v over the pseudo-gradient
    Δ = avg − global; subclasses define the v update rule.
    """

    eta: float = 0.1  # server learning rate
    beta1: float = 0.9
    beta2: float = 0.99
    tau: float = 1e-3  # adaptivity floor
    _m: Model | None = field(default=None, repr=False)
    _v: dict[str, np.ndarray] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not 0 <= self.beta1 < 1 or not 0 <= self.beta2 < 1:
            raise ConfigError("betas must be in [0, 1)")
        if self.eta <= 0 or self.tau <= 0:
            raise ConfigError("eta and tau must be positive")

    def step(self, global_model: Model, round_average: ModelUpdate) -> Model:
        delta = round_average.model.delta_from(global_model)
        if self._m is None:
            self._m = delta.zeros_like()
            self._v = {k: np.full_like(v, self.tau**2) for k, v in delta.items()}
        assert self._v is not None
        self._m = self._m.scaled(self.beta1).add_scaled_(delta, 1.0 - self.beta1)
        new_params: dict[str, np.ndarray] = {}
        for k, d in delta.items():
            self._v[k] = self._update_v(self._v[k], np.square(d))
            step = self.eta * self._m[k] / (np.sqrt(self._v[k]) + self.tau)
            new_params[k] = global_model[k] + step
        return Model(new_params)

    def _update_v(self, v: np.ndarray, d2: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@SERVER_OPTIMIZERS.register("fedadagrad")
class FedAdagrad(_AdaptiveServer):
    """v accumulates: v ← v + Δ²."""

    def _update_v(self, v: np.ndarray, d2: np.ndarray) -> np.ndarray:
        return v + d2


@SERVER_OPTIMIZERS.register("fedadam")
class FedAdam(_AdaptiveServer):
    """v is an EMA: v ← β₂ v + (1 − β₂) Δ²."""

    def _update_v(self, v: np.ndarray, d2: np.ndarray) -> np.ndarray:
        return self.beta2 * v + (1.0 - self.beta2) * d2


@SERVER_OPTIMIZERS.register("fedyogi")
class FedYogi(_AdaptiveServer):
    """Yogi's sign-controlled update: v ← v − (1 − β₂) Δ² sign(v − Δ²)."""

    def _update_v(self, v: np.ndarray, d2: np.ndarray) -> np.ndarray:
        return v - (1.0 - self.beta2) * d2 * np.sign(v - d2)


def make_server_optimizer(name: str, **kwargs: float) -> ServerOptimizer:
    """Factory by name (``fedavg``/``fedadagrad``/``fedadam``/``fedyogi``)."""
    cls = SERVER_OPTIMIZERS.get(name.lower())
    return cls(**kwargs) if kwargs else cls()


def fedprox_proximal_gradient(local: Model, global_model: Model, mu: float) -> Model:
    """FedProx's proximal-term gradient μ(w − w_global), added to the local
    loss gradient during client training to bound client drift."""
    if mu < 0:
        raise ConfigError(f"mu must be non-negative, got {mu}")
    return local.delta_from(global_model).scaled(mu)
