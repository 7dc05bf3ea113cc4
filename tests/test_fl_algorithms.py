"""Server optimizers (Reddi et al.) and FedProx."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.fl.algorithms import (
    FedAdagrad,
    FedAdam,
    FedAvgServer,
    FedYogi,
    fedprox_proximal_gradient,
    make_server_optimizer,
)
from repro.fl.fedavg import ModelUpdate
from repro.fl.model import Model


def m(*vals):
    return Model({"w": np.array(vals, dtype=np.float64)})


def test_fedavg_server_adopts_average():
    out = FedAvgServer().step(m(0.0), ModelUpdate(m(5.0), weight=2.0))
    np.testing.assert_allclose(out["w"], [5.0])


def test_adaptive_step_moves_toward_average():
    for cls in (FedAdagrad, FedAdam, FedYogi):
        opt = cls(eta=0.1)
        g = m(0.0, 0.0)
        avg = ModelUpdate(m(1.0, -1.0), weight=1.0)
        out = opt.step(g, avg)
        assert out["w"][0] > 0.0, cls.__name__
        assert out["w"][1] < 0.0, cls.__name__


def test_adaptive_repeated_steps_converge_toward_target():
    opt = FedAdam(eta=0.3)
    g = m(0.0)
    target = m(1.0)
    for _ in range(200):
        g = opt.step(g, ModelUpdate(target, weight=1.0))
    assert abs(float(g["w"][0]) - 1.0) < 0.2


def test_fedadagrad_accumulates_v_monotonically():
    opt = FedAdagrad(eta=1.0)
    g = m(0.0)
    g1 = opt.step(g, ModelUpdate(m(1.0), weight=1.0))
    v_after_1 = opt._v["w"].copy()  # noqa: SLF001
    opt.step(g1, ModelUpdate(m(2.0), weight=1.0))
    assert np.all(opt._v["w"] >= v_after_1)  # noqa: SLF001


def test_optimizer_factory():
    assert isinstance(make_server_optimizer("fedavg"), FedAvgServer)
    assert isinstance(make_server_optimizer("FedYogi"), FedYogi)
    opt = make_server_optimizer("fedadam", eta=0.5)
    assert opt.eta == 0.5
    with pytest.raises(ConfigError, match="unknown server optimizer 'sgd'") as err:
        make_server_optimizer("sgd")
    for name in ("fedadagrad", "fedadam", "fedavg", "fedyogi"):
        assert name in str(err.value)


def test_adaptive_validation():
    with pytest.raises(ConfigError):
        FedAdam(beta1=1.0)
    with pytest.raises(ConfigError):
        FedAdam(eta=0.0)


def test_fedprox_gradient_pulls_toward_global():
    local, global_m = m(2.0), m(0.0)
    prox = fedprox_proximal_gradient(local, global_m, mu=0.5)
    np.testing.assert_allclose(prox["w"], [1.0])  # mu * (w - w_global)
    with pytest.raises(ConfigError):
        fedprox_proximal_gradient(local, global_m, mu=-1.0)
