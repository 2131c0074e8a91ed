"""``run`` against the textbook iteration of ``reference_aa``: same counts, same fixed point."""

import numpy as np
import pytest

import anderson_pi as ap
from anderson_pi.operators import OperatorKind, OperatorSpec
from anderson_pi.solver import Scheme, SolverConfig
from reference_aa import reference_run

CONFIGS = {
    "vanilla": (Scheme.VANILLA_VI, {}),
    "kkt-m5": (Scheme.ANDERSON_KKT, {"m": 5}),
    "unconstrained-m5": (Scheme.ANDERSON_UNCONSTRAINED, {"m": 5}),
    "unconstrained-m3-beta0.7": (Scheme.ANDERSON_UNCONSTRAINED, {"m": 3, "beta": 0.7}),
    "stable-aa-m5-eta1e-3": (Scheme.STABLE_AA, {"m": 5, "eta": 1e-3}),
}


@pytest.mark.parametrize("gamma", [0.95, 0.99])
@pytest.mark.parametrize("op,omega", [("max", 1.0), ("mellowmax", 5.0)], ids=["max", "mm5"])
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_run_matches_the_reference(config, op, omega, gamma):
    scheme, params = CONFIGS[config]
    cfg = SolverConfig(scheme, OperatorSpec(OperatorKind(op), omega), tol=1e-10, **params)
    for seed in range(3):
        mdp = ap.generate_random_mdp(seed, 30, 4, 3, 1.0, gamma)
        trace = ap.run(mdp, cfg)
        converged, iterations, q = reference_run(
            mdp.transitions, mdp.rewards, gamma, op, omega, tol=cfg.tol, **params
        )
        assert trace.converged and converged
        assert trace.iterations == iterations
        assert np.abs(trace.final_q - q).max() <= cfg.tol / (1.0 - gamma)


# with 6 entries and m = 5 the window's H is rank-deficient: lstsq's minimum-norm
# tau and the jittered Cholesky part ways, so unconstrained counts may differ by
# a few iterations; stable-aa's ridge keeps the system regular. kkt is left out:
# it takes over a thousand iterations here, against 5-17 for the reference
DEGENERATE = {
    "unconstrained-m5": (Scheme.ANDERSON_UNCONSTRAINED, {"m": 5}, 3),
    "stable-aa-m5-eta1e-3": (Scheme.STABLE_AA, {"m": 5, "eta": 1e-3}, 0),
}


@pytest.mark.parametrize("op,omega", [("max", 1.0), ("mellowmax", 5.0)], ids=["max", "mm5"])
@pytest.mark.parametrize("config", sorted(DEGENERATE))
def test_run_follows_the_reference_on_degenerate_windows(config, op, omega):
    scheme, params, slack = DEGENERATE[config]
    gamma = 0.99
    cfg = SolverConfig(scheme, OperatorSpec(OperatorKind(op), omega), tol=1e-10, **params)
    for seed in range(8):
        mdp = ap.generate_random_mdp(seed, 3, 2, 2, 1.0, gamma)
        trace = ap.run(mdp, cfg)
        converged, iterations, q = reference_run(
            mdp.transitions, mdp.rewards, gamma, op, omega, tol=cfg.tol, **params
        )
        assert trace.converged and converged
        assert abs(trace.iterations - iterations) <= slack, seed
        assert np.abs(trace.final_q - q).max() <= cfg.tol / (1.0 - gamma)
