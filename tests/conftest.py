import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import anderson_pi as ap
from anderson_pi.operators import OperatorKind, OperatorSpec

# the CLI tests' subprocesses import the package these tests import
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(ap.__file__).parents[1]), os.environ.get("PYTHONPATH")])
)

settings.register_profile(
    "det",
    derandomize=True,
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("det")


@pytest.fixture(scope="session")
def self_loop_mdp():
    """Single state, single action, R = 1, gamma = 0.9; Q* = 10."""
    return ap.TabularMdp(1, 1, np.ones((1, 1, 1)), np.ones((1, 1)), 0.9)


@pytest.fixture(scope="session")
def grid3():
    return ap.generate_gridworld(3, 3, 0.0, 1.0, 0.9)


@pytest.fixture(scope="session")
def mm5():
    return OperatorSpec(OperatorKind.MELLOW_MAX, 5.0)


@pytest.fixture(scope="session")
def hardmax_op():
    return OperatorSpec(OperatorKind.HARD_MAX)


def hand_value_iteration(mdp, tol=1e-13, max_iter=10**6):
    """Independent dense-loop value iteration oracle (hard max)."""
    q = np.zeros((mdp.n_states, mdp.n_actions))
    for _ in range(max_iter):
        v = q.max(axis=1)
        tq = np.empty_like(q)
        for s in range(mdp.n_states):
            for a in range(mdp.n_actions):
                acc = 0.0
                for t in range(mdp.n_states):
                    acc += mdp.transitions[s, a, t] * v[t]
                tq[s, a] = mdp.rewards[s, a] + mdp.gamma * acc
        if np.abs(tq - q).max() <= tol:
            return q
        q = tq
    raise AssertionError("hand VI did not converge")
