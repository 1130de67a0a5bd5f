import numpy as np
import pytest

from lqgame import (
    CoefficientPath, CostWeights, GameProblem, SolverConfig, StateDynamics,
    example_problem, random_certified_problem, riccati,
)


def scalar_game(*, B1=0.0, B2=0.0, C=0.0, D1=0.0, D2=0.0, G=0.0, Q=0.0,
                R11=1.0, R22=-1.0, T=1.0) -> GameProblem:
    """Minimal constant-coefficient 1-d game used by many tests."""
    c = CoefficientPath.constant
    dyn = StateDynamics(A=c(0.0), B1=c(B1), B2=c(B2), C=c(C), D1=c(D1), D2=c(D2))
    cost = CostWeights(G=np.atleast_2d(float(G)), Q=c(Q), S1=c(0.0), S2=c(0.0),
                       R11=c(R11), R12=c(0.0), R21=c(0.0), R22=c(R22))
    return GameProblem(dynamics=dyn, cost=cost, horizon_T=T)


@pytest.fixture(scope="session")
def ex4_5():
    return example_problem("ex4_5")


@pytest.fixture(scope="session")
def ex5_2():
    return example_problem("ex5_2")


@pytest.fixture(scope="session")
def ex3_4():
    return example_problem("ex3_4")


@pytest.fixture(scope="session")
def ex3_2():
    return example_problem("ex3_2")


@pytest.fixture(scope="session")
def cfg400():
    return SolverConfig(n_steps=400)


@pytest.fixture(scope="session")
def rand_problem():
    return random_certified_problem(seed=7)


@pytest.fixture(scope="session")
def rand_det_problem():
    return random_certified_problem(seed=11, deterministic=True)


@pytest.fixture()
def passes(monkeypatch):
    """The kinds of every backward pass, in call order."""
    calls = []
    solve_stack = riccati._solve_stack

    def recorded(problems, kinds, config, halt_with=None):
        calls.append(tuple(kinds))
        return solve_stack(problems, kinds, config, halt_with)

    monkeypatch.setattr(riccati, "_solve_stack", recorded)
    return calls
