import numpy as np
import pytest

from lqgame import (
    CoefficientPath, CostWeights, GameProblem, SolverConfig, StateDynamics,
    example_problem, random_certified_problem, riccati,
)
from lqgame.core import CoefficientTable, _assemble, _assembly_rows, _margins


def scalar_game(*, B1=0.0, B2=0.0, C=0.0, D1=0.0, D2=0.0, G=0.0, Q=0.0,
                R11=1.0, R22=-1.0, T=1.0) -> GameProblem:
    """Minimal constant-coefficient 1-d game used by many tests."""
    c = CoefficientPath.constant
    dyn = StateDynamics(A=c(0.0), B1=c(B1), B2=c(B2), C=c(C), D1=c(D1), D2=c(D2))
    cost = CostWeights(G=np.atleast_2d(float(G)), Q=c(Q), S1=c(0.0), S2=c(0.0),
                       R11=c(R11), R12=c(0.0), R21=c(0.0), R22=c(R22))
    return GameProblem(dynamics=dyn, cost=cost, horizon_T=T)


def table_row(table: CoefficientTable, j: int) -> CoefficientTable:
    """The coefficients at the j-th time of a table alone, without a time
    axis."""
    return CoefficientTable(*(a[j] for a in table))


def control_blocks(table: CoefficientTable, P, m1: int):
    """R_P = R + D'P D, S_P = B'P + D'P C + S and the margins of the
    quadratic block that the backward pass forms (core._assemble), for one
    row of a coefficient table and one P, or for stacks of both of one
    length."""
    P = np.asarray(P, dtype=float)
    big = _assemble(_assembly_rows(table), P)
    n = P.shape[-1]
    return big[..., n:, n:], big[..., n:, :n], _margins(big[..., n:, n:], m1)


def random_game(seed: int, dims=None, noise: bool = True) -> GameProblem:
    """A small game, constant or sampled in time, at scales where the
    equations of all three kinds often lose a margin at T or later, or blow
    up; dims (n, m1, m2) are drawn up to (3, 2, 2) unless given, and
    C = D1 = D2 = 0 unless noise."""
    rng = np.random.default_rng(seed)
    n, m1, m2 = dims or (int(v) for v in rng.integers(1, [4, 3, 3]))
    scale = float(rng.choice([0.3, 1.0, 3.0]))
    k = 3 if rng.integers(2) else 1

    def path(M):
        return (CoefficientPath.sampled(M, 1.0) if k > 1
                else CoefficientPath.constant(M[0]))

    def rand(rows, cols, factor=1.0):
        return factor * scale * rng.uniform(-1.0, 1.0, (k, rows, cols))

    def sym_rand(rows, shift):
        M = rand(rows, rows)
        return 0.5 * (M + M.transpose(0, 2, 1)) + shift * np.eye(rows)

    R12 = 0.3 * rand(m1, m2)
    G = rand(n, n)[0]
    dyn = StateDynamics(A=path(rand(n, n)), B1=path(rand(n, m1)),
                        B2=path(rand(n, m2)), C=path(rand(n, n, noise)),
                        D1=path(rand(n, m1, noise)), D2=path(rand(n, m2, noise)))
    cost = CostWeights(
        G=0.5 * (G + G.T), Q=path(sym_rand(n, 0.0)), S1=path(rand(m1, n)),
        S2=path(rand(m2, n)),
        R11=path(sym_rand(m1, float(rng.choice([0.5, 2.0, 6.0])))),
        R12=path(R12), R21=path(R12.transpose(0, 2, 1)),
        R22=path(sym_rand(m2, -float(rng.choice([0.5, 2.0, 6.0])))))
    return GameProblem(dynamics=dyn, cost=cost, horizon_T=1.0)


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

    def recorded(problems, kinds, config):
        calls.append(tuple(kinds))
        return solve_stack(problems, kinds, config)

    monkeypatch.setattr(riccati, "_solve_stack", recorded)
    return calls
