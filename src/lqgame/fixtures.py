"""Ready-made problem instances: four small closed-form games used across
the test-suite and scripts, plus a seeded generator of random certified
instances."""

from __future__ import annotations

import numpy as np

from .core import CoefficientPath, CostWeights, DomainError, GameProblem, StateDynamics
from .riccati import SolverConfig, certify_A3

EXAMPLE_NAMES = ("ex3_2", "ex3_4", "ex4_5", "ex5_2")

_N_SAMPLES = 1001


def _const(v) -> CoefficientPath:
    return CoefficientPath.constant(np.atleast_2d(np.asarray(v, float)))


def _sampled_scalar(fn, span: float = 1.0) -> CoefficientPath:
    ts = np.linspace(0.0, span, _N_SAMPLES)
    return CoefficientPath.sampled(fn(ts).reshape(-1, 1, 1), span)


def _scalar_problem(*, B1=0.0, B2=0.0, C=0.0, D1=0.0, D2=0.0, G=0.0, Q=0.0,
                    S1=0.0, S2=0.0, R11=0.0, R12=0.0, R22=0.0,
                    T: float = 1.0) -> GameProblem:
    """One-dimensional game (n = m1 = m2 = 1, A = 0); any coefficient may be
    a scalar or a callable of time (then sampled uniformly)."""
    def path(v):
        return _sampled_scalar(np.vectorize(v), T) if callable(v) else _const(v)
    dyn = StateDynamics(A=_const(0.0), B1=path(B1), B2=path(B2),
                        C=path(C), D1=path(D1), D2=path(D2))
    R12p = path(R12)
    R21p = (_sampled_scalar(np.vectorize(R12), T) if callable(R12)
            else _const(R12))
    cost = CostWeights(G=np.atleast_2d(float(G)), Q=path(Q), S1=path(S1),
                       S2=path(S2), R11=path(R11), R12=R12p, R21=R21p,
                       R22=path(R22))
    return GameProblem(dynamics=dyn, cost=cost, horizon_T=T)


def example_problem(name: str) -> GameProblem:
    """Return one of the named one-dimensional benchmark games.

    ex3_2  dX = sqrt(t) u1 dt + t u2 dW, payoff x(1)^2 + int 2 t u1 u2 - t^2 u2^2;
           upper value x^2, lower value 0.
    ex3_4  dX = u1 dt + u2 dW, payoff -x(1)^2 + int u1^2 - u2^2;
           J(x; lam, 0) = -(x^2 + 2 lam x), lower value unbounded below.
    ex4_5  dX = (u1 + u2) dt, payoff -2 x(1)^2 + int u1^2 - (2/3) u2^2;
           game Riccati P(t) = 2/(t-2), but the player-1 companion blows up.
    ex5_2  dX = u1 dt + u2 dW, payoff x(1)^2 + int t^2 u1^2 - u2^2;
           player-2 margin hits zero at the terminal time.
    """
    if name == "ex3_2":
        return _scalar_problem(B1=lambda t: np.sqrt(t), D2=lambda t: t,
                               G=1.0, R12=lambda t: t,
                               R22=lambda t: -t * t)
    if name == "ex3_4":
        return _scalar_problem(B1=1.0, D2=1.0, G=-1.0, R11=1.0, R22=-1.0)
    if name == "ex4_5":
        return _scalar_problem(B1=1.0, B2=1.0, G=-2.0, R11=1.0, R22=-2.0 / 3.0)
    if name == "ex5_2":
        return _scalar_problem(B1=1.0, D2=1.0, G=1.0,
                               R11=lambda t: t * t, R22=-1.0)
    raise DomainError(f"unknown example {name!r}; choose from {EXAMPLE_NAMES}")


def random_problem(rng: np.random.Generator,
                   deterministic: bool = False) -> GameProblem:
    """Draw one random constant-coefficient game on [0, 1].

    Dimensions n <= 4, m1, m2 <= 2; dynamics entries uniform on (-1, 1);
    G, Q, S small (times 0.01); R11 = I, R22 = -I, R12 = 0 so the instance
    is very likely certifiable.
    """
    n = int(rng.integers(1, 5))
    m1 = int(rng.integers(1, 3))
    m2 = int(rng.integers(1, 3))
    u = lambda r, c: rng.uniform(-1.0, 1.0, (r, c))
    z = lambda r, c: np.zeros((r, c))
    G = 0.01 * np.eye(n) * rng.uniform(-1.0, 1.0)
    Qm = u(n, n)
    dyn = StateDynamics(
        A=_const(u(n, n)), B1=_const(u(n, m1)), B2=_const(u(n, m2)),
        C=_const(z(n, n) if deterministic else u(n, n)),
        D1=_const(z(n, m1) if deterministic else u(n, m1)),
        D2=_const(z(n, m2) if deterministic else u(n, m2)))
    cost = CostWeights(
        G=G, Q=_const(0.01 * (Qm + Qm.T)),
        S1=_const(0.01 * u(m1, n)), S2=_const(0.01 * u(m2, n)),
        R11=_const(np.eye(m1)), R12=_const(z(m1, m2)), R21=_const(z(m2, m1)),
        R22=_const(-np.eye(m2)))
    return GameProblem(dynamics=dyn, cost=cost, horizon_T=1.0)


def random_certified_problem(seed: int,
                             deterministic: bool = False) -> GameProblem:
    """Draw random instances until one passes the convexity certificate on
    a 200-step grid; DomainError after 20 draws."""
    config = SolverConfig(n_steps=200)
    rng = np.random.default_rng(seed)
    for _ in range(20):
        problem = random_problem(rng, deterministic=deterministic)
        if certify_A3(problem, config).certified:
            return problem
    raise DomainError("no certified instance found in 20 draws")
