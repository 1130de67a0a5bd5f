"""Seeded problem generator of the benchmark.

Built only on the public constructors of ``lqgame`` (``CoefficientPath``,
``StateDynamics``, ``CostWeights``, ``GameProblem``) and
``lqgame.cli.save_problem``, so that edits to ``lqgame.fixtures`` cannot
change a workload.  Every function takes a ``numpy.random.Generator``; the
same generator state gives the same problem.
"""

from __future__ import annotations

import numpy as np

from lqgame import CoefficientPath, CostWeights, GameProblem, StateDynamics

N_SAMPLES = 11          # sample nodes of a time-varying coefficient on [0, T]
HORIZON = 1.0


def _const(M) -> CoefficientPath:
    return CoefficientPath.constant(np.atleast_2d(np.asarray(M, float)))


def _sampled(stack) -> CoefficientPath:
    return CoefficientPath.sampled(np.asarray(stack, float), HORIZON)


def _sym(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + np.swapaxes(M, -1, -2))


def _orthogonal(rng: np.random.Generator, k: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(k, k)))
    return q * np.sign(np.diag(r))


def random_game(rng: np.random.Generator, n: int, m1: int, m2: int, *,
                noise: bool = True, sampled: bool = False) -> GameProblem:
    """A game on [0, 1] built for the convexity certificate to accept it
    (the riccati_sweep workload checks that it does).

    Entries are uniform on (-1, 1) times a scale with a factor 1/sqrt(n)
    (and 1/sqrt(m) for control columns), so operator norms stay put as the
    dimensions grow.  The scales keep P small on [0, 1]: the drift and
    player 2's input, whose term P B2 B2' P makes P grow backward, are
    damped, and so is the diffusion, so D'PD stays far from the control
    weights R11 = I, R22 = -I.  G, Q and S are small.  With ``sampled``
    every coefficient except R12 = R21 = 0 varies in time: it is sampled on
    N_SAMPLES uniform nodes, each node a draw around a common base.
    """
    s = 1.0 / np.sqrt(n)
    k = N_SAMPLES if sampled else None

    def draw(rows, cols, scale):
        base = rng.uniform(-1.0, 1.0, (rows, cols)) * scale
        if k is None:
            return _const(base)
        wiggle = rng.uniform(-0.3, 0.3, (k, rows, cols)) * scale
        return _sampled(base + wiggle)

    def zero(rows, cols):
        return _const(np.zeros((rows, cols)))

    def weight(rows, sign):
        eye = sign * np.eye(rows)
        if k is None:
            return _const(eye)
        ramp = 1.0 + 0.25 * rng.uniform(0.0, 1.0, (k, 1, 1))
        return _sampled(ramp * eye)

    def sym_draw(scale):
        base = _sym(rng.uniform(-1.0, 1.0, (n, n))) * scale
        if k is None:
            return _const(base)
        return _sampled(base + _sym(rng.uniform(-0.3, 0.3, (k, n, n))) * scale)

    r1, r2 = 1.0 / np.sqrt(m1), 1.0 / np.sqrt(m2)
    dyn = StateDynamics(
        A=draw(n, n, 0.5 * s), B1=draw(n, m1, s * r1),
        B2=draw(n, m2, 0.5 * s * r2),
        C=draw(n, n, 0.3 * s) if noise else zero(n, n),
        D1=draw(n, m1, 0.2 * s * r1) if noise else zero(n, m1),
        D2=draw(n, m2, 0.2 * s * r2) if noise else zero(n, m2))
    cost = CostWeights(
        G=_sym(rng.uniform(-1.0, 1.0, (n, n))) * 0.2 * s,
        Q=sym_draw(0.2 * s), S1=draw(m1, n, 0.1 * s), S2=draw(m2, n, 0.1 * s),
        R11=weight(m1, 1.0), R12=zero(m1, m2), R21=zero(m2, m1),
        R22=weight(m2, -1.0))
    return GameProblem(dynamics=dyn, cost=cost, horizon_T=HORIZON)


def ex4_5_type(rng: np.random.Generator, k: int) -> GameProblem:
    """k decoupled copies of the paper's ex4_5 counterexample, mixed by
    random orthogonal control matrices B1 = V1, B2 = V2.

    B R^-1 B' = V1 V1' - (3/2) V2 V2' = -I/2 for any orthogonal V1, V2, so
    the game Riccati solution is P(t) = 2/(t - 2) I exactly, while the
    player-1 companion P1(t) = -I/(t - 1/2) blows up at t = 1/2.
    """
    dyn = StateDynamics(
        A=_const(np.zeros((k, k))), B1=_const(_orthogonal(rng, k)),
        B2=_const(_orthogonal(rng, k)), C=_const(np.zeros((k, k))),
        D1=_const(np.zeros((k, k))), D2=_const(np.zeros((k, k))))
    cost = CostWeights(
        G=-2.0 * np.eye(k), Q=_const(np.zeros((k, k))),
        S1=_const(np.zeros((k, k))), S2=_const(np.zeros((k, k))),
        R11=_const(np.eye(k)), R12=_const(np.zeros((k, k))),
        R21=_const(np.zeros((k, k))), R22=_const(-2.0 / 3.0 * np.eye(k)))
    return GameProblem(dynamics=dyn, cost=cost, horizon_T=HORIZON)


def _scalar_sampled(values) -> CoefficientPath:
    return _sampled(np.asarray(values, float).reshape(-1, 1, 1))


def perturbed_ex5_2(rng: np.random.Generator) -> GameProblem:
    """ex5_2 (dX = u1 dt + u2 dW, payoff x(1)^2 + int t^2 u1^2 - u2^2) with
    the time-varying R11 = t^2 scaled by a factor within 10 % and the
    terminal weight raised to G = 1.05.  The player-2 margin at T is then
    0.05 - lambda, so every regularized level lambda <= 0.05 fails at T and
    every larger one solves: the same failure pattern for every seed."""
    ts = np.linspace(0.0, HORIZON, 101)
    r11 = ts * ts * (1.0 + 0.1 * rng.uniform(-1.0, 1.0))
    zero = _const(0.0)
    dyn = StateDynamics(A=zero, B1=_const(1.0), B2=zero, C=zero, D1=zero,
                        D2=_const(1.0))
    cost = CostWeights(
        G=np.atleast_2d(1.05), Q=zero, S1=zero, S2=zero,
        R11=_scalar_sampled(r11), R12=zero, R21=zero, R22=_const(-1.0))
    return GameProblem(dynamics=dyn, cost=cost, horizon_T=HORIZON)


def perturbed_ex3_2(rng: np.random.Generator) -> GameProblem:
    """ex3_2 (dX = sqrt(t) u1 dt + t u2 dW, payoff x(1)^2 +
    int 2 t u1 u2 - t^2 u2^2) with B1 and R12 scaled by independent factors
    within 10 %.  R11 = 0, so only regularized levels can be solved; D2 and
    R22 keep the paper's values, which keeps every level solvable."""
    ts = np.linspace(0.0, HORIZON, 101)
    f = 1.0 + 0.1 * rng.uniform(-1.0, 1.0, 2)
    zero = _const(0.0)
    r12 = _scalar_sampled(f[1] * ts)
    dyn = StateDynamics(A=zero, B1=_scalar_sampled(f[0] * np.sqrt(ts)),
                        B2=zero, C=zero, D1=zero, D2=_scalar_sampled(ts))
    cost = CostWeights(
        G=np.atleast_2d(1.0), Q=zero, S1=zero, S2=zero, R11=zero, R12=r12,
        R21=r12, R22=_scalar_sampled(-ts * ts))
    return GameProblem(dynamics=dyn, cost=cost, horizon_T=HORIZON)
