import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqgame import (
    CoefficientPath, ContractViolation, CostWeights, DomainError, GameProblem,
    StateDynamics, TimeGrid, check_symmetric, coefficients, sym,
)
from lqgame.core import (
    _assemble, _assembly_rows, _eig_extremes, _solve, interpolate,
)
from conftest import control_blocks, random_game, scalar_game, table_row


class TestTimeGrid:
    def test_nodes_and_dt(self):
        g = TimeGrid(2.0, 4)
        assert g.dt == 0.5
        assert np.allclose(g.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_rejects_tiny_grid(self):
        with pytest.raises(ContractViolation):
            TimeGrid(1.0, 1)

    def test_rejects_negative_horizon(self):
        with pytest.raises(ContractViolation):
            TimeGrid(-1.0, 10)

    def test_negative_zero_horizon_stored_as_zero(self):
        # -0.0 passes 0 <= T, but NumPy refuses a draw of scale -0.0
        for T in (-0.0, np.float64(-0.0)):
            for horizon in (TimeGrid(T, 10).horizon_T,
                            scalar_game(T=T).horizon_T):
                assert horizon == 0.0 and np.copysign(1.0, horizon) == 1.0


def drift_game(A: CoefficientPath) -> GameProblem:
    """A game on [0, 1] whose drift A is the given 1x1 path."""
    p = scalar_game()
    return GameProblem(dynamics=dataclasses.replace(p.dynamics, A=A),
                       cost=p.cost, horizon_T=1.0)


class TestCoefficientPath:
    def test_constant_evaluates_everywhere(self):
        p = drift_game(CoefficientPath.constant([[1.5]]))
        assert np.array_equal(coefficients(p, [0.0, 0.3, 1.0]).A,
                              [[[1.5]]] * 3)

    def test_sampled_exact_at_nodes(self):
        stack = np.arange(5, dtype=float).reshape(5, 1, 1)
        p = drift_game(CoefficientPath.sampled(stack, 1.0))
        A = coefficients(p, np.linspace(0, 1, 5)).A
        assert A.tobytes() == stack.tobytes()

    def test_sampled_linear_between_nodes(self):
        stack = np.array([0.0, 2.0]).reshape(2, 1, 1)
        p = drift_game(CoefficientPath.sampled(stack, 1.0))
        assert coefficients(p, 0.25).A[0, 0, 0] == pytest.approx(0.5)

    @given(t=st.floats(0.0, 1.0), a=st.floats(-3, 3), b=st.floats(-3, 3))
    def test_interpolation_stays_between_samples(self, t, a, b):
        p = drift_game(CoefficientPath.sampled(
            np.array([a, b]).reshape(2, 1, 1), 1.0))
        v = coefficients(p, t).A[0, 0, 0]
        assert min(a, b) - 1e-12 <= v <= max(a, b) + 1e-12

    # spans reach down to 1e-290: below that span/k can be subnormal, and
    # np.linspace itself no longer places the nodes to double precision
    @given(span=st.floats(1e-290, 10.0), k=st.integers(1, 3000),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_interpolate_returns_node_values_at_linspace_nodes(self, span, k,
                                                               seed):
        v = np.random.default_rng(seed).uniform(-1.0, 1.0, (k + 1, 1, 2))
        got = interpolate(v, span, np.linspace(0.0, span, k + 1))
        assert got.tobytes() == v.tobytes()

    def test_outside_span_is_domain_error(self):
        p = drift_game(CoefficientPath.sampled(np.zeros((2, 1, 1)), 1.0))
        with pytest.raises(DomainError):
            coefficients(p, 1.5)

    def test_values_are_frozen(self):
        p = CoefficientPath.constant([[1.0]])
        with pytest.raises(ValueError):
            p.values[0, 0] = 2.0


class TestValidation:
    def test_check_symmetric_accepts_symmetric(self):
        check_symmetric(np.eye(3), "I")

    def test_check_symmetric_rejects(self):
        with pytest.raises(ContractViolation):
            check_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]), "M")

    def test_check_symmetric_scales_each_matrix_of_a_stack(self):
        # a defect of 1e-8 is within tolerance next to entries of 1e6, but
        # not in a matrix of its own whose entries are of order one
        big = np.diag([1e6, 1e6])
        small = np.array([[1.0, 1e-8], [0.0, 1.0]])
        check_symmetric(big + small, "M")
        with pytest.raises(ContractViolation):
            check_symmetric(np.stack([big, small]), "M")

    def test_cost_weights_reject_asymmetric_G(self):
        with pytest.raises(ContractViolation):
            CostWeights(G=np.array([[0.0, 1.0], [0.0, 0.0]]),
                        Q=CoefficientPath.constant(np.zeros((2, 2))),
                        S1=CoefficientPath.constant(np.zeros((1, 2))),
                        S2=CoefficientPath.constant(np.zeros((1, 2))),
                        R11=CoefficientPath.constant([[1.0]]),
                        R12=CoefficientPath.constant([[0.0]]),
                        R21=CoefficientPath.constant([[0.0]]),
                        R22=CoefficientPath.constant([[-1.0]]))

    def test_cost_weights_reject_R21_mismatch(self):
        with pytest.raises(ContractViolation, match="R21"):
            CostWeights(G=np.zeros((1, 1)),
                        Q=CoefficientPath.constant([[0.0]]),
                        S1=CoefficientPath.constant([[0.0]]),
                        S2=CoefficientPath.constant([[0.0]]),
                        R11=CoefficientPath.constant([[1.0]]),
                        R12=CoefficientPath.constant([[0.5]]),
                        R21=CoefficientPath.constant([[0.4]]),
                        R22=CoefficientPath.constant([[-1.0]]))

    def test_dynamics_shape_mismatch(self):
        c = CoefficientPath.constant
        with pytest.raises(ContractViolation, match="dynamics.C"):
            StateDynamics(A=c(np.zeros((2, 2))), B1=c(np.zeros((2, 1))),
                          B2=c(np.zeros((2, 1))), C=c(np.zeros((1, 1))),
                          D1=c(np.zeros((2, 1))), D2=c(np.zeros((2, 1))))


NON_FINITE = [np.nan, np.inf, -np.inf]


class TestNonFiniteInput:
    """Non-finite input is refused when it is built, and the error names
    the field."""

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_coefficient_values(self, bad):
        with pytest.raises(ContractViolation, match="values must be finite"):
            CoefficientPath.constant([[0.0, bad]])
        with pytest.raises(ContractViolation, match="values must be finite"):
            CoefficientPath.sampled(np.array([0.0, bad]).reshape(2, 1, 1), 1.0)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_sampled_span(self, bad):
        with pytest.raises(ContractViolation, match="span"):
            CoefficientPath.sampled(np.zeros((2, 1, 1)), bad)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_cost_G(self, bad):
        with pytest.raises(ContractViolation, match="G must be finite"):
            scalar_game(G=bad)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_problem_horizon(self, bad):
        with pytest.raises(ContractViolation, match="horizon_T"):
            scalar_game(T=bad)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_grid_horizon(self, bad):
        with pytest.raises(ContractViolation, match="horizon_T"):
            TimeGrid(bad, 10)


def lapack_operands(seed, lead, m, cols, view):
    """A stack (leading axes lead) of symmetric m x m matrices and one of
    m x cols right-hand sides.  With view, both are strided blocks of larger
    stacks, as R_P[sl, :m1, :m1] and S_P[sl, :m1] are in the Riccati pass."""
    rng = np.random.default_rng(seed)
    if not view:
        return (sym(rng.normal(size=lead + (m, m))),
                rng.normal(size=lead + (m, cols)))
    # one member more on the first leading axis, 1 or 2 more rows and
    # columns, all sliced away
    pad = int(rng.integers(1, 3))
    big = tuple(d + (j == 0) for j, d in enumerate(lead))
    sl = (slice(1, None),) if lead else ()
    rows = slice(pad // 2, pad // 2 + m)
    a = sym(rng.normal(size=big + (m + pad, m + pad)))
    b = rng.normal(size=big + (m + pad, cols + pad))
    return a[sl + (..., rows, rows)], b[sl + (..., rows, slice(cols))]


class TestLapackHelpers:
    """The direct gufunc calls return np.linalg's bits."""

    @given(seed=st.integers(0, 2 ** 32 - 1),
           lead=st.sampled_from([(), (1,), (3,), (2, 3)]),
           m=st.integers(1, 5), cols=st.integers(1, 5), view=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_equal_to_wrappers(self, seed, lead, m, cols, view):
        a, b = lapack_operands(seed, lead, m, cols, view)
        assert a.shape == lead + (m, m) and b.shape == lead + (m, cols)
        assert bits(_solve(a, b)) == bits(np.linalg.solve(a, b))
        w = np.linalg.eigvalsh(a)
        lo, hi = _eig_extremes(a)
        assert (bits(lo), bits(hi)) == (bits(w[..., 0]), bits(w[..., -1]))


def eval_reference(path: CoefficientPath, t: float) -> np.ndarray:
    """One coefficient at one time, by the scalar formula the table must
    reproduce bit for bit."""
    if path.kind == "constant":
        return path.values
    k = path.values.shape[0] - 1
    s = np.clip(t / path.span, 0.0, 1.0) * k
    if abs(s - round(s)) <= 16 * np.finfo(float).eps * k:
        s = float(round(s))
    i = min(int(np.floor(s)), k - 1)
    w = s - i
    if w == 0.0:
        return path.values[i]
    return (1.0 - w) * path.values[i] + w * path.values[i + 1]


SHAPES = {"A": "nn", "B1": "na", "B2": "nb", "C": "nn", "D1": "na",
          "D2": "nb", "Q": "nn", "S1": "an", "S2": "bn", "R11": "aa",
          "R12": "ab", "R22": "bb"}


def mixed_game(seed: int, dims: tuple[int, int, int], samples: list[int],
               T: float) -> GameProblem:
    """A random game whose i-th path in SHAPES is constant when
    samples[i] == 0 and sampled on samples[i] uniform nodes otherwise."""
    rng = np.random.default_rng(seed)
    size = dict(zip("nab", dims))
    paths = {}
    for (name, shape), k in zip(SHAPES.items(), samples):
        stack = (k,) if k else ()
        v = rng.uniform(-2.0, 2.0, stack + tuple(size[c] for c in shape))
        if name in ("Q", "R11", "R22"):
            v = 0.5 * (v + np.swapaxes(v, -1, -2))
        paths[name] = CoefficientPath.sampled(v, T) if k else CoefficientPath.constant(v)
    R12 = paths["R12"]
    paths["R21"] = CoefficientPath(R12.kind, np.swapaxes(R12.values, -1, -2), R12.span)
    dyn = StateDynamics(**{k: paths[k] for k in ("A", "B1", "B2", "C", "D1", "D2")})
    cost = CostWeights(G=np.eye(dims[0]), **{
        k: paths[k] for k in ("Q", "S1", "S2", "R11", "R12", "R21", "R22")})
    return GameProblem(dynamics=dyn, cost=cost, horizon_T=T)


def bits(a) -> tuple:
    a = np.asarray(a)
    return a.shape, a.tobytes()


class TestCoefficientTable:
    def test_ex4_5_blocks(self, ex4_5):
        table = coefficients(ex4_5, [0.5])
        assert np.array_equal(table.B[0], [[1.0, 1.0]])
        assert np.array_equal(table.D[0], [[0.0, 0.0]])
        assert np.allclose(table.R[0], np.diag([1.0, -2.0 / 3.0]))

    @given(seed=st.integers(0, 2 ** 32 - 1),
           dims=st.tuples(*[st.integers(1, 3)] * 3),
           samples=st.lists(st.sampled_from([0, 2, 3, 7]), min_size=12,
                            max_size=12),
           T=st.sampled_from([0.3, 1.0, 2.5]),
           extra=st.lists(st.floats(0.0, 1.0), max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_rows_equal_per_time_evaluation(self, seed, dims, samples, T, extra):
        p = mixed_game(seed, dims, samples, T)
        times = [0.0, T] + [e * T for e in extra]
        for k in {2, 3, 7} & set(samples):
            nodes = np.linspace(0.0, T, k)
            times += list(nodes) + list(0.5 * (nodes[:-1] + nodes[1:]))
        table = coefficients(p, times)
        paths = {name: path for holder in (p.dynamics, p.cost)
                 for name, path in vars(holder).items()
                 if isinstance(path, CoefficientPath)}
        for j, t in enumerate(times):
            ev = {name: eval_reference(path, t) for name, path in paths.items()}
            expected = {
                "A": ev["A"], "C": ev["C"], "Q": ev["Q"],
                "B": np.hstack([ev["B1"], ev["B2"]]),
                "D": np.hstack([ev["D1"], ev["D2"]]),
                "S": np.vstack([ev["S1"], ev["S2"]]),
                "R": np.block([[ev["R11"], ev["R12"]], [ev["R21"], ev["R22"]]]),
            }
            for name, want in expected.items():
                row = getattr(table, name)[j]
                assert bits(row) == bits(want), (name, t)
                assert row.flags.c_contiguous, name
            for name, path in paths.items():
                own = (path.values if path.kind == "constant"
                       else interpolate(path.values, path.span, t)[0])
                assert bits(own) == bits(ev[name])
        if any(samples):
            for t in (-0.01 * T, 1.01 * T):
                with pytest.raises(DomainError):
                    coefficients(p, [0.5 * T, t])


def assemble_at(problem: GameProblem, P, t: float):
    """R_P, S_P and the margins of one P at one time."""
    return control_blocks(table_row(coefficients(problem, t), 0),
                          np.atleast_2d(P), problem.m1)


class TestAssembleBlocks:
    def test_margins_without_noise_are_R_blocks(self, ex4_5):
        R_P, S_P, (m1, m2) = assemble_at(ex4_5, [[7.0]], 0.2)
        assert m1 == pytest.approx(1.0)
        assert m2 == pytest.approx(-2.0 / 3.0)
        # no D, so R_P is untouched by P while S_P = B'P
        assert np.allclose(R_P, np.diag([1.0, -2.0 / 3.0]))
        assert np.allclose(S_P, [[7.0], [7.0]])

    def test_diffusion_shifts_margins(self):
        p = scalar_game(D1=1.0, D2=1.0, R11=1.0, R22=-1.0)
        _, _, (m1, m2) = assemble_at(p, [[0.5]], 0.0)
        assert m1 == pytest.approx(1.5)
        assert m2 == pytest.approx(-0.5)

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 12),
           m1=st.integers(1, 3), m2=st.integers(1, 3),
           times=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_assembly_is_the_riccati_field(self, seed, n, m1, m2, times):
        # random_game draws constant or sampled paths, at several scales
        problem = random_game(seed, dims=(n, m1, m2))
        table = coefficients(problem, times)
        rng = np.random.default_rng(seed)
        P = sym(rng.normal(scale=rng.choice([0.1, 1.0, 10.0]),
                           size=(len(times), n, n)))
        big, _ = _assemble(_assembly_rows(table), P, m1)
        assert bits(big) == bits(big.mT.copy())
        A, B, C, D, Q, S, R = table
        aP = np.abs(P)
        aA, aB, aC, aD = np.abs(A), np.abs(B), np.abs(C), np.abs(D)
        # a computed product of inner dimension k is within gamma_k times
        # the product of absolute values, gamma_k = k u / (1 - k u), u =
        # eps / 2 (Higham, Accuracy and Stability, 2nd ed., section 3.5).
        # Big takes P K (k = n), V (P K) (2n), + H and X + X': 3n + 2 deep;
        # the plain formula C'P C (2n) and three sums, 2n + 3.  The two
        # differ by gamma_{5n+5} at most, below (5n + 5) eps, times the
        # bound below
        tol = (5 * n + 5) * np.finfo(float).eps
        for got, want, bound in (
                (big[:, :n, :n], P @ A + A.mT @ P + C.mT @ P @ C + Q,
                 aP @ aA + aA.mT @ aP + aC.mT @ aP @ aC + np.abs(Q)),
                (big[:, n:, :n], B.mT @ P + D.mT @ P @ C + S,
                 aB.mT @ aP + aD.mT @ aP @ aC + np.abs(S)),
                (big[:, n:, n:], R + D.mT @ P @ D,
                 np.abs(R) + aD.mT @ aP @ aD)):
            assert np.all(np.abs(got - want) <= tol * bound)
