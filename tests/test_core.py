import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lqgame import (
    CoefficientPath, ContractViolation, CostWeights, DomainError, GameProblem,
    SingularBlockError, StateDynamics, TimeGrid, assemble_blocks,
    block_inverse, check_symmetric, coefficients, eval_coeff, sym,
    sym_eig_extremes,
)
from lqgame.core import assemble, interpolate
from conftest import scalar_game


def finite_matrices(rows, cols, elements=st.floats(-5, 5)):
    return arrays(np.float64, (rows, cols), elements=elements)


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


class TestCoefficientPath:
    def test_constant_evaluates_everywhere(self):
        p = CoefficientPath.constant([[1.0, 2.0]])
        assert np.array_equal(eval_coeff(p, 0.3), [[1.0, 2.0]])

    def test_sampled_exact_at_nodes(self):
        stack = np.arange(5, dtype=float).reshape(5, 1, 1)
        p = CoefficientPath.sampled(stack, 1.0)
        for k, t in enumerate(np.linspace(0, 1, 5)):
            assert eval_coeff(p, t)[0, 0] == stack[k, 0, 0]

    def test_sampled_linear_between_nodes(self):
        stack = np.array([0.0, 2.0]).reshape(2, 1, 1)
        p = CoefficientPath.sampled(stack, 1.0)
        assert eval_coeff(p, 0.25)[0, 0] == pytest.approx(0.5)

    @given(t=st.floats(0.0, 1.0), a=st.floats(-3, 3), b=st.floats(-3, 3))
    def test_interpolation_stays_between_samples(self, t, a, b):
        p = CoefficientPath.sampled(np.array([a, b]).reshape(2, 1, 1), 1.0)
        v = eval_coeff(p, t)[0, 0]
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
        p = CoefficientPath.sampled(np.zeros((2, 1, 1)), 1.0)
        with pytest.raises(DomainError):
            eval_coeff(p, 1.5)

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


class TestEigExtremes:
    def test_scalar_shortcut(self):
        assert sym_eig_extremes(np.array([[-3.0]])) == (-3.0, -3.0)

    def test_diagonal(self):
        lo, hi = sym_eig_extremes(np.diag([2.0, -1.0, 5.0]))
        assert (lo, hi) == (-1.0, 5.0)

    @given(M=finite_matrices(3, 3))
    @settings(max_examples=50)
    def test_extremes_bound_rayleigh_quotient(self, M):
        S = sym(M)
        lo, hi = sym_eig_extremes(S)
        v = np.ones(3) / np.sqrt(3)
        q = v @ S @ v
        assert lo - 1e-9 <= q <= hi + 1e-9

    @pytest.mark.parametrize("dim", [1, 3])
    def test_stack_equals_each_matrix(self, dim):
        stack = sym(np.random.default_rng(dim).normal(size=(5, dim, dim)))
        lo, hi = sym_eig_extremes(stack)
        assert lo.shape == hi.shape == (5,)
        for j, M in enumerate(stack):
            assert (lo[j], hi[j]) == sym_eig_extremes(M)


class TestBlockInverse:
    @given(M=finite_matrices(2, 2), L=finite_matrices(2, 2),
           N=finite_matrices(2, 2))
    @settings(max_examples=80)
    def test_multiplies_back_to_identity(self, M, L, N):
        # entries in [-5, 5] keep the eigenvalues of sym(.) in [-10, 10],
        # so M > 0 and N < 0 (hence the Schur complement < 0) for every draw
        M = sym(M) + 11.0 * np.eye(2)
        N = sym(N) - 11.0 * np.eye(2)
        full = np.block([[M, L], [L.T, N]])
        inv = block_inverse(M, L, N)
        assert np.abs(full @ inv - np.eye(4)).max() < 1e-10

    def test_singular_leading_block_named(self):
        with pytest.raises(SingularBlockError) as exc:
            block_inverse(np.zeros((1, 1)), np.zeros((1, 1)), -np.eye(1))
        assert exc.value.block == "M"

    def test_singular_schur_complement_named(self):
        # N = L' M^-1 L makes the Schur complement exactly zero
        M = np.eye(2)
        L = np.eye(2)
        with pytest.raises(SingularBlockError) as exc:
            block_inverse(M, L, L.T @ L)
        assert exc.value.block == "Phi"

    @given(seed=st.integers(0, 2 ** 32 - 1), size=st.integers(1, 6),
           m=st.integers(1, 3), k=st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_stack_equals_each_matrix(self, seed, size, m, k):
        rng = np.random.default_rng(seed)
        M = sym(rng.normal(size=(size, m, m))) + 3 * m * np.eye(m)
        L = rng.normal(size=(size, m, k))
        N = sym(rng.normal(size=(size, k, k))) - 3 * k * np.eye(k)
        stacked = block_inverse(M, L, N)
        for j in range(size):
            assert bits(stacked[j]) == bits(block_inverse(M[j], L[j], N[j]))

    @staticmethod
    def saddle_stack(size=5):
        M = np.stack([np.eye(2)] * size)
        L = np.stack([np.eye(2)] * size)
        N = np.stack([-np.eye(2)] * size)
        return M, L, N

    def test_singular_M_in_stack_named(self):
        M, L, N = self.saddle_stack()
        M[3] = 0.0
        with pytest.raises(SingularBlockError) as exc:
            block_inverse(M, L, N)
        assert exc.value.block == "M"

    def test_singular_schur_complement_in_stack_named(self):
        M, L, N = self.saddle_stack()
        N[2] = np.eye(2)        # Phi = N - L' M^-1 L = 0
        with pytest.raises(SingularBlockError) as exc:
            block_inverse(M, L, N)
        assert exc.value.block == "Phi"

    def test_first_failing_matrix_of_stack_wins(self):
        # matrix 1 has a singular Schur complement, matrix 3 a singular M
        M, L, N = self.saddle_stack()
        N[1] = np.eye(2)
        M[3] = 0.0
        with pytest.raises(SingularBlockError) as exc:
            block_inverse(M, L, N)
        assert exc.value.block == "Phi"
        N[1] = -np.eye(2)
        N[4] = np.eye(2)
        with pytest.raises(SingularBlockError) as exc:
            block_inverse(M, L, N)
        assert exc.value.block == "M"

    def test_indefinite_saddle_block(self):
        # definite M > 0 and N < 0 always invert (Schur complement < 0)
        rng = np.random.default_rng(3)
        for _ in range(20):
            L = rng.normal(size=(2, 2))
            inv = block_inverse(np.eye(2), L, -np.eye(2) - L.T @ L)
            full = np.block([[np.eye(2), L], [L.T, -np.eye(2) - L.T @ L]])
            assert np.abs(full @ inv - np.eye(4)).max() < 1e-10


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
                assert bits(eval_coeff(path, t)) == bits(ev[name])
        if any(samples):
            for t in (-0.01 * T, 1.01 * T):
                with pytest.raises(DomainError):
                    coefficients(p, [0.5 * T, t])


class TestAssembleBlocks:
    def test_margins_without_noise_are_R_blocks(self, ex4_5):
        R_P, S_P, (m1, m2) = assemble_blocks(ex4_5, np.array([[7.0]]), 0.2)
        assert m1 == pytest.approx(1.0)
        assert m2 == pytest.approx(-2.0 / 3.0)
        # no D, so R_P is untouched by P while S_P = B'P
        assert np.allclose(R_P, np.diag([1.0, -2.0 / 3.0]))
        assert np.allclose(S_P, [[7.0], [7.0]])

    def test_diffusion_shifts_margins(self):
        p = scalar_game(D1=1.0, D2=1.0, R11=1.0, R22=-1.0)
        _, _, (m1, m2) = assemble_blocks(p, np.array([[0.5]]), 0.0)
        assert m1 == pytest.approx(1.5)
        assert m2 == pytest.approx(-0.5)

    def test_stack_equals_rows(self):
        p = mixed_game(5, (3, 2, 1), [0, 3, 0, 2, 0, 7, 0, 0, 3, 0, 2, 0], 1.0)
        times = np.linspace(0.0, 1.0, 9)
        rng = np.random.default_rng(0)
        P = sym(rng.normal(size=(len(times), 3, 3)))
        table = coefficients(p, times)
        R_P, S_P, (margin1, margin2) = assemble(table, P, 2)
        for j in range(len(times)):
            r, s, (a, b) = assemble(table.row(j), P[j], 2)
            assert bits(R_P[j]) == bits(r) and bits(S_P[j]) == bits(s)
            assert (margin1[j], margin2[j]) == (a, b)

    def test_asymmetric_P_rejected(self, ex4_5):
        with pytest.raises(ContractViolation):
            assemble_blocks(ex4_5, np.array([[0.0, 1.0], [0.0, 0.0]]), 0.0)
