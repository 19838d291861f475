"""Operator catalog: pinned matrices, the 16-member table, family recursion."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from oracles import block_sigma_construct, dense_independence_rank
from tmes.operators import (
    OperatorSet,
    PlacementReport,
    cnot,
    family_bytes,
    find_realizing_application,
    gamma,
    gamma_set,
    independence_rank,
    named_operator,
    operator_family,
    pauli_set,
    pauli_string,
    sigma,
    sigma_construct,
    u_chi,
    u_w2,
    u_y,
    u_z,
)
from tmes.statevec import MAX_DENSE_BYTES, MAX_QUBITS, LocalOperator
from tmes.states import basis_state, bell_product, cluster4

S = [
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]
Z2 = np.zeros((2, 2), dtype=complex)


class TestSingleQubit:
    def test_pauli_literals(self):
        for k in range(4):
            assert np.array_equal(sigma(k).matrix, S[k])

    def test_pauli_index_bounds(self):
        for bad in (-1, 4):
            with pytest.raises(ValueError):
                sigma(bad)

    def test_pauli_algebra(self):
        assert np.allclose(S[1] @ S[2], 1j * S[3], atol=1e-15)
        for k in range(4):
            assert np.allclose(S[k] @ S[k], S[0], atol=1e-15)


class TestTwoQubitGates:
    def test_cnot_first_target_is_control(self):
        want = np.block([[S[0], Z2], [Z2, S[1]]])
        assert np.array_equal(cnot().matrix, want)

    def test_controlled_pauli_gates(self):
        assert np.array_equal(u_y().matrix, np.block([[S[0], Z2], [Z2, S[2]]]))
        assert np.array_equal(u_z().matrix, np.block([[S[0], Z2], [Z2, S[3]]]))

    def test_u_chi_matrix(self):
        r = 1.0 / math.sqrt(2.0)
        want = r * np.array(
            [
                [1, 0, 0, 1],
                [0, -1, 1, 0],
                [0, 1, 1, 0],
                [-1, 0, 0, 1],
            ],
            dtype=complex,
        )
        assert np.allclose(u_chi().matrix, want, atol=1e-15)
        assert u_chi().is_unitary()

    def test_u_w2_matrix(self):
        r = 1.0 / math.sqrt(2.0)
        want = np.array(
            [
                [0, r, r, 0],
                [0, 0, 0, 1],
                [1, 0, 0, 0],
                [0, r, -r, 0],
            ],
            dtype=complex,
        )
        assert np.allclose(u_w2().matrix, want, atol=1e-15)
        assert u_w2().is_unitary()


# Independent transcription of the sixteen two-qubit table members: four
# diagonal with cyclically paired Paulis, four with the lower block negated,
# then the same eight moved to the antidiagonal.
def _expected_gamma_matrices() -> list[np.ndarray]:
    pairs = [(0, 1), (1, 2), (2, 3), (3, 0)]
    mats = []
    for a, b in pairs:
        mats.append(np.block([[S[a], Z2], [Z2, S[b]]]))
    for a, b in pairs:
        mats.append(np.block([[S[a], Z2], [Z2, -S[b]]]))
    for a, b in pairs:
        mats.append(np.block([[Z2, S[a]], [S[b], Z2]]))
    for a, b in pairs:
        mats.append(np.block([[Z2, S[a]], [-S[b], Z2]]))
    return mats


class TestGammaTable:
    def test_matches_independent_transcription(self):
        expected = _expected_gamma_matrices()
        for k in range(1, 17):
            assert np.allclose(gamma(k).matrix, expected[k - 1], atol=1e-12)

    def test_index_bounds(self):
        for bad in (0, 17, -3):
            with pytest.raises(ValueError):
                gamma(bad)

    def test_all_unitary(self):
        assert all(gamma(k).is_unitary(tol=1e-12) for k in range(1, 17))

    def test_pairwise_trace_orthogonal(self):
        mats = [gamma(k).matrix for k in range(1, 17)]
        for i in range(16):
            for j in range(16):
                hs_inner = np.trace(mats[i].conj().T @ mats[j])
                want = 4.0 if i == j else 0.0
                assert abs(hs_inner - want) < 1e-12

    def test_full_rank(self):
        assert independence_rank(gamma_set().members) == 16


class TestFamilies:
    def test_pauli_set_is_level_one(self):
        base = pauli_set()
        assert base.level == 1 and len(base.members) == 4
        assert independence_rank(base.members) == 4

    def test_operator_family_counts(self):
        for level in (1, 2, 3):
            fam = operator_family(level)
            assert fam.level == level
            assert len(fam.members) == 4**level
            assert all(m.arity == level for m in fam.members)
        with pytest.raises(ValueError):
            operator_family(0)

    def test_family_size_arithmetic(self):
        # 4^d members of 2^d x 2^d complex entries, 16 bytes each
        for level in range(1, 9):
            assert family_bytes(level) == 4**level * 4**level * 16
        assert MAX_DENSE_BYTES == 16 * 4**MAX_QUBITS == 256 * 2**20
        # a level-d family is as large as a 2d-qubit density matrix
        assert family_bytes(MAX_QUBITS // 2) == MAX_DENSE_BYTES
        assert family_bytes(7) == 4 * 2**30
        assert family_bytes(8) == 64 * 2**30

    @pytest.mark.parametrize("level", [7, 8, 10**18])
    def test_oversized_family_refused_before_allocating(self, level):
        # every level here is refused by the arithmetic alone
        assert level > MAX_QUBITS // 2
        with pytest.raises(ValueError, match="MiB cap"):
            operator_family(level)

    def test_level_two_family_is_the_gamma_table(self):
        fam = operator_family(2)
        for got, want in zip(fam.members, gamma_set().members):
            assert np.allclose(got.matrix, want.matrix, atol=1e-12)

    def test_recursion_block_structure(self):
        lifted = sigma_construct(pauli_set())
        # diagonal family pairs g_a with its cyclic successor
        assert np.allclose(
            lifted.members[0].matrix, np.block([[S[0], Z2], [Z2, S[1]]]), atol=1e-15
        )
        assert np.allclose(
            lifted.members[3].matrix, np.block([[S[3], Z2], [Z2, S[0]]]), atol=1e-15
        )
        # second family negates the lower block, third moves to the antidiagonal
        assert np.allclose(
            lifted.members[4].matrix, np.block([[S[0], Z2], [Z2, -S[1]]]), atol=1e-15
        )
        assert np.allclose(
            lifted.members[8].matrix, np.block([[Z2, S[0]], [S[1], Z2]]), atol=1e-15
        )

    def test_operator_set_validation(self):
        with pytest.raises(ValueError):
            OperatorSet(1, tuple(sigma(0) for _ in range(3)))
        with pytest.raises(ValueError):
            OperatorSet(2, tuple(sigma(0) for _ in range(16)))
        scaled = LocalOperator(1, 2.0 * S[0])
        with pytest.raises(ValueError):
            OperatorSet(1, (sigma(0), sigma(1), sigma(2), scaled))


def _block_family(level: int) -> list[np.ndarray]:
    mats = list(S)
    for _ in range(level - 1):
        mats = block_sigma_construct(mats)
    return mats


def _stack(members) -> np.ndarray:
    return np.stack([m.matrix for m in members])


class TestStackedLift:
    @pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
    def test_family_matches_block_recursion(self, level):
        got = _stack(operator_family(level).members)
        want = np.stack(_block_family(level))
        assert np.array_equal(got, want)
        # bit for bit, signed zeros included, as `tmes op gen` prints them
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("base", [gamma_set, lambda: operator_family(3)])
    def test_sigma_construct_matches_block_recursion(self, base):
        base = base()
        got = _stack(sigma_construct(base).members)
        want = np.stack(block_sigma_construct([m.matrix for m in base.members]))
        assert got.tobytes() == want.tobytes()

    def test_only_the_requested_level_is_validated(self, monkeypatch):
        # every member of the returned family is checked for unitarity, and
        # no member of an intermediate level is
        checked = []
        is_unitary = LocalOperator.is_unitary

        def spy(op, *args, **kwargs):
            checked.append(op.arity)
            return is_unitary(op, *args, **kwargs)

        monkeypatch.setattr(LocalOperator, "is_unitary", spy)
        operator_family(3)
        assert checked == [3] * 64


def _random_operator_list(seed: int, arity: int = 3) -> list[LocalOperator]:
    """Monomial and sparse operators with duplicates, scaled copies and sums,
    so that the rank falls below the count and the support splits.

    Every operator lives on one cyclic shift pattern (i, i + k mod 2^arity);
    distinct shifts share no entry, so the shifts are the support blocks.
    """
    rng = np.random.default_rng(seed)
    dim = 2**arity
    shifts = rng.choice(dim, 5, replace=False)
    groups: list[list[np.ndarray]] = [[] for _ in shifts]

    def on_shift(g: int, rows, values) -> np.ndarray:
        mat = np.zeros((dim, dim), dtype=complex)
        mat[rows, (rows + shifts[g]) % dim] = values
        return mat

    for g in range(3):
        for _ in range(rng.integers(2, 5)):
            values = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            groups[g].append(on_shift(g, np.arange(dim), values))
    for _ in range(4):
        g = rng.integers(len(shifts))
        rows = rng.choice(dim, 3, replace=False)
        groups[g].append(on_shift(g, rows, rng.normal(size=3)))
    for _ in range(3):
        group = groups[rng.integers(3)]
        i, j = rng.integers(len(group), size=2)
        group.append(group[i].copy())
        group.append((rng.normal() + 1j * rng.normal()) * group[j])
        group.append(group[i] + group[j])
    mats = [m for group in groups for m in group]
    return [LocalOperator(arity, mats[k]) for k in rng.permutation(len(mats))]


@pytest.fixture
def svd_shapes(monkeypatch) -> list[tuple[int, ...]]:
    """Shapes of the matrices handed to ``np.linalg.svd`` during the test."""
    shapes = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return shapes


def _pauli_pairs() -> list[LocalOperator]:
    return [pauli_string((a, b)) for a in range(4) for b in range(4)]


class TestIndependenceRank:
    def test_dependent_list(self):
        assert independence_rank([sigma(0), sigma(0), sigma(1)]) == 2

    def test_rejects_empty_and_mixed(self):
        with pytest.raises(ValueError):
            independence_rank([])
        with pytest.raises(ValueError):
            independence_rank([sigma(0), cnot()])

    def test_zero_member_adds_nothing(self):
        zero = LocalOperator(1, np.zeros((2, 2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert independence_rank([zero]) == 0
            assert independence_rank([sigma(0), zero]) == 1
            assert independence_rank([zero, sigma(1), zero, sigma(2)]) == 2
        assert dense_independence_rank([zero.matrix, S[0]]) == 1

    @pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
    def test_family_rank_matches_dense_oracle(self, level):
        fam = operator_family(level)
        got = independence_rank(fam.members)
        assert got == dense_independence_rank(_stack(fam.members)) == 4**level

    @pytest.mark.parametrize("ops", [gamma_set().members, _pauli_pairs()])
    def test_table_rank_matches_dense_oracle(self, ops):
        assert independence_rank(ops) == dense_independence_rank(_stack(ops)) == 16

    @pytest.mark.parametrize("seed", range(12))
    def test_random_lists_match_dense_oracle(self, seed, svd_shapes):
        ops = _random_operator_list(seed)
        got = independence_rank(ops)
        blocks = [rows for rows, _ in svd_shapes]
        assert got == dense_independence_rank(_stack(ops))
        assert got < len(ops)
        # the support split into blocks that together hold every row
        assert len(blocks) > 1 and sum(blocks) == len(ops)

    def test_level_four_rank_makes_two_half_size_svds(self, svd_shapes):
        # the diagonal and antidiagonal halves of the family share no column
        assert independence_rank(operator_family(4).members) == 256
        assert [rows for rows, _ in svd_shapes] == [128, 128]


class TestPauliString:
    def test_matches_manual_kron(self):
        got = pauli_string([3, 1]).matrix
        assert np.allclose(got, np.kron(S[3], S[1]), atol=1e-15)
        got = pauli_string([1, 0, 2]).matrix
        assert np.allclose(got, np.kron(np.kron(S[1], S[0]), S[2]), atol=1e-15)

    def test_first_index_most_significant(self):
        # sigma3 x sigma0 acts as a phase on the high bit
        mat = pauli_string([3, 0]).matrix
        assert mat[0, 0] == 1.0 and mat[3, 3] == -1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            pauli_string([])
        with pytest.raises(ValueError):
            pauli_string([0, 4])


class TestNamedLookup:
    @pytest.mark.parametrize(
        "name,want",
        [
            ("sigma0", sigma(0)),
            ("sigma2", sigma(2)),
            ("cnot", cnot()),
            ("u_y", u_y()),
            ("u_z", u_z()),
            ("u_chi", u_chi()),
            ("u_w2", u_w2()),
            ("gamma1", gamma(1)),
            ("gamma16", gamma(16)),
            ("  GAMMA5 ", gamma(5)),
        ],
    )
    def test_lookup(self, name, want):
        assert np.allclose(named_operator(name).matrix, want.matrix, atol=1e-15)

    @pytest.mark.parametrize("name", ["bogus", "gamma0", "gamma17", "gammaX", ""])
    def test_unknown_names(self, name):
        with pytest.raises(ValueError):
            named_operator(name)


class TestPlacementSearch:
    def test_finds_entangling_placement(self):
        report = find_realizing_application(cnot(), bell_product(2), cluster4())
        assert report.found
        assert report.placement == (1, 3)
        assert report.best_overlap == pytest.approx(1.0, abs=1e-12)
        assert report.residual == pytest.approx(0.0, abs=1e-12)

    def test_reports_best_when_unreachable(self):
        report = find_realizing_application(
            sigma(1), basis_state("00"), basis_state("11")
        )
        assert not report.found
        assert report.placement is None
        assert report.best_overlap == pytest.approx(0.0, abs=1e-12)
        assert report.best_placement in ((1,), (2,))

    def test_validation(self):
        with pytest.raises(ValueError):
            find_realizing_application(cnot(), basis_state("0"), basis_state("0"))
        with pytest.raises(ValueError):
            find_realizing_application(
                sigma(1), basis_state("0"), basis_state("00")
            )

    def test_report_shape(self):
        report = PlacementReport(False, None, (1, 2), 0.25)
        assert report.residual == pytest.approx(0.75)
