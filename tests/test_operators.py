"""Operator catalog: pinned matrices, the 16-member table, family recursion."""

from __future__ import annotations

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import block_sigma_construct, dense_independence_rank
from tmes import operators
from tmes.operators import (
    CERT_MARGIN,
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
from tmes.serialize import operator_set_from_dict, operator_set_to_dict
from tmes.statevec import MAX_DENSE_BYTES, MAX_QUBITS, UNITARY_CHUNK_BYTES, LocalOperator
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
        for k in range(1, 17):
            m = gamma(k).matrix
            assert np.allclose(m.conj().T @ m, np.eye(4), rtol=0, atol=1e-12)

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
            assert fam.members.shape == (4**level, 2**level, 2**level)
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
        assert np.allclose(operator_family(2).members, gamma_set().members, atol=1e-12)

    def test_recursion_block_structure(self):
        lifted = sigma_construct(pauli_set())
        # diagonal family pairs g_a with its cyclic successor
        assert np.allclose(
            lifted.members[0], np.block([[S[0], Z2], [Z2, S[1]]]), atol=1e-15
        )
        assert np.allclose(
            lifted.members[3], np.block([[S[3], Z2], [Z2, S[0]]]), atol=1e-15
        )
        # second family negates the lower block, third moves to the antidiagonal
        assert np.allclose(
            lifted.members[4], np.block([[S[0], Z2], [Z2, -S[1]]]), atol=1e-15
        )
        assert np.allclose(
            lifted.members[8], np.block([[Z2, S[0]], [S[1], Z2]]), atol=1e-15
        )

    def test_operator_set_validation(self):
        with pytest.raises(ValueError, match="has 4 members, got 3"):
            OperatorSet(np.stack([S[0]] * 3))
        with pytest.raises(ValueError, match="has 4 members, got 16"):
            OperatorSet(np.stack([S[0]] * 16))
        with pytest.raises(ValueError, match="member 3 is not unitary"):
            OperatorSet(np.stack([S[0], S[1], S[2], 2.0 * S[0]]))


class TestOperatorSet:
    @pytest.mark.parametrize(
        "stack,message",
        [
            (S[1], r"expected a stack of matrices, got shape \(2, 2\)"),
            (np.zeros((4, 2, 2, 1)), "expected a stack of matrices"),
            (np.zeros((4, 2, 4)), r"2\^d x 2\^d with d >= 1, got 2x4"),
            (np.ones((1, 1, 1)), r"2\^d x 2\^d with d >= 1, got 1x1"),
            (np.zeros((0, 0, 0)), r"2\^d x 2\^d with d >= 1, got 0x0"),
            (np.stack([np.eye(3)] * 9), r"2\^d x 2\^d with d >= 1, got 3x3"),
            (np.zeros((0, 2, 2)), "has 4 members, got 0"),
            (np.stack([np.eye(4)] * 4), "4x4 matrices has 16 members, got 4"),
        ],
        ids=["2-d", "4-d", "not-square", "side-1", "side-0", "side-3", "empty", "count"],
    )
    def test_refuses_bad_shapes(self, stack, message):
        with pytest.raises(ValueError, match=message):
            OperatorSet(stack)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_refuses_non_finite_entries_first(self, bad):
        # A NaN makes every comparison with ATOL false, so it would pass the
        # unitarity check; the finiteness check runs before any other.
        stack = operator_family(2).members.copy()
        stack[5, 1, 2] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            OperatorSet(stack)
        with pytest.raises(ValueError, match="NaN or infinite"):
            OperatorSet(np.full((3, 2, 5), bad))

    @pytest.mark.parametrize("scale", [2.0, 1.0 + 1e-6, 0.5j])
    def test_refuses_a_scaled_member_by_index(self, scale):
        stack = operator_family(2).members.copy()
        stack[11] *= scale
        with pytest.raises(ValueError, match="^member 11 is not unitary$"):
            OperatorSet(stack)

    def test_names_the_first_bad_member_past_the_first_chunk(self):
        # U^H U is checked UNITARY_CHUNK_BYTES at a time: 64 members of 32 x 32
        stack = operator_family(5).members.copy()
        stack[[200, 250]] *= 2.0
        assert 200 >= UNITARY_CHUNK_BYTES // stack[0].nbytes
        with pytest.raises(ValueError, match="^member 200 is not unitary$"):
            OperatorSet(stack)

    def test_accepts_a_unitary_within_tolerance(self):
        stack = operator_family(2).members * np.exp(0.3j)
        stack[7] *= 1.0 + 1e-11
        assert OperatorSet(stack).level == 2

    def test_members_are_a_read_only_copy(self):
        stack = operator_family(2).members.copy()
        fam = OperatorSet(stack)
        assert not fam.members.flags.writeable
        assert not np.shares_memory(fam.members, stack)
        assert stack.flags.writeable
        stack[0] = 0.0
        assert np.array_equal(fam.members, operator_family(2).members)
        with pytest.raises(ValueError):
            fam.members[0, 0, 0] = 2.0

    def test_level_is_read_off_the_shape(self):
        for level in (1, 2, 3):
            fam = operator_family(level)
            assert fam.level == level
            with pytest.raises(AttributeError):
                fam.level = level + 1
        with pytest.raises(TypeError):
            OperatorSet(np.stack([S[0]] * 4), level=1)

    def test_real_input_is_stored_complex(self):
        fam = OperatorSet(np.stack([S[0].real, S[1].real, S[3].real, -S[0].real]))
        assert fam.members.dtype == complex and fam.level == 1


@pytest.mark.parametrize(
    "run,members",
    [
        (lambda: operator_family(5), 1024),
        (lambda: operator_family(1), 4),
        (lambda base=gamma_set(): sigma_construct(base), 64),
        (pauli_set, 4),
        (gamma_set, 16),
        (
            lambda doc=operator_set_to_dict(operator_family(3)): operator_set_from_dict(doc),
            64,
        ),
    ],
    ids=["family-5", "family-1", "sigma-construct", "pauli-set", "gamma-set", "from-dict"],
)
def test_family_paths_build_no_local_operator(monkeypatch, run, members):
    # Each family is one stack, and no member is wrapped as a LocalOperator.
    # Default arguments build the inputs before the spy goes in.
    built = []
    check = LocalOperator.__post_init__

    def spy(self):
        built.append(self.arity)
        check(self)

    monkeypatch.setattr(LocalOperator, "__post_init__", spy)
    fam = run()
    assert built == []
    assert len(fam.members) == members


def _block_family(level: int) -> list[np.ndarray]:
    mats = list(S)
    for _ in range(level - 1):
        mats = block_sigma_construct(mats)
    return mats


class TestStackedLift:
    @pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
    def test_family_matches_block_recursion(self, level):
        got = operator_family(level).members
        want = np.stack(_block_family(level))
        assert np.array_equal(got, want)
        # bit for bit, signed zeros included, as `tmes op gen` prints them
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("base", [gamma_set, lambda: operator_family(3)])
    def test_sigma_construct_matches_block_recursion(self, base):
        base = base()
        got = sigma_construct(base).members
        want = np.stack(block_sigma_construct(list(base.members)))
        assert got.tobytes() == want.tobytes()

    def test_only_the_requested_level_is_validated(self, monkeypatch):
        # the returned family is checked for unitarity by one stacked check,
        # and no intermediate level is checked
        checked = []
        check = operators._check_unitary

        def spy(stack, what):
            checked.append(stack.shape)
            check(stack, what)

        monkeypatch.setattr(operators, "_check_unitary", spy)
        operator_family(3)
        assert checked == [(64, 8, 8)]


def _random_operator_list(seed: int, arity: int = 3) -> np.ndarray:
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
    return np.stack([mats[k] for k in rng.permutation(len(mats))])


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


def _pauli_pairs() -> np.ndarray:
    return np.stack([pauli_string((a, b)).matrix for a in range(4) for b in range(4)])


class TestIndependenceRank:
    def test_dependent_list(self):
        assert independence_rank(np.stack([S[0], S[0], S[1]])) == 2

    def test_rejects_empty_and_mixed(self):
        with pytest.raises(ValueError):
            independence_rank(np.empty((0, 2, 2)))
        with pytest.raises(ValueError):
            independence_rank([sigma(0).matrix, cnot().matrix])

    @pytest.mark.parametrize(
        "stack",
        [np.empty((0, 2, 2)), np.empty((3, 0, 0)), S[1], np.zeros(4), []],
        ids=["no-members", "empty-matrices", "2-d", "1-d", "empty-list"],
    )
    def test_refuses_empty_and_flat_stacks(self, stack):
        with pytest.raises(ValueError, match="nonempty stack of matrices"):
            independence_rank(stack)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_refuses_non_finite_entries(self, bad):
        # a ValueError at the boundary, never a LinAlgError from the SVD
        stack = operator_family(2).members.copy()
        stack[3, 0, 0] = bad
        with pytest.raises(ValueError, match="NaN or infinite") as caught:
            independence_rank(stack)
        assert not isinstance(caught.value, np.linalg.LinAlgError)

    def test_leaves_a_read_only_input_untouched(self):
        stack = _random_operator_list(0)
        stack[0] = 0.0
        stack.setflags(write=False)
        before = stack.tobytes()
        assert independence_rank(stack) == dense_independence_rank(stack)
        assert stack.tobytes() == before
        fam = operator_family(3)
        assert independence_rank(fam.members) == 64
        assert fam.members.tobytes() == np.stack(_block_family(3)).tobytes()

    def test_strided_stack_matches_a_copy(self):
        # every other column of a wider stack flattens to rows whose entries
        # are not adjacent in memory, so their float view needs a copy
        wide = np.repeat(operator_family(2).members, 2, axis=2)
        stack = wide[:, :, ::2]
        assert stack.reshape(len(stack), -1).strides[1] != stack.itemsize
        assert independence_rank(stack) == independence_rank(stack.copy()) == 16

    def test_zero_member_adds_nothing(self):
        zero = np.zeros((2, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert independence_rank(np.stack([zero])) == 0
            assert independence_rank(np.stack([S[0], zero])) == 1
            assert independence_rank(np.stack([zero, S[1], zero, S[2]])) == 2
        assert dense_independence_rank([zero, S[0]]) == 1

    @pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
    def test_family_rank_matches_dense_oracle(self, level):
        fam = operator_family(level)
        got = independence_rank(fam.members)
        assert got == dense_independence_rank(fam.members) == 4**level

    @pytest.mark.parametrize("ops", [gamma_set().members, _pauli_pairs()])
    def test_table_rank_matches_dense_oracle(self, ops):
        assert independence_rank(ops) == dense_independence_rank(ops) == 16

    @pytest.mark.parametrize("seed", range(12))
    def test_random_lists_match_dense_oracle(self, seed, svd_shapes):
        ops = _random_operator_list(seed)
        got = independence_rank(ops)
        blocks = [rows for rows, _ in svd_shapes]
        assert got == dense_independence_rank(ops)
        assert got < len(ops)
        # the support split into blocks that together hold every row
        assert len(blocks) > 1 and sum(blocks) == len(ops)

    def test_svds_run_only_when_the_certificate_fails(self, svd_shapes):
        # every family the library builds is certified without an SVD
        for level in (1, 2, 3, 4, 5):
            assert independence_rank(operator_family(level).members) == 4**level
        assert independence_rank(gamma_set().members) == 16
        assert independence_rank(_pauli_pairs()) == 16
        assert svd_shapes == []
        # a repeated member fails the certificate on the diagonal half, and
        # then both halves, which share no column, get their own SVD
        ops = operator_family(4).members
        ops = np.concatenate([ops, ops[:1]])
        assert independence_rank(ops) == 256
        assert [rows for rows, _ in svd_shapes] == [129, 128]
        assert dense_independence_rank(ops) == 256

    @pytest.mark.parametrize("offset,svds", [(-1e-6, 0), (1e-6, 1)])
    def test_gram_row_sum_at_the_margin(self, offset, svds, svd_shapes):
        # two unit rows in one block whose Gram row sum is their overlap c
        c = CERT_MARGIN + offset
        ops = np.zeros((2, 2, 2), dtype=complex)
        ops[0, 0, 0] = 1.0
        ops[1, 0] = c, math.sqrt(1.0 - c * c)
        got = independence_rank(ops)
        assert len(svd_shapes) == svds
        assert got == dense_independence_rank(ops) == 2

    def test_near_duplicate_member_is_not_certified(self, svd_shapes):
        # member 3 again, nudged by 1e-10 toward member 15, which is left
        # out: the copy's Gram row sums to 1 to rounding
        fam = operator_family(2).members
        ops = np.concatenate([fam[:15], fam[3:4] + 1e-10 * fam[15:]])
        got = independence_rank(ops)
        assert svd_shapes
        assert got == dense_independence_rank(ops) == 15

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_perturbed_orthogonal_families_match_dense_oracle(self, data):
        # a subset of a family, some members nudged toward members left out,
        # and copies of members nudged the same way; the nudges stay far
        # from the ATOL threshold on either side
        level = data.draw(st.integers(min_value=1, max_value=3), label="level")
        fam = operator_family(level).members
        count = len(fam)
        keep = data.draw(st.integers(min_value=1, max_value=count - 1), label="keep")
        ops = fam[:keep].copy()
        eps = st.sampled_from([0.0, 1e-13, 1e-6, 0.05, 0.7])
        member = st.integers(min_value=0, max_value=keep - 1)
        spare = st.integers(min_value=keep, max_value=count - 1)
        for i, j, e in data.draw(st.lists(st.tuples(member, spare, eps), max_size=4)):
            ops[i] += e * fam[j]
        extra = data.draw(st.lists(st.tuples(member, spare, eps), max_size=4))
        ops = np.concatenate([ops] + [(ops[i] + e * fam[j])[None] for i, j, e in extra])
        assert independence_rank(ops) == dense_independence_rank(ops)

    def test_many_scalar_members_form_no_gram(self):
        # 2048 members of 1 x 1 make one block of 2048 rows and one column;
        # its 2048 x 2048 Gram would take 64 MiB
        ops = np.exp(1j * np.arange(2048.0)).reshape(-1, 1, 1)
        tracemalloc.start()
        try:
            got = independence_rank(ops)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == dense_independence_rank(ops) == 1
        assert peak < 8 * 2**20


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
