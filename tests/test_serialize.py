"""JSON persistence: exact round trips and header validation."""

from __future__ import annotations

import json

import numpy as np
import pytest

from tmes.capacity import haar_random_state
from tmes.operators import gamma_set, operator_family, pauli_set, sigma, u_chi, u_w2
from tmes.serialize import (
    CONVENTION,
    FORMAT_VERSION,
    load_operator,
    load_operator_set,
    load_state,
    operator_from_dict,
    operator_set_from_dict,
    operator_set_to_dict,
    operator_to_dict,
    save_operator,
    save_operator_set,
    save_state,
    state_from_dict,
    state_to_dict,
    write_file,
)
from tmes.states import basis_state, bell, chi, cluster5, hs, w_state


class TestStateRoundTrip:
    @pytest.mark.parametrize(
        "state",
        [bell("psi-"), chi(), hs(), cluster5(), w_state(2)],
        ids=["bell", "chi", "hs", "cluster5", "w2"],
    )
    def test_dict_round_trip_is_exact(self, state):
        back = state_from_dict(state_to_dict(state))
        assert back.num_qubits == state.num_qubits
        assert np.array_equal(back.amplitudes, state.amplitudes)

    def test_random_state_exact(self):
        state = haar_random_state(4, seed=42)
        back = state_from_dict(state_to_dict(state))
        assert np.array_equal(back.amplitudes, state.amplitudes)

    def test_file_round_trip(self, tmp_path):
        state = hs()
        path = tmp_path / "state.json"
        save_state(state, path)
        back = load_state(path)
        assert np.array_equal(back.amplitudes, state.amplitudes)

    def test_header_fields(self):
        doc = state_to_dict(bell())
        assert doc["format_version"] == FORMAT_VERSION
        assert doc["kind"] == "state"
        assert doc["convention"] == CONVENTION == "q1-msb"
        assert doc["num_qubits"] == 2
        assert doc["amplitudes"][0] == [pytest.approx(2**-0.5), 0.0]

    def test_rejects_bad_headers(self):
        doc = state_to_dict(bell())
        for patch in (
            {"format_version": 2},
            {"kind": "operator"},
            {"convention": "q1-lsb"},
            {"num_qubits": 3},
        ):
            broken = {**doc, **patch}
            with pytest.raises(ValueError):
                state_from_dict(broken)
        with pytest.raises(ValueError):
            state_from_dict([1, 2, 3])


class TestMalformedDocuments:
    """Each document is refused with a ValueError naming the bad field."""

    @pytest.mark.parametrize(
        "patch,field",
        [
            ({"amplitudes": [["NaN", 0], [0, 0]]}, "amplitudes"),
            ({"amplitudes": [1, 0]}, "amplitudes"),
            ({"amplitudes": [[1, 0, 0], [0, 0]]}, "amplitudes"),
            ({"amplitudes": [[True, 0], [0, 0]]}, "amplitudes"),
            ({"amplitudes": "10"}, "amplitudes"),
            ({"num_qubits": "1"}, "num_qubits"),
            ({"num_qubits": True}, "num_qubits"),
            ({"num_qubits": 0}, "num_qubits"),
            ({"num_qubits": 1.0}, "num_qubits"),
        ],
    )
    def test_state_fields(self, patch, field):
        doc = {**state_to_dict(basis_state("0")), **patch}
        with pytest.raises(ValueError, match=field):
            state_from_dict(doc)

    @pytest.mark.parametrize("field", ["num_qubits", "amplitudes"])
    def test_state_missing_field(self, field):
        doc = state_to_dict(basis_state("0"))
        del doc[field]
        with pytest.raises(ValueError, match=f"missing field '{field}'"):
            state_from_dict(doc)

    def test_huge_qubit_count_is_refused_by_arithmetic(self):
        # 2**(10**18) is never formed: the check compares bit lengths.
        doc = {**state_to_dict(basis_state("0")), "num_qubits": 10**18}
        with pytest.raises(ValueError, match="carries 2 amplitudes"):
            state_from_dict(doc)

    def test_non_finite_amplitude_is_refused_by_the_state(self):
        doc = {**state_to_dict(basis_state("0")), "amplitudes": [[float("nan"), 0], [0, 0]]}
        with pytest.raises(ValueError, match="not normalized"):
            state_from_dict(doc)

    @pytest.mark.parametrize(
        "patch,field",
        [
            ({"arity": False}, "arity"),
            ({"arity": "1"}, "arity"),
            ({"matrix": [[[1, 0]], [[0, 0], [1, 0]]]}, "arity"),
            ({"matrix": [[1, 0], [0, 1]]}, "matrix"),
            ({"matrix": {"rows": []}}, "matrix"),
        ],
    )
    def test_operator_fields(self, patch, field):
        doc = {**operator_to_dict(sigma(1)), **patch}
        with pytest.raises(ValueError, match=field):
            operator_from_dict(doc)

    @pytest.mark.parametrize("bad", ["NaN", "Infinity"])
    def test_operator_with_json_non_finite_entry_is_refused(self, bad):
        text = json.dumps(operator_to_dict(sigma(0)))
        text = text.replace("[1.0, 0.0]", f"[{bad}, 0.0]", 1)
        doc = json.loads(text)
        with pytest.raises(ValueError, match="NaN or infinite"):
            operator_from_dict(doc)

    def test_operator_missing_matrix(self):
        doc = operator_to_dict(sigma(1))
        del doc["matrix"]
        with pytest.raises(ValueError, match="missing field 'matrix'"):
            operator_from_dict(doc)

    @pytest.mark.parametrize(
        "patch,field",
        [
            ({"level": 1.5}, "level"),
            ({"level": 10**18}, "operators"),
            ({"operators": None}, "operators"),
        ],
    )
    def test_operator_set_fields(self, patch, field):
        doc = {**operator_set_to_dict(pauli_set()), **patch}
        with pytest.raises(ValueError, match=field):
            operator_set_from_dict(doc)


class TestOperatorRoundTrip:
    def test_exact_round_trip(self):
        for op in (u_chi(), u_w2()):
            back = operator_from_dict(operator_to_dict(op))
            assert back.arity == op.arity
            assert np.array_equal(back.matrix, op.matrix)

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "op.json"
        save_operator(u_chi(), path)
        assert np.array_equal(load_operator(path).matrix, u_chi().matrix)

    def test_rejects_shape_mismatch(self):
        doc = operator_to_dict(u_chi())
        doc["arity"] = 1
        with pytest.raises(ValueError):
            operator_from_dict(doc)


class TestOperatorSetRoundTrip:
    def test_gamma_table_round_trip(self, tmp_path):
        ops = gamma_set()
        path = tmp_path / "gamma.json"
        save_operator_set(ops, path)
        back = load_operator_set(path)
        assert back.level == 2
        assert back.members.shape == (16, 4, 4)
        assert back.members.tobytes() == ops.members.tobytes()

    def test_level_three_round_trip(self):
        ops = operator_family(3)
        back = operator_set_from_dict(operator_set_to_dict(ops))
        assert back.level == 3 and len(back.members) == 64
        assert back.members.tobytes() == ops.members.tobytes()
        assert not back.members.flags.writeable

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_json_non_finite_entry_is_refused(self, bad):
        text = json.dumps(operator_set_to_dict(pauli_set()))
        text = text.replace("[-0.0, -1.0]", f"[-0.0, {bad}]", 1)
        assert bad in text
        with pytest.raises(ValueError, match="NaN or infinite"):
            operator_set_from_dict(json.loads(text))

    def test_kind_mismatch_rejected(self):
        doc = operator_set_to_dict(gamma_set())
        with pytest.raises(ValueError):
            operator_from_dict(doc)
        with pytest.raises(ValueError):
            state_from_dict(doc)


class TestFileFormat:
    def test_dump_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_state(chi(), a)
        save_state(chi(), b)
        assert a.read_text() == b.read_text()

    def test_save_over_a_longer_file_leaves_no_tail(self, tmp_path):
        path = tmp_path / "s.json"
        save_state(cluster5(), path)
        save_state(bell(), path)
        fresh = tmp_path / "fresh.json"
        save_state(bell(), fresh)
        assert path.read_bytes() == fresh.read_bytes()
        assert np.array_equal(load_state(path).amplitudes, bell().amplitudes)

    def test_write_file_creates_grows_and_shrinks(self, tmp_path):
        path = tmp_path / "t.txt"
        for text in ("short\n", "a longer line \u00e9\n", "x", ""):
            write_file(path, text)
            assert path.read_text(encoding="utf-8") == text

    def test_dump_is_sorted_and_indented(self, tmp_path):
        path = tmp_path / "s.json"
        save_state(bell(), path)
        text = path.read_text()
        assert text.endswith("\n")
        doc = json.loads(text)
        assert list(doc) == sorted(doc)
