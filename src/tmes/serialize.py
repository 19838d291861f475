"""JSON round-trip for states, single operators, and operator families.

Amplitudes and matrix entries are stored as [re, im] pairs.  Python float
repr round-trips IEEE doubles exactly, so save/load is bit-exact.  Loading
checks the shape of a document before building anything from it, so a
malformed file fails with a ValueError that names the offending field.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

import numpy as np

from .operators import OperatorSet
from .statevec import LocalOperator, PureState

FORMAT_VERSION = 1
CONVENTION = "q1-msb"


def _pairs(arr: np.ndarray) -> list:
    """Nested lists of the array's shape with each entry an [re, im] pair."""
    return np.stack((arr.real, arr.imag), -1).tolist()


def _is_real(x: Any) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _unpairs(pairs: Any, field: str) -> np.ndarray:
    if not isinstance(pairs, list) or not all(
        isinstance(p, list) and len(p) == 2 and _is_real(p[0]) and _is_real(p[1])
        for p in pairs
    ):
        raise ValueError(f"{field} must be a list of [re, im] pairs of real numbers")
    return np.array([complex(re, im) for re, im in pairs], dtype=complex)


def _field(data: dict, key: str) -> Any:
    if key not in data:
        raise ValueError(f"missing field {key!r}")
    return data[key]


def _positive_int(data: dict, key: str) -> int:
    value = _field(data, key)
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{key} must be an integer of at least 1, got {value!r}")
    return value


def _is_power_of_two(size: int, exponent: int) -> bool:
    """size == 2**exponent, decided without computing the power."""
    return size.bit_length() == exponent + 1 and size & (size - 1) == 0


def _check_header(data: dict, kind: str) -> None:
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object")
    if data.get("format_version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported format_version {data.get('format_version')!r}"
        )
    if data.get("kind") != kind:
        raise ValueError(f"expected kind {kind!r}, got {data.get('kind')!r}")


def state_to_dict(state: PureState) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "state",
        "convention": CONVENTION,
        "num_qubits": state.num_qubits,
        "amplitudes": _pairs(state.amplitudes),
    }


def state_from_dict(data: dict) -> PureState:
    _check_header(data, "state")
    if data.get("convention") != CONVENTION:
        raise ValueError(f"unsupported convention {data.get('convention')!r}")
    n = _positive_int(data, "num_qubits")
    amps = _unpairs(_field(data, "amplitudes"), "amplitudes")
    if not _is_power_of_two(amps.size, n):
        raise ValueError(
            f"state claims {n} qubits but carries {amps.shape[0]} amplitudes"
        )
    return PureState(n, amps)


def _matrix_from_rows(rows: Any, arity: int) -> np.ndarray:
    if not isinstance(rows, list):
        raise ValueError("matrix must be a list of rows")
    mat = [_unpairs(row, "matrix rows") for row in rows]
    if not _is_power_of_two(len(mat), arity) or any(r.size != len(mat) for r in mat):
        raise ValueError(
            f"operator of arity {arity} needs a 2^{arity} x 2^{arity} matrix, "
            f"got {len(mat)} rows of lengths {sorted({r.size for r in mat})}"
        )
    return np.array(mat, dtype=complex)


def operator_to_dict(op: LocalOperator) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "operator",
        "arity": op.arity,
        "matrix": _pairs(op.matrix),
    }


def operator_from_dict(data: dict) -> LocalOperator:
    _check_header(data, "operator")
    arity = _positive_int(data, "arity")
    return LocalOperator(arity, _matrix_from_rows(_field(data, "matrix"), arity))


def operator_set_to_dict(ops: OperatorSet) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "operator_set",
        "level": ops.level,
        "operators": _pairs(ops.members),
    }


def operator_set_from_dict(data: dict) -> OperatorSet:
    _check_header(data, "operator_set")
    level = _positive_int(data, "level")
    operators = _field(data, "operators")
    if not isinstance(operators, list):
        raise ValueError("operators must be a list of matrices")
    if not _is_power_of_two(len(operators), 2 * level):
        raise ValueError(f"operators must hold 4^{level} matrices, got {len(operators)}")
    return OperatorSet(np.stack([_matrix_from_rows(rows, level) for rows in operators]))


def write_file(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, over the old bytes in place.

    The file is not truncated on open; its tail is cut after the write.  On
    ext4, truncating a file to zero makes its close start writeback, and the
    next truncation of that file waits for the disk, so saves repeated to
    one path stalled now and again for a disk round trip.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with os.fdopen(fd, "wb") as fh:
        fh.write(text.encode("utf-8"))
        if fh.seekable():
            fh.truncate()


def _save(data: dict, path: str | Path) -> None:
    write_file(path, json.dumps(data, indent=2, sort_keys=True) + "\n")


def _load(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())


def save_state(state: PureState, path: str | Path) -> None:
    _save(state_to_dict(state), path)


def load_state(path: str | Path) -> PureState:
    return state_from_dict(_load(path))


def save_operator(op: LocalOperator, path: str | Path) -> None:
    _save(operator_to_dict(op), path)


def load_operator(path: str | Path) -> LocalOperator:
    return operator_from_dict(_load(path))


def save_operator_set(ops: OperatorSet, path: str | Path) -> None:
    _save(operator_set_to_dict(ops), path)


def load_operator_set(path: str | Path) -> OperatorSet:
    return operator_set_from_dict(_load(path))
