"""JSON documents for states, single operators, and operator families.

This module alone knows the document text and its [re, im] pairs.  Python
float repr round-trips IEEE doubles exactly, so save/load is bit-exact.
Loading checks each size against the ``statevec`` policy before forming any
2^n, so a malformed file fails with a ValueError naming the offending field.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Any

import numpy as np

from .operators import OperatorSet, check_family_size
from .statevec import (
    MAX_DENSE_BYTES,
    MAX_QUBITS,
    LocalOperator,
    PureState,
    _integer,
    check_qubits,
    check_state_size,
)

FORMAT_VERSION = 1
CONVENTION = "q1-msb"


def document_text(doc: dict) -> str:
    """The text of a document: sorted keys, two-space indent, final newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def parse_document(text: str) -> Any:
    """Parse document text; nesting too deep for the parser is a ValueError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("document is nested too deeply to parse") from None


def check_family_text_size(level: int) -> None:
    """Refuse a level whose document would pass MAX_DENSE_BYTES: each of its
    16^level entries prints in at least 49 bytes.  The first test keeps an
    absurd level from forming a huge integer."""
    if level > MAX_QUBITS or 49 * 16**level > MAX_DENSE_BYTES:
        cap = MAX_DENSE_BYTES // 2**20
        raise ValueError(f"a level-{level} family as JSON is above the {cap} MiB cap")


def _pairs(arr: np.ndarray) -> list:
    """Nested lists of the array's shape with each entry an [re, im] pair."""
    return np.stack((arr.real, arr.imag), -1).tolist()


def _unpairs(value: Any, shape: tuple[int, ...], field: str) -> np.ndarray:
    """Inverse of ``_pairs``, converted in one pass: ``value`` nests exactly
    ``shape + (2,)`` deep with an int or float (not a bool) at each leaf, and
    each entry is bit for bit ``complex(re, im)``, signed zeros included."""
    arr = np.array(value, dtype=object)
    if arr.shape != shape + (2,) or not set(map(type, arr.flat)) <= {int, float}:
        raise ValueError(f"{field} must be real [re, im] pairs nested as {shape + (2,)}")
    try:
        parts = arr.astype(float)
    except OverflowError:
        raise ValueError(f"{field} holds a number beyond the float range") from None
    return parts.view(complex).reshape(shape)


def _field(data: dict, key: str) -> Any:
    if key not in data:
        raise ValueError(f"missing field {key!r}")
    return data[key]


def _positive_int(data: dict, key: str) -> int:
    return _integer(_field(data, key), 1, math.inf, f"{key} must be an integer of at least 1")


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
    check_state_size(n, "a state")
    amps = _field(data, "amplitudes")
    if isinstance(amps, list) and len(amps) != 2**n:
        raise ValueError(f"state claims {n} qubits but carries {len(amps)} amplitudes")
    return PureState(n, _unpairs(amps, (2**n,), "amplitudes"))


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
    check_qubits(arity, "operator arity")
    matrix = _unpairs(_field(data, "matrix"), (2**arity,) * 2, f"matrix of arity {arity}")
    return LocalOperator(arity, matrix)


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
    check_family_size(level)
    shape = (4**level, 2**level, 2**level)
    return OperatorSet(_unpairs(_field(data, "operators"), shape, f"operators of level {level}"))


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
    write_file(path, document_text(data))


def _load(path: str | Path) -> Any:
    return parse_document(Path(path).read_text())


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
