"""Catalog of the named multi-qubit states used throughout the library.

Every constructor returns exact amplitudes (normalized well below 1e-12).
Signs and basis-state positions follow the printed definitions; see the
README for the qubit-1-is-most-significant index convention.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .statevec import PureState, _integer, _integer_text, _strip_text, check_state_size, tensor

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Third root of unity entering the Higuchi-Sudbery state.
OMEGA_PHASE = cmath.exp(2j * math.pi / 3.0)


def basis_state(bits: str) -> PureState:
    """Computational basis state |bits>, first character = qubit 1."""
    if not bits or any(b not in "01" for b in bits):
        raise ValueError(f"bit string must be non-empty over {{0,1}}, got {bits!r}")
    check_state_size(len(bits), "a basis state")
    amps = np.zeros(2 ** len(bits), dtype=complex)
    amps[sum(1 << k for k, b in enumerate(reversed(bits)) if b == "1")] = 1.0
    return PureState(len(bits), amps)


def bell(kind: str = "phi+") -> PureState:
    """One of the four Bell states: phi+/phi-/psi+/psi-."""
    table = {
        "phi+": (0, 3, 1.0),
        "phi-": (0, 3, -1.0),
        "psi+": (1, 2, 1.0),
        "psi-": (1, 2, -1.0),
    }
    if kind not in table:
        raise ValueError(f"unknown Bell state {kind!r}; expected one of {sorted(table)}")
    i, j, sign = table[kind]
    amps = np.zeros(4, dtype=complex)
    amps[i] = _INV_SQRT2
    amps[j] = sign * _INV_SQRT2
    return PureState(2, amps)


def ghz(num_qubits: int = 3) -> PureState:
    """(|0...0> + |1...1>)/sqrt(2) on ``num_qubits`` qubits."""
    num_qubits = _integer(num_qubits, 1, math.inf, "ghz needs an int of at least 1 qubit")
    check_state_size(num_qubits, "ghz")
    amps = np.zeros(2**num_qubits, dtype=complex)
    amps[0] = amps[-1] = _INV_SQRT2
    return PureState(num_qubits, amps)


def omega() -> PureState:
    """Four-term four-qubit resource (|0000>+|0110>+|1001>-|1111>)/2."""
    amps = np.zeros(16, dtype=complex)
    amps[0b0000] = 0.5
    amps[0b0110] = 0.5
    amps[0b1001] = 0.5
    amps[0b1111] = -0.5
    return PureState(4, amps)


def chi() -> PureState:
    """Eight-term four-qubit resource with weights 1/(2 sqrt 2)."""
    c = 1.0 / (2.0 * math.sqrt(2.0))
    signs = {
        0b0000: 1.0,
        0b0011: -1.0,
        0b0101: -1.0,
        0b0110: 1.0,
        0b1001: 1.0,
        0b1010: 1.0,
        0b1100: 1.0,
        0b1111: 1.0,
    }
    amps = np.zeros(16, dtype=complex)
    for idx, sign in signs.items():
        amps[idx] = sign * c
    return PureState(4, amps)


def hs() -> PureState:
    """Higuchi-Sudbery four-qubit state, phases at the third roots of unity."""
    c = 1.0 / math.sqrt(6.0)
    w = OMEGA_PHASE
    amps = np.zeros(16, dtype=complex)
    amps[0b0011] = c
    amps[0b1100] = c
    amps[0b1010] = c * w
    amps[0b0101] = c * w
    amps[0b1001] = c * w**2
    amps[0b0110] = c * w**2
    return PureState(4, amps)


def w_state(n: int = 1) -> PureState:
    """Three-qubit W-class state (|100> + sqrt(n)|010> + sqrt(n+1)|001>)/sqrt(2+2n)."""
    n = _integer(n, 1, 2**1022 - 1, "w_state parameter must be an integer in 1..2^1022 - 1")  # 2 + 2n is finite
    norm = math.sqrt(2.0 + 2.0 * n)
    amps = np.zeros(8, dtype=complex)
    amps[0b100] = 1.0 / norm
    amps[0b010] = math.sqrt(n) / norm
    amps[0b001] = math.sqrt(n + 1.0) / norm
    return PureState(3, amps)


def bell_product(num_pairs: int) -> PureState:
    """``num_pairs`` phi+ pairs; pair k occupies qubits (2k-1, 2k)."""
    num_pairs = _integer(num_pairs, 1, math.inf, "need an int of at least 1 Bell pair")
    check_state_size(2 * num_pairs, "bell_product")
    return reduce(tensor, [bell("phi+")] * num_pairs)


def odd_resource(num_pairs: int) -> PureState:
    """bell_product(num_pairs) with one extra |0> qubit appended (odd total)."""
    num_pairs = _integer(num_pairs, 1, math.inf, "need an int of at least 1 Bell pair")
    check_state_size(2 * num_pairs + 1, "odd_resource")
    return tensor(bell_product(num_pairs), basis_state("0"))


def cluster4() -> PureState:
    """Four-qubit cluster state (|0000>+|0011>+|1110>+|1101>)/2.

    This is what entangling two Bell pairs with a CNOT on qubits (1,3)
    produces; the amplitudes are pinned here independently so that the
    construction can be checked against them.
    """
    amps = np.zeros(16, dtype=complex)
    for idx in (0b0000, 0b0011, 0b1110, 0b1101):
        amps[idx] = 0.5
    return PureState(4, amps)


def cluster5() -> PureState:
    """Five-qubit cluster chain (|00000>+|00111>+|11101>+|11010>)/2.

    Produced by CNOTs on (1,3) and then (3,5) over two Bell pairs and an
    ancilla |0>; pinned independently, as with :func:`cluster4`.
    """
    amps = np.zeros(32, dtype=complex)
    for idx in (0b00000, 0b00111, 0b11101, 0b11010):
        amps[idx] = 0.5
    return PureState(5, amps)


@dataclass(frozen=True)
class StateSpec:
    """Parsed description of a catalog state.

    ``number`` carries integer parameters (ghz size, W parameter, pair
    counts); ``label`` carries string parameters (Bell variant, bit string).
    """

    kind: str
    number: int | None = None
    label: str | None = None


# kind -> (constructor, parameter): "number" and "label" kinds take an int or
# a string after the colon, None kinds take nothing.
_CATALOG = {
    "ghz": (ghz, "number"),
    "w": (w_state, "number"),
    "bell_product": (bell_product, "number"),
    "odd_resource": (odd_resource, "number"),
    "bell": (bell, "label"),
    "basis": (basis_state, "label"),
    "omega": (omega, None),
    "chi": (chi, None),
    "hs": (hs, None),
    "cluster4": (cluster4, None),
    "cluster5": (cluster5, None),
}
KINDS = frozenset(_CATALOG)


def parse_spec(text: str) -> StateSpec:
    """Parse a spec string such as ``ghz:4``, ``bell:psi-`` or ``basis:0110``."""
    kind, sep, arg = _strip_text(text).partition(":")
    kind = _strip_text(kind).lower()
    arg = _strip_text(arg)
    if kind not in KINDS:
        raise ValueError(f"unknown state kind {kind!r}; expected one of {sorted(KINDS)}")
    param = _CATALOG[kind][1]
    if param is None:
        if sep:
            raise ValueError(f"state kind {kind!r} takes no parameter")
        return StateSpec(kind)
    if not sep or not arg:
        if kind == "bell":
            return StateSpec(kind)
        raise ValueError(f"state kind {kind!r} needs a parameter, e.g. {kind}:2")
    if param == "number":
        try:
            number = _integer_text(arg)
        except ValueError:
            raise ValueError(f"parameter for {kind!r} must be an integer, got {arg!r}")
        return StateSpec(kind, number=number)
    return StateSpec(kind, label=arg)


def make_state(spec: StateSpec) -> PureState:
    """Construct the state described by ``spec``."""
    kind = spec.kind
    if kind not in KINDS:
        raise ValueError(f"unknown state kind {kind!r}")
    build, param = _CATALOG[kind]
    if param is None:
        return build()
    if param == "number":
        return build(spec.number)
    if spec.label is None:
        if kind == "bell":
            return build()
        raise ValueError("basis state needs its bit string")
    return build(spec.label)
