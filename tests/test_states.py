"""Catalog states pinned against hand-transcribed amplitude tables."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from tmes.states import (
    KINDS,
    OMEGA_PHASE,
    StateSpec,
    basis_state,
    bell,
    bell_product,
    chi,
    cluster4,
    cluster5,
    ghz,
    hs,
    make_state,
    odd_resource,
    omega,
    parse_spec,
    w_state,
)
from tmes.statevec import check_state_size

S2 = 1.0 / math.sqrt(2.0)


def _dense(pairs: dict[int, complex], dim: int) -> np.ndarray:
    amps = np.zeros(dim, dtype=complex)
    for idx, val in pairs.items():
        amps[idx] = val
    return amps


class TestAmplitudeTables:
    @pytest.mark.parametrize(
        "kind,table",
        [
            ("phi+", {0b00: S2, 0b11: S2}),
            ("phi-", {0b00: S2, 0b11: -S2}),
            ("psi+", {0b01: S2, 0b10: S2}),
            ("psi-", {0b01: S2, 0b10: -S2}),
        ],
    )
    def test_bell(self, kind, table):
        assert np.allclose(bell(kind).amplitudes, _dense(table, 4), atol=1e-15)

    def test_bell_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            bell("sigma+")

    def test_ghz(self):
        for n in (2, 3, 4, 5):
            want = _dense({0: S2, 2**n - 1: S2}, 2**n)
            assert np.allclose(ghz(n).amplitudes, want, atol=1e-15)
        with pytest.raises(ValueError):
            ghz(0)

    def test_omega(self):
        want = _dense({0b0000: 0.5, 0b0110: 0.5, 0b1001: 0.5, 0b1111: -0.5}, 16)
        assert np.allclose(omega().amplitudes, want, atol=1e-15)

    def test_chi(self):
        c = 1.0 / (2.0 * math.sqrt(2.0))
        signs = {0: 1, 3: -1, 5: -1, 6: 1, 9: 1, 10: 1, 12: 1, 15: 1}
        want = _dense({idx: s * c for idx, s in signs.items()}, 16)
        assert np.allclose(chi().amplitudes, want, atol=1e-15)

    def test_hs(self):
        c = 1.0 / math.sqrt(6.0)
        w = OMEGA_PHASE
        want = _dense(
            {
                0b0011: c,
                0b1100: c,
                0b1010: w * c,
                0b0101: w * c,
                0b1001: w * w * c,
                0b0110: w * w * c,
            },
            16,
        )
        assert np.allclose(hs().amplitudes, want, atol=1e-15)

    def test_omega_phase_is_third_root_of_unity(self):
        assert OMEGA_PHASE == cmath.exp(2j * math.pi / 3.0)
        assert abs(OMEGA_PHASE**3 - 1.0) < 1e-15
        assert abs(1.0 + OMEGA_PHASE + OMEGA_PHASE**2) < 1e-15

    def test_w_state(self):
        for n in (1, 2, 5):
            norm = math.sqrt(2.0 + 2.0 * n)
            want = _dense(
                {
                    0b100: 1.0 / norm,
                    0b010: math.sqrt(n) / norm,
                    0b001: math.sqrt(n + 1.0) / norm,
                },
                8,
            )
            assert np.allclose(w_state(n).amplitudes, want, atol=1e-15)
        with pytest.raises(ValueError):
            w_state(0)

    def test_cluster4(self):
        want = _dense({0b0000: 0.5, 0b0011: 0.5, 0b1110: 0.5, 0b1101: 0.5}, 16)
        assert np.allclose(cluster4().amplitudes, want, atol=1e-15)

    def test_cluster5(self):
        want = _dense(
            {0b00000: 0.5, 0b00111: 0.5, 0b11101: 0.5, 0b11010: 0.5}, 32
        )
        assert np.allclose(cluster5().amplitudes, want, atol=1e-15)

    def test_bell_product_pair_layout(self):
        # pair k sits on qubits (2k-1, 2k): two pairs -> weight on xxyy with x,y in {00,11}
        amps = bell_product(2).amplitudes
        support = {i for i in range(16) if abs(amps[i]) > 1e-12}
        assert support == {0b0000, 0b0011, 0b1100, 0b1111}
        assert np.allclose([amps[i] for i in sorted(support)], [0.5] * 4, atol=1e-15)
        with pytest.raises(ValueError):
            bell_product(0)

    def test_odd_resource_appends_zero(self):
        amps = odd_resource(1).amplitudes
        want = _dense({0b000: S2, 0b110: S2}, 8)
        assert np.allclose(amps, want, atol=1e-15)
        assert odd_resource(2).num_qubits == 5

    def test_basis_state(self):
        amps = basis_state("0110").amplitudes
        assert amps[0b0110] == 1.0
        assert np.count_nonzero(amps) == 1
        for bad in ("", "012", "ab"):
            with pytest.raises(ValueError):
                basis_state(bad)


class TestSpecGrammar:
    @pytest.mark.parametrize(
        "text,spec",
        [
            ("ghz:4", StateSpec("ghz", number=4)),
            ("w:2", StateSpec("w", number=2)),
            ("bell_product:3", StateSpec("bell_product", number=3)),
            ("odd_resource:2", StateSpec("odd_resource", number=2)),
            ("bell:psi-", StateSpec("bell", label="psi-")),
            ("bell", StateSpec("bell")),
            ("basis:0110", StateSpec("basis", label="0110")),
            ("omega", StateSpec("omega")),
            ("chi", StateSpec("chi")),
            ("hs", StateSpec("hs")),
            ("cluster4", StateSpec("cluster4")),
            ("cluster5", StateSpec("cluster5")),
            ("  GHZ:3 ", StateSpec("ghz", number=3)),
        ],
    )
    def test_parse_round_trips(self, text, spec):
        assert parse_spec(text) == spec

    @pytest.mark.parametrize(
        "text",
        [
            "ghz",  # number kinds need a parameter
            "ghz:x",
            "basis",  # bit string required
            "omega:1",  # plain kinds take none
            "cluster4:2",
            "nope:3",
            "",
        ],
    )
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            parse_spec(text)

    def test_make_state_covers_every_kind(self):
        cases = {
            "ghz:3": ghz(3),
            "w:2": w_state(2),
            "bell_product:2": bell_product(2),
            "odd_resource:1": odd_resource(1),
            "bell": bell("phi+"),
            "bell:psi+": bell("psi+"),
            "basis:10": basis_state("10"),
            "omega": omega(),
            "chi": chi(),
            "hs": hs(),
            "cluster4": cluster4(),
            "cluster5": cluster5(),
        }
        seen = set()
        for text, want in cases.items():
            spec = parse_spec(text)
            seen.add(spec.kind)
            got = make_state(spec)
            assert np.allclose(got.amplitudes, want.amplitudes, atol=1e-15)
        assert seen == KINDS

    def test_make_state_rejects_incomplete_specs(self):
        with pytest.raises(ValueError):
            make_state(StateSpec("ghz"))
        with pytest.raises(ValueError):
            make_state(StateSpec("basis"))
        with pytest.raises(ValueError):
            make_state(StateSpec("mystery"))


class TestSizePolicy:
    # 2^40 amplitudes would be 16 TiB: the qubit count is refused first.
    @pytest.mark.parametrize(
        "build",
        [
            lambda: ghz(40),
            lambda: basis_state("0" * 40),
            lambda: bell_product(20),
            lambda: odd_resource(20),
            lambda: make_state(parse_spec("ghz:40")),
            lambda: ghz(10**30),
        ],
        ids=["ghz", "basis", "bell_product", "odd_resource", "spec", "absurd"],
    )
    def test_oversized_states_are_refused_before_allocating(self, build):
        with pytest.raises(ValueError, match="above the 256 MiB cap"):
            build()

    def test_cap_is_twenty_four_qubits(self):
        # 16 * 2^24 bytes is exactly MAX_DENSE_BYTES
        check_state_size(24, "a state")
        with pytest.raises(ValueError, match="a state on 25 qubits"):
            check_state_size(25, "a state")


class TestNormalization:
    def test_all_catalog_states_normalized(self):
        states = [
            bell("phi+"),
            bell("psi-"),
            ghz(3),
            ghz(5),
            omega(),
            chi(),
            hs(),
            w_state(1),
            w_state(2),
            bell_product(3),
            odd_resource(2),
            cluster4(),
            cluster5(),
        ]
        for state in states:
            assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12
