from __future__ import annotations

from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import settings

from tmes import capacity, invariants, statevec
from tmes.statevec import Partition, PureState

# Property tests must be reproducible run to run; example counts stay small
# because every case drives dense linear algebra.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


class Chunk(NamedTuple):
    """One yielded chunk: its classes of positions in the call's cuts (class
    k reads matrix k), its stack's shape and bytes, and the stack itself
    unless the spy drops stacks."""

    classes: list[list[int]]
    shape: tuple[int, ...]
    nbytes: int
    stack: np.ndarray | None

    @property
    def where(self) -> list[int]:
        """Every position the chunk's classes hold, ascending."""
        return sorted(i for members in self.classes for i in members)


class CutStackCall(NamedTuple):
    """One ``_cut_stacks`` call: its state and cuts, and the ``Chunk``s
    yielded so far."""

    state: PureState
    cuts: tuple[Partition, ...]
    chunks: list[Chunk]


class CutStackSpy(list):
    """Every ``_cut_stacks`` call that statevec, capacity and invariants
    make, in call order, as ``CutStackCall``s.  Each chunk is recorded as
    it is yielded, so a scan stays lazy.  Stacks are kept unless
    ``keep_stacks`` is set False (a 12-qubit scan's stacks add up to more
    than 100 MiB)."""

    def __init__(self) -> None:
        super().__init__()
        self.keep_stacks = True

    def wrap(self, stacks):
        def recording(state, cuts):
            call = CutStackCall(state, tuple(cuts), [])
            self.append(call)
            for classes, stack in stacks(state, cuts):
                kept = stack if self.keep_stacks else None
                call.chunks.append(Chunk(classes, stack.shape, stack.nbytes, kept))
                yield classes, stack

        return recording

    def matrices(self) -> int:
        """Cut matrices formed over every call: the rows of every stack."""
        return sum(chunk.shape[0] for call in self for chunk in call.chunks)


@pytest.fixture
def cut_stack_spy(monkeypatch) -> CutStackSpy:
    """A ``CutStackSpy`` installed in place of ``_cut_stacks`` in every
    module that scans cuts, for the length of one test."""
    spy = CutStackSpy()
    recording = spy.wrap(statevec._cut_stacks)
    for module in (statevec, capacity, invariants):
        monkeypatch.setattr(module, "_cut_stacks", recording)
    return spy
