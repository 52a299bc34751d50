"""Text format for sequence files.

A sequence file holds optional '#' comment lines followed by a single line of
'0'/'1' characters.  Exports write a header comment of the form

    # mode=periodic order=6

which is parsed leniently on import: unknown keys are ignored and a missing
header is fine.
"""
from __future__ import annotations

import os
from typing import Optional, Union

from . import aperiodic, periodic
from .seqcore import BitsError, FiniteSeq, GeneratingCycle, Seq, as_bits, capped_size

__all__ = ["SequenceFile", "parse_sequence", "read_sequence", "write_sequence", "rebuild"]


class SequenceFile:
    __slots__ = ("bits", "mode", "order")

    def __init__(self, bits: str, mode: Optional[str] = None, order: Optional[int] = None):
        as_bits(bits)  # validated once, here; the conversions trust it
        self.bits, self.mode, self.order = bits, mode, order  # mode: "periodic" | "aperiodic"

    def to_cycle(self) -> GeneratingCycle:
        return GeneratingCycle._trusted(int(self.bits, 2), len(self.bits))._require_minimal()

    def to_finite(self) -> FiniteSeq:
        return FiniteSeq._trusted(int(self.bits, 2), len(self.bits))


def parse_sequence(text: str) -> SequenceFile:
    mode: Optional[str] = None
    order: Optional[int] = None
    bits_lines = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            for token in line[1:].split():
                key, _, value = token.partition("=")
                if key == "mode" and value in ("periodic", "aperiodic"):
                    mode = value
                elif key == "order":
                    try:
                        order = int(value)
                    except ValueError:
                        pass
            continue
        bits_lines.append(line)
    if len(bits_lines) != 1:
        raise BitsError(f"expected exactly one line of bits, found {len(bits_lines)}")
    return SequenceFile(bits=bits_lines[0], mode=mode, order=order)


def read_sequence(path: Union[str, os.PathLike]) -> SequenceFile:
    with open(path, encoding="ascii") as fh:
        return parse_sequence(fh.read())


def write_sequence(path: Union[str, os.PathLike], bits: str, *, mode: str, order: int) -> None:
    """Write the '0'/'1' string bits under the header `# mode=<mode> order=<order>`."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# mode={mode} order={order}\n{bits}\n")


def rebuild(mode: str, order: int, size: int) -> Optional[Seq]:
    """The default member of mode at order, built through its builder's memory guard, for
    a caller to compare with a file's bits; None, in O(1) at any order and with no guard,
    if the closed forms give that member another size."""
    if mode == "periodic":
        n0, m0 = periodic.DEFAULT_STARTER_ORDER, periodic.DEFAULT_STARTER.period
        predicted = lambda: periodic.predicted_period(m0, *divmod(order - n0, 2))
        build = lambda: periodic.build_orientable(periodic.DEFAULT_STARTER, n0, order)
    else:
        n0, m0 = aperiodic.DEFAULT_STARTER_ORDER, len(aperiodic.DEFAULT_STARTER)
        predicted = lambda: aperiodic.predicted_length(m0, n0, order - n0)
        build = lambda: aperiodic.build_aos(order)
    if order < n0 or capped_size(order - n0, predicted) != size:
        return None
    return build()[0]
