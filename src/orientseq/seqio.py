"""Text format for sequence files.

A sequence file holds optional '#' comment lines followed by a single line of
'0'/'1' characters.  Exports write a header comment of the form

    # mode=periodic order=6

which is parsed leniently on import: unknown keys are ignored and a missing
header is fine.  The body is read as packed bits, a `FiniteSeq`; its reader
decides whether the word is a cycle.
"""
from __future__ import annotations

import os
from typing import Optional, Union

from .seqcore import BitsError, FiniteSeq, as_bits

__all__ = ["read_sequence", "write_sequence"]


def read_sequence(path: Union[str, os.PathLike]) -> tuple[FiniteSeq, Optional[str], Optional[int]]:
    """(bits, mode, order): the body packed, and the header's mode ("periodic" or
    "aperiodic") and order, each None where the header does not give it."""
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    mode: Optional[str] = None
    order: Optional[int] = None
    body = []
    for line in lines:
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
        body.append(line)
    if len(body) != 1:
        raise BitsError(f"expected exactly one line of bits, found {len(body)}")
    bits = as_bits(body[0])
    return FiniteSeq._trusted(int(bits, 2), len(bits)), mode, order


def write_sequence(path: Union[str, os.PathLike], bits: str, *, mode: str, order: int) -> None:
    """Write the '0'/'1' string bits under the header `# mode=<mode> order=<order>`."""
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines((f"# mode={mode} order={order}\n", bits, "\n"))  # no copy of the body
