"""Output checks; each violation is one failed operation."""

from __future__ import annotations

from typing import List, Sequence as TSequence

from repro.seq.alignment import Alignment
from repro.seq.sequence import Sequence


def alignment_problems(
    aln: Alignment, inputs: TSequence[Sequence]
) -> List[str]:
    """Violated invariants of ``aln`` as an alignment of ``inputs``.

    Ids and row count preserved in input order, degapped rows equal to
    the inputs, no all-gap column.
    """
    problems = []
    if list(aln.ids) != [s.id for s in inputs]:
        problems.append("row ids differ from the input ids")
    else:
        for got, want in zip(aln.ungapped(), inputs):
            if got.residues != want.residues:
                problems.append(f"row {want.id} does not degap to its input")
                break
    if aln.n_rows and aln.gap_mask().all(axis=0).any():
        problems.append("all-gap column")
    return problems
