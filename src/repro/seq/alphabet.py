"""Residue alphabets and compressed amino-acid alphabets.

An :class:`Alphabet` maps residue characters to small integer codes so that
all downstream kernels (k-mer counting, DP alignment, profiles) operate on
dense ``numpy`` integer arrays instead of Python strings.

Compressed alphabets group amino acids into physico-chemical classes.  Edgar
(*Local homology recognition and distance measures in linear time using
compressed amino acid alphabets*, NAR 2004) showed that k-mer counting over
such alphabets correlates well with fractional identity; Sample-Align-D's
k-mer rank (paper section 2) builds directly on that result.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence as TSequence

import numpy as np

__all__ = [
    "Alphabet",
    "CompressedAlphabet",
    "PROTEIN",
    "DNA",
    "DAYHOFF6",
    "MURPHY10",
    "SE_B14",
    "compressed_alphabets",
    "get_alphabet",
]

GAP_CHAR = "-"


class Alphabet:
    """An ordered residue alphabet with fast char<->code translation.

    Parameters
    ----------
    name:
        Human-readable identifier (``"protein"``, ``"dna"``...).
    symbols:
        The canonical residue characters, in code order.  Code ``i`` is
        ``symbols[i]``.
    wildcard:
        Character standing for "unknown residue".  Any input character that
        is not a symbol, not the gap and not translatable via ``aliases``
        encodes to the wildcard's code.
    aliases:
        Extra character -> canonical character translations applied during
        encoding (e.g. ``B -> D`` for proteins).

    Notes
    -----
    The **gap** is not part of the alphabet: it always encodes to
    :attr:`gap_code`, which equals ``len(symbols)`` (one past the last
    residue code).  Profiles allocate ``size + 1`` rows so the gap count can
    live in the same array.
    """

    def __init__(
        self,
        name: str,
        symbols: str,
        wildcard: str | None = None,
        aliases: Mapping[str, str] | None = None,
    ) -> None:
        if len(set(symbols)) != len(symbols):
            raise ValueError(f"duplicate symbols in alphabet {name!r}")
        if GAP_CHAR in symbols:
            raise ValueError("the gap character may not be an alphabet symbol")
        self.name = name
        self.symbols = symbols
        self.wildcard = wildcard
        self._index: Dict[str, int] = {c: i for i, c in enumerate(symbols)}
        if wildcard is not None and wildcard not in self._index:
            raise ValueError("wildcard must be one of the alphabet symbols")
        self.aliases = dict(aliases or {})

        # Dense uint8 lookup table over the 256 byte values: unknown bytes
        # map to the wildcard (or raise at encode time when there is none).
        lut = np.full(256, 255, dtype=np.uint8)
        for ch, code in self._index.items():
            lut[ord(ch)] = code
            lut[ord(ch.lower())] = code
        for src, dst in self.aliases.items():
            lut[ord(src)] = self._index[dst]
            lut[ord(src.lower())] = self._index[dst]
        lut[ord(GAP_CHAR)] = self.gap_code
        lut[ord(".")] = self.gap_code  # some MSA formats use '.' for gaps
        self._lut = lut

    # -- basic protocol ----------------------------------------------------

    @property
    def size(self) -> int:
        """Number of residue symbols (gap excluded)."""
        return len(self.symbols)

    @property
    def gap_code(self) -> int:
        """Integer code reserved for the gap character."""
        return len(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def __contains__(self, ch: str) -> bool:
        return ch in self._index

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Alphabet({self.name!r}, size={self.size})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Alphabet)
            and self.name == other.name
            and self.symbols == other.symbols
        )

    def __hash__(self) -> int:
        return hash((self.name, self.symbols))

    def index(self, ch: str) -> int:
        """Code of a single residue character (aliases honoured)."""
        ch2 = self.aliases.get(ch, ch)
        return self._index[ch2]

    # -- vectorised encode / decode ----------------------------------------

    def encode(self, text: str, allow_gaps: bool = True) -> np.ndarray:
        """Encode ``text`` to a ``uint8`` code array.

        Unknown characters map to the wildcard when one is defined, and
        raise :class:`ValueError` otherwise.  Gaps are allowed only when
        ``allow_gaps`` is true.
        """
        raw = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
        codes = self._lut[raw]
        bad = codes == 255
        if bad.any():
            if self.wildcard is None:
                pos = int(np.argmax(bad))
                raise ValueError(
                    f"character {text[pos]!r} at position {pos} is not in "
                    f"alphabet {self.name!r}"
                )
            codes = np.where(bad, np.uint8(self._index[self.wildcard]), codes)
        if not allow_gaps and (codes == self.gap_code).any():
            raise ValueError("gap characters are not allowed here")
        return codes

    def decode(self, codes: np.ndarray) -> str:
        """Inverse of :meth:`encode`; gap codes decode to ``'-'``."""
        table = np.frombuffer(
            (self.symbols + GAP_CHAR).encode("ascii"), dtype=np.uint8
        )
        codes = np.asarray(codes)
        if codes.size and int(codes.max(initial=0)) > self.gap_code:
            raise ValueError("code out of range for alphabet")
        return table[codes].tobytes().decode("ascii")

    def background_frequencies(self) -> np.ndarray:
        """Uniform background distribution over the residue symbols."""
        return np.full(self.size, 1.0 / self.size)


class CompressedAlphabet(Alphabet):
    """An alphabet whose symbols are *classes* of a parent alphabet.

    Parameters
    ----------
    name:
        Identifier, e.g. ``"dayhoff6"``.
    parent:
        The uncompressed alphabet (normally :data:`PROTEIN`).
    groups:
        Residue-class strings, e.g. ``["AGPST", "C", ...]``.  Every parent
        symbol must appear in exactly one group.

    The class keeps a vectorised ``parent code -> class code`` projection so
    sequences already encoded in the parent alphabet compress with a single
    fancy-indexing operation (:meth:`project`).
    """

    def __init__(self, name: str, parent: Alphabet, groups: TSequence[str]) -> None:
        seen: Dict[str, int] = {}
        for gi, group in enumerate(groups):
            for ch in group:
                if ch in seen:
                    raise ValueError(f"residue {ch!r} appears in two groups")
                if ch not in parent:
                    raise ValueError(f"residue {ch!r} not in parent alphabet")
                seen[ch] = gi
        missing = [c for c in parent.symbols if c not in seen]
        if missing:
            raise ValueError(f"residues {missing} not covered by any group")
        symbols = "".join(group[0] for group in groups)
        aliases = {
            ch: group[0]
            for group in groups
            for ch in group[1:]
        }
        # Parent aliases (e.g. B->D) must survive compression as well.
        for src, dst in parent.aliases.items():
            aliases.setdefault(src, groups[seen[dst]][0])
        wildcard = symbols[seen[parent.wildcard]] if parent.wildcard else None
        super().__init__(name, symbols, wildcard=wildcard, aliases=aliases)
        self.parent = parent
        self.groups = list(groups)

        proj = np.empty(parent.size + 1, dtype=np.uint8)
        for ch, gi in seen.items():
            proj[parent.index(ch)] = gi
        proj[parent.gap_code] = self.gap_code
        self._projection = proj

    def project(self, parent_codes: np.ndarray) -> np.ndarray:
        """Map parent-alphabet codes to compressed class codes."""
        return self._projection[parent_codes]


#: Canonical 20-letter amino-acid alphabet with ``X`` wildcard.  The
#: ambiguity codes B/Z/U/O/J are aliased to their most common resolution.
PROTEIN = Alphabet(
    "protein",
    "ARNDCQEGHILKMFPSTWYVX",
    wildcard="X",
    aliases={"B": "D", "Z": "E", "U": "C", "O": "K", "J": "L", "*": "X"},
)

#: Nucleotide alphabet with ``N`` wildcard.
DNA = Alphabet(
    "dna",
    "ACGTN",
    wildcard="N",
    aliases={"U": "T"},
)

#: Dayhoff's six physico-chemical classes; the default compressed alphabet
#: for k-mer counting (6 classes keep the k-mer space small enough for dense
#: count vectors at k = 4..6).
DAYHOFF6 = CompressedAlphabet(
    "dayhoff6",
    PROTEIN,
    ["AGPST", "C", "DENQ", "FWY", "HKR", "ILMV", "X"],
)

#: Murphy et al. (2000) ten-class reduction.
MURPHY10 = CompressedAlphabet(
    "murphy10",
    PROTEIN,
    ["LVIM", "C", "A", "G", "ST", "P", "FYW", "EDNQ", "KR", "H", "X"],
)

#: Edgar (2004) SE-B(14) alphabet.
SE_B14 = CompressedAlphabet(
    "se_b14",
    PROTEIN,
    [
        "A", "C", "D", "EQ", "FY", "G", "H", "IV", "KR", "LM", "N", "P",
        "ST", "W", "X",
    ],
)


def compressed_alphabets() -> Dict[str, CompressedAlphabet]:
    """Registry of the bundled compressed alphabets, keyed by name."""
    return {a.name: a for a in (DAYHOFF6, MURPHY10, SE_B14)}


#: Every bundled alphabet by name, built once at import: serialization
#: paths (a served request's sequences, a stored result's rows) resolve
#: names here on every request.
_BUNDLED: Dict[str, Alphabet] = {
    a.name: a for a in (PROTEIN, DNA, DAYHOFF6, MURPHY10, SE_B14)
}


def get_alphabet(name: str) -> Alphabet:
    """Look up a bundled alphabet (plain or compressed) by name.

    The inverse of ``alphabet.name``, case-insensitive; serialization
    paths round-trip alphabets through this lookup.  One read of a
    module-level table built once at import; an unknown name is a
    ``KeyError`` listing the available ones.
    """
    alphabet = _BUNDLED.get(name.lower())
    if alphabet is None:
        raise KeyError(
            f"unknown alphabet {name!r}; available: {sorted(_BUNDLED)}"
        )
    return alphabet
