"""Guide trees: the :class:`GuideTree` container and its Newick form.

A :class:`GuideTree` is a rooted binary merge order over ``n`` leaves:
leaves are nodes ``0..n-1``, the ``i``-th merge creates node ``n+i``, and
the last merge is the root.  Progressive alignment simply replays the merge
list (serially or along the :func:`repro.tree.merge_schedule` DAG);
iterative refinement enumerates its bipartitions.

Trees are built from distance matrices by the
:class:`~repro.tree.builders.TreeBuilder` registry (``upgma``,
``wpgma``, ``nj``, ``single-linkage``).  This module imports nothing
else from the package, so the alignment kernels can import it without
a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

__all__ = ["GuideTree"]

#: Characters that force a Newick label into quoted form (the Newick
#: metacharacters plus whitespace and the quote itself).
_NEWICK_UNSAFE = set("(),:;'[]\t\n\r ")


def _newick_label(label: str) -> str:
    """Render a leaf label, quoting when it contains metacharacters.

    Quoted form wraps in single quotes with embedded quotes doubled
    (standard Newick escaping), so ``to_newick``/``from_newick``
    round-trip any label.
    """
    if label and not (_NEWICK_UNSAFE & set(label)):
        return label
    return "'" + label.replace("'", "''") + "'"


@dataclass
class GuideTree:
    """A rooted binary tree over ``n_leaves`` labelled leaves.

    Attributes
    ----------
    n_leaves:
        Number of leaves.
    merges:
        ``(n_leaves-1, 2)`` int array; row ``i`` holds the two child node
        ids merged into node ``n_leaves + i``.
    heights:
        Height of each internal node (same order as ``merges``); only the
        relative order matters to consumers.
    labels:
        Leaf labels (e.g. sequence ids), length ``n_leaves``.
    """

    n_leaves: int
    merges: np.ndarray
    heights: np.ndarray
    labels: List[str]

    def __post_init__(self) -> None:
        self.merges = np.asarray(self.merges, dtype=np.int64)
        self.heights = np.asarray(self.heights, dtype=np.float64)
        if self.n_leaves < 1:
            raise ValueError("tree needs at least one leaf")
        if len(self.labels) != self.n_leaves:
            raise ValueError("labels length must equal n_leaves")
        if self.n_leaves == 1:
            if self.merges.size:
                raise ValueError("single-leaf tree cannot have merges")
            return
        if self.merges.shape != (self.n_leaves - 1, 2):
            raise ValueError("merges must have shape (n_leaves-1, 2)")
        seen = np.zeros(2 * self.n_leaves - 1, dtype=bool)
        for i, (a, b) in enumerate(self.merges):
            node = self.n_leaves + i
            if not (0 <= a < node and 0 <= b < node and a != b):
                raise ValueError(f"merge {i} references invalid children {a},{b}")
            if seen[a] or seen[b]:
                raise ValueError(f"merge {i} reuses an already-merged node")
            seen[a] = seen[b] = True

    # -- queries -------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return 2 * self.n_leaves - 1

    @property
    def root(self) -> int:
        return self.n_nodes - 1

    def children(self, node: int) -> Tuple[int, int]:
        if node < self.n_leaves:
            raise ValueError("leaves have no children")
        a, b = self.merges[node - self.n_leaves]
        return int(a), int(b)

    def leaves_under(self, node: int) -> np.ndarray:
        """Sorted leaf ids of the subtree rooted at ``node``."""
        if node < self.n_leaves:
            return np.array([node], dtype=np.int64)
        out: List[int] = []
        stack = [node]
        while stack:
            v = stack.pop()
            if v < self.n_leaves:
                out.append(v)
            else:
                stack.extend(self.children(v))
        return np.array(sorted(out), dtype=np.int64)

    def bipartitions(self, include_leaves: bool = True) -> List[np.ndarray]:
        """Leaf sets cut off by every tree edge (one side per edge).

        Every non-root node defines an edge to its parent; the returned
        arrays are the leaf sets under those nodes.  These are the
        restricted partitions that iterative refinement realigns.
        """
        parts: List[np.ndarray] = []
        if include_leaves:
            parts.extend(
                np.array([v], dtype=np.int64) for v in range(self.n_leaves)
            )
        parts.extend(
            self.leaves_under(self.n_leaves + i)
            for i in range(self.n_leaves - 1)
            if self.n_leaves + i != self.root
        )
        return parts

    def to_newick(self, branch_lengths: bool = False) -> str:
        """Newick rendering; optionally annotate branch lengths derived
        from node heights (leaf height = 0).

        Labels containing Newick metacharacters (``(),:;'[]`` or
        whitespace) are emitted single-quoted with embedded quotes
        doubled, so any label round-trips through
        :meth:`from_newick`.
        """
        n = self.n_leaves
        height = np.zeros(self.n_nodes)
        for i in range(len(self.merges)):
            height[n + i] = self.heights[i]

        def render(node: int, parent_h: float) -> str:
            if node < n:
                body = _newick_label(self.labels[node])
            else:
                a, b = self.children(node)
                h = height[node]
                body = f"({render(a, h)},{render(b, h)})"
            if branch_lengths:
                blen = max(parent_h - height[node], 0.0)
                return f"{body}:{blen:.6g}"
            return body

        if n == 1:
            return _newick_label(self.labels[0]) + ";"
        return render(self.root, height[self.root]) + ";"

    @classmethod
    def from_newick(cls, text: str) -> "GuideTree":
        """Parse a (strictly binary) Newick string into a guide tree.

        Supports optional ``:branch_length`` annotations and
        single-quoted labels (``''`` unescapes to a literal quote);
        multifurcations are rejected (progressive alignment needs binary
        merges).  Node heights are reconstructed from branch lengths
        when present, else from topology depth.
        """
        text = text.strip()
        if not text.endswith(";"):
            raise ValueError("newick text must end with ';'")
        s = text[:-1]
        pos = 0

        def parse_quoted() -> str:
            nonlocal pos
            pos += 1  # consume the opening quote
            chars: List[str] = []
            while pos < len(s):
                c = s[pos]
                if c == "'":
                    if pos + 1 < len(s) and s[pos + 1] == "'":
                        chars.append("'")  # doubled quote: literal
                        pos += 2
                        continue
                    pos += 1  # closing quote
                    return "".join(chars)
                chars.append(c)
                pos += 1
            raise ValueError("unterminated quoted label in newick text")

        def parse():  # returns (subtree, branch_length)
            nonlocal pos
            if pos < len(s) and s[pos] == "(":
                pos += 1
                left = parse()
                if pos >= len(s) or s[pos] != ",":
                    raise ValueError(f"expected ',' at position {pos}")
                pos += 1
                right = parse()
                if pos < len(s) and s[pos] == ",":
                    raise ValueError("multifurcating newick not supported")
                if pos >= len(s) or s[pos] != ")":
                    raise ValueError(f"expected ')' at position {pos}")
                pos += 1
                node = ("internal", left, right)
            elif pos < len(s) and s[pos] == "'":
                node = ("leaf", parse_quoted())
            else:
                start = pos
                while pos < len(s) and s[pos] not in ",():;":
                    pos += 1
                label = s[start:pos].strip()
                if not label:
                    raise ValueError(f"empty leaf label at position {start}")
                node = ("leaf", label)
            blen = 0.0
            if pos < len(s) and s[pos] == ":":
                pos += 1
                start = pos
                while pos < len(s) and s[pos] not in ",()":
                    pos += 1
                blen = float(s[start:pos])
            return (node, blen)

        tree, _root_blen = parse()
        if pos != len(s):
            raise ValueError(f"trailing characters at position {pos}")

        # Phase 1: collect leaf labels in reading order (their ids).
        labels: List[str] = []

        def collect(node) -> None:
            if node[0] == "leaf":
                labels.append(node[1])
            else:
                collect(node[1][0])
                collect(node[2][0])

        collect(tree)
        n = len(labels)
        if len(set(labels)) != n:
            raise ValueError("duplicate leaf labels in newick text")
        if n == 1:
            return cls(1, np.zeros((0, 2)), np.zeros(0), labels)

        # Phase 2: post-order id assignment (merge k creates node n + k).
        merges: List[Tuple[int, int]] = []
        heights: List[float] = []
        leaf_iter = iter(range(n))

        def emit(node) -> Tuple[int, float]:
            if node[0] == "leaf":
                return next(leaf_iter), 0.0
            (lsub, lblen) = node[1]
            (rsub, rblen) = node[2]
            lid, lh = emit(lsub)
            rid, rh = emit(rsub)
            h = max(lh + lblen, rh + rblen)
            if h <= 0.0:
                h = max(lh, rh) + 1.0  # no branch lengths: depth heights
            merges.append((lid, rid))
            heights.append(h)
            return n + len(merges) - 1, h

        emit(tree)
        return cls(n, np.array(merges), np.array(heights), labels)

