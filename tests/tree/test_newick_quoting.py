"""Newick round-trips for labels with metacharacters and branch lengths."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.tree import GuideTree, UpgmaBuilder

NASTY_LABELS = [
    "plain",
    "with space",
    "comma,inside",
    "paren(open",
    "paren)close",
    "colon:sep",
    "semi;colon",
    "quote'single",
    "double''quote",
    "all of ():;','em",
    "[bracketed]",
    "tab\tchar",
]


def tree_over(labels):
    n = len(labels)
    rng = np.random.default_rng(7)
    m = rng.uniform(0.2, 1.5, (n, n))
    m = (m + m.T) / 2
    np.fill_diagonal(m, 0.0)
    return UpgmaBuilder().build(m, labels)


class TestMetacharacterRoundTrip:
    def test_all_nasty_labels_topology(self):
        t = tree_over(NASTY_LABELS)
        again = GuideTree.from_newick(t.to_newick())
        assert again.labels == [
            t.labels[i] for i in _leaf_reading_order(t)
        ]
        assert set(again.labels) == set(NASTY_LABELS)
        # A second trip is a fixed point.
        assert GuideTree.from_newick(again.to_newick()).to_newick() == \
            again.to_newick()

    def test_all_nasty_labels_with_branch_lengths(self):
        t = tree_over(NASTY_LABELS)
        text = t.to_newick(branch_lengths=True)
        again = GuideTree.from_newick(text)
        assert set(again.labels) == set(NASTY_LABELS)
        assert np.allclose(
            sorted(again.heights), sorted(t.heights), atol=1e-5
        )
        # Topology survives exactly; branch lengths only to rendering
        # precision (%.6g), so compare the topology-only rendering.
        assert again.to_newick() == t.to_newick()

    def test_single_quoted_leaf(self):
        t = GuideTree.from_newick("'only label';")
        assert t.labels == ["only label"]
        assert t.to_newick() == "'only label';"

    def test_doubled_quote_unescapes(self):
        t = GuideTree.from_newick("('it''s a','plain');")
        assert t.labels == ["it's a", "plain"]

    def test_quoted_label_with_branch_length(self):
        t = GuideTree.from_newick("('a b':1.5,c:0.5);")
        assert t.labels == ["a b", "c"]
        assert t.heights[0] == pytest.approx(1.5)

    def test_unsafe_label_is_quoted_on_emit(self):
        t = GuideTree(2, np.array([[0, 1]]), np.array([1.0]), ["a b", "c"])
        assert t.to_newick() == "('a b',c);"

    def test_plain_labels_stay_unquoted(self):
        t = GuideTree(2, np.array([[0, 1]]), np.array([1.0]), ["a", "b"])
        assert t.to_newick() == "(a,b);"

    def test_unterminated_quote_rejected(self):
        with pytest.raises(ValueError, match="unterminated"):
            GuideTree.from_newick("('oops,b);")

    @given(
        st.lists(
            st.text(
                alphabet=st.characters(
                    codec="ascii", min_codepoint=32, max_codepoint=126
                ),
                min_size=1,
                max_size=12,
            ).filter(lambda s: s.strip() == s and s.strip() != ""),
            min_size=2,
            max_size=8,
            unique=True,
        )
    )
    def test_arbitrary_printable_labels_roundtrip(self, labels):
        t = tree_over(labels)
        again = GuideTree.from_newick(t.to_newick(branch_lengths=True))
        assert set(again.labels) == set(labels)
        assert again.to_newick() == GuideTree.from_newick(
            again.to_newick()
        ).to_newick()


def _leaf_reading_order(tree):
    """Leaf ids in newick reading order (left-to-right rendering)."""
    order = []

    def walk(node):
        if node < tree.n_leaves:
            order.append(node)
        else:
            a, b = tree.children(node)
            walk(a)
            walk(b)

    walk(tree.root)
    return order
