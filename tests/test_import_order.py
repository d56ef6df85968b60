"""Each subpackage imports cleanly when it is the first one imported.

``repro.tree`` owns :class:`~repro.tree.GuideTree`, and the alignment
kernels under ``repro.align`` import it while ``repro.tree``'s builders
import ``repro.align.dp``; a fresh interpreter per entry point catches
any import cycle that a warm ``sys.modules`` would hide.
"""

import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


@pytest.mark.parametrize(
    "first",
    ["repro.tree", "repro.align", "repro.kmer", "repro.distance",
     "repro.msa", "repro.core"],
)
def test_first_import_in_a_fresh_interpreter(first):
    code = (
        f"import {first}\n"
        "import repro, repro.tree\n"
        "assert repro.GuideTree is repro.tree.GuideTree\n"
        "import repro.align, repro.core, repro.distance, repro.kmer, "
        "repro.msa\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_the_old_homes_are_gone():
    import importlib

    for name in ("repro.align.guide_tree", "repro.kmer.distance"):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(name)
    import repro.align
    import repro.kmer

    for module, name in (
        (repro.align, "GuideTree"), (repro.align, "upgma"),
        (repro.align, "wpgma"), (repro.align, "neighbor_joining"),
        (repro.kmer, "kmer_distance_matrix"),
    ):
        assert not hasattr(module, name)
