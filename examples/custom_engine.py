"""Extensibility tour: custom engines, newick trees, CLUSTAL output.

Shows the plug-in surface a downstream user actually touches:

1. register a custom sequential aligner -- one registration makes the
   name usable everywhere: as a standalone engine via ``repro.align``,
   and as Sample-Align-D's per-bucket engine (the paper's "any
   sequential MSA system");
2. drive progressive alignment with an externally supplied newick tree;
3. add new sequences to a finished alignment incrementally
   (the PSI-BLAST-style primitive behind the ancestor tweak);
4. export results in CLUSTAL (.aln) format.

Run:  python examples/custom_engine.py
"""

from dataclasses import dataclass, field

import repro
from repro.align import add_sequences, progressive_align
from repro.align.profile_align import ProfileAlignConfig
from repro.core.config import SampleAlignDConfig
from repro.datagen import rose
from repro.msa import SequentialMsaAligner
from repro.msa.registry import register_aligner
from repro.seq.formats import to_clustal
from repro.tree import GuideTree


@dataclass
class LengthSortedCenterStar(SequentialMsaAligner):
    """A deliberately simple custom engine: center-star, but the center
    is the longest sequence (a plausible heuristic for domain anchors)."""

    scoring: ProfileAlignConfig = field(default_factory=ProfileAlignConfig)
    name = "length-center-star"

    def align(self, seqs):
        from repro.align import Profile, align_profiles

        sset = self._validate_input(seqs)
        if len(sset) == 1:
            from repro.seq.alignment import Alignment

            return Alignment.from_single(sset[0])
        order = sorted(range(len(sset)), key=lambda i: -len(sset[i]))
        profile = Profile.from_sequence(sset[order[0]])
        for idx in order[1:]:
            profile, _ = align_profiles(
                profile, Profile.from_sequence(sset[idx]), self.scoring
            )
        return profile.alignment.select_rows(sset.ids)


def main() -> None:
    fam = rose.generate_family(n_sequences=16, mean_length=90,
                               relatedness=300, seed=2)

    # 1. Register the custom engine (overwrite=True makes re-runs and
    #    engine swapping painless) and use it both ways: standalone
    #    through the unified facade, and as Sample-Align-D's bucket
    #    aligner.
    register_aligner(
        "length-center-star",
        lambda **kw: LengthSortedCenterStar(**kw),
        overwrite=True,
    )
    solo = repro.align(fam.sequences, engine="length-center-star")
    print("custom engine standalone:", solo.summary())
    result = repro.align(
        fam.sequences,
        engine="sample-align-d",
        n_procs=4,
        config=SampleAlignDConfig(local_aligner="length-center-star"),
    )
    print("\nSample-Align-D with the custom bucket engine:")
    print(result.summary(), "\n")

    # 2. Progressive alignment along a hand-specified newick tree.
    ids = fam.sequences.ids
    left = ",".join(ids[:2])
    newick = f"(({left}),({ids[2]},{ids[3]}));"
    tree = GuideTree.from_newick(newick)
    aln4 = progressive_align(list(fam.sequences[:4]), tree)
    print(f"progressive alignment along {newick}: "
          f"{aln4.n_rows} rows x {aln4.n_columns} cols")

    # 3. Fold the remaining sequences in incrementally.
    full = add_sequences(aln4, list(fam.sequences[4:]))
    print(f"after incremental addition: {full.n_rows} rows x "
          f"{full.n_columns} cols")

    # 4. CLUSTAL-format export (first block shown).
    clustal = to_clustal(full)
    print("\nCLUSTAL output (head):")
    print("\n".join(clustal.splitlines()[:10]))


if __name__ == "__main__":
    main()
