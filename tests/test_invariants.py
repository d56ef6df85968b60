"""Cross-layer invariants, property-tested end to end.

These tests tie multiple subsystems together under randomised inputs:
whatever the family, the processor count, or the configuration, the
pipeline must preserve sequences exactly, keep orders stable, respect
occupancy bounds, and stay deterministic.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import sample_align_d
from repro.core.config import SampleAlignDConfig
from repro.datagen.rose import generate_family
from repro.engine import available_engines
from repro.samplesort import max_bucket_bound
from repro.seq.alignment import Alignment
from repro.seq.alphabet import DNA, PROTEIN
from repro.seq.formats import parse_clustal, parse_phylip, to_clustal, to_phylip
from repro.seq.fasta import parse_fasta_alignment
from repro.seq.sequence import Sequence, SequenceSet


@st.composite
def family_params(draw):
    return dict(
        n_sequences=draw(st.integers(4, 20)),
        mean_length=draw(st.integers(30, 90)),
        relatedness=draw(st.sampled_from([100.0, 400.0, 800.0])),
        seed=draw(st.integers(0, 10_000)),
    )


class TestPipelineInvariants:
    @given(family_params(), st.integers(1, 6))
    @settings(max_examples=10, deadline=None)
    def test_roundtrip_any_family_any_p(self, params, n_procs):
        fam = generate_family(track_alignment=False, **params)
        res = sample_align_d(fam.sequences, n_procs=n_procs)
        aln = res.alignment
        assert aln.ids == fam.sequences.ids
        un = aln.ungapped()
        for s in fam.sequences:
            assert un[s.id].residues == s.residues
        n = len(fam.sequences)
        assert res.bucket_sizes.sum() == n
        assert res.bucket_sizes.max() <= max_bucket_bound(n, n_procs) + n_procs

    @given(family_params())
    @settings(max_examples=5, deadline=None)
    def test_determinism_property(self, params):
        fam = generate_family(track_alignment=False, **params)
        a = sample_align_d(fam.sequences, n_procs=3)
        b = sample_align_d(fam.sequences, n_procs=3)
        assert a.alignment == b.alignment

    @given(family_params())
    @settings(max_examples=5, deadline=None)
    def test_input_order_irrelevant_to_roundtrip(self, params):
        fam = generate_family(track_alignment=False, **params)
        seqs = list(fam.sequences)
        shuffled = SequenceSet(seqs[::-1])
        res = sample_align_d(shuffled, n_procs=3)
        un = res.alignment.ungapped()
        for s in seqs:
            assert un[s.id].residues == s.residues


#: Edge-case inputs every engine must align: the fewest rows, rows with
#: nothing to tell apart, the shortest rows, and shortest mixed with long.
EDGE_INPUTS = {
    "two": ["MKTAYIAKQRQ", "MKTAHIAKQR"],
    "five-identical": ["MKTAYIAKQR"] * 5,
    "four-length-1": ["M", "K", "M", "W"],
    "length-1-and-7": ["M", "MKTAYIA", "K", "MKTWYIA", "W"],
}


class TestEveryEngineInvariants:
    @pytest.mark.parametrize("case", sorted(EDGE_INPUTS))
    @pytest.mark.parametrize("engine", sorted(available_engines()))
    def test_alignment_invariants(self, engine, case):
        seqs = [
            Sequence(f"s{i}", residues)
            for i, residues in enumerate(EDGE_INPUTS[case])
        ]
        aln = repro.align(seqs, engine=engine).alignment
        assert aln.ids == [s.id for s in seqs]
        assert aln.n_rows == len(seqs)
        un = aln.ungapped()
        for s in seqs:
            assert un[s.id].residues == s.residues
        gap_rows = aln.matrix == aln.alphabet.gap_code
        assert not gap_rows.all(axis=0).any(), "an all-gap column"


class TestFormatInvariants:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_alignment_format_roundtrips(self, seed):
        rng = np.random.default_rng(seed)
        n_rows = int(rng.integers(2, 6))
        n_cols = int(rng.integers(1, 80))
        mat = rng.integers(0, PROTEIN.gap_code + 1, (n_rows, n_cols)).astype(
            np.uint8
        )
        # Avoid all-gap rows (formats with per-row text handle them, but
        # Sequence round-trips through fasta need at least one residue).
        mat[:, 0] = rng.integers(0, PROTEIN.gap_code, n_rows)
        aln = Alignment([f"r{i}" for i in range(n_rows)], mat)

        assert parse_clustal(to_clustal(aln)) == aln
        again = parse_phylip(to_phylip(aln))
        assert again.n_columns == aln.n_columns
        assert [again.row_text(i) for i in range(n_rows)] == [
            aln.row_text(i) for i in range(n_rows)
        ]
        fasta_again = parse_fasta_alignment(aln.to_fasta())
        assert fasta_again == aln


class TestDnaPipeline:
    """The stack is generic over alphabets: run it end to end on DNA."""

    @staticmethod
    def _dna_family(n=10, L=60, seed=0):
        rng = np.random.default_rng(seed)
        root = rng.integers(0, 4, L).astype(np.uint8)
        seqs = []
        for i in range(n):
            codes = root.copy()
            hit = rng.random(L) < 0.15
            codes[hit] = rng.integers(0, 4, int(hit.sum()))
            text = DNA.decode(codes)
            seqs.append(Sequence(f"dna{i}", text, alphabet=DNA))
        return SequenceSet(seqs)

    def test_dna_sample_align_d(self):
        from repro.align.profile_align import ProfileAlignConfig
        from repro.kmer.rank import RankConfig
        from repro.seq.matrices import DNA_SIMPLE, GapPenalties

        seqs = self._dna_family()
        scoring = ProfileAlignConfig(
            matrix=DNA_SIMPLE, gaps=GapPenalties(8, 1)
        )
        config = SampleAlignDConfig(
            rank_config=RankConfig(k=6, alphabet=DNA),
            scoring=scoring,
            local_aligner="muscle-draft",
            local_aligner_kwargs={"scoring": scoring, "kmer_k": 6},
        )
        res = sample_align_d(seqs, n_procs=2, config=config)
        un = res.alignment.ungapped()
        for s in seqs:
            assert un[s.id].residues == s.residues
        assert res.alignment.alphabet == DNA

    def test_dna_kmer_rank(self):
        from repro.kmer.rank import RankConfig, centralized_rank

        seqs = self._dna_family()
        ranks = centralized_rank(list(seqs), RankConfig(k=6, alphabet=DNA))
        assert ranks.shape == (len(seqs),)
        assert (ranks >= 0).all()
