"""Property and unit tests for the repro.distance estimators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.distance import (
    DistanceConfig,
    FullDpDistance,
    KtupleDistance,
    all_pairs,
    available_estimators,
    estimator_info,
    fractional_identity_estimate,
    get_estimator,
    identity_to_distance,
    kimura_distance,
    resolve_distance_stage,
)
from repro.seq.sequence import Sequence

AMINO = "ACDEFGHIKLMNPQRSTVWY"


def seqs_from(texts):
    return [Sequence(f"s{i}", t) for i, t in enumerate(texts)]


seq_lists = st.lists(
    st.text(alphabet=AMINO, min_size=1, max_size=18),
    min_size=2,
    max_size=5,
)


class TestEveryEstimatorProperties:
    """The registry-wide contract: symmetric, zero-diagonal, finite."""

    @pytest.mark.parametrize("name", sorted(available_estimators()))
    @given(texts=seq_lists)
    @settings(max_examples=15, deadline=None)
    def test_symmetric_zero_diagonal_finite(self, name, texts):
        d = all_pairs(seqs_from(texts), name)
        n = len(texts)
        assert d.shape == (n, n)
        assert np.isfinite(d).all()
        assert (np.diag(d) == 0.0).all()
        # Exactly symmetric (not just allclose): the scheduler writes the
        # same float to both triangles.
        assert (d == d.T).all()
        assert (d >= 0.0).all()

    @pytest.mark.parametrize("name", sorted(available_estimators()))
    @given(texts=seq_lists)
    @settings(max_examples=10, deadline=None)
    def test_tiling_never_changes_values(self, name, texts):
        seqs = seqs_from(texts)
        base = all_pairs(seqs, name)
        tiled = all_pairs(seqs, name, tile_pairs=1)
        assert base.tobytes() == tiled.tobytes()


class TestKtuple:
    def test_matches_legacy_helper(self, tiny_seqs):
        seqs = list(tiny_seqs)
        by_instance = all_pairs(seqs, KtupleDistance(k=3))
        by_name = all_pairs(seqs, "ktuple", k=3)
        assert by_instance.tobytes() == by_name.tobytes()

    def test_identical_sequences_distance_zero(self):
        seqs = seqs_from(["MKVAWDEN", "MKVAWDEN"])
        d = all_pairs(seqs, "ktuple", k=3)
        assert d[0, 1] == 0.0

    def test_too_short_pairs_distance_one(self):
        seqs = seqs_from(["MKV", "MKVAWDENQ"])
        d = all_pairs(seqs, KtupleDistance(k=6))
        assert d[0, 1] == 1.0

    def test_sparse_kmer_space_path(self):
        # k=8 over Dayhoff-6: 6**8 > dense limit, exercises intersect1d.
        seqs = seqs_from(["MKVAWDENAAQ", "MKVAWDQQFFF", "WWWWYYYYGGG"])
        d = all_pairs(seqs, "ktuple", k=8)
        assert (np.diag(d) == 0).all() and np.isfinite(d).all()

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            KtupleDistance(k=0)


class TestFullDp:
    def test_full_dp_matches_legacy_helper(self, tiny_seqs):
        seqs = list(tiny_seqs)[:4]
        by_instance = all_pairs(seqs, FullDpDistance())
        by_name = all_pairs(seqs, "full-dp")
        assert by_instance.tobytes() == by_name.tobytes()

    def test_kimura_transform_monotone(self, tiny_seqs):
        seqs = list(tiny_seqs)[:4]
        linear = all_pairs(seqs, "full-dp")
        kim = all_pairs(seqs, "full-dp", transform="kimura")
        off = ~np.eye(len(seqs), dtype=bool)
        # Kimura stretches distances (d >= D for D in [0, saturation)).
        assert (kim[off] >= linear[off] - 1e-12).all()

    def test_unknown_transform_rejected(self):
        with pytest.raises(ValueError):
            FullDpDistance(transform="sqrt")


class TestTransforms:
    def test_linear_is_one_minus_identity(self):
        ident = np.array([0.0, 0.25, 1.0])
        assert np.array_equal(identity_to_distance(ident), 1.0 - ident)

    def test_kimura_flat_and_matrix_forms(self):
        ident = np.array([[1.0, 0.9], [0.9, 1.0]])
        m = kimura_distance(ident)
        flat = kimura_distance(np.array([0.9]))
        assert m[0, 1] == pytest.approx(flat[0])
        assert m[0, 0] == 0.0

    def test_unknown_transform(self):
        with pytest.raises(ValueError):
            identity_to_distance(np.array([0.5]), "log")

    def test_legacy_delegates_are_shared(self):
        import repro.distance as rd
        import repro.distance.transforms as t

        assert rd.fractional_identity_estimate is t.fractional_identity_estimate
        assert rd.kimura_distance is t.kimura_distance
        assert rd.alignment_identity_matrix is t.alignment_identity_matrix


class TestRegistry:
    def test_builtins_present_with_descriptions(self):
        info = estimator_info()
        assert set(info) == {"ktuple", "kmer-fraction", "full-dp"}
        assert all(info.values())

    def test_get_estimator_instance_passthrough(self):
        est = KtupleDistance(k=5)
        assert get_estimator(est) is est
        with pytest.raises(ValueError):
            get_estimator(est, k=3)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_estimator("euclidean")

    def test_bad_factory_kwargs_clean_error(self):
        with pytest.raises(ValueError, match="full-dp"):
            get_estimator("full-dp", k=9)

    def test_table_is_fixed(self):
        import repro.distance.estimators as estimators

        assert not hasattr(estimators, "register_estimator")
        assert available_estimators() == [
            "full-dp", "kmer-fraction", "ktuple"
        ]
        with pytest.raises(KeyError) as err:
            get_estimator("unit-test-est")
        assert str(available_estimators()) in str(err.value)


class TestDistanceConfig:
    def test_dict_round_trip(self):
        cfg = DistanceConfig(
            estimator="full-dp", transform="kimura",
            backend="threads", workers=2,
        )
        again = DistanceConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_validation(self):
        with pytest.raises(ValueError):
            DistanceConfig(estimator="nope")
        with pytest.raises(ValueError):
            DistanceConfig(transform="nope")
        with pytest.raises(ValueError):
            DistanceConfig(backend="gpu")
        with pytest.raises(ValueError):
            DistanceConfig(workers=0)
        with pytest.raises(ValueError):
            DistanceConfig(k=0)
        with pytest.raises(ValueError):
            DistanceConfig.from_dict({"estimator": "ktuple", "tile": 9})

    def test_qualifier_the_estimator_does_not_take_is_rejected(self):
        with pytest.raises(ValueError, match="'full-dp' takes no 'k'"):
            DistanceConfig.from_dict({"estimator": "full-dp", "k": 3})
        with pytest.raises(ValueError, match="'ktuple' takes no 'transform'"):
            DistanceConfig(estimator="ktuple", transform="kimura")
        assert resolve_distance_stage({"estimator": "ktuple", "k": 3})[0].k == 3
        est, _ = resolve_distance_stage(
            {"estimator": "full-dp", "transform": "kimura"}
        )
        assert est.transform == "kimura"
        kf = DistanceConfig("kmer-fraction", k=3, transform="kimura")
        assert kf.make_estimator() == get_estimator(
            "kmer-fraction", k=3, transform="kimura"
        )

    def test_kband_name_is_gone(self, tmp_path, capsys):
        from repro.cli import main

        assert available_estimators() == ["full-dp", "kmer-fraction", "ktuple"]
        fasta = tmp_path / "two.fasta"
        fasta.write_text(">a\nMKVAWDEN\n>b\nMKVAWDQN\n")
        for argv in (
            ["align", str(fasta), "--engine", "clustalw", "--distance", "kband"],
            ["distances", str(fasta), "--estimator", "kband"],
        ):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert "unknown distance estimator 'kband'" in err
            assert "available: ['full-dp', 'kmer-fraction', 'ktuple']" in err
        with pytest.raises(KeyError, match="unknown distance estimator"):
            get_estimator("kband")
        with pytest.raises(ValueError, match=r"unknown distance estimator "
                           r"'kband'; available: \['full-dp'"):
            DistanceConfig("kband")
        with pytest.raises(ImportError):
            import repro.align.kband  # noqa: F401
        import repro.align
        import repro.distance

        assert not hasattr(repro.distance, "KbandDistance")
        assert not hasattr(repro.align, "banded_align")

    def test_resolve_from_dict_carries_backend(self):
        est, cfg = resolve_distance_stage(
            {"estimator": "ktuple", "k": 6, "backend": "threads",
             "workers": 3}
        )
        assert est.k == 6 and cfg.backend == "threads" and cfg.workers == 3
        assert cfg.out is None and cfg.store_dir is None

    def test_explicit_args_win_over_config(self):
        # The one way to override a placement is another config:
        # field-wise, the overriding config's fields win.
        base = DistanceConfig(estimator="ktuple", backend="threads", workers=4)
        est, cfg = resolve_distance_stage(
            DistanceConfig(backend="pool", workers=2).over(base)
        )
        assert est.name == "ktuple"
        assert cfg.backend == "pool" and cfg.workers == 2
        with pytest.raises(TypeError):
            resolve_distance_stage(base, backend="pool", workers=2)

    def test_placement_only_spec_keeps_the_default_estimator(self):
        est, cfg = resolve_distance_stage(
            {"backend": "pool"}, default=lambda: FullDpDistance()
        )
        assert est.name == "full-dp" and cfg.backend == "pool"

    def test_merge_keeps_qualifiers_with_what_they_qualify(self):
        default = DistanceConfig(
            "kmer-fraction", transform="kimura", out="memmap",
            store_dir="/tmp/ts",
        )
        merged = DistanceConfig("ktuple", out="memory").over(default)
        assert merged == DistanceConfig("ktuple", out="memory")
        assert DistanceConfig().over(default) == default

    def test_registry_names_normalise_to_lower_case(self):
        assert DistanceConfig("KTuple", backend="Threads", out="MemMap",
                              store_dir="/Tmp/TS") == DistanceConfig(
            "ktuple", backend="threads", out="memmap", store_dir="/Tmp/TS")
        assert (DistanceConfig("KTuple").to_dict()
                == DistanceConfig("ktuple").to_dict())

    def test_resolve_carries_out_and_store_dir(self):
        _, cfg = resolve_distance_stage(
            DistanceConfig(
                estimator="ktuple", out="memmap", store_dir="/tmp/ts"
            )
        )
        assert cfg.out == "memmap" and cfg.store_dir == "/tmp/ts"
        _, cfg = resolve_distance_stage(
            {"estimator": "ktuple", "out": "condensed"}
        )
        assert cfg.out == "condensed"
        with pytest.raises(ValueError):
            resolve_distance_stage({"estimator": "ktuple", "out": "ram"})
        with pytest.raises(ValueError):
            resolve_distance_stage(
                {"estimator": "ktuple", "store_dir": "/tmp/ts"}
            )
        with pytest.raises(ValueError):
            DistanceConfig(out="nope")
        with pytest.raises(ValueError):
            DistanceConfig(store_dir="/tmp/ts")  # needs out="memmap"

    def test_bad_distance_value(self):
        with pytest.raises(ValueError):
            resolve_distance_stage(3.14)
