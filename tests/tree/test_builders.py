"""Tests for repro.tree.builders: the TreeBuilder registry + the math."""

import numpy as np
import pytest
import scipy.cluster.hierarchy as sch
from scipy.spatial.distance import squareform

from repro.distance.tilestore import CondensedMatrix
from repro.tree import (
    DEFAULT_BUILDER,
    GuideTree,
    NeighborJoiningBuilder,
    SingleLinkageBuilder,
    TreeBuilder,
    TreeConfig,
    UpgmaBuilder,
    available_builders,
    builder_info,
    get_builder,
    resolve_tree_stage,
)


def random_distance_matrix(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.uniform(0.1, 2.0, (n, n))
    m = (m + m.T) / 2
    np.fill_diagonal(m, 0.0)
    return m


class TestRegistry:
    def test_builtins_present(self):
        assert set(available_builders()) >= {
            "upgma", "wpgma", "nj", "single-linkage"
        }
        assert DEFAULT_BUILDER in available_builders()

    def test_info_has_descriptions(self):
        info = builder_info()
        assert set(info) == set(available_builders())
        assert all(desc for desc in info.values())

    def test_get_by_name_case_insensitive(self):
        assert isinstance(get_builder("UPGMA"), UpgmaBuilder)
        assert isinstance(get_builder("NJ"), NeighborJoiningBuilder)

    def test_get_default(self):
        assert get_builder(None).name == DEFAULT_BUILDER

    def test_instance_passthrough(self):
        b = SingleLinkageBuilder()
        assert get_builder(b) is b
        with pytest.raises(ValueError, match="instance"):
            get_builder(b, k=3)

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown tree builder"):
            get_builder("neighbour-of-the-beast")

    def test_table_is_fixed(self):
        import repro.tree.builders as builders

        assert not hasattr(builders, "register_builder")
        assert set(available_builders()) == {
            "anchor", "nj", "single-linkage", "upgma", "wpgma"
        }
        with pytest.raises(KeyError) as err:
            get_builder("custom-tree-xyz")
        assert str(available_builders()) in str(err.value)

    def test_builders_are_picklable(self):
        import pickle

        for name in available_builders():
            b = get_builder(name)
            assert pickle.loads(pickle.dumps(b)).name == b.name


class TestBuilderMath:
    @pytest.mark.parametrize("name", ["upgma", "wpgma", "nj", "single-linkage"])
    @pytest.mark.parametrize("n", [2, 3, 9])
    def test_valid_tree_any_size(self, name, n):
        t = get_builder(name).build(random_distance_matrix(n, n))
        assert isinstance(t, GuideTree)
        assert t.n_leaves == n

    def test_single_leaf(self):
        for name in available_builders():
            t = get_builder(name).build(np.zeros((1, 1)), ["only"])
            assert t.n_leaves == 1 and t.labels == ["only"]

    @pytest.mark.parametrize("seed", range(4))
    def test_single_linkage_matches_scipy(self, seed):
        m = random_distance_matrix(10, seed)
        ours = SingleLinkageBuilder().build(m)
        Z = sch.linkage(squareform(m), method="single")
        # Merge heights are half the linkage distances.
        assert np.allclose(sorted(2 * ours.heights), sorted(Z[:, 2]))

    @pytest.mark.parametrize("seed", range(3))
    def test_single_linkage_heights_monotone(self, seed):
        # The minimum pairwise distance never shrinks under min-linkage
        # updates, so merge heights are non-decreasing.
        t = SingleLinkageBuilder().build(random_distance_matrix(12, seed))
        assert (np.diff(t.heights) >= -1e-12).all()

    def test_bad_matrices_rejected(self):
        b = get_builder("upgma")
        with pytest.raises(ValueError, match="square"):
            b.build(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="symmetric"):
            b.build(np.array([[0.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(ValueError, match="diagonal"):
            b.build(np.array([[1.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError, match="labels"):
            b.build(random_distance_matrix(3, 0), ["a", "b"])
        # Non-finite distances, in every input form and under every
        # builder: NaN once built a tree with a nan height, inf failed
        # inside upgma ("invalid children") and nj returned nan heights.
        for bad in (np.nan, np.inf, -np.inf):
            dense = random_distance_matrix(4, 0)
            dense[1, 2] = dense[2, 1] = bad
            vec = squareform(random_distance_matrix(4, 1), checks=False)
            vec[3] = bad
            for name in ("upgma", "wpgma", "nj", "single-linkage"):
                for d in (dense, vec, CondensedMatrix(vec)):
                    with pytest.raises(ValueError, match="must be finite"):
                        get_builder(name).build(d)

    def test_builder_is_callable(self):
        m = random_distance_matrix(4, 1)
        b = get_builder("wpgma")
        assert b(m).merges.tobytes() == b.build(m).merges.tobytes()


class TestTreeConfig:
    def test_defaults_valid(self):
        cfg = TreeConfig()
        # No builder named: the aligner's historical default applies;
        # on its own the config builds the registry default.
        assert cfg.builder is None
        assert cfg.make_builder().name == "upgma"

    def test_dict_roundtrip(self):
        cfg = TreeConfig(builder="anchor", anchors=3, anchor_seed=1)
        assert TreeConfig.from_dict(cfg.to_dict()) == cfg
        import json

        json.dumps(cfg.to_dict())  # JSON-able (engine_kwargs contract)

    def test_registry_names_normalise_to_lower_case(self):
        assert TreeConfig("NJ") == TreeConfig("nj")
        upper = TreeConfig("Anchor", anchors=4, anchor_base="UPGMA")
        assert upper.to_dict() == TreeConfig(
            "anchor", anchors=4, anchor_base="upgma").to_dict()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown TreeConfig keys"):
            TreeConfig.from_dict({"builder": "nj", "estimator": "ktuple"})

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown tree builder"):
            TreeConfig(builder="nope")

    @pytest.mark.parametrize("build", [
        lambda: TreeConfig(backend="pool"),
        lambda: TreeConfig(workers=2),
        lambda: TreeConfig.from_dict({"backend": "pool"}),
    ], ids=["backend", "workers", "dict-backend"])
    def test_placement_keys_are_gone(self, build):
        """The merge walk has no placement: the old keys are typed
        errors, never accepted and ignored."""
        with pytest.raises(ValueError, match="unknown TreeConfig keys"):
            build()


class TestResolveTreeStage:
    def test_none_uses_default_factory(self):
        builder, cfg = resolve_tree_stage(
            None, default=lambda: NeighborJoiningBuilder()
        )
        assert builder.name == "nj"
        assert cfg == TreeConfig()

    def test_name_and_config_and_instance(self):
        for tree in ("wpgma", TreeConfig(builder="wpgma"),
                     {"builder": "wpgma"}, get_builder("wpgma")):
            builder, _ = resolve_tree_stage(tree)
            assert builder.name == "wpgma"

    def test_bad_values(self):
        with pytest.raises(ValueError):
            resolve_tree_stage("nope")
        with pytest.raises(ValueError):
            resolve_tree_stage(123)
        with pytest.raises(ValueError):
            resolve_tree_stage({"builder": "nj", "backend": "gpu"})
        with pytest.raises(ValueError):
            resolve_tree_stage({"builder": "nj", "workers": 0})

    def test_protocol_subclass_accepted(self):
        class Star(TreeBuilder):
            name = "star-test"

            def build(self, dist, labels=None):
                return get_builder("upgma").build(dist, labels)

        builder, _ = resolve_tree_stage(Star())
        assert builder.name == "star-test"
