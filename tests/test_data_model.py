"""Datasets, CSV ingestion, mixture benchmark, and fold splitting."""

import math

import numpy as np
import pytest
from scipy.stats import chisquare

from treeuq import (
    Dataset,
    DatasetError,
    GaussianMixtureSpec,
    MixtureComponent,
    bayes_posterior,
    estimate_bayes_error,
    kfold_split,
    load_csv,
    make_benchmark_mixture,
    sample_mixture,
    write_csv,
)


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_pima_shaped_file(self, tmp_path):
        rng = np.random.default_rng(0)
        lines = ["f1,f2,f3,f4,f5,f6,f7,f8,outcome"]
        for i in range(768):
            feats = ",".join(f"{v:.3f}" for v in rng.uniform(0, 10, 8))
            lines.append(f"{feats},{i % 2}")
        path = _write(tmp_path / "pima_like.csv", "\n".join(lines) + "\n")
        data = load_csv(path, "outcome")
        assert (data.n, data.m, data.num_classes) == (768, 8, 2)

    def test_labels_encoded_in_first_appearance_order(self, tmp_path):
        path = _write(tmp_path / "two.csv", "x,y\n1.0,a\n2.0,b\n")
        data = load_csv(path, "y")
        assert data.labels.tolist() == [0, 1]

    def test_unparsable_cell_names_row_and_column(self, tmp_path):
        path = _write(tmp_path / "bad.csv", "a,b,c,y\n1,2,3,p\n4,5,?,q\n")
        with pytest.raises(DatasetError, match=r"row 2, column 'c'"):
            load_csv(path, "y")

    @pytest.mark.parametrize("token", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_names_row_and_column(self, tmp_path, token):
        path = _write(tmp_path / "nonfinite.csv", f"a,y,b\n1,p,2\n3,q,4\n5,p,{token}\n")
        with pytest.raises(DatasetError, match=r"row 3, column 'b': non-finite value"):
            load_csv(path, "y")

    def test_earliest_bad_row_is_reported_first(self, tmp_path):
        path = _write(tmp_path / "order.csv", "a,b,y\n1,2,p\n3,nan,q\n?,4,p\n")
        with pytest.raises(DatasetError, match=r"row 2, column 'b': non-finite value"):
            load_csv(path, "y")
        path = _write(tmp_path / "order2.csv", "a,b,y\n1,2,p\nx,inf,q\n")
        with pytest.raises(DatasetError, match=r"row 2, column 'a': cannot parse 'x'"):
            load_csv(path, "y")

    def test_label_column_between_features(self, tmp_path):
        path = _write(tmp_path / "mid.csv", "a,y,b\n1.5,p,-2\n3,q,4e1\n")
        data = load_csv(path, "y")
        assert data.feature_names == ("a", "b")
        assert data.features.tolist() == [[1.5, -2.0], [3.0, 40.0]]

    def test_single_class_rejected(self, tmp_path):
        path = _write(tmp_path / "one.csv", "x,y\n1.0,a\n2.0,a\n")
        with pytest.raises(DatasetError, match="one class"):
            load_csv(path, "y")

    def test_label_column_by_index(self, tmp_path):
        path = _write(tmp_path / "byidx.csv", "y,x\nu,1.0\nv,2.0\n")
        data = load_csv(path, 0)
        assert data.feature_names == ("x",)
        assert data.labels.tolist() == [0, 1]

    def test_missing_label_column(self, tmp_path):
        path = _write(tmp_path / "nolabel.csv", "x,y\n1.0,a\n")
        with pytest.raises(DatasetError, match="no column named"):
            load_csv(path, "z")

    def test_ragged_row_rejected(self, tmp_path):
        path = _write(tmp_path / "ragged.csv", "x,y\n1.0,a\n2.0\n")
        with pytest.raises(DatasetError, match="row 2"):
            load_csv(path, "y")

    def test_round_trip_through_write_csv(self, tmp_path):
        data = sample_mixture(make_benchmark_mixture(), 50, 3)
        path = tmp_path / "rt.csv"
        write_csv(data, path)
        back = load_csv(path, "class")
        assert np.array_equal(back.features, data.features)
        assert np.array_equal(back.labels, data.labels)


class TestPaperMixture:
    def test_weights_sum_to_one(self):
        spec = make_benchmark_mixture()
        assert abs(sum(c.weight for c in spec.components) - 1.0) <= 1e-12

    def test_class_zero_weights_sum_to_half(self):
        spec = make_benchmark_mixture()
        assert sum(c.weight for c in spec.components if c.class_index == 0) == pytest.approx(0.50)

    def test_all_covariances(self):
        assert all(c.cov_scale == 0.03 for c in make_benchmark_mixture().components)

    def test_five_components_two_classes(self):
        spec = make_benchmark_mixture()
        assert len(spec.components) == 5
        assert spec.num_classes == 2

    def test_bad_weights_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            GaussianMixtureSpec(
                components=(
                    MixtureComponent(0.5, (0, 0), 1.0, 0),
                    MixtureComponent(0.4, (1, 1), 1.0, 1),
                )
            )


class TestSampleMixture:
    def test_shapes(self):
        data = sample_mixture(make_benchmark_mixture(), 250, 11)
        assert (data.n, data.m, data.num_classes) == (250, 2, 2)

    def test_same_seed_bit_identical(self):
        a = sample_mixture(make_benchmark_mixture(), 100, 5)
        b = sample_mixture(make_benchmark_mixture(), 100, 5)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_class_balance_at_scale(self):
        data = sample_mixture(make_benchmark_mixture(), 10**6, 17)
        frac = np.mean(data.labels == 0)
        assert abs(frac - 0.50) < 0.002

    def test_component_frequencies_chi_square(self):
        # one class per component so labels identify components
        spec = GaussianMixtureSpec(
            components=(
                MixtureComponent(0.1, (0, 0), 1.0, 0),
                MixtureComponent(0.2, (4, 0), 1.0, 1),
                MixtureComponent(0.3, (0, 4), 1.0, 2),
                MixtureComponent(0.4, (4, 4), 1.0, 3),
            )
        )
        n = 10**5
        data = sample_mixture(spec, n, 23)
        observed = np.bincount(data.labels, minlength=4)
        _, p = chisquare(observed, n * np.array([0.1, 0.2, 0.3, 0.4]))
        assert p > 0.001

    def test_n_below_one_rejected(self):
        with pytest.raises(ValueError):
            sample_mixture(make_benchmark_mixture(), 0, 1)


class TestBayesPosterior:
    def test_class_zero_dominates_at_its_centre(self):
        post = bayes_posterior(make_benchmark_mixture(), (1.0, 1.0))
        assert post[0] > 0.5

    def test_sums_to_one(self):
        spec = make_benchmark_mixture()
        rng = np.random.default_rng(1)
        for x in rng.uniform(-1, 2, size=(20, 2)):
            assert abs(bayes_posterior(spec, x).sum() - 1.0) <= 1e-12

    def test_symmetric_spec_midpoint(self):
        spec = GaussianMixtureSpec(
            components=(
                MixtureComponent(0.5, (-1.0, 0.0), 0.5, 0),
                MixtureComponent(0.5, (1.0, 0.0), 0.5, 1),
            )
        )
        post = bayes_posterior(spec, (0.0, 0.0))
        assert post == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_distant_point_resolved_in_log_space(self):
        # far from both kernels the nearer one still wins; no fallback needed
        spec = GaussianMixtureSpec(
            components=(
                MixtureComponent(0.3, (0.0, 0.0), 1e-6, 0),
                MixtureComponent(0.7, (1.0, 1.0), 1e-6, 1),
            )
        )
        post = bayes_posterior(spec, (1e6, 1e6))
        assert post == pytest.approx([0.0, 1.0], abs=1e-12)

    def test_underflow_falls_back_to_class_priors(self):
        # squared distances overflow, every log density is -inf
        spec = GaussianMixtureSpec(
            components=(
                MixtureComponent(0.3, (0.0, 0.0), 1e-6, 0),
                MixtureComponent(0.7, (1.0, 1.0), 1e-6, 1),
            )
        )
        post = bayes_posterior(spec, (1e300, 1e300))
        assert post == pytest.approx([0.3, 0.7], abs=1e-12)
        # a NaN coordinate makes every log density NaN
        post = bayes_posterior(spec, (np.nan, 0.0))
        assert post == pytest.approx([0.3, 0.7], abs=1e-12)


def _quadrature_bayes_error(spec, lo=-2.5, hi=3.0, n=1201):
    """Independent oracle: grid integral of min over class joint densities."""
    xs = np.linspace(lo, hi, n)
    step = xs[1] - xs[0]
    grid_x, grid_y = np.meshgrid(xs, xs)
    pts = np.stack([grid_x.ravel(), grid_y.ravel()], axis=1)
    num_classes = spec.num_classes
    joint = np.zeros((pts.shape[0], num_classes))
    for comp in spec.components:
        d2 = ((pts - np.asarray(comp.mean)) ** 2).sum(axis=1)
        joint[:, comp.class_index] += (
            comp.weight * np.exp(-d2 / (2 * comp.cov_scale)) / (2 * np.pi * comp.cov_scale)
        )
    return float(np.min(joint, axis=1).sum() * step * step)


class TestEstimateBayesError:
    def test_matches_quadrature_oracle(self):
        spec = make_benchmark_mixture()
        n = 200_000
        mc = estimate_bayes_error(spec, n, 31)
        exact = _quadrature_bayes_error(spec)
        sigma = math.sqrt(exact * (1 - exact) / n)
        assert abs(mc - exact) < 4 * sigma

    def test_separable_classes_near_zero(self):
        spec = GaussianMixtureSpec(
            components=(
                MixtureComponent(0.5, (0.0, 0.0), 1e-6, 0),
                MixtureComponent(0.5, (100.0, 100.0), 1e-6, 1),
            )
        )
        assert estimate_bayes_error(spec, 10**5, 7) < 1e-3

    def test_indistinguishable_classes_near_half(self):
        spec = GaussianMixtureSpec(
            components=(
                MixtureComponent(0.5, (0.0, 0.0), 1.0, 0),
                MixtureComponent(0.5, (0.0, 0.0), 1.0, 1),
            )
        )
        assert abs(estimate_bayes_error(spec, 10**5, 7) - 0.5) < 0.01

    def test_oracle_never_beaten_by_trained_classifier(self):
        # classifier error can undercut the Bayes rate only by Monte-Carlo noise
        from treeuq import EnsembleConfig, ensemble_posterior_matrix, train_ensemble

        spec = make_benchmark_mixture()
        train = sample_mixture(spec, 250, 41)
        test = sample_mixture(spec, 2000, 42)
        trees = train_ensemble(train, EnsembleConfig(n_trees=50, min_leaf=5, seed=1))
        post = ensemble_posterior_matrix(trees, test.features, mode="vote")
        classifier_err = float(np.mean(np.argmax(post, axis=1) != test.labels))
        bayes = estimate_bayes_error(spec, 10**5, 43)
        sigma_c = math.sqrt(classifier_err * (1 - classifier_err) / test.n)
        sigma_b = math.sqrt(bayes * (1 - bayes) / 10**5)
        assert bayes <= classifier_err + 2 * (sigma_c + sigma_b)


class TestKfoldSplit:
    def test_250_into_5_folds_of_50(self):
        split = kfold_split(250, 5, 9)
        assert np.bincount(split.fold_assignments).tolist() == [50] * 5

    def test_remainder_distribution(self):
        split = kfold_split(7, 3, 9)
        assert sorted(np.bincount(split.fold_assignments).tolist(), reverse=True) == [3, 2, 2]

    def test_same_seed_identical(self):
        a = kfold_split(100, 5, 13)
        b = kfold_split(100, 5, 13)
        assert np.array_equal(a.fold_assignments, b.fold_assignments)

    def test_partition_property(self):
        split = kfold_split(101, 7, 3)
        seen = np.concatenate([split.test_indices(f) for f in range(7)])
        assert sorted(seen.tolist()) == list(range(101))
        for f in range(7):
            train, test = set(split.train_indices(f)), set(split.test_indices(f))
            assert not train & test
            assert train | test == set(range(101))

    def test_too_many_folds_rejected(self):
        with pytest.raises(ValueError):
            kfold_split(3, 4, 0)

    def test_fewer_than_two_folds_rejected(self):
        with pytest.raises(ValueError):
            kfold_split(10, 1, 0)


class TestDatasetValidation:
    def test_label_out_of_range(self):
        with pytest.raises(DatasetError):
            Dataset(np.zeros((2, 1)), np.array([0, 2]), 2, ("x",))

    def test_non_finite_features(self):
        with pytest.raises(DatasetError):
            Dataset(np.array([[np.nan], [0.0]]), np.array([0, 1]), 2, ("x",))

    def test_subset(self):
        data = sample_mixture(make_benchmark_mixture(), 20, 1)
        sub = data.subset(np.arange(5))
        assert sub.n == 5
        assert np.array_equal(sub.features, data.features[:5])

    def test_empty_dataset_rejected(self):
        # the only guard against zero rows: the sampler, the tree grower and
        # best_single_tree rely on it
        with pytest.raises(DatasetError):
            Dataset(np.zeros((0, 2)), np.zeros(0, dtype=np.int64), 2, ("x", "y"))
        data = sample_mixture(make_benchmark_mixture(), 20, 1)
        with pytest.raises(DatasetError):
            data.subset(np.array([], dtype=np.intp))

    def test_equality_and_hash_by_identity(self):
        rows = [[0.0, 1.0], [1.0, 0.5], [2.0, 0.0]]
        a = Dataset(rows, [0, 1, 0], 2, ("x", "y"))
        b = Dataset(rows, [0, 1, 0], 2, ("x", "y"))
        assert a == a
        assert a != b
        assert len({a, b, a}) == 2
