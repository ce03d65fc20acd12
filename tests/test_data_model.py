"""Datasets, CSV ingestion, mixture benchmark, and fold splitting."""

import csv
import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import chisquare

from treeuq import (
    Dataset,
    DatasetError,
    estimate_bayes_error,
    make_benchmark_mixture,
    sample_mixture,
)
from treeuq.data import (
    GaussianMixtureSpec,
    MixtureComponent,
    bayes_posterior,
    kfold_split,
    load_csv,
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
        cases = [
            # a non-finite cell on row 2 beats an unparsable cell on row 3
            ("a,b,class\n1,2,p\n3,nan,q\n?,4,p\n", r"row 2, column 'b': non-finite value"),
            # within a row the first bad cell in column order wins, whatever its kind
            ("a,b,class\n1,2,p\nx,inf,q\n", r"row 2, column 'a': cannot parse 'x'"),
            ("a,b,class\n1,2,p\ninf,x,q\n", r"row 2, column 'a': non-finite value"),
            # a label column between the features shifts no column name
            ("a,class,b\n1,p,2\n3,q,x\n", r"row 2, column 'b': cannot parse 'x'"),
            ("a,class,b\n1,p,2\nx,q,inf\n", r"row 2, column 'a': cannot parse 'x'"),
        ]
        for text, match in cases:
            with pytest.raises(DatasetError, match=match):
                load_csv(_write(tmp_path / "order.csv", text), "class")

    def test_errors_come_in_file_order_after_the_header_checks(self, tmp_path):
        # a field over the csv module's size limit raises csv.Error when the
        # reader reaches its row, so an earlier row's problem is named first
        long_field = "9" * (csv.field_size_limit() + 1)
        text = f"a,class\n1,p\n?,q\n{long_field},p\n"
        with pytest.raises(DatasetError, match=r"row 2, column 'a': cannot parse '\?'"):
            load_csv(_write(tmp_path / "late.csv", text), "class")
        with pytest.raises(DatasetError, match="no column named 'y'"):
            load_csv(tmp_path / "late.csv", "y")
        with pytest.raises(csv.Error, match="field larger than field limit"):
            load_csv(_write(tmp_path / "late.csv", text.replace("?", "2")), "class")

    def test_rows_stream_into_one_buffer(self, tmp_path):
        # holding every cell as a str before parsing would peak near 12x the matrix
        rng = np.random.default_rng(8)
        cells = [[repr(v) for v in row] for row in (rng.standard_normal((3000, 16)) * 1e3).tolist()]
        lines = [",".join([*(f"f{j}" for j in range(16)), "class"])]
        lines += [",".join([*row, "ab"[i % 2]]) for i, row in enumerate(cells)]
        path = _write(tmp_path / "wide.csv", "\n".join(lines) + "\n")
        already = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            data = load_csv(path, "class")
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not already:
                tracemalloc.stop()
        assert peak < 3 * data.features.nbytes
        expected = np.array([[float(cell) for cell in row] for row in cells])
        assert np.array_equal(data.features.view(np.int64), expected.view(np.int64))
        assert data.labels.tolist() == [i % 2 for i in range(3000)]

    def test_label_column_between_features(self, tmp_path):
        path = _write(tmp_path / "mid.csv", "a,y,b\n1.5,p,-2\n3,q,4e1\n")
        data = load_csv(path, "y")
        assert data.feature_names == ("a", "b")
        assert data.features.tolist() == [[1.5, -2.0], [3.0, 40.0]]

    def test_single_class_rejected(self, tmp_path):
        path = _write(tmp_path / "one.csv", "x,y\n1.0,a\n2.0,a\n")
        with pytest.raises(DatasetError, match="one class"):
            load_csv(path, "y")

    def test_byte_order_mark_before_the_header(self, tmp_path):
        path = _write(tmp_path / "bom.csv", "\ufeffclass,x1,x2\na,1,2\nb,3,4\n")
        data = load_csv(path, "class")
        assert data.feature_names == ("x1", "x2")
        assert data.labels.tolist() == [0, 1]

    def test_blank_lines_are_skipped(self, tmp_path):
        # UCI files such as iris.data end with a blank line
        path = _write(tmp_path / "blank.csv", "x,class\n1.0,a\n\n2.0,b\n\n")
        data = load_csv(path, "class")
        assert data.features.tolist() == [[1.0], [2.0]]
        assert data.labels.tolist() == [0, 1]

    def test_label_column_named_like_a_number(self, tmp_path):
        # a name, not an index: "3" is the header of column 0
        path = _write(tmp_path / "digits.csv", "3,0\nu,1.0\nv,2.0\n")
        data = load_csv(path, "3")
        assert data.feature_names == ("0",)
        assert data.labels.tolist() == [0, 1]

    def test_missing_label_column(self, tmp_path):
        path = _write(tmp_path / "nolabel.csv", "x,y\n1.0,a\n")
        with pytest.raises(DatasetError, match="no column named"):
            load_csv(path, "z")

    def test_ragged_row_rejected(self, tmp_path):
        path = _write(tmp_path / "ragged.csv", "x,y\n1.0,a\n2.0\n")
        with pytest.raises(DatasetError, match="row 2"):
            load_csv(path, "y")

    def test_label_column_named_twice_rejected(self, tmp_path):
        path = _write(tmp_path / "twice.csv", "x,class,class\n1.0,a,b\n2.0,b,a\n")
        with pytest.raises(DatasetError, match="2 columns are named 'class'"):
            load_csv(path, "class")

    @pytest.mark.parametrize("name", ["class", " class"])
    def test_write_csv_rejects_a_feature_named_class_before_creating_the_file(self, tmp_path, name):
        # load_csv would take the feature, whitespace stripped, for the label
        data = Dataset(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([0, 1]), 2, ("x", name))
        path = tmp_path / "clash.csv"
        with pytest.raises(DatasetError, match="a feature is named 'class'"):
            write_csv(data, path)
        assert not path.exists()

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
        post = bayes_posterior(make_benchmark_mixture(), [(1.0, 1.0)])[0]
        assert post[0] > 0.5

    def test_sums_to_one(self):
        spec = make_benchmark_mixture()
        rng = np.random.default_rng(1)
        for x in rng.uniform(-1, 2, size=(20, 2)):
            assert abs(bayes_posterior(spec, [x])[0].sum() - 1.0) <= 1e-12

    def test_symmetric_spec_midpoint(self):
        spec = GaussianMixtureSpec(
            components=(
                MixtureComponent(0.5, (-1.0, 0.0), 0.5, 0),
                MixtureComponent(0.5, (1.0, 0.0), 0.5, 1),
            )
        )
        post = bayes_posterior(spec, [(0.0, 0.0)])[0]
        assert post == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_distant_point_resolved_in_log_space(self):
        # far from both kernels the nearer one still wins; no fallback needed
        spec = GaussianMixtureSpec(
            components=(
                MixtureComponent(0.3, (0.0, 0.0), 1e-6, 0),
                MixtureComponent(0.7, (1.0, 1.0), 1e-6, 1),
            )
        )
        post = bayes_posterior(spec, [(1e6, 1e6)])[0]
        assert post == pytest.approx([0.0, 1.0], abs=1e-12)

    def test_underflow_falls_back_to_class_priors(self):
        # squared distances overflow, every log density is -inf
        spec = GaussianMixtureSpec(
            components=(
                MixtureComponent(0.3, (0.0, 0.0), 1e-6, 0),
                MixtureComponent(0.7, (1.0, 1.0), 1e-6, 1),
            )
        )
        post = bayes_posterior(spec, [(1e300, 1e300)])[0]
        assert post == pytest.approx([0.3, 0.7], abs=1e-12)
        # a NaN coordinate makes every log density NaN
        post = bayes_posterior(spec, [(np.nan, 0.0)])[0]
        assert post == pytest.approx([0.3, 0.7], abs=1e-12)

    def test_batch_rows_equal_rows_alone(self):
        # one row of each branch: a finite maximum, an underflow and a NaN
        spec = GaussianMixtureSpec(
            components=(
                MixtureComponent(0.3, (0.0, 0.0), 1e-2, 0),
                MixtureComponent(0.7, (1.0, 1.0), 1e-2, 1),
            )
        )
        rows = np.array([(0.4, 0.6), (1e300, 1e300), (np.nan, 0.0)])
        batch = bayes_posterior(spec, rows)
        assert batch.shape == (3, 2)
        alone = np.vstack([bayes_posterior(spec, row[None, :]) for row in rows])
        assert np.array_equal(batch, alone)
        assert 0.0 < batch[0, 0] < 1.0
        assert batch[1:].tolist() == [[0.3, 0.7], [0.3, 0.7]]

    def test_points_must_be_rows_of_the_mixture_dimension(self):
        # one point alone, or a row of the wrong width, is an error, not a broadcast
        for points in ([1.0, 1.0], [[1.0]], [[1.0, 2.0, 3.0]], [[[1.0, 2.0]]]):
            with pytest.raises(ValueError, match="rows of 2 coordinates"):
                bayes_posterior(make_benchmark_mixture(), points)


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

    def test_pinned_value(self):
        # any change to the oracle's arithmetic or to its sampling moves this value
        assert estimate_bayes_error(make_benchmark_mixture(), 10**5, seed=3) == 0.07817

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
        trees = train_ensemble(train, EnsembleConfig(n_trees=50, min_leaf=5), seed=1)
        post = ensemble_posterior_matrix(trees, test.features, mode="vote")
        classifier_err = float(np.mean(np.argmax(post, axis=1) != test.labels))
        bayes = estimate_bayes_error(spec, 10**5, 43)
        sigma_c = math.sqrt(classifier_err * (1 - classifier_err) / test.n)
        sigma_b = math.sqrt(bayes * (1 - bayes) / 10**5)
        assert bayes <= classifier_err + 2 * (sigma_c + sigma_b)


class TestKfoldSplit:
    def test_250_into_5_folds_of_50(self):
        folds = kfold_split(250, 5, 9)
        assert folds.dtype == np.int64 and folds.shape == (250,)
        assert np.bincount(folds).tolist() == [50] * 5

    def test_remainder_distribution(self):
        folds = kfold_split(7, 3, 9)
        assert sorted(np.bincount(folds).tolist(), reverse=True) == [3, 2, 2]

    def test_same_seed_identical(self):
        assert np.array_equal(kfold_split(100, 5, 13), kfold_split(100, 5, 13))

    def test_partition_property(self):
        folds = kfold_split(101, 7, 3)
        assert folds.min() == 0 and folds.max() == 6
        seen = np.concatenate([np.flatnonzero(folds == f) for f in range(7)])
        assert sorted(seen.tolist()) == list(range(101))
        for f in range(7):
            train, test = set(np.flatnonzero(folds != f)), set(np.flatnonzero(folds == f))
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
        rows = np.array([7, 2, 2, 19])
        sub = data.subset(rows)
        assert sub.features.dtype == np.float64 and np.array_equal(sub.features, data.features[rows])
        assert sub.labels.dtype == np.int64 and np.array_equal(sub.labels, data.labels[rows])
        assert (sub.num_classes, sub.feature_names) == (data.num_classes, data.feature_names)
        assert sub.rank_table[1].shape == (2, 4)

    def test_subset_checks_the_selection(self):
        data = sample_mixture(make_benchmark_mixture(), 20, 1)
        for rows in (np.zeros((2, 2), dtype=np.intp), np.intp(3)):
            with pytest.raises(DatasetError, match="indices must be 1-D"):
                data.subset(rows)
        with pytest.raises(DatasetError, match="selects no rows"):
            data.subset(np.zeros(20, dtype=bool))
        for rows in ([20], [-21], [0, 25]):
            with pytest.raises(IndexError):
                data.subset(np.array(rows))

    def test_empty_dataset_rejected(self):
        # the only guard against zero rows: the sampler, the tree grower and
        # best_single_tree rely on it
        with pytest.raises(DatasetError):
            Dataset(np.zeros((0, 2)), np.zeros(0, dtype=np.int64), 2, ("x", "y"))
        data = sample_mixture(make_benchmark_mixture(), 20, 1)
        with pytest.raises(DatasetError):
            data.subset(np.array([], dtype=np.intp))

    def test_whole_float_and_bool_labels_become_int64(self):
        rows = [[0.0], [1.0], [2.0]]
        for labels, expected in (([1.0, 0.0, -0.0], [1, 0, 0]), ([True, False, True], [1, 0, 1])):
            data = Dataset(rows, labels, 2, ("x",))
            assert data.labels.dtype == np.int64 and data.labels.tolist() == expected
        labels = np.array([0, 1, 1])
        assert Dataset(rows, labels, 2, ("x",)).labels is labels

    def test_equality_and_hash_by_identity(self):
        rows = [[0.0, 1.0], [1.0, 0.5], [2.0, 0.0]]
        a = Dataset(rows, [0, 1, 0], 2, ("x", "y"))
        b = Dataset(rows, [0, 1, 0], 2, ("x", "y"))
        assert a == a
        assert a != b
        assert len({a, b, a}) == 2


def _spec(*components):
    return GaussianMixtureSpec(tuple(MixtureComponent(*c) for c in components))


def _load(text, label_column="class"):
    return lambda tmp_path: load_csv(_write(tmp_path / "in.csv", text), label_column)


@pytest.mark.parametrize(
    "call, error, match",
    [
        (
            lambda _: Dataset([[0.0], [1.0]], [0], 2, ("x",)),
            DatasetError,
            r"labels shape \(1,\) does not match 2 rows",
        ),
        (lambda _: Dataset([[0.0]], [0], 1, ("x",)), DatasetError, "need at least 2 classes, got 1"),
        (
            lambda _: Dataset([[0.0], [1.0]], [0, 1], 2.0, ("x",)),
            DatasetError,
            "num_classes must be an integer, got 2.0",
        ),
        (
            lambda _: Dataset([[0.0], [1.0], [2.0]], [0.5, 1.7, 0.0], 2, ("x",)),
            DatasetError,
            "label 0 is 0.5, not a whole number",
        ),
        (
            lambda _: Dataset([[0.0], [1.0], [2.0]], [0.0, 1.0, np.nan], 2, ("x",)),
            DatasetError,
            "label 2 is nan, not a whole number",
        ),
        (
            lambda _: Dataset([[0.0]], [0], 2, ("x", "y")),
            DatasetError,
            "feature_names must name every feature column",
        ),
        (lambda _: _spec(), ValueError, "mixture needs at least one component"),
        (lambda _: _spec((1.0, (0.0, 0.0), 0.03, 0)), ValueError, r"weight 1.0 outside \(0, 1\)"),
        (
            lambda _: _spec((0.5, (0.0, 0.0), 0.0, 0), (0.5, (1.0, 1.0), 0.03, 1)),
            ValueError,
            "scale 0.0 must be positive",
        ),
        (
            lambda _: _spec((0.5, (0.0, 0.0), 0.03, -1), (0.5, (1.0, 1.0), 0.03, 1)),
            ValueError,
            "non-negative",
        ),
        (_load(""), DatasetError, "file is empty"),
        # a whole number names a column; it is not read as an index
        (_load("x,class\n1.0,a\n", "0"), DatasetError, "no column named '0'"),
        (_load("class\na\nb\n"), DatasetError, "no feature columns besides the label"),
        (_load("x,class\n"), DatasetError, "no data rows"),
        (_load("x,class\n\n\n"), DatasetError, "no data rows"),
        (_load("x,class\n1.0,a\n2.0, \n"), DatasetError, "row 2, column 'class': empty label"),
        # a blank line is skipped but still counted in the row numbers
        (_load("x,class\n1.0,a\n\n2.0, \n"), DatasetError, "row 3, column 'class': empty label"),
        (
            lambda _: estimate_bayes_error(make_benchmark_mixture(), 0, 1),
            ValueError,
            "need n >= 1, got 0",
        ),
        (
            lambda _: estimate_bayes_error(make_benchmark_mixture(), 100.0, 1),
            ValueError,
            "n must be an integer, got 100.0",
        ),
        (lambda _: sample_mixture(make_benchmark_mixture(), True, 1), ValueError, "n must be an integer, got True"),
        (lambda _: kfold_split(10.0, 2, 0), ValueError, "n must be an integer, got 10.0"),
        (lambda _: kfold_split(10, 2.5, 0), ValueError, "k must be an integer, got 2.5"),
    ],
    ids=[
        "labels-shape",
        "one-class",
        "float-num-classes",
        "fractional-label",
        "nan-label",
        "feature-names",
        "no-components",
        "weight-outside-0-1",
        "scale-not-positive",
        "negative-class",
        "csv-empty-file",
        "csv-label-index",
        "csv-no-feature-column",
        "csv-no-data-row",
        "csv-only-blank-rows",
        "csv-empty-label",
        "csv-empty-label-after-blank-line",
        "bayes-error-n-0",
        "bayes-error-float-n",
        "mixture-bool-n",
        "kfold-float-n",
        "kfold-fractional-k",
    ],
)
def test_input_checks_name_the_problem(tmp_path, call, error, match):
    with pytest.raises(error, match=match) as raised:
        call(tmp_path)
    assert type(raised.value) is error
