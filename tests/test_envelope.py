"""Outcome classification at a confidence threshold and rate aggregation."""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeuq import (
    Dataset,
    EnsembleConfig,
    EnvelopeSummary,
    ensemble_posterior_matrix,
    envelope_rates,
    train_ensemble,
)
from treeuq.ensemble import leaf_posterior_matrix
from treeuq.envelope import POSTERIOR_SUM_TOLERANCE, _column_argmax, cross_fold_summary, p_min
from treetext import parse_tree

# (rate_correct, rate_uncertain, rate_incorrect) of a one-row test set
CC = (1.0, 0.0, 0.0)
UN = (0.0, 1.0, 0.0)
CI = (0.0, 0.0, 1.0)


def outcome(posterior, label, p0):
    """The outcome of one prediction, as the rates of a one-row test set."""
    summary = envelope_rates([posterior], [label], p0)
    return summary.rate_correct, summary.rate_uncertain, summary.rate_incorrect


class TestPMin:
    @pytest.mark.parametrize("c,expected", [(2, 0.5), (4, 0.25), (7, 1 / 7)])
    def test_values(self, c, expected):
        assert p_min(c) == pytest.approx(expected)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            p_min(1)


class TestClassifyOutcome:
    """The outcome of a single prediction, through envelope_rates on one row."""

    def test_confident_and_correct(self):
        assert outcome([0.998, 0.002], 0, 0.99) == CC

    def test_confident_and_wrong(self):
        assert outcome([0.998, 0.002], 1, 0.99) == CI

    def test_below_threshold_is_uncertain(self):
        assert outcome([0.6, 0.4], 0, 0.99) == UN

    def test_argmax_tie_goes_to_lower_index(self):
        assert outcome([0.5, 0.5], 0, 0.51) == UN
        assert outcome([0.5, 0.25, 0.25], 0, 0.5) == CC
        assert outcome([0.5, 0.5, 0.0], 1, 0.5) == CI

    def test_invalid_posterior_rejected(self):
        # a NaN row passes a plain |sum - 1| > tol check, and a negative entry
        # can sum to 1
        for posterior in ([0.9, 0.2], [np.nan, np.nan], [1.2, -0.2], [np.inf, -np.inf], [np.inf, 0.0]):
            with pytest.raises(ValueError, match="posterior"):
                outcome(posterior, 0, 0.99)
        with pytest.raises(ValueError, match="posterior 1"):
            envelope_rates([[0.5, 0.5], [np.nan, 1.0]], [0, 1], 0.99)

    def test_p0_outside_range_rejected(self):
        with pytest.raises(ValueError, match="p0"):
            outcome([0.6, 0.4], 0, 0.5)  # p0 must exceed 1/C
        with pytest.raises(ValueError, match="p0"):
            outcome([0.6, 0.4], 0, 1.2)


class TestEnvelopeRates:
    def test_perfect_confident_classifier(self):
        posteriors = np.eye(2)[[0, 1, 0, 1]]
        summary = envelope_rates(posteriors, [0, 1, 0, 1], 0.99)
        assert (summary.rate_correct, summary.rate_uncertain, summary.rate_incorrect) == (1.0, 0.0, 0.0)
        assert summary.accuracy == 1.0

    def test_uniform_posteriors_all_uncertain(self):
        posteriors = np.full((5, 2), 0.5)
        summary = envelope_rates(posteriors, [0, 1, 0, 1, 0], 0.99)
        assert summary.rate_uncertain == 1.0

    def test_six_three_one_counting(self):
        posteriors, labels = [], []
        for _ in range(6):  # confident correct
            posteriors.append([0.995, 0.005])
            labels.append(0)
        for _ in range(3):  # uncertain
            posteriors.append([0.7, 0.3])
            labels.append(0)
        posteriors.append([0.995, 0.005])  # confident incorrect
        labels.append(1)
        summary = envelope_rates(posteriors, labels, 0.99)
        assert (summary.rate_correct, summary.rate_uncertain, summary.rate_incorrect) == (0.6, 0.3, 0.1)
        assert summary.accuracy == 0.9  # the uncertain rows are argmax-correct
        # each row's own outcome, averaged, gives the same rates
        rows = np.mean([outcome(p, y, 0.99) for p, y in zip(posteriors, labels)], axis=0)
        assert tuple(rows) == (0.6, 0.3, 0.1)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            envelope_rates(np.full((3, 2), 0.5), [0, 1], 0.99)
        # labels that are not a vector, or name no column of the posteriors
        for labels in (0, [[0, 1]], [0, 7], [-1, 0], [0, 0.7]):
            with pytest.raises(ValueError, match="label"):
                envelope_rates(np.full((2, 2), 0.5), labels, 0.99)
        # whole-number float labels name their class
        assert envelope_rates(np.full((2, 2), 0.5), [1.0, 0.0], 0.99) == envelope_rates(
            np.full((2, 2), 0.5), [1, 0], 0.99
        )


class TestCrossFoldSummary:
    def _fold(self, correct, uncertain, incorrect, accuracy=None):
        from treeuq import EnvelopeSummary

        return EnvelopeSummary(
            rate_correct=correct,
            rate_uncertain=uncertain,
            rate_incorrect=incorrect,
            accuracy=accuracy if accuracy is not None else correct,
        )

    def test_identical_folds_zero_widths(self):
        summary = cross_fold_summary([self._fold(0.8, 0.1, 0.1)] * 3)
        assert summary.two_sigma_correct == pytest.approx(0.0, abs=1e-12)
        assert summary.two_sigma_uncertain == pytest.approx(0.0, abs=1e-12)
        assert summary.two_sigma_incorrect == pytest.approx(0.0, abs=1e-12)
        assert summary.two_sigma_accuracy == pytest.approx(0.0, abs=1e-12)

    def test_two_folds_hand_value(self):
        summary = cross_fold_summary([self._fold(0.8, 0.2, 0.0), self._fold(0.9, 0.1, 0.0)])
        assert summary.rate_correct == pytest.approx(0.85)
        # 2 * sample std of {0.8, 0.9}
        assert summary.two_sigma_correct == pytest.approx(2 * np.std([0.8, 0.9], ddof=1))
        assert summary.two_sigma_correct == pytest.approx(0.1414, abs=1e-4)

    def test_five_folds_match_statistics_oracle(self):
        rng = np.random.default_rng(3)
        rates = rng.dirichlet((2, 2, 2), size=5)
        accuracies = rng.uniform(0.5, 1.0, size=5)
        folds = [self._fold(*row, accuracy=a) for row, a in zip(rates, accuracies)]
        summary = cross_fold_summary(folds)
        for column, mean_field, width_field in [
            (rates[:, 0], summary.rate_correct, summary.two_sigma_correct),
            (rates[:, 1], summary.rate_uncertain, summary.two_sigma_uncertain),
            (rates[:, 2], summary.rate_incorrect, summary.two_sigma_incorrect),
            (accuracies, summary.accuracy, summary.two_sigma_accuracy),
        ]:
            assert mean_field == pytest.approx(column.mean())
            assert width_field == pytest.approx(2 * column.std(ddof=1))

    def test_single_fold_rejected(self):
        with pytest.raises(ValueError):
            cross_fold_summary([self._fold(0.5, 0.25, 0.25)])


def random_posterior_set(rng, size, num_classes):
    posteriors = rng.dirichlet(np.full(num_classes, 0.5), size=size)
    labels = rng.integers(0, num_classes, size=size)
    return posteriors, labels


class TestEnvelopeInvariants:
    """Three invariants over 1000 random posterior/label sets."""

    def test_thousand_random_sets(self):
        rng = np.random.default_rng(1234)
        failures = 0
        for _ in range(1000):
            num_classes = int(rng.integers(2, 6))
            size = int(rng.integers(1, 40))
            posteriors, labels = random_posterior_set(rng, size, num_classes)
            lo = 1.0 / num_classes
            p0_low = float(rng.uniform(lo + 1e-6, 1.0))
            p0_high = float(rng.uniform(p0_low, 1.0))

            low = envelope_rates(posteriors, labels, p0_low)
            high = envelope_rates(posteriors, labels, p0_high)

            partition_ok = abs(low.rate_correct + low.rate_uncertain + low.rate_incorrect - 1.0) <= 1e-9
            monotone_ok = (
                high.rate_uncertain >= low.rate_uncertain - 1e-12
                and high.rate_correct + high.rate_incorrect
                <= low.rate_correct + low.rate_incorrect + 1e-12
            )
            accuracy_ok = low.accuracy >= low.rate_correct - 1e-12
            failures += not (partition_ok and monotone_ok and accuracy_ok)
        assert failures == 0

    def test_exactly_one_outcome_per_pair(self):
        rng = np.random.default_rng(7)
        posteriors, labels = random_posterior_set(rng, 200, 3)
        for posterior, label in zip(posteriors, labels):
            for p0 in (0.4, 0.7, 0.95):
                assert outcome(posterior, label, p0) in (CC, UN, CI)

    def test_everything_uncertain_just_above_top_posterior(self):
        rng = np.random.default_rng(11)
        posteriors, labels = random_posterior_set(rng, 50, 3)
        top = posteriors.max()
        if top >= 1.0:
            posteriors = posteriors * 0.999 + 0.001 / 3
            top = posteriors.max()
        p0 = min(1.0, top + 1e-9)
        summary = envelope_rates(posteriors, labels, p0)
        assert summary.rate_uncertain == 1.0


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    num_classes=st.integers(min_value=3, max_value=6),
)
def test_classify_outcome_invariant_to_non_argmax_permutation(data, num_classes):
    weights = data.draw(
        st.lists(st.floats(0.01, 1.0), min_size=num_classes, max_size=num_classes)
    )
    posterior = np.array(weights) / np.sum(weights)
    label = data.draw(st.integers(0, num_classes - 1))
    p0 = data.draw(st.floats(1.0 / num_classes + 1e-6, 1.0, exclude_min=True))
    top = int(np.argmax(posterior))
    if np.sum(posterior == posterior[top]) > 1:
        return  # a tied maximum can move under permutation
    baseline = outcome(posterior, label, p0)

    rest = [i for i in range(num_classes) if i != top]
    permuted = posterior.copy()
    permuted[rest] = posterior[list(reversed(rest))]
    assert outcome(permuted, label, p0) == baseline


@settings(max_examples=200, deadline=None)
@given(
    weights=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6),
    label=st.integers(0, 5),
    p0_offset=st.floats(1e-6, 0.5),
)
def test_rates_sum_to_one_property(weights, label, p0_offset):
    posterior = np.array(weights) / np.sum(weights)
    num_classes = posterior.size
    label = label % num_classes
    p0 = min(1.0, 1.0 / num_classes + p0_offset)
    if p0 <= 1.0 / num_classes:
        return
    summary = envelope_rates(posterior[None, :], [label], p0)
    assert summary.rate_correct + summary.rate_uncertain + summary.rate_incorrect == pytest.approx(1.0)


@pytest.mark.parametrize("num_classes", [2, 3])
def test_no_prediction_rejected(num_classes):
    with pytest.raises(ValueError, match="need at least one prediction"):
        envelope_rates(np.empty((0, num_classes)), np.empty(0, dtype=np.int64), 0.99)


def row_wise_envelope_rates(posteriors, labels, p0: float) -> EnvelopeSummary:
    """envelope_rates as reductions along each row and means of boolean arrays.

    The reference for the column-at-a-time form: the same checks in the same
    order, with min / sum / argmax along axis 1.
    """
    posteriors = np.asarray(posteriors, dtype=np.float64)
    given_labels = np.asarray(labels)
    with np.errstate(invalid="ignore"):
        labels = given_labels.astype(np.int64)
    if labels.ndim != 1:
        raise ValueError(f"labels must be a vector, got shape {labels.shape}")
    if posteriors.ndim != 2 or posteriors.shape[0] != labels.shape[0]:
        raise ValueError(f"got posteriors of shape {posteriors.shape} for {labels.shape[0]} labels")
    if posteriors.shape[0] < 1:
        raise ValueError("need at least one prediction")
    with np.errstate(invalid="ignore"):
        valid = (posteriors.min(axis=1) >= -POSTERIOR_SUM_TOLERANCE) & (
            np.abs(posteriors.sum(axis=1) - 1.0) <= POSTERIOR_SUM_TOLERANCE
        )
    if not valid.all():
        bad = int(np.argmin(valid))
        raise ValueError(
            f"invalid posterior {bad} {posteriors[bad]!r}: entries must be probabilities summing to 1"
        )
    num_classes = posteriors.shape[1]
    if not p_min(num_classes) < p0 <= 1.0:
        raise ValueError(f"p0 must lie in (1/{num_classes}, 1], got {p0}")
    fractional = labels != given_labels
    if fractional.any():
        bad = int(np.argmax(fractional))
        raise ValueError(f"label {bad} is {given_labels[bad]}, not a whole number")
    outside = (labels < 0) | (labels >= num_classes)
    if outside.any():
        bad = int(np.argmax(outside))
        raise ValueError(f"label {bad} is {labels[bad]}, outside 0..{num_classes - 1}")
    predicted = np.argmax(posteriors, axis=1)
    confident = posteriors[np.arange(len(labels)), predicted] >= p0
    correct = predicted == labels
    return EnvelopeSummary(
        rate_correct=float(np.mean(confident & correct)),
        rate_uncertain=float(np.mean(~confident)),
        rate_incorrect=float(np.mean(confident & ~correct)),
        accuracy=float(np.mean(correct)),
    )


def outcome_of(rates, posteriors, labels, p0):
    """The summary's fields with their types, or the ValueError's message."""
    try:
        summary = rates(posteriors, labels, p0)
    except ValueError as error:
        return "ValueError", str(error)
    return [(type(v), v) for v in dataclasses.astuple(summary)]


@functools.lru_cache(maxsize=None)
def vote_rows(num_classes: int) -> np.ndarray:
    """Rows of a real vote matrix: 7 randomised trees on well-mixed blobs."""
    rng = np.random.default_rng(num_classes)
    labels = np.arange(20 * num_classes) % num_classes
    features = rng.standard_normal((labels.size, 2)) + np.c_[np.cos(labels), np.sin(labels)]
    data = Dataset(features, labels, num_classes, ("x", "y"))
    trees = train_ensemble(data, EnsembleConfig(n_trees=7, min_leaf=2, top_k=3), seed=num_classes)
    return ensemble_posterior_matrix(trees, rng.standard_normal((200, 2)) * 2.0, "vote")


@st.composite
def posterior_sets(draw, min_classes=2):
    """(posteriors, labels, p0): weighted, one-hot, tied and real vote rows."""
    num_classes = draw(st.integers(min_classes, 9))
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["weights", "one-hot", "tie", "vote"]))
        row = np.zeros(num_classes)
        if kind == "weights":
            weights = st.integers(0, 4) | st.floats(0.0, 1.0)
            row = np.array(draw(st.lists(weights, min_size=num_classes, max_size=num_classes)), dtype=float)
            row = row / row.sum() if row.sum() > 0 else np.full(num_classes, 1.0 / num_classes)
        elif kind == "one-hot":
            row[draw(st.integers(0, num_classes - 1))] = 1.0
        elif kind == "tie":
            top = draw(st.permutations(range(num_classes)))[: draw(st.integers(2, num_classes))]
            row[top] = 1.0 / len(top)
        else:
            votes = vote_rows(num_classes)
            row = votes[draw(st.integers(0, len(votes) - 1))]
        rows.append(row)
    posteriors = np.array(rows)
    labels = draw(st.lists(st.integers(0, num_classes - 1), min_size=len(rows), max_size=len(rows)))
    p0 = draw(st.sampled_from(sorted(set(posteriors.ravel()))) | st.floats(1.0 / num_classes, 1.0))
    return posteriors, labels, p0


@settings(max_examples=300, deadline=None)
@given(case=posterior_sets())
def test_column_scan_matches_the_row_wise_reference(case):
    assert outcome_of(envelope_rates, *case) == outcome_of(row_wise_envelope_rates, *case)


@settings(max_examples=200, deadline=None)
@given(case=posterior_sets(min_classes=3), data=st.data())
def test_bad_rows_rejected_like_the_row_wise_reference(case, data):
    posteriors, labels, p0 = case
    n, num_classes = posteriors.shape
    for row in data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3)):
        column = data.draw(st.integers(0, num_classes - 1))
        kind = data.draw(st.sampled_from(["nan", "inf", "-inf", "negative", "off-sum"]))
        # a row already hit may hold inf: inf * 0 and inf - inf make NaN, still a bad row
        with np.errstate(invalid="ignore"):
            if kind == "negative":  # the excess goes to another entry, so the row still sums to 1
                amount = data.draw(st.floats(1e-5, 1.0))
                posteriors[row, (column + 1) % num_classes] += posteriors[row, column] + amount
                posteriors[row, column] = -amount
            elif kind == "off-sum":
                posteriors[row] *= data.draw(st.floats(1.001, 2.0) | st.floats(0.0, 0.999))
            else:
                posteriors[row, column] = float(kind)
    expected = outcome_of(row_wise_envelope_rates, posteriors, labels, p0)
    assert expected[0] == "ValueError" and "invalid posterior" in expected[1]
    assert outcome_of(envelope_rates, posteriors, labels, p0) == expected


@settings(max_examples=200, deadline=None)
@given(
    num_classes=st.integers(2, 9),
    values=st.lists(st.integers(0, 3), min_size=1, max_size=90),
)
def test_column_argmax_is_argmax_ties_included(num_classes, values):
    matrix = np.resize(np.array(values, dtype=float), (len(values), num_classes)) / 3.0
    predicted, top = _column_argmax(matrix)
    assert np.array_equal(predicted, np.argmax(matrix, axis=1))
    assert np.array_equal(top, matrix.max(axis=1))


def test_column_argmax_of_tied_leaf_posteriors_is_argmax():
    # the best tree's test prediction: leaves whose top classes tie go to the lower class
    tree = parse_tree("0 split 0 0.0\n1 leaf 3 3 1\n2 split 1 0.0\n3 leaf 0 2 2\n4 leaf 5 0 5\n", 3)
    posterior = leaf_posterior_matrix(tree, np.random.default_rng(2).standard_normal((300, 2)))
    predicted, top = _column_argmax(posterior)
    assert np.array_equal(predicted, np.argmax(posterior, axis=1))
    assert np.array_equal(top, posterior.max(axis=1))
    assert set(predicted.tolist()) == {0, 1}
