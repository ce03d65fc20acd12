"""Acceptance criteria at their stated tolerances, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines. The benchmark fixtures (conftest) hold the expensive shared
runs: full-protocol reports for seeds 1, 2, 3 and a desk-scale report.
"""

import math
import time

import numpy as np
import pytest
from click.testing import CliRunner
from scipy.stats import chisquare

from treeuq import Dataset, McmcConfig, envelope_rates, estimate_bayes_error, make_benchmark_mixture
from treeuq.cli import main as cli_main
from treeuq.mcmc import propose_move, run_chain, sample_prior_tree
from treeuq.tree import enumerate_splits, top_k_splits, tree_size

from conftest import BENCHMARK_SEEDS


def verdict(number: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")


class TestCriterion1BayesErrorOracle:
    def test_bayes_error_in_stated_range(self):
        start = time.perf_counter()
        error = estimate_bayes_error(make_benchmark_mixture(), 10**6, seed=20240811)
        elapsed = time.perf_counter() - start
        ok = 0.086 <= error <= 0.100 and elapsed < 30.0
        verdict(1, ok, f"estimate_bayes_error(1e6) = {error:.4f}, target [0.086, 0.100], {elapsed:.1f}s")
        assert elapsed < 30.0
        assert 0.086 <= error <= 0.100


class TestCriterion2RandomizedAccuracy:
    @pytest.mark.slow
    def test_mean_test_accuracy(self, benchmark_reports):
        report = benchmark_reports[1]
        accuracy = report.randomized.envelope.accuracy
        elapsed = report.runtime_seconds["randomized"]
        ok = 0.84 <= accuracy <= 0.90 and elapsed < 120.0
        verdict(2, ok, f"5-fold 200-tree mean accuracy = {accuracy:.4f}, target [0.84, 0.90], {elapsed:.0f}s")
        assert elapsed < 120.0
        assert 0.84 <= accuracy <= 0.90


class TestCriterion3BayesianAccuracyDesk:
    def test_desk_preset_accuracy(self, desk_report):
        accuracy = desk_report.bayesian.envelope.accuracy
        elapsed = desk_report.runtime_seconds["bayesian"]
        ok = 0.82 <= accuracy <= 0.91 and elapsed < 300.0
        verdict(3, ok, f"desk-preset accuracy = {accuracy:.4f}, target [0.82, 0.91], {elapsed:.0f}s")
        assert elapsed < 300.0
        assert 0.82 <= accuracy <= 0.91


class TestCriterion4ConfidentlyIncorrectComparison:
    @pytest.mark.slow
    def test_bayesian_below_randomized_across_seeds(self, benchmark_reports):
        pairs = {
            seed: (
                benchmark_reports[seed].bayesian.envelope.rate_incorrect,
                benchmark_reports[seed].randomized.envelope.rate_incorrect,
            )
            for seed in BENCHMARK_SEEDS
        }
        ok = all(bayes < rand for bayes, rand in pairs.values())
        detail = ", ".join(
            f"seed {seed}: bayes {bayes:.4f} vs rand {rand:.4f}" for seed, (bayes, rand) in pairs.items()
        )
        verdict(4, ok, detail)
        for seed, (bayes, rand) in pairs.items():
            assert bayes < rand, f"seed {seed}: {bayes} !< {rand}"


class TestCriterion5SizeComparison:
    @pytest.mark.slow
    def test_bayesian_trees_smaller_across_seeds(self, benchmark_reports):
        pairs = {
            seed: (
                benchmark_reports[seed].bayesian.size_mean,
                benchmark_reports[seed].randomized.size_mean,
            )
            for seed in BENCHMARK_SEEDS
        }
        ok = all(bayes < rand for bayes, rand in pairs.values())
        detail = ", ".join(
            f"seed {seed}: bayes {bayes:.1f} vs rand {rand:.1f}" for seed, (bayes, rand) in pairs.items()
        )
        verdict(5, ok, detail)
        for seed, (bayes, rand) in pairs.items():
            assert bayes < rand, f"seed {seed}: {bayes} !< {rand}"


def _continuous_dataset(seed=0, n=40):
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n, 2))
    labels = rng.integers(0, 2, n)
    labels[0], labels[1] = 0, 1
    return Dataset(features, labels, 2, ("f0", "f1"))


class TestCriterion6PriorSamplingOracle:
    def test_constant_likelihood_gives_uniform_leaf_counts(self):
        data = _continuous_dataset(0, n=40)
        config = McmcConfig(
            restarts=1,
            burn_in=1000,
            post_burn_in=100_000,
            thinning=100,
            max_leaves=4,
        )
        samples = run_chain(data, config, seed=123, loglik_fn=lambda tree, d, a: 0.0)
        sizes = np.array([tree_size(s.tree) for s in samples])
        counts = np.bincount(sizes, minlength=5)[1:5]
        stat, p = chisquare(counts)
        ok = p > 0.001
        verdict(6, ok, f"leaf-count histogram {counts.tolist()}, chi2 = {stat:.2f}, p = {p:.4f}")
        assert p > 0.001


class TestCriterion7MoveMix:
    def test_empirical_move_frequencies(self):
        data = _continuous_dataset(8, n=30)
        tree = sample_prior_tree(data, 5, 99)
        rng = np.random.default_rng(20250811)
        n = 100_000
        counts: dict[str, int] = {}
        for _ in range(n):
            kind = propose_move(tree, data, (0.1, 0.1, 0.1, 0.7), rng).kind
            counts[kind] = counts.get(kind, 0) + 1
        freqs = {
            kind: counts.get(kind, 0) / n
            for kind in ("birth", "death", "change_variable", "change_rule")
        }
        targets = dict(zip(("birth", "death", "change_variable", "change_rule"), (0.1, 0.1, 0.1, 0.7)))
        ok = all(abs(freqs[k] - targets[k]) < 0.01 for k in targets)
        verdict(7, ok, ", ".join(f"{k} {v:.4f}" for k, v in freqs.items()))
        for kind, target in targets.items():
            assert abs(freqs[kind] - target) < 0.01


def _oracle_entropy(counts):
    total = sum(counts)
    h = 0.0
    for c in counts:
        if c > 0:
            p = c / total
            h -= p * math.log2(p)
    return h


def _gain_log_coefficients(parent, left, right):
    """n*gain as exact integer coefficients a_m on log2(m)."""
    coeffs: dict[int, int] = {}

    def add(m, a):
        if m >= 2 and a != 0:
            coeffs[m] = coeffs.get(m, 0) + a
            if coeffs[m] == 0:
                del coeffs[m]

    def add_block(counts, sign):
        total = sum(counts)
        add(total, sign * total)
        for c in counts:
            add(c, -sign * c)

    add_block(parent, +1)
    add_block(left, -1)
    add_block(right, -1)
    return coeffs


def _gains_exactly_equal(c1, c2):
    """Sum (a_m - a'_m) log2 m == 0 iff the integer power product is 1."""
    numerator = denominator = 1
    for m in set(c1) | set(c2):
        delta = c1.get(m, 0) - c2.get(m, 0)
        if delta > 0:
            numerator *= m**delta
        elif delta < 0:
            denominator *= m ** (-delta)
    return numerator == denominator


def _oracle_splits(data: Dataset, min_leaf: int):
    out = []
    for j in range(data.m):
        values = sorted(set(data.features[:, j]))
        for lo, hi in zip(values, values[1:]):
            threshold = (lo + hi) / 2.0
            mask = data.features[:, j] <= threshold
            n_left = int(mask.sum())
            if n_left < min_leaf or data.n - n_left < min_leaf:
                continue
            left = [int(np.sum(data.labels[mask] == c)) for c in range(data.num_classes)]
            right = [int(np.sum(data.labels[~mask] == c)) for c in range(data.num_classes)]
            parent = [l + r for l, r in zip(left, right)]
            n = sum(parent)
            gain = (
                _oracle_entropy(parent)
                - sum(left) / n * _oracle_entropy(left)
                - sum(right) / n * _oracle_entropy(right)
            )
            out.append(((j, threshold), gain, _gain_log_coefficients(parent, left, right)))
    return out


def _oracle_tie_classes(candidates):
    """Group candidates into classes of mathematically equal gain, sorted by
    strictly decreasing gain. Returns (classes, class_of_key)."""
    classes: list[list] = []
    for cand in candidates:
        for cls in classes:
            if _gains_exactly_equal(cls[0][2], cand[2]):
                cls.append(cand)
                break
        else:
            classes.append([cand])
    classes.sort(key=lambda cls: -cls[0][1])
    class_of_key = {key: i for i, cls in enumerate(classes) for key, _, _ in cls}
    return classes, class_of_key


class TestCriterion8SplitOracleEquivalence:
    def test_fifty_random_datasets(self):
        rng = np.random.default_rng(88)
        mismatches = 0
        for _ in range(50):
            n = int(rng.integers(4, 16))
            m = int(rng.integers(1, 4))
            num_classes = int(rng.integers(2, 4))
            features = rng.integers(0, 6, size=(n, m)).astype(float)
            labels = rng.integers(0, num_classes, size=n)
            labels[:num_classes] = np.arange(num_classes)
            data = Dataset(features, labels, num_classes, tuple(f"f{i}" for i in range(m)))
            min_leaf = int(rng.integers(1, 3))

            got = enumerate_splits(data, min_leaf)
            expected = _oracle_splits(data, min_leaf)
            # candidate enumeration must match the oracle exactly
            if [(feature, threshold) for feature, threshold, _ in got] != [key for key, _, _ in expected]:
                mismatches += 1
                continue
            if any(
                abs(gain - oracle_gain) > 1e-12
                for (_, _, gain), (_, oracle_gain, _) in zip(got, expected)
            ):
                mismatches += 1
                continue
            # selection must take whole tie-classes greedily; candidates of
            # mathematically equal gain are interchangeable in rank
            k = 20
            top = top_k_splits(got, k)
            classes, class_of_key = _oracle_tie_classes(expected)
            chosen_classes = [class_of_key[(feature, threshold)] for feature, threshold, _ in top]
            if chosen_classes != sorted(chosen_classes):
                mismatches += 1
                continue
            expected_counts = []
            remaining = min(k, len(expected))
            for cls in classes:
                take = min(remaining, len(cls))
                expected_counts.append(take)
                remaining -= take
            actual_counts = [chosen_classes.count(i) for i in range(len(classes))]
            if actual_counts != expected_counts:
                mismatches += 1
        verdict(8, mismatches == 0, f"{50 - mismatches}/50 datasets matched the exhaustive scorer")
        assert mismatches == 0


class TestCriterion9EnvelopeInvariantSuite:
    def test_thousand_random_sets(self):
        rng = np.random.default_rng(4321)
        failures = 0
        for _ in range(1000):
            num_classes = int(rng.integers(2, 6))
            size = int(rng.integers(1, 30))
            posteriors = rng.dirichlet(np.full(num_classes, 0.5), size=size)
            labels = rng.integers(0, num_classes, size=size)
            lo = 1.0 / num_classes
            p0_low = float(rng.uniform(lo + 1e-6, 1.0))
            p0_high = float(rng.uniform(p0_low, 1.0))
            low = envelope_rates(posteriors, labels, p0_low)
            high = envelope_rates(posteriors, labels, p0_high)
            checks = (
                abs(low.rate_correct + low.rate_uncertain + low.rate_incorrect - 1.0) <= 1e-9,
                high.rate_uncertain >= low.rate_uncertain - 1e-12,
                high.rate_correct + high.rate_incorrect <= low.rate_correct + low.rate_incorrect + 1e-12,
                low.accuracy >= low.rate_correct - 1e-12,
            )
            failures += not all(checks)
        verdict(9, failures == 0, f"{1000 - failures}/1000 random posterior sets satisfied all invariants")
        assert failures == 0


class TestCriterion10EnsembleVsSingle:
    @pytest.mark.slow
    def test_ensemble_beats_single_on_most_folds(self, benchmark_reports):
        folds = benchmark_reports[1].randomized.folds
        wins = sum(f.envelope.accuracy >= f.best_tree_test_accuracy for f in folds)
        ok = wins >= 4
        verdict(10, ok, f"ensemble >= best single tree on {wins}/5 folds")
        assert wins >= 4


SYNTH_CFG = """\
[experiment]
dataset = synthetic
technique = both
train_count = 100
test_count = 200
folds = 5
seed = 1

[randomized]
n_trees = 25
min_leaf = 5

[mcmc]
restarts = 3
burn_in = 50
post_burn_in = 50
max_leaves = 15
"""


class TestCriterion11Determinism:
    def test_cli_reports_byte_identical(self, tmp_path):
        config_path = tmp_path / "synth.cfg"
        config_path.write_text(SYNTH_CFG, encoding="utf-8")
        runner = CliRunner()
        outputs = []
        for name in ("first.csv", "second.csv"):
            out = tmp_path / name
            result = runner.invoke(
                cli_main,
                ["run", "--config", str(config_path), "--seed", "7", "--out", str(out)],
            )
            assert result.exit_code == 0, result.output
            outputs.append(out.read_bytes())
        ok = outputs[0] == outputs[1]
        verdict(11, ok, f"two seeded CLI runs produced identical {len(outputs[0])}-byte reports")
        assert ok
