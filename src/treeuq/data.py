"""Datasets, CSV ingestion, k-fold splits, and the Gaussian-mixture benchmark.

The synthetic benchmark is a two-class mixture of five isotropic Gaussians in
the plane. Because the class densities overlap, no classifier can beat the
Bayes rule on it; ``bayes_posterior`` evaluates that rule exactly and
``estimate_bayes_error`` measures its error rate by Monte Carlo.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Dataset",
    "DatasetError",
    "GaussianMixtureSpec",
    "MixtureComponent",
    "bayes_posterior",
    "estimate_bayes_error",
    "kfold_split",
    "load_csv",
    "make_benchmark_mixture",
    "sample_mixture",
    "write_csv",
]


class DatasetError(ValueError):
    """Raised when a file cannot be ingested as a classification dataset."""


def _is_int(value) -> bool:
    """True for an int or a numpy integer; a bool, which Python counts as an int, is neither."""
    return type(value) is int or isinstance(value, np.integer)


def _require_int(name: str, value, error=ValueError, minimum=None) -> None:
    """Raise error naming name unless value is _is_int and, given a minimum, >= minimum."""
    if not _is_int(value):
        raise error(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise error(f"need {name} >= {minimum}, got {value}")


def _require_ints(owner, names, error=ValueError, minimum=None) -> None:
    """_require_int on each field in names of owner, in order: the first bad one raises."""
    for name in names:
        _require_int(name, getattr(owner, name), error, minimum)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Feature matrix with dense integer class labels; equal only to itself.

    Attributes:
        features: (n, m) float matrix, no missing values, stored as a float64
            copy with every -0.0 as 0.0 (so write_csv writes such input as 0.0).
        labels: (n,) int array with values in 0..num_classes-1.
        num_classes: number of classes C >= 2.
        feature_names: m column names.
    """

    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    feature_names: tuple[str, ...]

    def __post_init__(self) -> None:
        features = np.asarray(self.features, dtype=np.float64) + 0.0  # a copy; -0.0 + 0.0 is 0.0
        labels = np.asarray(self.labels)
        if features.ndim != 2 or features.shape[0] < 1:
            raise DatasetError(f"features must be a non-empty 2-D matrix, got shape {features.shape}")
        if labels.shape != (features.shape[0],):
            raise DatasetError(
                f"labels shape {labels.shape} does not match {features.shape[0]} rows"
            )
        if labels.dtype.kind not in "biu":  # integer labels need no check
            with np.errstate(invalid="ignore"):  # a NaN label casts to an arbitrary integer
                whole = labels.astype(np.int64)
            fractional = whole != labels
            if fractional.any():
                bad = int(np.argmax(fractional))
                raise DatasetError(f"label {bad} is {labels[bad]}, not a whole number")
            labels = whole
        labels = labels.astype(np.int64, copy=False)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        _require_ints(self, ("num_classes",), DatasetError)
        if self.num_classes < 2:
            raise DatasetError(f"need at least 2 classes, got {self.num_classes}")
        if labels.min() < 0 or labels.max() >= self.num_classes:
            raise DatasetError("labels must lie in 0..num_classes-1")
        if len(self.feature_names) != features.shape[1]:
            raise DatasetError("feature_names must name every feature column")
        if not np.all(np.isfinite(features)):
            raise DatasetError("features contain non-finite values")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def m(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: np.ndarray) -> Dataset:
        """Dataset restricted to the given row indices (copies).

        Indices that are not 1-D, or that select no row, raise DatasetError,
        and an index out of range raises IndexError. The result is built by
        the constructor, like any Dataset.
        """
        indices = np.asarray(indices)
        if indices.ndim != 1:
            raise DatasetError(f"subset indices must be 1-D, got shape {indices.shape}")
        features = self.features[indices]
        if features.shape[0] < 1:
            raise DatasetError("subset selects no rows")
        return Dataset(features, self.labels[indices], self.num_classes, self.feature_names)

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.num_classes)

    @cached_property
    def rank_table(self) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        """Sorted distinct values of each column and each row's rank in them.

        The sampler's split menus (``treeuq.mcmc._menu``) are its only reader.

        Returns ``(values, ranks)``: ``values[j]`` is
        ``np.unique(features[:, j])`` and ``ranks`` is an (m, n) matrix with
        ``values[j][ranks[j, i]] == features[i, j]``. Built on first use, so
        datasets that never reach the sampler never pay for it.
        """
        values = []
        ranks = np.empty((self.m, self.n), dtype=np.intp)
        for j, column in enumerate(self.features.T):
            distinct, ranks[j] = np.unique(column, return_inverse=True)
            values.append(distinct)
        return tuple(values), ranks


@dataclass(frozen=True)
class MixtureComponent:
    """One isotropic Gaussian kernel of a labelled mixture."""

    weight: float
    mean: tuple[float, float]
    cov_scale: float
    class_index: int


@dataclass(frozen=True)
class GaussianMixtureSpec:
    """Mixture of labelled isotropic Gaussians in the plane."""

    components: tuple[MixtureComponent, ...]

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError("mixture needs at least one component")
        total = sum(c.weight for c in self.components)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"component weights must sum to 1, got {total!r}")
        for c in self.components:
            if not 0.0 < c.weight < 1.0:
                raise ValueError(f"weight {c.weight} outside (0, 1)")
            if c.cov_scale <= 0.0:
                raise ValueError(f"covariance scale {c.cov_scale} must be positive")
            if c.class_index < 0:
                raise ValueError("class indices must be non-negative")

    @property
    def num_classes(self) -> int:
        return max(c.class_index for c in self.components) + 1

    def class_priors(self) -> np.ndarray:
        priors = np.zeros(self.num_classes)
        for c in self.components:
            priors[c.class_index] += c.weight
        return priors


def load_csv(path, label_column: str) -> Dataset:
    """Load a classification dataset from a headered CSV file.

    The label column is selected by its header name. Label tokens are
    re-encoded densely as 0..C-1 in first-appearance order; every other
    column must parse as a real number. A byte-order mark before the header
    is ignored, and blank lines are skipped without shifting the row numbers
    that errors name.

    Rows are streamed: each cell is parsed as it is read into one growing
    float buffer, so ingestion holds about 8 bytes per value plus the
    Dataset's copy, never the file's text. The header is checked first; the
    rows' errors then come in file order, the first bad cell of a row in
    column order.

    Raises:
        DatasetError: on unparsable cells (named by row and column), missing
            label column or one named twice, ragged rows, or a single-class file.
    """
    from array import array  # a shared library: runs that load no CSV skip its 68 kB of RSS

    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DatasetError(f"{path}: file is empty") from None
        try:
            label_idx = header.index(label_column)
        except ValueError:
            raise DatasetError(f"{path}: no column named {label_column!r}") from None
        if header.count(label_column) > 1:
            raise DatasetError(f"{path}: {header.count(label_column)} columns are named {label_column!r}")
        feature_names = tuple(name for i, name in enumerate(header) if i != label_idx)
        if not feature_names:
            raise DatasetError(f"{path}: no feature columns besides the label")

        label_codes: dict[str, int] = {}
        labels = array("q")
        values = array("d")
        for r, row in enumerate(reader, start=1):
            if not row:  # a blank line; csv.DictReader skips them too
                continue
            if len(row) != len(header):
                raise DatasetError(f"{path}: row {r} has {len(row)} cells, expected {len(header)}")
            token = row.pop(label_idx).strip()
            if not token:
                raise DatasetError(f"{path}: row {r}, column {label_column!r}: empty label")
            labels.append(label_codes.setdefault(token, len(label_codes)))
            for name, cell in zip(feature_names, row):
                try:
                    value = float(cell)
                except ValueError:
                    raise DatasetError(
                        f"{path}: row {r}, column {name!r}: cannot parse {cell.strip()!r} as a number"
                    ) from None
                if not math.isfinite(value):
                    raise DatasetError(f"{path}: row {r}, column {name!r}: non-finite value")
                values.append(value)

    if not labels:
        raise DatasetError(f"{path}: no data rows")
    if len(label_codes) < 2:
        raise DatasetError(f"{path}: only one class present; classification is undefined")
    return Dataset(
        features=np.frombuffer(values).reshape(len(labels), len(feature_names)),
        labels=np.frombuffer(labels, dtype=np.int64),
        num_classes=len(label_codes),
        feature_names=feature_names,
    )


def write_csv(dataset: Dataset, path) -> None:
    """Write a dataset in the ingestion schema: header row, label column 'class'.

    A feature named 'class' (after the whitespace that load_csv strips)
    raises DatasetError before the file is created: it would be read back
    as the label.
    """
    if "class" in (name.strip() for name in dataset.feature_names):
        raise DatasetError(f"{path}: a feature is named 'class', the label column's name")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([*dataset.feature_names, "class"])
        for row, label in zip(dataset.features, dataset.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])


def make_benchmark_mixture() -> GaussianMixtureSpec:
    """The five-Gaussian two-class benchmark mixture.

    Three kernels generate class 0 and two generate class 1; all kernels have
    isotropic covariance 0.03*I. The classes overlap, so the benchmark has a
    known non-zero Bayes error (about 7.8%; see ``estimate_bayes_error``).
    """
    return GaussianMixtureSpec(
        components=(
            MixtureComponent(0.16, (1.0, 1.0), 0.03, 0),
            MixtureComponent(0.17, (0.7, 0.3), 0.03, 0),
            MixtureComponent(0.17, (0.3, 0.3), 0.03, 0),
            MixtureComponent(0.25, (-0.3, 0.7), 0.03, 1),
            MixtureComponent(0.25, (0.4, 0.7), 0.03, 1),
        )
    )


def sample_mixture(spec: GaussianMixtureSpec, n: int, seed) -> Dataset:
    """Draw n labelled points from the mixture; deterministic given seed."""
    _require_int("n", n, minimum=1)
    rng = np.random.default_rng(seed)
    weights = np.array([c.weight for c in spec.components])
    means = np.array([c.mean for c in spec.components])
    scales = np.array([c.cov_scale for c in spec.components])
    classes = np.array([c.class_index for c in spec.components])

    which = rng.choice(len(spec.components), size=n, p=weights)
    noise = rng.standard_normal((n, means.shape[1]))
    features = means[which] + noise * np.sqrt(scales[which])[:, None]
    names = tuple(f"x{i + 1}" for i in range(means.shape[1]))
    return Dataset(
        features=features,
        labels=classes[which],
        num_classes=spec.num_classes,
        feature_names=names,
    )


def bayes_posterior(spec: GaussianMixtureSpec, points) -> np.ndarray:
    """Exact P(class | x) under the mixture for each row of points, (n, C).

    Each row is evaluated on its own, so a row's posterior does not depend on
    the batch it comes in. A row where every component density underflows,
    or where a coordinate is NaN, gets the class priors.
    """
    points = np.asarray(points, dtype=np.float64)
    means = np.array([c.mean for c in spec.components])
    d = means.shape[1]
    if points.ndim != 2 or points.shape[1] != d:
        raise ValueError(f"points must be rows of {d} coordinates, got shape {points.shape}")
    scales = np.array([c.cov_scale for c in spec.components])
    weights = np.array([c.weight for c in spec.components])
    # log(weight * N(x; mean, scale*I)) for each (point, component)
    with np.errstate(over="ignore"):
        sq = ((points[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
        logd = (
            np.log(weights)[None, :]
            - 0.5 * d * np.log(2.0 * np.pi * scales)[None, :]
            - 0.5 * sq / scales[None, :]
        )
    classes = np.array([c.class_index for c in spec.components])
    num_classes = spec.num_classes
    shift = logd.max(axis=1, keepdims=True)
    # a finite maximum adds exp(0) = 1 to its row's total; otherwise the
    # total is 0 (every density underflows) or NaN, and the row takes the priors
    dens = np.exp(logd - np.where(np.isfinite(shift), shift, 0.0))
    per_class = np.zeros((points.shape[0], num_classes))
    for c in range(num_classes):
        per_class[:, c] = dens[:, classes == c].sum(axis=1)
    total = per_class.sum(axis=1, keepdims=True)
    priors = spec.class_priors()
    return np.where(total > 0, per_class / np.where(total > 0, total, 1.0), priors[None, :])


def estimate_bayes_error(spec: GaussianMixtureSpec, n: int, seed) -> float:
    """Monte-Carlo error rate of the Bayes-optimal (argmax posterior) rule; sample_mixture checks n."""
    data = sample_mixture(spec, n, seed)
    predicted = np.argmax(bayes_posterior(spec, data.features), axis=1)
    return float(np.mean(predicted != data.labels))


def kfold_split(n: int, k: int, seed) -> np.ndarray:
    """Fold index in 0..k-1 of each of n rows, as an int64 array.

    The folds are a random partition whose sizes differ by at most 1.
    """
    _require_int("n", n)
    _require_int("k", k, minimum=2)
    if k > n:
        raise ValueError(f"cannot split {n} points into {k} folds")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    sizes = np.full(k, n // k)
    sizes[: n % k] += 1
    assignments = np.empty(n, dtype=np.int64)
    assignments[perm] = np.repeat(np.arange(k), sizes)
    return assignments
