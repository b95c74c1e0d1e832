"""Learning curves and the compute they imply.

A learning curve is accuracy measured after each training epoch. Two
questions are answered here: at which epoch does a curve first reach a
target accuracy, and how much training compute had been spent by then.
Compute is analytic: forward cost per image, times images per epoch,
times a multiplier for the backward pass.

Curves whose csv carries an explicit cumulative_flops column use those
totals verbatim; they take precedence over any analytic arguments.

A compute curve (accuracy as a function of cumulative compute) supports
dominance comparison: curve A dominates curve B when, at every shared
compute budget, A's interpolated accuracy is at least B's and exceeds
it somewhere. Interpolation is linear in log compute, which makes the
accuracy difference piecewise linear there, so checking signs at the
two curves' knots is exact. No tolerance is involved.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

# One pass over the training set, in images. Matches the rounded size
# of the classification set the bundled records assume.
IMAGES_PER_EPOCH = 1.28e6

# Training cost per image relative to a forward pass: one forward plus
# a backward pass at twice the forward cost.
BACKWARD_MULTIPLIER = 3.0


class CurveError(ValueError):
    """Malformed curve data or an invalid curve operation."""


class ThresholdNotReached(Exception):
    """The curve never attains the requested accuracy."""

    def __init__(self, name: str, threshold: "Threshold", best: float):
        self.name = name
        self.threshold = threshold
        self.best = best
        super().__init__(
            f"{name}: best {threshold.metric} accuracy {best:.5f} "
            f"never reaches {threshold.value:.5f}"
        )


@dataclass(frozen=True)
class Threshold:
    """An accuracy target on a named metric, as a fraction in (0, 1]."""

    metric: str = "top5"
    value: float = 0.791

    def __post_init__(self):
        if not self.metric or not isinstance(self.metric, str):
            raise CurveError("threshold metric must be a non-empty string")
        if not isinstance(self.value, (int, float)) or isinstance(self.value, bool):
            raise CurveError("threshold value must be a number")
        if not 0.0 < float(self.value) <= 1.0:
            raise CurveError(f"threshold value {self.value!r} outside (0, 1]")
        object.__setattr__(self, "value", float(self.value))


DEFAULT_THRESHOLD = Threshold()


def _check_series(name: str, epochs, accuracies, cumulative_flops):
    if len(epochs) == 0:
        raise CurveError(f"{name}: curve has no data rows")
    if len(accuracies) != len(epochs):
        raise CurveError(f"{name}: {len(epochs)} epochs but {len(accuracies)} accuracies")
    prev = 0
    for e in epochs:
        if not isinstance(e, int) or isinstance(e, bool) or e <= 0:
            raise CurveError(f"{name}: epoch {e!r} is not a positive integer")
        if e <= prev:
            raise CurveError(f"{name}: epochs not strictly increasing at {e}")
        prev = e
    for e, a in zip(epochs, accuracies):
        if not 0.0 <= a <= 1.0:
            raise CurveError(f"{name}: accuracy {a!r} at epoch {e} outside [0, 1]")
    if cumulative_flops is not None:
        if len(cumulative_flops) != len(epochs):
            raise CurveError(
                f"{name}: {len(epochs)} epochs but {len(cumulative_flops)} compute values"
            )
        prev_c = 0.0
        for e, c in zip(epochs, cumulative_flops):
            if not prev_c < c < math.inf:  # also false for NaN
                raise CurveError(
                    f"{name}: cumulative compute must be finite, positive and strictly "
                    f"increasing, violated at epoch {e}"
                )
            prev_c = c


@dataclass(frozen=True)
class LearningCurve:
    """Accuracy after each recorded epoch, optionally with cumulative compute.

    Epoch numbers are completed passes over the training set and need
    not be contiguous. cumulative_flops, when present, is total training
    compute spent up to and including each epoch.
    """

    name: str
    metric: str
    epochs: tuple[int, ...]
    accuracies: tuple[float, ...]
    cumulative_flops: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "epochs", tuple(self.epochs))
        object.__setattr__(self, "accuracies", tuple(float(a) for a in self.accuracies))
        if self.cumulative_flops is not None:
            object.__setattr__(
                self, "cumulative_flops", tuple(float(c) for c in self.cumulative_flops)
            )
        if not self.metric:
            raise CurveError("curve metric must be a non-empty string")
        _check_series(self.name or "curve", self.epochs, self.accuracies, self.cumulative_flops)

    @property
    def final_accuracy(self) -> float:
        return self.accuracies[-1]

    @property
    def best_accuracy(self) -> float:
        return max(self.accuracies)


def parse_curve(text: str, name: str = "curve", percent: bool = False) -> LearningCurve:
    """Parse curve csv: header ``epoch,<metric>_accuracy[,cumulative_flops]``.

    Lines starting with # and blank lines are skipped. Accuracies are
    fractions unless percent=True, in which case values in [0, 100] are
    divided by 100. Errors carry 1-based line numbers.
    """
    header: list[str] | None = None
    metric = ""
    has_flops = False
    epochs: list[int] = []
    accuracies: list[float] = []
    flops: list[float] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split(",")]
        if header is None:
            if len(fields) not in (2, 3) or fields[0] != "epoch":
                raise CurveError(
                    f"{name} line {lineno}: expected header "
                    f"'epoch,<metric>_accuracy[,cumulative_flops]', got {line!r}"
                )
            metric = fields[1].removesuffix("_accuracy")
            if metric == fields[1] or not metric:
                raise CurveError(
                    f"{name} line {lineno}: second column must be named "
                    f"'<metric>_accuracy', got {fields[1]!r}"
                )
            if len(fields) == 3:
                if fields[2] != "cumulative_flops":
                    raise CurveError(
                        f"{name} line {lineno}: third column must be named "
                        f"'cumulative_flops', got {fields[2]!r}"
                    )
                has_flops = True
            header = fields
            continue
        if len(fields) != len(header):
            raise CurveError(
                f"{name} line {lineno}: expected {len(header)} fields, got {len(fields)}"
            )
        try:
            epoch = int(fields[0])
        except ValueError:
            raise CurveError(f"{name} line {lineno}: epoch {fields[0]!r} is not an integer") from None
        try:
            acc = float(fields[1])
        except ValueError:
            raise CurveError(f"{name} line {lineno}: accuracy {fields[1]!r} is not a number") from None
        if percent:
            if not 0.0 <= acc <= 100.0:
                raise CurveError(f"{name} line {lineno}: percent accuracy {acc!r} outside [0, 100]")
            acc /= 100.0
        if not 0.0 <= acc <= 1.0:
            raise CurveError(f"{name} line {lineno}: accuracy {acc!r} outside [0, 1]")
        if epochs and epoch <= epochs[-1]:
            raise CurveError(f"{name} line {lineno}: epoch {epoch} not greater than {epochs[-1]}")
        if epoch <= 0:
            raise CurveError(f"{name} line {lineno}: epoch {epoch} is not positive")
        if has_flops:
            try:
                c = float(fields[2])
            except ValueError:
                raise CurveError(
                    f"{name} line {lineno}: cumulative_flops {fields[2]!r} is not a number"
                ) from None
            if c <= (flops[-1] if flops else 0.0):
                raise CurveError(
                    f"{name} line {lineno}: cumulative_flops must be positive and strictly increasing"
                )
            flops.append(c)
        epochs.append(epoch)
        accuracies.append(acc)

    if header is None:
        raise CurveError(f"{name}: no header line found")
    return LearningCurve(
        name=name,
        metric=metric,
        epochs=tuple(epochs),
        accuracies=tuple(accuracies),
        cumulative_flops=tuple(flops) if has_flops else None,
    )


def training_compute(
    flops_per_image: float,
    epochs: float,
    images_per_epoch: float = IMAGES_PER_EPOCH,
    backward_multiplier: float = BACKWARD_MULTIPLIER,
) -> float:
    """Total training compute for a run, in the same unit as flops_per_image.

    backward_multiplier scales the per-image forward cost to a full
    training step; the default of 3 charges the backward pass at twice
    the forward pass.
    """
    for label, v in (("flops_per_image", flops_per_image), ("epochs", epochs),
                     ("images_per_epoch", images_per_epoch),
                     ("backward_multiplier", backward_multiplier)):
        if not v > 0:
            raise CurveError(f"training_compute: {label} must be positive, got {v!r}")
    total = backward_multiplier * epochs * flops_per_image * images_per_epoch
    if total == math.inf:
        raise CurveError(
            f"training_compute: {backward_multiplier!r} * {epochs!r} * {flops_per_image!r} "
            f"* {images_per_epoch!r} is not a finite number"
        )
    return total


def epochs_to_threshold(curve: LearningCurve, threshold: Threshold = DEFAULT_THRESHOLD) -> int:
    """Smallest recorded epoch whose accuracy meets the threshold.

    No interpolation: the crossing epoch is the first row at or above
    the target. Raises ThresholdNotReached if no row qualifies.
    """
    if curve.metric != threshold.metric:
        raise CurveError(
            f"{curve.name}: curve metric {curve.metric!r} does not match "
            f"threshold metric {threshold.metric!r}"
        )
    for epoch, acc in zip(curve.epochs, curve.accuracies):
        if acc >= threshold.value:
            return epoch
    raise ThresholdNotReached(curve.name, threshold, curve.best_accuracy)


@dataclass(frozen=True)
class ComputeCurve:
    """Accuracy as a function of cumulative training compute."""

    name: str
    metric: str
    compute: tuple[float, ...]
    accuracies: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "compute", tuple(float(c) for c in self.compute))
        object.__setattr__(self, "accuracies", tuple(float(a) for a in self.accuracies))
        if not self.metric:
            raise CurveError("curve metric must be a non-empty string")
        if len(self.compute) == 0:
            raise CurveError(f"{self.name}: compute curve has no points")
        if len(self.compute) != len(self.accuracies):
            raise CurveError(
                f"{self.name}: {len(self.compute)} compute values but "
                f"{len(self.accuracies)} accuracies"
            )
        prev = 0.0
        for c in self.compute:
            if c <= prev:
                raise CurveError(
                    f"{self.name}: compute values must be positive and strictly increasing"
                )
            prev = c
        for a in self.accuracies:
            if not 0.0 <= a <= 1.0:
                raise CurveError(f"{self.name}: accuracy {a!r} outside [0, 1]")

    @property
    def min_compute(self) -> float:
        return self.compute[0]

    @property
    def max_compute(self) -> float:
        return self.compute[-1]

    def accuracy_at(self, compute: float) -> float:
        """Interpolated accuracy at a compute budget inside the curve's span.

        Linear in log compute between recorded points; exact at the
        points themselves. Budgets outside the span raise CurveError
        rather than extrapolate.
        """
        if not self.min_compute <= compute <= self.max_compute:
            raise CurveError(
                f"{self.name}: budget {compute!r} outside curve span "
                f"[{self.min_compute!r}, {self.max_compute!r}]"
            )
        i = bisect_right(self.compute, compute) - 1
        if i >= len(self.compute) - 1:
            return self.accuracies[-1]
        lo, hi = self.compute[i], self.compute[i + 1]
        t = (math.log(compute) - math.log(lo)) / (math.log(hi) - math.log(lo))
        return self.accuracies[i] + t * (self.accuracies[i + 1] - self.accuracies[i])


def to_compute_curve(
    curve: LearningCurve,
    flops_per_image: float | None = None,
    images_per_epoch: float = IMAGES_PER_EPOCH,
    backward_multiplier: float = BACKWARD_MULTIPLIER,
) -> ComputeCurve:
    """Attach cumulative compute to a learning curve.

    A cumulative_flops column on the curve wins outright; the analytic
    arguments are then ignored. Otherwise flops_per_image is required
    and each epoch e costs backward_multiplier * flops_per_image *
    images_per_epoch * e cumulatively.
    """
    if curve.cumulative_flops is not None:
        compute = curve.cumulative_flops
    else:
        if flops_per_image is None:
            raise CurveError(
                f"{curve.name}: curve has no cumulative_flops column; "
                "flops_per_image is required"
            )
        compute = tuple(
            training_compute(flops_per_image, e, images_per_epoch, backward_multiplier)
            for e in curve.epochs
        )
    return ComputeCurve(
        name=curve.name, metric=curve.metric, compute=compute, accuracies=curve.accuracies
    )


def compute_to_threshold(
    curve: LearningCurve,
    threshold: Threshold = DEFAULT_THRESHOLD,
    flops_per_image: float | None = None,
    images_per_epoch: float = IMAGES_PER_EPOCH,
    backward_multiplier: float = BACKWARD_MULTIPLIER,
) -> float:
    """Cumulative training compute at the curve's threshold crossing."""
    epoch = epochs_to_threshold(curve, threshold)
    idx = curve.epochs.index(epoch)
    if curve.cumulative_flops is not None:
        return curve.cumulative_flops[idx]
    if flops_per_image is None:
        raise CurveError(
            f"{curve.name}: curve has no cumulative_flops column; flops_per_image is required"
        )
    return training_compute(flops_per_image, epoch, images_per_epoch, backward_multiplier)


@dataclass(frozen=True)
class DominanceResult:
    """Outcome of comparing two compute curves over their shared budgets.

    relation is one of a_dominates, b_dominates, equivalent or
    incomparable. overlap is the shared budget interval, None when the
    curves share no budget (which forces incomparable). witness holds
    example budgets: first where A is strictly ahead, second where B
    is, None in a slot when no such budget exists.
    """

    relation: str
    overlap: tuple[float, float] | None
    witness: tuple[float | None, float | None] | None


def dominance(a: ComputeCurve, b: ComputeCurve) -> DominanceResult:
    """Compare two curves at every shared compute budget.

    Both curves are piecewise linear in log compute, so their
    difference is too; its sign over the overlap is fully determined
    by its values at the union of the curves' points, and those are
    what get checked. Comparisons are exact.
    """
    if a.metric != b.metric:
        raise CurveError(
            f"cannot compare {a.name!r} ({a.metric}) with {b.name!r} ({b.metric})"
        )
    lo = max(a.min_compute, b.min_compute)
    hi = min(a.max_compute, b.max_compute)
    if lo > hi:
        return DominanceResult(relation="incomparable", overlap=None, witness=None)

    points = {lo, hi}
    for c in a.compute + b.compute:
        if lo <= c <= hi:
            points.add(c)
    a_ahead: float | None = None
    b_ahead: float | None = None
    for c in sorted(points):
        d = a.accuracy_at(c) - b.accuracy_at(c)
        if d > 0 and a_ahead is None:
            a_ahead = c
        elif d < 0 and b_ahead is None:
            b_ahead = c

    overlap = (lo, hi)
    if a_ahead is None and b_ahead is None:
        return DominanceResult(relation="equivalent", overlap=overlap, witness=None)
    if b_ahead is None:
        return DominanceResult(relation="a_dominates", overlap=overlap, witness=(a_ahead, None))
    if a_ahead is None:
        return DominanceResult(relation="b_dominates", overlap=overlap, witness=(None, b_ahead))
    return DominanceResult(relation="incomparable", overlap=overlap, witness=(a_ahead, b_ahead))
