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
import sys
from bisect import bisect_right
from dataclasses import dataclass

from . import BACKWARD_MULTIPLIER, IMAGES_PER_EPOCH, InputError, ResultError

_FLOAT_MAX = sys.float_info.max


class CurveError(InputError):
    """Malformed curve data or an invalid curve operation."""


class ThresholdNotReached(ResultError):
    """The curve never attains the requested accuracy."""

    def __init__(self, name: str, threshold: "Threshold", best: float):
        self.name = name
        self.threshold = threshold
        self.best = best
        super().__init__(
            f"{name}: best {threshold.metric} accuracy {best:.5f} "
            f"never reaches {threshold.value:.5f}"
        )


def positive_finite(v) -> bool:
    """True for an int or float in (0, largest float].

    False for bools, strings, NaN, infinities and ints too large to
    become a float, so a value that passes keeps ratios and logs finite.
    """
    if type(v) is float:  # the common case, tested first because callers are hot loops
        return 0.0 < v <= _FLOAT_MAX
    return isinstance(v, (int, float)) and not isinstance(v, bool) and 0 < v <= _FLOAT_MAX


def finite_product(factors, error: type[Exception] = CurveError, where: str = "") -> float:
    """The product of (label, value) pairs whose values must be positive numbers.

    Raises error, its message led by where, for a value that is not a
    positive number and for a product that is not positive and finite.
    A value that is positive but too large for a float makes it infinite.
    """
    total = 1.0
    for label, v in factors:
        if positive_finite(v):
            total *= v
        elif isinstance(v, (int, float)) and v > _FLOAT_MAX:
            total = math.inf
        else:
            raise error(f"{where}{label} must be positive, got {v!r}")
    return _checked_product(total, error, where)


def _checked_product(total: float, error: type[Exception], where: str) -> float:
    """total, a product of positive factors; raises error, led by where, if it is not finite."""
    if not 0 < total <= _FLOAT_MAX:  # total is an int or a float; NaN fails too
        bound = "finite" if total else "positive"  # overflow, or underflow to 0
        raise error(f"{where}the product of the factors is not a {bound} number")
    return total


@dataclass(frozen=True)
class Threshold:
    """An accuracy target on a named metric, as a fraction in (0, 1]."""

    metric: str = "top5"
    value: float = 0.791

    def __post_init__(self):
        if not self.metric or not isinstance(self.metric, str):
            raise CurveError("threshold metric must be a non-empty string")
        if not positive_finite(self.value) or self.value > 1.0:
            raise CurveError(f"threshold value {self.value!r} outside (0, 1]")
        object.__setattr__(self, "value", float(self.value))


DEFAULT_THRESHOLD = Threshold()


def _check_series(name: str, metric, epochs, accuracies, compute, lines=None):
    """Check the rules every curve obeys; raise CurveError at the first point that breaks one.

    epochs is None for a compute curve, compute None for a learning
    curve without a cumulative_flops column. lines, when given, holds
    the file line number of each point, and a message names the line.
    Each point's accuracy is tested first, then its epoch, then its compute.
    """
    if not metric:
        raise CurveError("curve metric must be a non-empty string")
    n = len(accuracies)
    if n == 0:
        raise CurveError(f"{name}: curve has no data rows")
    if epochs is not None and len(epochs) != n:
        raise CurveError(f"{name}: {len(epochs)} epochs but {n} accuracies")
    if compute is not None and len(compute) != n:
        raise CurveError(f"{name}: {n} accuracies but {len(compute)} compute values")

    def fail(i, problem):
        at = f"line {lines[i]}" if lines else f"epoch {epochs[i]}" if epochs else f"point {i + 1}"
        return CurveError(f"{name} {at}: {problem}")

    e, c = e0, c0 = 0, 0.0  # e0, c0: epoch and compute of the last point that passed
    try:
        for i, a in enumerate(accuracies):
            if not 0.0 <= a <= 1.0:  # also NaN
                raise fail(i, f"accuracy {a!r} outside [0, 1]")
            if epochs is not None and not (type(e := epochs[i]) is int and e0 < e <= _FLOAT_MAX):
                raise fail(i, f"epoch {e!r} is not an integer" if type(e) is not int
                           else f"epoch {e} not greater than {e0}" if i and e <= e0
                           else f"epoch {e} is not positive" if e <= 0
                           else f"epoch {e} is too large for a float")
            if compute is not None and not (c0 < c <= _FLOAT_MAX if type(c := compute[i]) is float
                                            else positive_finite(c) and c0 < c):
                raise fail(i, "compute must be finite, positive and strictly increasing")
            e0, c0 = e, c
    except TypeError:  # an accuracy that float() rejected
        raise fail(i, f"accuracy {a!r} is not a number") from None


def _numbers(values, kind=float) -> tuple:
    """Each value converted by kind, or kept as given when kind rejects it.

    A float is kept as it is, so no value is converted twice. _check_series
    runs next and rejects a kept value with the point it is at.
    """
    out = []
    for v in values:
        try:
            out.append(v if type(v) is float else kind(v))
        except (TypeError, ValueError, OverflowError):  # also an int too large for a float
            out.append(v)
    return tuple(out)


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
        object.__setattr__(self, "accuracies", _numbers(self.accuracies))
        if self.cumulative_flops is not None:
            object.__setattr__(self, "cumulative_flops", _numbers(self.cumulative_flops))
        _check_series(self.name or "curve", self.metric, self.epochs, self.accuracies,
                      self.cumulative_flops)

    @property
    def best_accuracy(self) -> float:
        return max(self.accuracies)


#: How many characters of a header value a message quotes.
_QUOTED_CHARS = 60


def _quoted(value: str) -> str:
    """repr(value), or the repr of its first _QUOTED_CHARS characters and "..." when longer."""
    if len(value) <= _QUOTED_CHARS:
        return repr(value)
    return f"{value[:_QUOTED_CHARS]!r}..."


def parse_curve(text: str, name: str = "curve", percent: bool = False) -> LearningCurve:
    """Parse curve csv: header ``epoch,<metric>_accuracy[,cumulative_flops]``.

    Lines starting with # and blank lines are skipped. Accuracies are
    fractions unless percent=True, in which case every numeric accuracy
    is divided by 100 here; LearningCurve converts the other text
    columns, so each value is converted once. Errors carry 1-based line
    numbers: a row with the wrong number of fields stops the parse there,
    and otherwise the first bad value in the file is reported.
    """
    header: list[str] | None = None
    metric = ""
    has_flops = False
    rows: list[list[str]] = []
    lines: list[int] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split(",")]
        if header is None:
            if len(fields) not in (2, 3) or fields[0] != "epoch":
                raise CurveError(
                    f"{name} line {lineno}: expected header "
                    f"'epoch,<metric>_accuracy[,cumulative_flops]', got {_quoted(line)}"
                )
            metric = fields[1].removesuffix("_accuracy")
            if metric == fields[1] or not metric:
                raise CurveError(
                    f"{name} line {lineno}: second column must be named "
                    f"'<metric>_accuracy', got {_quoted(fields[1])}"
                )
            if len(fields) == 3:
                if fields[2] != "cumulative_flops":
                    raise CurveError(
                        f"{name} line {lineno}: third column must be named "
                        f"'cumulative_flops', got {_quoted(fields[2])}"
                    )
                has_flops = True
            header = fields
            continue
        if len(fields) != len(header):
            raise CurveError(
                f"{name} line {lineno}: expected {len(header)} fields, got {len(fields)}"
            )
        rows.append(fields)
        lines.append(lineno)

    if header is None:
        raise CurveError(f"{name}: no header line found")
    columns = list(zip(*rows)) or [()] * len(header)
    to_accuracy = (lambda t: float(t) / 100.0) if percent else float
    if not text.isascii() or text.count("_") > "".join(header).count("_"):
        # int() and float() also read "_" separators and non-ASCII digits. Outside the column
        # names such a value stays text here, so the check fails at the first bad value.
        def plain(kind):
            return lambda t: kind(t) if t.isascii() and "_" not in t else t
        _check_series(name, metric, _numbers(columns[0], plain(int)),
                      _numbers(columns[1], plain(to_accuracy)),
                      _numbers(columns[2], plain(float)) if has_flops else None, lines)
    epochs = _numbers(columns[0], int)
    accuracies = _numbers(columns[1], to_accuracy) if percent else columns[1]
    compute = columns[2] if has_flops else None
    try:
        return LearningCurve(name=name, metric=metric, epochs=epochs,
                             accuracies=accuracies, cumulative_flops=compute)
    except CurveError:
        # only a curve that fails is converted and checked again, to name the offending line
        _check_series(name, metric, epochs, _numbers(accuracies),
                      None if compute is None else _numbers(compute), lines)
        raise


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
    factors = (("backward_multiplier", backward_multiplier), ("epochs", epochs),
               ("flops_per_image", flops_per_image), ("images_per_epoch", images_per_epoch))
    return finite_product(factors, where="training_compute: ")


def _crossing(curve: LearningCurve, threshold: Threshold) -> int:
    """Index of the first row whose accuracy meets the threshold.

    No interpolation: the crossing is the first row at or above the
    target. Raises ThresholdNotReached if no row qualifies.
    """
    if curve.metric != threshold.metric:
        raise CurveError(
            f"{curve.name}: curve metric {curve.metric!r} does not match "
            f"threshold metric {threshold.metric!r}"
        )
    for i, acc in enumerate(curve.accuracies):
        if acc >= threshold.value:
            return i
    raise ThresholdNotReached(curve.name, threshold, curve.best_accuracy)


def epochs_to_threshold(curve: LearningCurve, threshold: Threshold = DEFAULT_THRESHOLD) -> int:
    """Smallest recorded epoch whose accuracy meets the threshold."""
    return curve.epochs[_crossing(curve, threshold)]


def _priced(curve: LearningCurve, rows: slice, flops_per_image, images_per_epoch,
            backward_multiplier) -> tuple:
    """Cumulative compute of the curve's rows in the slice.

    A cumulative_flops column wins outright. Otherwise flops_per_image
    is required and each row is priced from its epoch as training_compute
    prices it, after one training_compute call has checked the constants.
    """
    if curve.cumulative_flops is not None:
        return curve.cumulative_flops[rows]
    if flops_per_image is None:
        raise CurveError(
            f"{curve.name}: curve has no cumulative_flops column; flops_per_image is required"
        )
    epochs = curve.epochs[rows]
    training_compute(flops_per_image, epochs[0], images_per_epoch, backward_multiplier)
    b = 1.0 * backward_multiplier  # a float, so no int product can be too large for a float
    return tuple(_checked_product(b * e * flops_per_image * images_per_epoch, CurveError,
                                  "training_compute: ") for e in epochs)


@dataclass(frozen=True)
class ComputeCurve:
    """Accuracy as a function of cumulative training compute."""

    name: str
    metric: str
    compute: tuple[float, ...]
    accuracies: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "compute", _numbers(self.compute))
        object.__setattr__(self, "accuracies", _numbers(self.accuracies))
        _check_series(self.name, self.metric, None, self.accuracies, self.compute)

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
    compute = _priced(curve, slice(None), flops_per_image, images_per_epoch, backward_multiplier)
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
    i = _crossing(curve, threshold)
    return _priced(curve, slice(i, i + 1), flops_per_image, images_per_epoch,
                   backward_multiplier)[0]


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
