"""Training-compute records and what they say about efficiency over time.

A record states how much compute one training run needed to reach a
fixed accuracy threshold. Records compare pairwise (efficiency factor,
optionally decomposed into an epoch term and a per-image term), filter
to a minimal-compute frontier over time, and fit an exponential trend
whose headline number is the doubling time of efficiency: the months
for required compute to halve.

Compute is stored in raw floating point operations. Two display units
are available throughout: "stated" divides by one teraflop/s sustained
for a day (8.64e16), "table" divides by 1e15, matching the units the
bundled record set is usually quoted in.

Memory: a records file is held once. ``records_from_json`` builds each
record as the json parser closes its object (see ``_jsonfile``), and
records with equal date strings or equal float thresholds share one
date or ``Threshold``. ``EfficiencyRecord`` is slotted.
"""
from __future__ import annotations

import datetime
import json
import math
import re
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Iterable, Sequence

from . import BACKWARD_MULTIPLIER, IMAGES_PER_EPOCH, UNIT_DIVISORS, InputError, _jsonfile
from .curves import (
    DEFAULT_THRESHOLD,
    CurveError,
    Threshold,
    _checked_product,
    finite_product,
    positive_finite,
)

# Mean Gregorian month, used whenever dates become month counts.
MONTH_DAYS = 30.436875

# Relative disagreement allowed between an explicit total and the
# epochs * flops_per_image * images product when a record carries both.
TOTAL_AGREEMENT_RTOL = 1e-6


class TrendError(InputError):
    """Invalid record data or an invalid trend operation."""


def unit_divisor(unit: str) -> float:
    """Raw flops per display unit; TrendError for a unit that is not raw, stated or table."""
    if unit not in UNIT_DIVISORS:
        raise TrendError(f"unknown unit {unit!r}; expected one of {sorted(UNIT_DIVISORS)}")
    return UNIT_DIVISORS[unit]


def to_report_units(value: float, unit: str = "raw") -> float:
    """Convert raw flops to one of the display units: raw, stated, table."""
    return value / unit_divisor(unit)


def date_to_months(d: datetime.date) -> float:
    """A date as a real-valued month count on a fixed calendar origin."""
    return d.toordinal() / MONTH_DAYS


_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def parse_date(text, what: str, error: type[Exception]) -> datetime.date:
    """The date text spells as YYYY-MM-DD; raises error naming what otherwise.

    date.fromisoformat alone also takes other ISO 8601 forms, such as
    20120601 and 2013-W01-1, from Python 3.11 on.
    """
    if isinstance(text, str) and _ISO_DATE.fullmatch(text):
        try:
            return datetime.date.fromisoformat(text)
        except ValueError:  # a month or day out of range
            pass
    raise error(f"{what} {text!r} is not YYYY-MM-DD")


# the numeric fields, in the order __post_init__ names the first bad one
_NUMBER_FIELDS = ("total_compute", "flops_per_image", "epochs", "images_per_epoch",
                  "backward_multiplier")
_numbers = attrgetter(*_NUMBER_FIELDS)


@dataclass(frozen=True, slots=True)
class EfficiencyRecord:
    """One training run that reached a threshold, with its compute cost.

    Either total_compute (raw flops) or the triple flops_per_image and
    epochs (with images_per_epoch defaulting to 1.28e6) must be given.
    When both appear they must agree to within TOTAL_AGREEMENT_RTOL
    relative. backward_multiplier scales forward cost per image to full
    training cost and participates in the triple product. A triple record
    holds images_per_epoch and total_compute as used, so it reloads equal.

    The class is slotted: an instance has no __dict__, so vars() fails
    and dataclasses.asdict reads its fields. __post_init__ owns every
    field rule; records_from_json fills the slots directly and then runs
    it, which gives the record the generated __init__ would build.
    """

    name: str
    date: datetime.date
    threshold: Threshold = DEFAULT_THRESHOLD
    total_compute: float | None = None
    flops_per_image: float | None = None
    epochs: float | None = None
    images_per_epoch: float | None = None
    backward_multiplier: float = BACKWARD_MULTIPLIER
    notes: str = ""

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise TrendError("record name must be a non-empty string")
        if not isinstance(self.date, datetime.date) or isinstance(self.date, datetime.datetime):
            raise TrendError(f"{self.name}: date must be a datetime.date")
        if not isinstance(self.threshold, Threshold):
            raise TrendError(f"{self.name}: threshold must be a Threshold")
        if not isinstance(self.notes, str):
            raise TrendError(f"{self.name}: notes must be a string")
        t, f, e, i, b = _numbers(self)
        # positive_finite's float case, inlined as one test because it runs
        # for every loaded record; the loop converts ints and words errors
        if not (type(b) is float and 0.0 < b < math.inf
                and (t is None or type(t) is float and 0.0 < t < math.inf)
                and (f is None or type(f) is float and 0.0 < f < math.inf)
                and (e is None or type(e) is float and 0.0 < e < math.inf)
                and (i is None or type(i) is float and 0.0 < i < math.inf)):
            for label, v in zip(_NUMBER_FIELDS, _numbers(self)):
                if v is None and label != "backward_multiplier":
                    continue
                if not positive_finite(v):
                    raise TrendError(f"{self.name}: {label} must be positive and finite, "
                                     f"got {v!r}")
                object.__setattr__(self, label, float(v))
            t, f, e, i, b = _numbers(self)
        if (f is None) != (e is None):
            raise TrendError(
                f"{self.name}: flops_per_image and epochs must be given together"
            )
        if e is None:
            if i is not None:
                raise TrendError(
                    f"{self.name}: images_per_epoch is meaningless without "
                    "flops_per_image and epochs"
                )
            if t is None:
                raise TrendError(
                    f"{self.name}: needs total_compute or flops_per_image with epochs"
                )
            return
        if i is None:
            i = IMAGES_PER_EPOCH
            object.__setattr__(self, "images_per_epoch", i)
        derived = _checked_product(b * e * f * i, TrendError,
                                   f"{self.name}: training_compute: ")
        if t is None:
            object.__setattr__(self, "total_compute", derived)
        else:
            rel = abs(t - derived) / derived
            if rel > TOTAL_AGREEMENT_RTOL:
                raise TrendError(
                    f"{self.name}: total_compute {t!r} disagrees with "
                    f"epochs * flops_per_image product {derived!r} "
                    f"(relative difference {rel:.3e})"
                )

    @classmethod
    def _from_json_fields(cls, obj: dict) -> EfficiencyRecord:
        """The record of obj, a dict of field values by name, checked by __post_init__.

        Each slot is set through its descriptor, to obj's value or the
        field's default, which skips the generated __init__'s one
        object.__setattr__ call per field.
        """
        record = cls.__new__(cls)
        for name, default, set_slot in _SLOT_SETTERS:
            set_slot(record, obj.get(name, default))
        record.__post_init__()
        return record

    @property
    def total(self) -> float:
        """Total training compute in raw flops: total_compute, given or derived."""
        return self.total_compute


# ---------------------------------------------------------------------------
# record json
# ---------------------------------------------------------------------------

# (name, default, slot setter) of each field, in field order; a required
# field's default is dataclasses.MISSING, which the loader never reaches
_SLOT_SETTERS = tuple((f.name, f.default, EfficiencyRecord.__dict__[f.name].__set__)
                      for f in fields(EfficiencyRecord))
_RECORD_FIELDS = frozenset(name for name, _, _ in _SLOT_SETTERS)


def _threshold_from_json(value) -> Threshold:
    """A record's threshold: a number (a top5 value) or a metric/value object."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return Threshold("top5", value)
    if isinstance(value, dict):
        if value.keys() != {"metric", "value"}:
            raise TrendError("threshold object must have exactly the keys metric and value")
        return Threshold(value["metric"], value["value"])
    raise TrendError("threshold must be a number or a metric/value object")


def _record_from_object(obj, dates: dict) -> EfficiencyRecord:
    """One record from its json object, whose date and threshold are replaced.

    Equal date strings share one date, through dates. Every message
    starts with ": " or " (name): ", for the caller to put the record's
    position in front.
    """
    if not (type(obj) is dict and obj.keys() <= _RECORD_FIELDS and "date" in obj
            and type(name := obj.get("name")) is str and name):
        _jsonfile.check_object(obj, "", _RECORD_FIELDS, ("name", "date"), TrendError)
        raise TrendError(": name must be a non-empty string")
    text = obj["date"]
    date = dates.get(text) if type(text) is str else None
    if date is None:  # parse_date raises for a text that is not a str
        date = dates[text] = parse_date(text, f" ({name}): date", TrendError)
    obj["date"] = date
    try:
        if type(obj.get("threshold", DEFAULT_THRESHOLD)) is not Threshold:
            obj["threshold"] = _threshold_from_json(obj["threshold"])
        return EfficiencyRecord._from_json_fields(obj)
    except (TrendError, CurveError) as e:  # a bad Threshold raises CurveError
        # record messages start with the name alone
        raise TrendError(f" ({name}): {str(e).removeprefix(f'{name}: ')}") from None


def records_from_json(text: str) -> tuple[EfficiencyRecord, ...]:
    """Parse a json array of records. Unknown fields are rejected.

    Any bad record, its threshold included, raises TrendError naming its
    position and, once known, its name. When every record is good, the
    first one whose name an earlier record already has raises TrendError
    naming both positions.

    Each record's slots are filled from its json object and field
    defaults, then EfficiencyRecord.__post_init__ checks them, so a
    loaded record equals EfficiencyRecord(**fields) of the same values.
    The parser's object hook builds each record as the parser closes its
    object, and a text with an error is parsed again without it
    (``_jsonfile.load``).
    """
    thresholds: dict[tuple[str, float], Threshold] = {}
    dates: dict[str, datetime.date] = {}

    def hook(obj: dict):
        # In a valid file only records have a name; a named object that is
        # not one raises. A metric/value object of a str metric and a float
        # value becomes the one Threshold of its pair, in either key order;
        # only floats are cached, as an equal int or bool prints apart.
        if "name" in obj:
            return _record_from_object(obj, dates)
        if len(obj) == 2:
            metric, value = obj.get("metric"), obj.get("value")
            if type(value) is float and type(metric) is str:
                threshold = thresholds.get((metric, value))
                if threshold is None:
                    threshold = thresholds[metric, value] = Threshold(metric, value)
                return threshold
        return obj

    def checked(tree) -> tuple[EfficiencyRecord, ...]:
        dates.clear()  # the parse is over: its date strings need not outlive it
        records = _jsonfile.array(tree, "records", TrendError)
        for i, obj in enumerate(records):
            if type(obj) is not EfficiencyRecord:  # parsed without the hook, or not a record
                try:
                    records[i] = _record_from_object(obj, dates)
                except TrendError as e:  # the position is written only into a message
                    raise TrendError(f"record {i}{e}") from None
        if len(set(map(attrgetter("name"), records))) < len(records):
            first_of: dict[str, int] = {}
            for i, r in enumerate(records):
                first = first_of.setdefault(r.name, i)
                if first != i:
                    raise TrendError(f"record {i} ({r.name}): name repeats record {first}")
        return tuple(records)

    return _jsonfile.load(text, "records file is not valid json", TrendError, hook, checked)


def find_record(records, name: str) -> EfficiencyRecord:
    """The record called name; raises TrendError, listing the known names, if none is."""
    for r in records:
        if r.name == name:
            return r
    known = ", ".join(r.name for r in records)
    raise TrendError(f"no record named {name!r}; known records: {known}")


_json_str = json.encoder.encode_basestring_ascii  # json.dumps's str encoder (ensure_ascii)


def records_to_json(records: Sequence[EfficiencyRecord]) -> str:
    """Serialize records to the json array format records_from_json reads.

    The explicit total is always written alongside any triple, so files
    stay self-checking when edited by hand. The text is what json.dumps
    with indent=2, plus a newline, writes for one object per record, keys
    in the order name, date, threshold, total_compute, the triple's
    flops_per_image, epochs and images_per_epoch, backward_multiplier and
    a non-empty notes. It is formatted here because json's C encoder is
    not used with an indent.
    """
    num = float.__repr__  # as json.dumps writes a float; every number here is finite
    items = []
    for r in records:
        t = r.threshold
        item = (f'  {{\n    "name": {_json_str(r.name)},\n'
                f'    "date": {_json_str(r.date.isoformat())},\n'
                f'    "threshold": {{\n      "metric": {_json_str(t.metric)},\n'
                f'      "value": {num(t.value)}\n    }},\n    "total_compute": {num(r.total)},\n')
        if r.flops_per_image is not None:
            item += (f'    "flops_per_image": {num(r.flops_per_image)},\n'
                     f'    "epochs": {num(r.epochs)},\n'
                     f'    "images_per_epoch": {num(r.images_per_epoch)},\n')
        item += f'    "backward_multiplier": {num(r.backward_multiplier)}'
        if r.notes:
            item += f',\n    "notes": {_json_str(r.notes)}'
        items.append(item + "\n  }")
    return "[\n" + ",\n".join(items) + "\n]\n" if items else "[]\n"


# ---------------------------------------------------------------------------
# pairwise comparison
# ---------------------------------------------------------------------------

def _require_same_threshold(baseline: EfficiencyRecord, improved: EfficiencyRecord):
    if baseline.threshold != improved.threshold:
        raise TrendError(
            f"{baseline.name} and {improved.name} target different thresholds "
            f"({baseline.threshold} vs {improved.threshold}); factors are only "
            "meaningful at a shared threshold"
        )


def _require_one_threshold(records: Sequence[EfficiencyRecord]):
    """Raise TrendError unless every record targets the first one's threshold."""
    first = records[0]
    for r in records:
        if r.threshold is not first.threshold:  # loaded records share equal thresholds
            _require_same_threshold(first, r)


@dataclass(frozen=True)
class EfficiencyFactor:
    """How much less compute the later run needed, and over what span."""

    baseline: str
    improved: str
    factor: float
    elapsed_days: int
    elapsed_months: float


def efficiency_factor(baseline: EfficiencyRecord, improved: EfficiencyRecord) -> EfficiencyFactor:
    """baseline total over improved total, at a shared threshold.

    A factor above 1 means the improved run was cheaper. Dates may be
    in either order; elapsed time is improved minus baseline and can
    be negative.
    """
    _require_same_threshold(baseline, improved)
    factor = baseline.total / improved.total
    if not positive_finite(factor):
        raise TrendError(f"{baseline.name} to {improved.name}: ratio of totals is not finite")
    days = (improved.date - baseline.date).days
    return EfficiencyFactor(
        baseline=baseline.name,
        improved=improved.name,
        factor=factor,
        elapsed_days=days,
        elapsed_months=days / MONTH_DAYS,
    )


@dataclass(frozen=True)
class Decomposition:
    """An efficiency factor split into its epoch and per-image terms.

    epochs_ratio is baseline epochs over improved epochs (above 1 when
    the improved run converged in fewer passes). flops_per_image_ratio
    is baseline per-image cost over improved (below 1 when the improved
    model costs more per image). Their product is the factor exactly.
    """

    baseline: str
    improved: str
    epochs_ratio: float
    flops_per_image_ratio: float
    factor: float


def decompose(baseline: EfficiencyRecord, improved: EfficiencyRecord) -> Decomposition:
    """Split the efficiency factor of two triple-form records.

    Both records must carry flops_per_image and epochs, and must share
    images_per_epoch and backward_multiplier so the shared constants
    cancel; otherwise the two ratios would not multiply back to the
    total factor.
    """
    _require_same_threshold(baseline, improved)
    for r in (baseline, improved):
        if r.flops_per_image is None:
            raise TrendError(
                f"{r.name}: decomposition needs flops_per_image and epochs on both records"
            )
    if baseline.images_per_epoch != improved.images_per_epoch:
        raise TrendError(
            f"{baseline.name} and {improved.name} use different images_per_epoch; "
            "their epoch counts are not comparable"
        )
    if baseline.backward_multiplier != improved.backward_multiplier:
        raise TrendError(
            f"{baseline.name} and {improved.name} use different backward multipliers; "
            "their totals are not comparable term by term"
        )
    epochs_ratio = baseline.epochs / improved.epochs
    flops_ratio = baseline.flops_per_image / improved.flops_per_image
    factor = epochs_ratio * flops_ratio
    if not positive_finite(factor):  # also catches a term ratio that overflowed or underflowed
        raise TrendError(f"{baseline.name} to {improved.name}: a term ratio is not finite")
    return Decomposition(
        baseline=baseline.name,
        improved=improved.name,
        epochs_ratio=epochs_ratio,
        flops_per_image_ratio=flops_ratio,
        factor=factor,
    )


def partial_run_factor(
    baseline_total: float, improved_total: float, improved_fraction: float = 1.0
) -> float:
    """Efficiency factor when the improved run matched the baseline early.

    improved_fraction is the share of the improved run's total compute
    spent by the time it reached baseline-level performance, so the
    comparison charges the improved run only that share.
    """
    if not positive_finite(baseline_total) or not positive_finite(improved_total):
        raise TrendError("totals must be positive and finite")
    if not 0.0 < improved_fraction <= 1.0:
        raise TrendError(f"improved_fraction {improved_fraction!r} outside (0, 1]")
    charged = improved_fraction * improved_total
    factor = baseline_total / charged if charged else math.inf  # charged can underflow to 0
    if not positive_finite(factor):
        raise TrendError(
            f"factor {baseline_total!r} / ({improved_fraction!r} * {improved_total!r}) "
            "is not a finite number"
        )
    return factor


def doubling_time(factor: float, elapsed: float) -> float:
    """Time for efficiency to double, given a factor gained over elapsed time.

    Unit-agnostic: the result is in whatever unit elapsed is in. The
    factor must be above 1; the elapsed time positive.
    """
    if not positive_finite(factor):
        raise TrendError(f"factor must be positive and finite, got {factor!r}")
    if factor == 1.0:
        raise TrendError("factor of exactly 1 means no change; doubling time is undefined")
    if not positive_finite(elapsed):
        raise TrendError(f"elapsed time must be positive and finite, got {elapsed!r}")
    if factor < 1.0:
        raise TrendError(
            f"factor {factor!r} is below 1 (efficiency fell); no doubling time exists"
        )
    d = elapsed / math.log2(factor)
    if not positive_finite(d):
        raise TrendError(f"doubling time {elapsed!r} / log2({factor!r}) is not a finite number")
    return d


# ---------------------------------------------------------------------------
# frontier and trend fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Frontier:
    """Records kept by the running strict minimum of compute over time."""

    records: tuple[EfficiencyRecord, ...]

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        if not self.records:
            raise TrendError("frontier must contain at least one record")
        for prev, cur in zip(self.records, self.records[1:]):
            if cur.date <= prev.date:
                raise TrendError(
                    f"frontier dates must strictly increase ({prev.name} -> {cur.name})"
                )
            if cur.total >= prev.total:
                raise TrendError(
                    f"frontier totals must strictly decrease ({prev.name} -> {cur.name})"
                )

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.records)

    def __iter__(self):
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)


def frontier(records: Sequence[EfficiencyRecord]) -> Frontier:
    """The strictly improving minimal-compute sequence of the records.

    Records are taken in date order. Among records sharing a date the
    cheapest stands (ties broken by input order), and a record joins
    the frontier only if it is strictly cheaper than everything before
    it. All records must share one threshold.
    """
    if not records:
        raise TrendError("frontier needs at least one record")
    _require_one_threshold(records)
    kept: list[EfficiencyRecord] = []
    for r in sorted(records, key=attrgetter("date")):  # stable: same-date ties keep input order
        if not kept or r.total < kept[-1].total:
            if kept and r.date == kept[-1].date:
                kept.pop()  # a cheaper record of the same date replaces the one kept
            kept.append(r)
    return Frontier(records=tuple(kept))


@dataclass(frozen=True)
class TrendFit:
    """An exponential efficiency trend: log2 of compute, linear in months.

    slope is log2(total flops) per month and is negative when
    efficiency improves. doubling_months is the months for required
    compute to halve. intercept anchors the line at the month origin
    of date_to_months. r_squared is 1.0 for an endpoint fit by
    construction.
    """

    method: str
    slope: float
    intercept: float
    doubling_months: float
    r_squared: float
    points: int


def fit_trend(
    records: Sequence[EfficiencyRecord] | Frontier, method: str = "regression"
) -> TrendFit:
    """Fit the efficiency trend through records' (date, total) pairs.

    method "regression" is least squares on (months, log2 total);
    "endpoints" uses only the earliest and latest records, which
    reproduces quoted doubling times of the form elapsed over
    log2(first total / last total). All records must share one threshold.
    """
    if method not in ("regression", "endpoints"):
        raise TrendError(f"unknown fit method {method!r}; expected regression or endpoints")
    if len(records) < 2:
        raise TrendError("trend fitting needs at least two records")
    ordered = sorted(records, key=lambda r: r.date)
    _require_one_threshold(ordered)  # a Frontier cannot be indexed; the sorted list can
    if ordered[0].date == ordered[-1].date:
        raise TrendError("trend fitting needs records on at least two distinct dates")
    xs = [date_to_months(r.date) for r in ordered]
    ys = [math.log2(r.total) for r in ordered]

    if method == "endpoints":
        slope = (ys[-1] - ys[0]) / (xs[-1] - xs[0])
        intercept = ys[0] - slope * xs[0]
        r2 = 1.0
        n = 2
    else:
        n = len(xs)
        mean_x = sum(xs) / n
        mean_y = sum(ys) / n
        sxx = sum((x - mean_x) ** 2 for x in xs)
        sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
        slope = sxy / sxx
        intercept = mean_y - slope * mean_x
        ss_tot = sum((y - mean_y) ** 2 for y in ys)
        ss_res = sum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys))
        r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot

    if slope == 0.0:
        raise TrendError("records show no change in compute; doubling time is undefined")
    if slope > 0.0:
        raise TrendError(
            "required compute rises over these records; no efficiency doubling time exists"
        )
    return TrendFit(
        method=method,
        slope=slope,
        intercept=intercept,
        doubling_months=-1.0 / slope,
        r_squared=r2,
        points=n,
    )


# ---------------------------------------------------------------------------
# effective compute
# ---------------------------------------------------------------------------

def moore_factor(period_months: float, doubling_months: float) -> float:
    """Growth factor from steady doubling over a period."""
    if not positive_finite(doubling_months):
        raise TrendError(f"doubling_months must be positive and finite, got {doubling_months!r}")
    exponent = period_months / doubling_months
    try:
        factor = 2.0 ** exponent
    except OverflowError:
        factor = math.inf
    if not positive_finite(factor):
        raise TrendError(f"growth factor 2 ** {exponent!r} is not a finite positive number")
    return factor


def effective_compute(factors: Iterable[float]) -> float:
    """Combined multiplier from independent gain factors (their product)."""
    return finite_product((("factors", f) for f in factors), TrendError)


@dataclass(frozen=True)
class EffectiveComputeModel:
    """Effective compute growth for the largest training runs of a period.

    Three stacked multipliers over period_months: hardware price
    performance doubling every hardware_doubling_months, growth in
    spending on a single run, and algorithmic efficiency gains. The
    defaults describe a six year window with two year hardware
    doubling, a 37500x spending rise and a 25x efficiency gain, which
    combine to 7.5 million times more effective compute. factors_at is
    the one growth formula, read at period_months for the period's end.
    """

    hardware_doubling_months: float = 24.0
    spending_factor: float = 37500.0
    efficiency_factor: float = 25.0
    period_months: float = 72.0

    def __post_init__(self):
        for f in fields(self):
            if not positive_finite(getattr(self, f.name)):
                raise TrendError(f"{f.name} must be positive and finite")

    def factors_at(self, months: float) -> dict[str, float]:
        """The hardware, spending and efficiency factors after months, and their product.

        months lies in [0, period_months]. Hardware doubles on its own clock;
        spending and efficiency grow exponentially to their factors at
        period_months. Keys, in order: hardware_factor, spending_factor,
        efficiency_factor, total_factor.
        """
        if not 0 <= months <= self.period_months:  # also NaN
            raise TrendError(f"months must be in [0, {self.period_months:g}], got {months!r}")
        share = months / self.period_months
        hardware = moore_factor(months, self.hardware_doubling_months)
        spending = self.spending_factor ** share
        efficiency = self.efficiency_factor ** share
        return {
            "hardware_factor": hardware,
            "spending_factor": spending,
            "efficiency_factor": efficiency,
            "total_factor": effective_compute((hardware, spending, efficiency)),
        }
