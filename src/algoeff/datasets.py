"""Bundled data sets.

Three resources ship with the package:

* imagenet_records.json: sixteen training runs of well-known
  classifiers, each stated as epochs to a shared top-5 accuracy
  threshold of 0.791 together with per-image forward cost. Dates are a
  fixed convention of this data set (roughly when each architecture
  became public), chosen once so trend arithmetic is reproducible.
* cross_domain.json: pairwise before/after comparisons in translation,
  game playing and vision, including reported figures for runs whose
  raw compute is not public. Entries marked estimated carry headline
  numbers their source labelled approximate.
* curves/: small synthetic learning curves shaped to cross the shared
  threshold at the epoch counts the records state. They exist so the
  curve tooling has runnable examples; they are not measurements.

REPORTED_TERAFLOP_S_DAYS holds the training totals as conventionally
quoted for the sixteen runs, and is their one owner: callers read it
directly. The values equal raw flops divided by 1e15, i.e. the "table"
display unit in trends.to_report_units.
"""
from __future__ import annotations

import datetime
from dataclasses import dataclass, fields
from pathlib import Path

from . import InputError, _jsonfile
from .curves import LearningCurve, parse_curve, positive_finite
from .trends import (
    MONTH_DAYS,
    EfficiencyRecord,
    TrendError,
    doubling_time,
    parse_date,
    partial_run_factor,
    records_from_json,
)


class DatasetError(InputError):
    """Malformed bundled or user-supplied data set content."""


# Quoted training totals for the bundled records, raw flops / 1e15.
REPORTED_TERAFLOP_S_DAYS = {
    "Vgg-11": 367.7,
    "Wide_ResNet_50": 308.0,
    "AlexNet": 266.1,
    "Resnet-50": 118.6,
    "Resnet-34": 118.5,
    "ResNext_50": 115.3,
    "Resnet-18": 97.9,
    "DenseNet121": 82.9,
    "Squeezenet_v1_1": 73.1,
    "GoogLeNet": 61.4,
    "MobileNet_v1": 24.0,
    "MobileNet_v2": 20.2,
    "ShuffleNet_v2_1_5x": 15.4,
    "ShuffleNet_v1_1x": 12.9,
    "ShuffleNet_v2_1x": 10.8,
    "EfficientNet-b0": 6.0,
}

_PERIOD_UNITS = ("months", "days")


@dataclass(frozen=True)
class CrossDomainComparison:
    """A before/after compute comparison at matched capability.

    Compute totals may be raw flops or any self-consistent relative
    unit (compute_unit says which); only their ratio is ever used.
    improved_fraction charges the improved run just the share of its
    compute spent by the time it matched the baseline. reported_*
    fields quote the source's headline numbers verbatim and are never
    recomputed. estimated marks comparisons whose source called its
    own numbers approximate.
    """

    task: str
    kind: str
    baseline: str
    improved: str
    baseline_compute: float | None = None
    improved_compute: float | None = None
    compute_unit: str = "flops"
    improved_fraction: float = 1.0
    baseline_date: datetime.date | None = None
    improved_date: datetime.date | None = None
    period_value: float | None = None
    period_unit: str = "months"
    reported_factor: float | None = None
    reported_period_value: float | None = None
    reported_period_unit: str = "months"
    reported_doubling_value: float | None = None
    reported_doubling_unit: str = "months"
    estimated: bool = False
    notes: str = ""

    def __post_init__(self):
        for key in ("task", "kind", "baseline", "improved"):
            v = getattr(self, key)
            if not isinstance(v, str) or not v:
                raise DatasetError(f"comparison {key} must be a non-empty string, got {v!r}")
        if self.kind not in ("training", "inference"):
            raise DatasetError(f"{self.label}: kind must be training or inference")
        for key, kind, want in (("compute_unit", str, "a string"), ("notes", str, "a string"),
                                ("estimated", bool, "true or false")):
            if not isinstance(v := getattr(self, key), kind):
                raise DatasetError(f"{self.label}: {key} must be {want}, got {v!r}")
        if (self.baseline_compute is None) != (self.improved_compute is None):
            raise DatasetError(f"{self.label}: compute totals must come in pairs")
        if self.baseline_compute is None and self.reported_factor is None:
            raise DatasetError(f"{self.label}: needs compute totals or a reported factor")
        for key in ("baseline_compute", "improved_compute", "period_value", "reported_factor",
                    "reported_period_value", "reported_doubling_value"):
            v = getattr(self, key)
            if v is not None and not positive_finite(v):
                raise DatasetError(f"{self.label}: {key} must be positive and finite, got {v!r}")
        if not positive_finite(self.improved_fraction) or self.improved_fraction > 1.0:
            raise DatasetError(f"{self.label}: improved_fraction outside (0, 1]")
        for unit in (self.period_unit, self.reported_period_unit, self.reported_doubling_unit):
            if unit not in _PERIOD_UNITS:
                raise DatasetError(f"{self.label}: period units must be months or days")
        for key in ("baseline_date", "improved_date"):
            v = getattr(self, key)
            if v is not None and (not isinstance(v, datetime.date)
                                  or isinstance(v, datetime.datetime)):
                raise DatasetError(
                    f"{self.label}: {key} must be a datetime.date or None, got {v!r}")
        if (self.baseline_date is None) != (self.improved_date is None):
            raise DatasetError(f"{self.label}: dates must come in pairs")
        if self.period_value is None and self.baseline_date is None:
            raise DatasetError(f"{self.label}: needs a period or a date pair")

    @property
    def label(self) -> str:
        return f"{self.baseline} -> {self.improved}"

    def factor(self) -> float:
        """Efficiency factor, computed from totals when available.

        With totals, baseline over fraction-weighted improved; without,
        the reported factor verbatim.
        """
        if self.baseline_compute is not None:
            try:
                return partial_run_factor(self.baseline_compute, self.improved_compute,
                                          self.improved_fraction)
            except TrendError as e:
                raise DatasetError(f"{self.label}: {e}") from None
        return float(self.reported_factor)

    def period(self) -> tuple[float, str]:
        """Elapsed (value, unit) between the two runs.

        A date pair wins over a stated period because dates are the
        ground truth; stated periods are typically rounded.
        """
        if self.baseline_date is not None:
            days = (self.improved_date - self.baseline_date).days
            return days / MONTH_DAYS, "months"
        return self.period_value, self.period_unit

    def doubling(self) -> tuple[float, str]:
        """Efficiency doubling (value, unit): period over log2(factor)."""
        f = self.factor()
        value, unit = self.period()
        try:
            return doubling_time(f, value), unit
        except TrendError as e:
            raise DatasetError(f"{self.label}: {e}") from None


_COMPARISON_FIELDS = frozenset(f.name for f in fields(CrossDomainComparison))


def comparison_from_dict(obj: dict, where: str = "comparison") -> CrossDomainComparison:
    _jsonfile.check_object(obj, where, _COMPARISON_FIELDS,
                           ("task", "kind", "baseline", "improved"), DatasetError)
    kwargs = dict(obj)
    for key in ("baseline_date", "improved_date"):
        if key in kwargs:
            kwargs[key] = parse_date(kwargs[key], f"{where}: {key}", DatasetError)
    try:
        return CrossDomainComparison(**kwargs)
    except DatasetError as e:  # only the name checks' messages do not lead with the label
        if not str(e).startswith("comparison "):
            raise
        raise DatasetError(f"{where}: {e}") from None


def comparisons_from_json(text: str) -> tuple[CrossDomainComparison, ...]:
    data = _jsonfile.parse(text, "comparisons file is not valid json", DatasetError)
    return tuple(comparison_from_dict(obj, where=f"comparison {i}")
                 for i, obj in enumerate(_jsonfile.array(data, "comparisons", DatasetError)))


_DATA = Path(__file__).with_name("data")


def _data_text(*relpath: str) -> str:
    return _DATA.joinpath(*relpath).read_text(encoding="utf-8")


def load_imagenet_records() -> tuple[EfficiencyRecord, ...]:
    """The sixteen bundled classifier training records."""
    try:
        return records_from_json(_data_text("imagenet_records.json"))
    except TrendError as e:
        raise DatasetError(f"bundled records are invalid: {e}") from None


def load_cross_domain() -> tuple[CrossDomainComparison, ...]:
    """The bundled cross-domain comparisons, training and inference."""
    return comparisons_from_json(_data_text("cross_domain.json"))


def curve_names() -> tuple[str, ...]:
    """Names of the bundled synthetic learning curves."""
    entries = (_DATA / "curves").iterdir()
    return tuple(sorted(e.name[: -len(".csv")] for e in entries if e.name.endswith(".csv")))


def load_curve(name: str) -> LearningCurve:
    """One bundled curve by name; see curve_names().

    The directory is listed only for the error message: a name is bundled
    when it names a file of the curves directory itself.
    """
    path = _DATA / "curves" / f"{name}.csv"
    if path.name != f"{name}.csv" or not path.is_file():
        names = ", ".join(curve_names())
        raise DatasetError(f"unknown bundled curve {name!r}; available: {names}")
    return parse_curve(path.read_text(encoding="utf-8"), name=name)
