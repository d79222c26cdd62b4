"""Statistical gate for downstream benchmark selection.

Two criteria are applied to externally supplied run results:

* stability -- fit a normal distribution to the log of each dataset's
  performance standard deviation; a dataset passes when its log-std lies
  below mean + one-std of that fit (or below an explicit sigma threshold
  when one is supplied). A Shapiro-Wilk test on the log-stds reports how
  normal the fit assumption is.
* validity -- the pretrained variant's mean metric must beat every
  baseline variant, and an OLS fit of metric against log10 pretraining
  size must have positive slope with R^2 above a floor (0.4 default).

The Shapiro-Wilk statistic and p-value follow Royston's approximation
(the standard algorithm for 3 <= n <= 5000), implemented here directly so
it can be validated against an independent reference implementation.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from . import STD_POPULATION, STD_SAMPLE
from .errors import ConfigError, DataError

_STD_NORMAL = NormalDist()

PRETRAINED = "pretrained"
BASELINE_PREFIX = "baseline:"


@dataclass(frozen=True)
class RunRecord:
    """One (dataset, variant, seed) evaluation result, metric in percent."""

    dataset_id: str
    variant: str
    seed: int
    metric_value: float

    def __post_init__(self) -> None:
        if not -100.0 <= self.metric_value <= 100.0:
            raise DataError(
                f"metric {self.metric_value} out of [-100, 100] for {self.dataset_id}"
            )
        if self.variant != PRETRAINED and not self.variant.startswith(BASELINE_PREFIX):
            raise DataError(
                f"variant must be '{PRETRAINED}' or '{BASELINE_PREFIX}<name>', got {self.variant!r}"
            )


@dataclass(frozen=True)
class ScalingRecord:
    """Metric at one pretraining-data size for one dataset."""

    dataset_id: str
    pretrain_size: float
    metric_value: float

    def __post_init__(self) -> None:
        if self.pretrain_size <= 0:
            raise DataError(f"pretrain_size must be positive, got {self.pretrain_size}")


_RUN_COLUMNS = {"dataset_id": str.strip, "variant": str.strip, "seed": int, "metric_value": float}
_SCALING_COLUMNS = {"dataset_id": str.strip, "pretrain_size": float, "metric_value": float}


def _load_csv(path, name: str, columns: dict, record: type) -> list:
    """One ``record`` per row of a CSV whose header names ``columns``, each field read by its converter.

    A short row, a field its converter rejects, or a record that rejects
    its values is a DataError naming the path and line.
    """
    out = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not columns.keys() <= set(reader.fieldnames):
            raise DataError(f"{name} CSV must have columns {sorted(columns)}")
        for row in reader:
            missing = [column for column in columns if row[column] is None]
            if missing:
                raise DataError(f"{path}: line {reader.line_num}: row has no {', '.join(missing)}")
            try:
                out.append(record(**{column: read(row[column]) for column, read in columns.items()}))
            except (ValueError, DataError) as exc:
                raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    return out


def load_runs_csv(path) -> list[RunRecord]:
    """Read a dataset_id,variant,seed,metric_value table."""
    return _load_csv(path, "runs", _RUN_COLUMNS, RunRecord)


def load_scaling_csv(path) -> list[ScalingRecord]:
    """Read a dataset_id,pretrain_size,metric_value table."""
    return _load_csv(path, "scaling", _SCALING_COLUMNS, ScalingRecord)


_DDOF = {STD_SAMPLE: 1, STD_POPULATION: 0}  # each std estimator's delta degrees of freedom


def _ddof(estimator: str) -> int:
    try:
        return _DDOF[estimator]
    except KeyError:
        raise ConfigError(f"unknown std estimator {estimator!r}") from None


def dataset_sigma(values, estimator: str = STD_SAMPLE) -> float:
    """Standard deviation of one dataset's metric across seeds."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size < 2:
        raise DataError(f"need >= 2 seeds to estimate a standard deviation, got {arr.size}")
    return float(arr.std(ddof=_ddof(estimator)))


def ols_fit(points) -> tuple[float, float, float]:
    """Closed-form least squares: (slope, intercept, R^2).

    R^2 is defined as 1 when the responses are constant (SS_tot = 0);
    a fit with all x equal is degenerate and rejected.
    """
    pts = list(points)
    if len(pts) < 2:
        raise ValueError(f"need >= 2 points for a fit, got {len(pts)}")
    x = np.asarray([p[0] for p in pts], dtype=np.float64)
    y = np.asarray([p[1] for p in pts], dtype=np.float64)
    xc = x - x.mean()
    sxx = float(xc @ xc)
    if sxx == 0.0:
        raise ValueError("degenerate fit: all x values are equal")
    yc = y - y.mean()
    slope = float(xc @ yc) / sxx
    intercept = float(y.mean() - slope * x.mean())
    residuals = y - (slope * x + intercept)
    ss_res = float(residuals @ residuals)
    ss_tot = float(yc @ yc)
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return slope, intercept, r2


# -- Shapiro-Wilk (Royston's approximation) --------------------------------------

_SW_C3 = (0.5440, -0.39978, 0.025054, -6.714e-4)
_SW_C4 = (1.3822, -0.77857, 0.062767, -2.0322e-3)
_SW_C5 = (-1.5861, -0.31082, -0.083751, 3.8915e-3)
_SW_C6 = (-0.4803, -0.082676, 3.0302e-3)


def _poly(coeffs, x: float) -> float:
    total = 0.0
    for c in reversed(coeffs):
        total = total * x + c
    return total


def shapiro_wilk(samples) -> tuple[float, float]:
    """Shapiro-Wilk normality test for 3 <= n <= 5000 samples.

    Returns (W, p). The weights use the normal order-statistic
    approximation with Royston's edge corrections; the p-value maps W
    through his n-dependent normalizing transforms.
    """
    x = np.sort(np.asarray(list(samples), dtype=np.float64))
    n = x.size
    if n < 3 or n > 5000:
        raise ValueError(f"shapiro_wilk requires 3 <= n <= 5000, got {n}")
    if x[-1] - x[0] <= 0.0:
        raise DataError("degenerate input: all samples are equal")

    mm = np.array(
        [_STD_NORMAL.inv_cdf((i - 0.375) / (n + 0.25)) for i in range(1, n + 1)]
    )
    ssumm2 = float(mm @ mm)
    rsn = 1.0 / math.sqrt(n)
    a = np.empty(n, dtype=np.float64)
    if n == 3:
        a[0], a[1], a[2] = -math.sqrt(0.5), 0.0, math.sqrt(0.5)
    else:
        a_n = (
            -2.706056 * rsn**5
            + 4.434685 * rsn**4
            - 2.071190 * rsn**3
            - 0.147981 * rsn**2
            + 0.221157 * rsn
            + mm[-1] / math.sqrt(ssumm2)
        )
        if n > 5:
            a_n1 = (
                -3.582633 * rsn**5
                + 5.682633 * rsn**4
                - 1.752461 * rsn**3
                - 0.293762 * rsn**2
                + 0.042981 * rsn
                + mm[-2] / math.sqrt(ssumm2)
            )
            phi = (ssumm2 - 2 * mm[-1] ** 2 - 2 * mm[-2] ** 2) / (
                1 - 2 * a_n**2 - 2 * a_n1**2
            )
            a[2:-2] = mm[2:-2] / math.sqrt(phi)
            a[-1], a[-2] = a_n, a_n1
            a[0], a[1] = -a_n, -a_n1
        else:
            phi = (ssumm2 - 2 * mm[-1] ** 2) / (1 - 2 * a_n**2)
            a[1:-1] = mm[1:-1] / math.sqrt(phi)
            a[-1] = a_n
            a[0] = -a_n

    xc = x - x.mean()
    w = float((a @ x) ** 2 / (xc @ xc))
    w = min(w, 1.0)

    if n == 3:
        p = (6.0 / math.pi) * (math.asin(math.sqrt(w)) - math.asin(math.sqrt(0.75)))
        return w, min(max(p, 0.0), 1.0)
    if w >= 1.0:
        return w, 1.0
    if n <= 11:
        gamma = -2.273 + 0.459 * n
        y = -math.log(gamma - math.log1p(-w))
        mu = _poly(_SW_C3, n)
        sigma = math.exp(_poly(_SW_C4, n))
    else:
        y = math.log1p(-w)
        lnn = math.log(n)
        mu = _poly(_SW_C5, lnn)
        sigma = math.exp(_poly(_SW_C6, lnn))
    p = 1.0 - _STD_NORMAL.cdf((y - mu) / sigma)
    return w, min(max(p, 0.0), 1.0)


# -- stability criterion ------------------------------------------------------------


@dataclass
class StabilityReport:
    """Per-dataset verdicts; the fit fields are None when no fit was made."""

    passes: dict[str, bool]
    sigmas: dict[str, float]
    log_sigmas: dict[str, float]
    mu: float | None
    sigma: float | None
    threshold_sigma: float | None
    sw_w: float | None
    sw_p: float | None
    override: float | None = None


def check_thresholds(**thresholds: float | None) -> None:
    """Refuse a NaN or infinite threshold, which would fail or pass every dataset silently; None is unset."""
    for name, value in thresholds.items():
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{name} must be a finite number, got {value}")


def stability_filter(
    sigmas: dict[str, float],
    threshold_override: float | None = None,
    estimator: str = STD_SAMPLE,
) -> StabilityReport:
    """Flag unstable datasets by their log performance-std.

    A dataset passes when log(sigma_D) < mu + sigma of the fitted normal
    (all pass when the fitted sigma is zero), or when sigma_D is below
    ``threshold_override`` if one is given. Zero-variance datasets pass
    automatically and are excluded from the fit. The fit needs at least
    three datasets with positive sigma; with an override and fewer, no
    fit is made and its fields are None.
    """
    check_thresholds(threshold_override=threshold_override)
    ddof = _ddof(estimator)
    positive = {d: s for d, s in sigmas.items() if s > 0}
    logs = {d: math.log(s) for d, s in positive.items()}
    mu = sigma = threshold_sigma = sw_w = sw_p = None
    if len(positive) >= 3:
        values = np.array(list(logs.values()))
        mu = float(values.mean())
        sigma = float(values.std(ddof=ddof))
        threshold_sigma = math.exp(mu + sigma)
        try:
            sw_w, sw_p = shapiro_wilk(values)
        except (DataError, ValueError):
            pass
    elif threshold_override is None:
        raise DataError(f"need >= 3 datasets with positive sigma, got {len(positive)}")
    passes: dict[str, bool] = {}
    for dataset, s in sigmas.items():
        if s <= 0:
            passes[dataset] = True
        elif threshold_override is not None:
            passes[dataset] = s < threshold_override
        else:
            passes[dataset] = sigma == 0.0 or logs[dataset] < mu + sigma
    return StabilityReport(
        passes=passes,
        sigmas=dict(sigmas),
        log_sigmas=logs,
        mu=mu,
        sigma=sigma,
        threshold_sigma=threshold_sigma,
        sw_w=sw_w,
        sw_p=sw_p,
        override=threshold_override,
    )


# -- validity criterion --------------------------------------------------------------


@dataclass
class ValidityRow:
    benefit: bool
    slope: float | None
    r2: float | None
    scaling: bool | None  # None: not enough scaling points (indeterminate)

    @property
    def valid(self) -> bool | None:
        if not self.benefit:
            return False
        return None if self.scaling is None else self.scaling


def _group_runs(runs) -> dict[str, dict[str, list[float]]]:
    grouped: dict[str, dict[str, list[float]]] = {}
    seen: set[tuple[str, str, int]] = set()
    for rec in runs:
        key = (rec.dataset_id, rec.variant, rec.seed)
        if key in seen:
            raise DataError(f"duplicate run record for {key}")
        seen.add(key)
        grouped.setdefault(rec.dataset_id, {}).setdefault(rec.variant, []).append(
            rec.metric_value
        )
    return grouped


def validity_filter(
    runs,
    scaling=(),
    r2_min: float = 0.4,
) -> dict[str, ValidityRow]:
    """Per-dataset pretraining-benefit and scaling-law checks.

    Benefit requires the mean pretrained metric to strictly beat the mean
    of every baseline variant. Scaling fits metric against log10 size and
    requires positive slope and R^2 > r2_min; datasets with fewer than 3
    distinct sizes are marked indeterminate rather than failed.
    """
    check_thresholds(r2_min=r2_min)
    grouped = _group_runs(runs)
    scale_pts: dict[str, list[tuple[float, float]]] = {}
    for rec in scaling:
        scale_pts.setdefault(rec.dataset_id, []).append((math.log10(rec.pretrain_size), rec.metric_value))
    out: dict[str, ValidityRow] = {}
    for dataset, variants in grouped.items():
        if PRETRAINED not in variants:
            raise DataError(f"dataset {dataset} has no pretrained runs")
        baselines = {v: vals for v, vals in variants.items() if v != PRETRAINED}
        if not baselines:
            raise DataError(f"dataset {dataset} has no baseline runs")
        pre_mean = float(np.mean(variants[PRETRAINED]))
        benefit = all(pre_mean > float(np.mean(vals)) for vals in baselines.values())
        pts = scale_pts.get(dataset, [])
        if len({x for x, _ in pts}) < 3:
            slope = r2 = None
            scaling_pass = None
        else:
            slope, _, r2 = ols_fit(pts)
            scaling_pass = slope > 0 and r2 > r2_min
        out[dataset] = ValidityRow(benefit=benefit, slope=slope, r2=r2, scaling=scaling_pass)
    return out


# -- combined report ------------------------------------------------------------------


@dataclass
class CriteriaReport:
    """Joined per-dataset stability/validity rows plus the global fit."""

    rows: dict[str, dict]
    mu: float | None
    sigma: float | None
    threshold_sigma: float | None
    sw_w: float | None
    sw_p: float | None
    selected: tuple[str, ...] = field(default=())

    def to_json(self) -> str:
        return json.dumps(
            {
                "datasets": self.rows,
                "global": {
                    "mu": self.mu,
                    "sigma": self.sigma,
                    "threshold_sigma": self.threshold_sigma,
                    "shapiro_w": self.sw_w,
                    "shapiro_p": self.sw_p,
                },
                "selected": list(self.selected),
            },
            indent=2,
        )

    def to_table(self) -> str:
        name_width = max([7] + [len(d) for d in self.rows])
        columns = ["sigma", "stability", "benefit", "slope", "r2", "scaling", "selected"]  # the rows' keys
        lines = [f"{'dataset':>{name_width}}  " + "  ".join(f"{c:>9}" for c in columns)]
        for dataset in sorted(self.rows):
            row = self.rows[dataset]
            lines.append(f"{dataset:>{name_width}}  " + "  ".join(f"{_fmt(row.get(c)):>9}" for c in columns))
        return "\n".join(lines)


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "pass" if value else "FAIL"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def criteria_report(
    runs,
    scaling=(),
    sigma_threshold: float | None = None,
    r2_min: float = 0.4,
    estimator: str = STD_SAMPLE,
) -> CriteriaReport:
    """Run both criteria over a run table and join the results.

    Datasets with fewer than two pretrained seeds get an indeterminate
    stability verdict. A dataset is selected only when stability, benefit
    and scaling all pass.
    """
    check_thresholds(sigma_threshold=sigma_threshold, r2_min=r2_min)
    grouped = _group_runs(runs)
    sigmas: dict[str, float] = {}
    for dataset, variants in grouped.items():
        values = variants.get(PRETRAINED, [])
        if len(values) >= 2:
            sigmas[dataset] = dataset_sigma(values, estimator)
    stab = None
    if sigma_threshold is not None or len([s for s in sigmas.values() if s > 0]) >= 3:
        stab = stability_filter(sigmas, threshold_override=sigma_threshold, estimator=estimator)
    validity = validity_filter(runs, scaling, r2_min=r2_min)
    rows: dict[str, dict] = {}
    selected: list[str] = []
    for dataset in grouped:
        stability = stab.passes.get(dataset) if stab is not None else None
        vrow = validity[dataset]
        sel = bool(stability) and vrow.benefit and bool(vrow.scaling)
        rows[dataset] = {
            "sigma": sigmas.get(dataset),
            "log_sigma": (stab.log_sigmas.get(dataset) if stab is not None else None),
            "stability": stability,
            "benefit": vrow.benefit,
            "slope": vrow.slope,
            "r2": vrow.r2,
            "scaling": vrow.scaling,
            "selected": sel,
        }
        if sel:
            selected.append(dataset)
    return CriteriaReport(
        rows=rows,
        mu=None if stab is None else stab.mu,
        sigma=None if stab is None else stab.sigma,
        threshold_sigma=None if stab is None else stab.threshold_sigma,
        sw_w=None if stab is None else stab.sw_w,
        sw_p=None if stab is None else stab.sw_p,
        selected=tuple(selected),
    )
