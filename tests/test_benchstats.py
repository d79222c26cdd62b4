import json
import math
import re

import numpy as np
import pytest
from scipy import stats as scipy_stats

from dnaprep import (
    ConfigError,
    DataError,
    RunRecord,
    ScalingRecord,
    criteria_report,
    dataset_sigma,
    ols_fit,
    shapiro_wilk,
    stability_filter,
    validity_filter,
)
from dnaprep.benchstats import load_runs_csv, load_scaling_csv

# Published per-dataset performance standard deviations (percent) for the
# two seed populations; the four largest in each row are the flagged ones.
SIGMA_EVAL = {
    "NET": 0.07, "NE": 0.08, "EE": 0.29, "CA": 0.30, "OCR": 0.43,
    "K36m3": 0.53, "ER": 1.26, "Z": 1.28, "K4m3": 1.37, "K4m1": 1.45,
    "K27m3": 2.85, "K9a": 2.93, "K4m2": 3.81,
}
SIGMA_PRETRAIN = {
    "NET": 0.07, "NE": 0.26, "EE": 0.51, "CA": 0.10, "OCR": 0.34,
    "K36m3": 0.35, "ER": 0.22, "Z": 2.44, "K4m3": 1.50, "K4m1": 1.23,
    "K27m3": 3.57, "K9a": 1.08, "K4m2": 1.66,
}

# Published mean metrics for three scratch-trained baselines vs the
# pretrained model across thirteen benchmark datasets.
BASELINE_TABLE = {
    "CpG":   {"cnn": 80.19, "unet": 85.30, "mlp": 77.17, "pre": 89.67},
    "HM":    {"cnn": 71.22, "unet": 70.23, "mlp": 67.96, "pre": 76.83},
    "EC":    {"cnn": 68.70, "unet": 60.94, "mlp": 66.68, "pre": 71.69},
    "NTP":   {"cnn": 22.57, "unet": 25.90, "mlp": 9.72,  "pre": 31.93},
    "K27a":  {"cnn": 46.70, "unet": 45.97, "mlp": 51.86, "pre": 55.16},
    "K9m3":  {"cnn": 91.81, "unet": 93.19, "mlp": 93.05, "pre": 94.33},
    "K20m1": {"cnn": 92.81, "unet": 93.70, "mlp": 93.34, "pre": 94.98},
    "PA":    {"cnn": 89.42, "unet": 97.56, "mlp": 97.48, "pre": 91.75},
    "PNT":   {"cnn": 72.13, "unet": 94.18, "mlp": 98.62, "pre": 95.51},
    "PT":    {"cnn": 48.19, "unet": 78.90, "mlp": 93.35, "pre": 81.84},
    "SSAcc": {"cnn": 76.31, "unet": 96.00, "mlp": 98.69, "pre": 94.74},
    "SSAll": {"cnn": 91.29, "unet": 54.60, "mlp": 82.95, "pre": 83.39},
    "SSD":   {"cnn": 32.74, "unet": 35.10, "mlp": 25.30, "pre": 32.83},
}
BENEFIT_FAILS = {"PA", "PNT", "PT", "SSAcc", "SSAll", "SSD"}


def baseline_runs():
    out = []
    for dataset, row in BASELINE_TABLE.items():
        out.append(RunRecord(dataset, "pretrained", 0, row["pre"]))
        for name in ("cnn", "unet", "mlp"):
            out.append(RunRecord(dataset, f"baseline:{name}", 0, row[name]))
    return out


class TestDatasetSigma:
    def test_textbook(self):
        assert dataset_sigma([1, 2, 3]) == 1.0

    def test_published_row_reproducible(self):
        # any triple with this sample std matches the NET row's 0.07
        values = [71.80, 71.94, 71.87]
        assert round(dataset_sigma(values), 2) == 0.07

    def test_zero_variance(self):
        assert dataset_sigma([70, 70, 70]) == 0.0

    def test_population_estimator(self):
        assert dataset_sigma([1, 2, 3], estimator="population") == pytest.approx(
            math.sqrt(2 / 3)
        )

    def test_insufficient_seeds(self):
        with pytest.raises(DataError):
            dataset_sigma([5.0])

    @pytest.mark.parametrize(
        "call",
        [
            lambda estimator: dataset_sigma([1, 2, 3], estimator=estimator),
            lambda estimator: stability_filter({"a": 0.5, "b": 1.0, "c": 2.0}, estimator=estimator),
            lambda estimator: stability_filter({"a": 0.5}, threshold_override=1.0, estimator=estimator),
        ],
        ids=["dataset_sigma", "stability_filter", "stability_filter_without_a_fit"],
    )
    def test_unknown_estimator_rejected(self, call):
        with pytest.raises(ConfigError, match="unknown std estimator 'bogus'"):
            call("bogus")


class TestOls:
    def test_perfect_line(self):
        slope, intercept, r2 = ols_fit([(0, 0), (1, 1)])
        assert (slope, intercept, r2) == (1.0, 0.0, 1.0)

    def test_hand_least_squares(self):
        slope, intercept, r2 = ols_fit([(0, 0), (1, 1), (2, 0)])
        assert abs(slope) < 1e-12
        assert abs(intercept - 1 / 3) < 1e-12
        assert abs(r2) < 1e-12

    def test_constant_y_convention(self):
        slope, _, r2 = ols_fit([(0, 5), (1, 5), (2, 5)])
        assert slope == 0.0 and r2 == 1.0

    def test_degenerate_x(self):
        with pytest.raises(ValueError):
            ols_fit([(1, 0), (1, 1)])

    def test_exact_arithmetic_fixture(self):
        # y = 3x - 2 exactly
        pts = [(x, 3 * x - 2) for x in range(6)]
        slope, intercept, r2 = ols_fit(pts)
        assert abs(slope - 3) < 1e-12 and abs(intercept + 2) < 1e-12 and abs(r2 - 1) < 1e-12


class TestShapiroWilk:
    def test_near_normal_quantiles(self):
        probs = (np.arange(1, 21) - 0.5) / 20
        sample = [scipy_stats.norm.ppf(p) for p in probs]
        w, _ = shapiro_wilk(sample)
        assert w > 0.99

    def test_exponential_rejected(self):
        rng = np.random.default_rng(11)
        _, p = shapiro_wilk(rng.exponential(size=50))
        assert p < 0.05

    def test_constant_sample_degenerate(self):
        with pytest.raises(DataError):
            shapiro_wilk([3.0, 3.0, 3.0])

    def test_n_out_of_range(self):
        with pytest.raises(ValueError):
            shapiro_wilk([1.0, 2.0])

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_reference_implementation(self, seed):
        rng = np.random.default_rng(seed)
        for dist in ("normal", "exponential", "uniform"):
            n = int(rng.integers(3, 51))
            x = getattr(rng, dist)(size=n)
            w_mine, p_mine = shapiro_wilk(x)
            ref = scipy_stats.shapiro(x)
            assert abs(w_mine - ref.statistic) < 1e-4
            assert abs(p_mine - ref.pvalue) < 1e-4


class TestStability:
    def test_eval_row_with_published_threshold(self):
        report = stability_filter(SIGMA_EVAL, threshold_override=1.41)
        flagged = {d for d, ok in report.passes.items() if not ok}
        assert flagged == {"K4m1", "K27m3", "K9a", "K4m2"}

    def test_pretrain_row_with_published_threshold(self):
        report = stability_filter(SIGMA_PRETRAIN, threshold_override=1.41)
        flagged = {d for d, ok in report.passes.items() if not ok}
        assert flagged == {"Z", "K4m3", "K27m3", "K4m2"}

    def test_fitted_threshold_flags_outlier(self):
        sigmas = {f"d{i}": float(v) for i, v in enumerate(np.exp(np.linspace(-1, 1, 12)))}
        sigmas["outlier"] = float(np.exp(5.0))
        report = stability_filter(sigmas)
        logs = np.log(np.array(list(sigmas.values())))
        cut = logs.mean() + logs.std(ddof=1)
        expected = {d for d, s in sigmas.items() if math.log(s) >= cut}
        assert expected == {"outlier"}
        assert {d for d, ok in report.passes.items() if not ok} == expected
        assert report.threshold_sigma == pytest.approx(math.exp(cut))

    def test_all_equal_all_pass(self):
        report = stability_filter({"a": 0.5, "b": 0.5, "c": 0.5, "d": 0.5})
        assert all(report.passes.values())

    def test_zero_sigma_auto_pass(self):
        report = stability_filter({"a": 0.0, "b": 1.0, "c": 2.0, "d": 30.0})
        assert report.passes["a"]

    def test_scale_invariance_of_pass_set(self):
        rng = np.random.default_rng(4)
        sigmas = {f"d{i}": float(s) for i, s in enumerate(rng.lognormal(size=15))}
        base = stability_filter(sigmas)
        scaled = stability_filter({d: 100.0 * s for d, s in sigmas.items()})
        assert base.passes == scaled.passes

    def test_reports_shapiro_on_logs(self):
        report = stability_filter(SIGMA_EVAL)
        logs = np.log(np.array(list(SIGMA_EVAL.values())))
        ref = scipy_stats.shapiro(logs)
        assert report.sw_w == pytest.approx(ref.statistic, abs=1e-6)
        assert report.sw_p == pytest.approx(ref.pvalue, abs=1e-6)

    def test_too_few_datasets(self):
        with pytest.raises(DataError):
            stability_filter({"a": 1.0, "b": 2.0})


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: stability_filter(SIGMA_EVAL, threshold_override=math.nan),
            "threshold_override must be a finite number, got nan",
        ),
        (lambda: validity_filter(baseline_runs(), r2_min=math.nan), "r2_min must be a finite number, got nan"),
        (
            lambda: criteria_report(baseline_runs(), sigma_threshold=math.inf),
            "sigma_threshold must be a finite number, got inf",
        ),
        (lambda: criteria_report(baseline_runs(), r2_min=-math.inf), "r2_min must be a finite number, got -inf"),
    ],
    ids=["stability_nan", "validity_nan", "criteria_inf", "criteria_minus_inf"],
)
def test_non_finite_threshold_is_a_config_error(call, message):
    """NaN fails every comparison and infinity passes or fails all of them, so neither is a threshold."""
    with pytest.raises(ConfigError, match=re.escape(message)):
        call()


class TestValidity:
    def test_published_benefit_sets(self):
        rows = validity_filter(baseline_runs())
        fails = {d for d, row in rows.items() if not row.benefit}
        assert fails == BENEFIT_FAILS
        assert {d for d, row in rows.items() if row.benefit} == (
            set(BASELINE_TABLE) - BENEFIT_FAILS
        )

    def test_perfect_scaling_passes(self):
        runs = [
            RunRecord("d", "pretrained", 0, 50.0),
            RunRecord("d", "baseline:lin", 0, 40.0),
        ]
        scaling = [ScalingRecord("d", 10.0**x, float(x)) for x in (1, 2, 3)]
        row = validity_filter(runs, scaling)["d"]
        assert row.scaling is True and row.slope == pytest.approx(1.0)
        assert row.valid is True

    def test_zero_slope_fails(self):
        runs = [
            RunRecord("d", "pretrained", 0, 50.0),
            RunRecord("d", "baseline:lin", 0, 40.0),
        ]
        scaling = [ScalingRecord("d", 10.0**x, 5.0) for x in (1, 2, 3)]
        row = validity_filter(runs, scaling)["d"]
        assert row.scaling is False and row.valid is False

    def test_missing_scaling_indeterminate(self):
        runs = [
            RunRecord("d", "pretrained", 0, 50.0),
            RunRecord("d", "baseline:lin", 0, 40.0),
        ]
        row = validity_filter(runs, [])["d"]
        assert row.scaling is None and row.valid is None

    def test_low_r2_fails(self):
        runs = [
            RunRecord("d", "pretrained", 0, 50.0),
            RunRecord("d", "baseline:lin", 0, 40.0),
        ]
        scaling = [
            ScalingRecord("d", 10.0, 1.0),
            ScalingRecord("d", 100.0, 10.0),
            ScalingRecord("d", 1000.0, 2.0),
        ]
        row = validity_filter(runs, scaling, r2_min=0.4)["d"]
        assert row.scaling is False


class TestCriteriaReport:
    def make_runs(self):
        rng = np.random.default_rng(8)
        runs = []
        for i, dataset in enumerate(("good", "unstable", "weak")):
            for seed in range(3):
                base = 70.0 + i
                spread = 0.05 if dataset != "unstable" else 8.0
                runs.append(
                    RunRecord(dataset, "pretrained", seed, base + spread * float(rng.normal()))
                )
            runs.append(RunRecord(dataset, "baseline:cnn", 0, 95.0 if dataset == "weak" else 50.0))
        return runs

    def test_selected_is_conjunction(self):
        runs = self.make_runs()
        scaling = [
            ScalingRecord(d, 10.0**x, 60 + x) for d in ("good", "unstable", "weak") for x in (1, 2, 3)
        ]
        report = criteria_report(runs, scaling)
        assert set(report.selected) <= {"good"}
        rows = report.rows
        assert rows["weak"]["selected"] is False  # loses to its baseline
        for row in rows.values():
            assert row["selected"] == (
                bool(row["stability"]) and row["benefit"] and bool(row["scaling"])
            )

    def test_json_and_table_render(self):
        runs = self.make_runs()
        report = criteria_report(runs, [])
        assert "datasets" in report.to_json()
        assert "dataset" in report.to_table()

    def test_override_without_a_fit_writes_strict_json(self):
        """Two datasets leave no fit; the override still decides, and the fit fields are null."""
        runs = [rec for rec in self.make_runs() if rec.dataset_id != "weak"]
        report = criteria_report(runs, [], sigma_threshold=1.5)

        def reject(constant):
            raise AssertionError(f"{constant} is not JSON")

        out = json.loads(report.to_json(), parse_constant=reject)
        assert set(out["global"].values()) == {None}  # mu, sigma, threshold_sigma, shapiro_w, shapiro_p
        assert out["datasets"]["good"]["stability"] is True
        assert out["datasets"]["unstable"]["stability"] is False


RUNS_HEADER = "dataset_id,variant,seed,metric_value\n"


class TestCsvLoaders:
    def test_runs_round_trip(self, tmp_path):
        path = tmp_path / "runs.csv"
        path.write_text(
            "dataset_id,variant,seed,metric_value\n"
            "d1,pretrained,0,71.5\n"
            "d1,baseline:cnn,0,65.0\n"
        )
        runs = load_runs_csv(path)
        assert runs[0] == RunRecord("d1", "pretrained", 0, 71.5)

    def test_runs_header_required(self, tmp_path):
        path = tmp_path / "runs.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DataError):
            load_runs_csv(path)

    @pytest.mark.parametrize(
        "loader, text, message",
        [
            (load_runs_csv, RUNS_HEADER + "d1,pretrained\n", "line 2: row has no seed, metric_value"),
            (load_runs_csv, RUNS_HEADER + "d1,pretrained,0,1\nd1,pretrained,x,2\n", "line 3: invalid literal for int"),
            (load_runs_csv, RUNS_HEADER + "d1,pretrained,0,150\n", "line 2: metric 150.0 out of"),
            (load_scaling_csv, "dataset_id,pretrain_size,metric_value\nd1,ten,1\n", "line 2: could not convert"),
        ],
        ids=["short_row", "non_integer_seed", "metric_out_of_range", "non_numeric_size"],
    )
    def test_bad_row_names_path_and_line(self, tmp_path, loader, text, message):
        path = tmp_path / "table.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: {re.escape(message)}"):
            loader(path)

    def test_scaling_round_trip(self, tmp_path):
        path = tmp_path / "scaling.csv"
        path.write_text("dataset_id,pretrain_size,metric_value\nd1,1000,70.2\n")
        assert load_scaling_csv(path)[0] == ScalingRecord("d1", 1000.0, 70.2)

    def test_duplicate_run_rejected(self):
        runs = [
            RunRecord("d", "pretrained", 0, 50.0),
            RunRecord("d", "pretrained", 0, 51.0),
            RunRecord("d", "baseline:cnn", 0, 40.0),
        ]
        with pytest.raises(DataError):
            validity_filter(runs)

    def test_metric_range_enforced(self):
        with pytest.raises(DataError):
            RunRecord("d", "pretrained", 0, 150.0)

    def test_variant_name_enforced(self):
        with pytest.raises(DataError):
            RunRecord("d", "scratch", 0, 50.0)
