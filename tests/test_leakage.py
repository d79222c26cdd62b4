import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dnaprep import (
    MaskConfig,
    ResourceLimitError,
    build_kmer_vocab,
    candidate_space_size,
    empirical_plan_leakage,
    enumerate_consistent_completions,
    leakage_ratio,
    leakage_report,
    masked_run_window,
    max_entropy_ratio,
    neighbor_mask,
)
from dnaprep.leakage import run_leakage


class TestLeakageRatio:
    def test_short_run_fully_leaked(self):
        assert leakage_ratio(6, 3) == 100.0

    def test_full_k_length_run(self):
        assert abs(leakage_ratio(6, 6) - 100 * 5 / 6) < 1e-12

    def test_k3_m4(self):
        assert leakage_ratio(3, 4) == 50.0

    def test_boundary_m_equals_k_minus_1(self):
        assert leakage_ratio(5, 4) == 100.0
        assert leakage_ratio(5, 5) == 80.0

    def test_non_increasing_in_m(self):
        for k in (2, 3, 6):
            values = [leakage_ratio(k, m) for m in range(1, 30)]
            assert all(a >= b for a, b in zip(values, values[1:]))
            assert all(v == 100.0 for v in values[: k - 1])

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            leakage_ratio(0, 3)
        with pytest.raises(ValueError):
            leakage_ratio(3, 0)


class TestCandidateSpace:
    @pytest.mark.parametrize("i,expected", [(1, 4), (2, 16), (3, 64), (4, 16), (5, 4)])
    def test_k3_m5_profile(self, i, expected):
        assert candidate_space_size(3, 5, i) == expected

    def test_symmetry(self):
        for k in (2, 3, 4):
            for m in range(1, 9):
                for i in range(1, m + 1):
                    assert candidate_space_size(k, m, i) == candidate_space_size(k, m, m + 1 - i)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            candidate_space_size(3, 5, 6)

    def test_log_sum_identity(self):
        # sum of per-token log4 candidate sizes = m*k*max_entropy_ratio
        for k in (2, 3, 5):
            for m in range(1, 10):
                log_sum = sum(
                    math.log2(candidate_space_size(k, m, i)) / 2 for i in range(1, m + 1)
                )
                assert abs(log_sum - m * k * max_entropy_ratio(k, m)) < 1e-9

    def test_report_invariants(self):
        report = leakage_report(6, 6)
        assert abs(report.ratio_percent - 100 * (1 - report.max_entropy_ratio)) < 1e-12
        assert len(report.candidate_sizes) == 6
        for size in report.candidate_sizes:
            assert size >= 1 and 4 ** int(round(math.log(size, 4))) == size
        # m >= k: the edges of the run keep exactly one unknown nucleotide
        assert min(report.candidate_sizes) == 4


class TestEnumerationOracle:
    def test_zero_unknowns(self):
        assert enumerate_consistent_completions("ACGT", 2) == 1

    def test_flanked_single_token_pinned(self):
        window = masked_run_window(2, 1)
        assert "?" not in window  # both nucleotides covered by neighbors
        assert enumerate_consistent_completions(window, 2) == 1

    def test_free_positions_multiply(self):
        assert enumerate_consistent_completions("A??T", 4) == 16

    def test_budget(self):
        with pytest.raises(ResourceLimitError):
            enumerate_consistent_completions("?" * 17, 2)

    @pytest.mark.parametrize("k", [2, 3])
    def test_oracle_matches_closed_form(self, k):
        for m in range(1, 7):
            window = masked_run_window(k, m)
            # total completions: one free nucleotide per surviving entropy unit
            total = enumerate_consistent_completions(window, k)
            assert total == 4 ** max(0, m - k + 1)
            for i in range(1, m + 1):
                start = (1 + i - 1)  # one context token, token i is 1-based
                span = window[start : start + k]
                got = enumerate_consistent_completions(span, k)
                assert got == candidate_space_size(k, m, i), (k, m, i)

    def test_boundary_run_one_sided_context(self):
        # run at the sequence start: no left flank, left edge fully unknown
        window = masked_run_window(3, 3, left_context=0)
        assert window[:1] == "?"
        first_span = window[0:3]
        assert enumerate_consistent_completions(first_span, 3) == 64


def loop_leakage(positions, k):
    """Length-weighted mean leakage, walking the sorted targets one pair at a time."""
    positions = sorted(positions)
    if not positions:
        return 0.0
    runs = []
    run_len = 1
    for prev, cur in zip(positions, positions[1:]):
        if cur == prev + 1:
            run_len += 1
        else:
            runs.append(run_len)
            run_len = 1
    runs.append(run_len)
    return sum(m * leakage_ratio(k, m) for m in runs) / sum(runs)


class TestEmpiricalPlanLeakage:
    def setup_method(self):
        self.vocab = build_kmer_vocab(4)
        self.cfg = MaskConfig.for_vocab(self.vocab, mode="fixed")

    def plan_for(self, targets, n=60):
        toks = np.arange(1, n + 1) % self.vocab.n_nonspecial
        return neighbor_mask(toks, targets, self.cfg)

    def test_single_run_of_k(self):
        plan = self.plan_for([10, 11, 12, 13])
        assert abs(empirical_plan_leakage(plan, 4) - 75.0) < 1e-12

    def test_empty_plan(self):
        plan = self.plan_for([])
        assert empirical_plan_leakage(plan, 4) == 0.0

    def test_two_runs_weighted(self):
        # runs of k-1=3 and 2k=8 for k=4: mean of 100 (x3) and 37.5 (x8)
        plan = self.plan_for([5, 6, 7, 20, 21, 22, 23, 24, 25, 26, 27])
        expected = (3 * 100.0 + 8 * 37.5) / 11
        assert abs(empirical_plan_leakage(plan, 4) - expected) < 1e-12

    @given(st.sets(st.integers(0, 300), max_size=120), st.integers(1, 8))
    def test_run_lengths_match_the_loop(self, targets, k):
        positions = sorted(targets)
        assert run_leakage(np.array(positions, dtype=np.int64), k) == loop_leakage(positions, k)
        plan = self.plan_for([p for p in positions if p < 60])
        assert empirical_plan_leakage(plan, k) == loop_leakage(plan.m_positions, k)
