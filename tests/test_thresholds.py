"""Threshold conditions and the scanned minimal index, confirmed against an
independent high-precision evaluation before the regression values were
frozen."""

import math

import mpmath as mp
import numpy as np
import pytest

from neumann_widths import (NotFound, ScanResult, check_budget_condition,
                            check_tail_condition, is_integer_beta, min_guaranteed_n,
                            min_guaranteed_n_beta, thresholds, verdict)

# frozen after confirmation by the mpmath oracle below
NQ_FROZEN = {0.05: 4, 0.1: 5, 0.2: 13, 0.3: 42, 0.5: 1717}


def mp_tail_holds(q, n):
    q = mp.mpf(repr(q))
    lhs = q**n / (1 - q ** (2 * n))
    rhs = min(2 * q ** mp.sqrt(n) / (15 * n**2),
              mp.mpf(8) / (3 * n**2) * (mp.mpf(2 * n - 1) / (7 * (n - 1) ** 2)
                                        - mp.pi**2 / (8 * n**2)))
    return lhs <= rhs


def mp_budget_holds(q, n):
    q = mp.mpf(repr(q))
    rn = mp.sqrt(n)
    lhs = (24 / (5 * (1 - q)) * q**rn
           + mp.mpf(160) / 63 * (2 * rn - 1) / (n * (rn - 1)) * q / (1 - q) ** 2)
    rhs = (mp.mpf(1) / 2 + 2 * q / ((1 + q**2) * (1 - q))) \
        * ((1 - q) / (1 + q)) ** (4 / (1 - q**2))
    return lhs <= rhs


class TestTailCondition:
    def test_far_inside(self):
        c = check_tail_condition(0.2, 25)
        assert c.holds
        assert c.lhs < 1e-15
        assert c.rhs > 1e-9

    def test_small_n_second_min_term(self):
        c = check_tail_condition(0.2, 2)
        # min's second entry (8/12)((3/7) - pi^2/32) is positive
        second = 8.0 / 12.0 * (3.0 / 7.0 - math.pi**2 / 32.0)
        assert second > 0.0
        assert c.rhs <= second

    def test_q_near_one_fails(self):
        c = check_tail_condition(0.999, 2)
        assert not c.holds
        assert c.lhs > 1.0 > c.rhs


class TestBudgetCondition:
    @pytest.mark.parametrize("n,expected", [(12, False), (13, True)])
    def test_crossover_at_q02(self, n, expected):
        assert check_budget_condition(0.2, n).holds is expected
        assert mp_budget_holds(0.2, n) == expected

    @pytest.mark.parametrize("n,expected", [(1700, False), (1750, True)])
    def test_crossover_at_q05(self, n, expected):
        assert check_budget_condition(0.5, n).holds is expected
        assert mp_budget_holds(0.5, n) == expected

    def test_small_q_verdict_matches_oracle(self):
        assert check_budget_condition(0.05, 4).holds == mp_budget_holds(0.05, 4)

    def test_requires_n_at_least_two(self):
        with pytest.raises(Exception):
            check_budget_condition(0.3, 1)


class TestMinGuaranteedN:
    @pytest.mark.parametrize("q,expected", sorted(NQ_FROZEN.items()))
    def test_frozen_values(self, q, expected):
        res = min_guaranteed_n(q)
        assert res.n == expected
        # oracle re-confirmation: both conditions hold at n, and the scan
        # found the first such index
        assert mp_tail_holds(q, res.n) and mp_budget_holds(q, res.n)
        assert not all(mp_tail_holds(q, m) and mp_budget_holds(q, m)
                       for m in range(2, res.n))

    @pytest.mark.parametrize("q", [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4,
                                   0.45, 0.5, 0.55, 0.6])
    def test_minimality_on_q_grid(self, q):
        res = min_guaranteed_n(q, n_cap=100_000)
        assert verdict(q, res.n).both_hold
        assert all(not verdict(q, m).both_hold for m in range(2, res.n))
        if q >= 0.1:
            # the budget condition is the binding one on this part of the
            # grid (at q = 0.05 it already holds at n = 2 and the tail
            # condition is what delays the threshold)
            assert any(not check_budget_condition(q, m).holds
                       for m in range(2, res.n))
        assert res.later_failures == ()

    def test_not_found_at_cap(self):
        with pytest.raises(NotFound):
            min_guaranteed_n(0.9, n_cap=5_000)

    def test_determinism(self):
        assert min_guaranteed_n(0.3) == min_guaranteed_n(0.3)


def scalar_scan(q, n_cap):
    """The reference scan: one scalar verdict per n, upward from 2; None
    where the block scan raises NotFound."""
    first = next((n for n in range(2, n_cap + 1) if verdict(q, n).both_hold), None)
    if first is None:
        return None
    return ScanResult(n=first, later_failures=tuple(
        n for n in range(first + 1, min(n_cap, 4 * first) + 1)
        if not verdict(q, n).both_hold))


def block_scan(q, n_cap=1_000_000):
    try:
        res = min_guaranteed_n(q, n_cap)
    except NotFound:
        return None
    # Python ints: json.dumps rejects numpy integers, and n >= res.n must
    # stay a bool for the CSV
    assert type(res.n) is int
    assert all(type(n) is int for n in res.later_failures)
    return res


def recorded_verdicts(monkeypatch):
    """The n of every scalar verdict the block scan asks for."""
    seen = []

    def recording(q, n):
        seen.append(n)
        return verdict(q, n)
    monkeypatch.setattr(thresholds, "verdict", recording)
    return seen


def budget_boundary(n):
    """Adjacent floats lo < hi: the budget condition holds at (lo, n) and
    fails at (hi, n), so its margin at either lies within a few ulps."""
    lo, hi = 0.2, 0.62
    while (mid := (lo + hi) / 2) not in (lo, hi):
        lo, hi = (mid, hi) if check_budget_condition(mid, n).holds else (lo, mid)
    return lo, hi


class TestBlockScanMatchesScalar:
    def test_q_grid(self):
        grid = [0.2 + 0.0025 * k for k in range(169)]
        mismatches = [q for q in grid if block_scan(q, 50_000) != scalar_scan(q, 50_000)]
        assert mismatches == []

    def test_full_q06_range(self):
        res = block_scan(0.6)
        assert res == scalar_scan(0.6, 1_000_000)
        assert res.n == 40878

    @pytest.mark.parametrize("cap", [2, 1717, 3000, 1717 * 4 - 1])
    def test_cap_edges(self, cap):
        assert block_scan(0.5, cap) == scalar_scan(0.5, cap)

    def test_not_found(self, monkeypatch):
        assert scalar_scan(0.7, 50_000) is None and block_scan(0.7, 50_000) is None
        seen = recorded_verdicts(monkeypatch)
        with pytest.raises(NotFound):
            min_guaranteed_n(0.7)
        assert len(seen) < 100

    @pytest.mark.parametrize("n", [13, 1717])
    def test_near_margins_are_decided_by_scalar_verdict(self, monkeypatch, n):
        for q in budget_boundary(n):
            expected = scalar_scan(q, 4 * n + 8)
            seen = recorded_verdicts(monkeypatch)
            assert min_guaranteed_n(q, 4 * n + 8) == expected
            assert n in seen

    # the first skipped n falls on a block edge (1986 starts a block of the
    # scan) and inside a block (3000)
    @pytest.mark.parametrize("cut", [1986, 3000])
    def test_underflow_cut(self, monkeypatch, cut):
        q = 2.0 ** (-1080.0 / (cut - 0.5))  # floor(1080 / log2(1/q)) + 1 == cut
        powed = []
        tail_lhs = thresholds._tail_lhs

        def recording(q, n):
            if isinstance(n, np.ndarray):
                powed.extend(n.tolist())
            return tail_lhs(q, n)
        monkeypatch.setattr(thresholds, "_tail_lhs", recording)
        assert block_scan(q, 2 * cut) == scalar_scan(q, 2 * cut)
        # the array pows stop just before the cut; from there on the scalar
        # left side, which verdict compares, is 0.0 as well
        assert powed == list(range(2, cut))
        assert all(tail_lhs(q, n) == 0.0 for n in range(cut, 2 * cut + 1))

    def test_zero_pairs_are_not_rechecked(self, monkeypatch):
        # q^n and q^sqrt(n) underflow to 0: the tail sides are both 0
        seen = recorded_verdicts(monkeypatch)
        assert min_guaranteed_n(1e-300) == ScanResult(n=2, later_failures=())
        assert seen == []
        assert scalar_scan(1e-300, 1_000_000) == ScanResult(n=2, later_failures=())


class TestCaseSplit:
    def test_integer_beta_small_q(self):
        assert min_guaranteed_n_beta(0.15, 2.0).n == 1
        assert min_guaranteed_n_beta(0.2, -3.0).n == 1

    def test_noninteger_beta_small_q(self):
        assert min_guaranteed_n_beta(0.15, 0.5).n == 1
        assert min_guaranteed_n_beta(0.193864, 0.5).n == 1

    def test_noninteger_beta_above_cutoff_routes_to_scan(self):
        res = min_guaranteed_n_beta(0.197, 0.5)
        assert res == min_guaranteed_n(0.197)
        assert res.n > 1

    def test_integer_beta_above_cutoff(self):
        assert min_guaranteed_n_beta(0.25, 1.0) == min_guaranteed_n(0.25)

    def test_integer_detection_is_exact(self):
        assert is_integer_beta(2.0) and is_integer_beta(-7.0) and is_integer_beta(0.0)
        assert not is_integer_beta(2.0000000001)
        assert not is_integer_beta(0.5)


def test_verdict_is_pure_and_reproducible():
    a = verdict(0.37, 19)
    b = verdict(0.37, 19)
    assert a == b
    assert a.tail.lhs == b.tail.lhs and a.budget.rhs == b.budget.rhs
