"""Threshold conditions and the scanned minimal index, confirmed against an
independent high-precision evaluation before the regression values were
frozen."""

import itertools
import math

import mpmath as mp
import pytest

from neumann_widths import (DomainError, NotFound, ScanResult, check_budget_condition,
                            check_tail_condition, gamma_budget, is_integer_beta,
                            min_guaranteed_n, min_guaranteed_n_beta, pq_floor, thresholds,
                            verdict)

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
    where min_guaranteed_n raises NotFound."""
    first = next((n for n in range(2, n_cap + 1) if verdict(q, n).both_hold), None)
    if first is None:
        return None
    return ScanResult(n=first, later_failures=tuple(
        n for n in range(first + 1, min(n_cap, 4 * first) + 1)
        if not verdict(q, n).both_hold))


def bisection(q, n_cap=1_000_000):
    """The search under test, min_guaranteed_n; None where it raises NotFound."""
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
    """The n of every scalar verdict the search asks for; the memo is
    cleared first, so every search bisects again."""
    thresholds._min_n_cached.cache_clear()
    seen = []

    def recording(q, n):
        seen.append(n)
        return verdict(q, n)
    monkeypatch.setattr(thresholds, "verdict", recording)
    return seen


def bounded_verdicts(monkeypatch, limit=200):
    """Clear the memo and make the search fail after ``limit`` verdicts, so
    a bisection that stops narrowing fails instead of hanging."""
    thresholds._min_n_cached.cache_clear()
    calls = itertools.count(1)

    def bounded(q, n):
        if next(calls) > limit:
            raise AssertionError(f"more than {limit} verdicts at q={q}")
        return verdict(q, n)
    monkeypatch.setattr(thresholds, "verdict", bounded)


def budget_boundary(n):
    """Adjacent floats lo < hi: the budget condition holds at (lo, n) and
    fails at (hi, n), so its margin at either lies within a few ulps."""
    lo, hi = 0.2, 0.62
    while (mid := (lo + hi) / 2) not in (lo, hi):
        lo, hi = (mid, hi) if check_budget_condition(mid, n).holds else (lo, mid)
    return lo, hi


class TestBisectionMatchesUpwardScan:
    """The bisection of ``min_guaranteed_n`` against an upward scan of scalar
    verdicts."""

    def test_q_grid(self):
        grid = [0.2 + 0.0025 * k for k in range(169)]
        mismatches = [q for q in grid if bisection(q, 50_000) != scalar_scan(q, 50_000)]
        assert mismatches == []

    def test_full_q06_range(self):
        res = bisection(0.6)
        assert res == scalar_scan(0.6, 1_000_000)
        assert res.n == 40878

    @pytest.mark.parametrize("cap", [2, 1717, 3000, 1717 * 4 - 1])
    def test_cap_edges(self, cap):
        assert bisection(0.5, cap) == scalar_scan(0.5, cap)

    def test_not_found(self, monkeypatch):
        assert scalar_scan(0.7, 50_000) is None and bisection(0.7, 50_000) is None
        seen = recorded_verdicts(monkeypatch)
        with pytest.raises(NotFound):
            min_guaranteed_n(0.7)
        assert len(seen) < 100

    @pytest.mark.parametrize("n", [13, 1717])
    def test_near_margins_use_scalar_verdict(self, monkeypatch, n):
        for q in budget_boundary(n):
            expected = scalar_scan(q, 4 * n + 8)
            seen = recorded_verdicts(monkeypatch)
            assert min_guaranteed_n(q, 4 * n + 8) == expected
            assert n in seen

    # q^n underflows to 0.0 from n = cut on, inside the searched range
    @pytest.mark.parametrize("cut", [1986, 3000])
    def test_underflow_cut(self, cut):
        q = 2.0 ** (-1080.0 / (cut - 0.5))  # floor(1080 / log2(1/q)) + 1 == cut
        assert bisection(q, 2 * cut) == scalar_scan(q, 2 * cut)
        assert all(check_tail_condition(q, n).lhs == 0.0 for n in range(cut, 2 * cut + 1))

    def test_zero_pairs_are_not_rechecked(self):
        # q^n and q^sqrt(n) underflow to 0: the tail sides are both 0
        assert min_guaranteed_n(1e-300) == ScanResult(n=2, later_failures=())
        assert scalar_scan(1e-300, 1_000_000) == ScanResult(n=2, later_failures=())


class TestMemoizedSearch:
    def test_second_call_asks_no_verdict(self, monkeypatch):
        seen = recorded_verdicts(monkeypatch)
        first = min_guaranteed_n(0.5, 3000)
        asked = len(seen)
        assert first.n == 1717 and asked > 0
        assert min_guaranteed_n(0.5, 3000) == first
        assert len(seen) == asked

    def test_an_int_cap_gets_an_int_after_an_equal_float_cap(self):
        thresholds._min_n_cached.cache_clear()
        assert min_guaranteed_n(0.5, 3000.0).n == 1717
        assert type(min_guaranteed_n(0.5, 3000).n) is int

    def test_not_found_bisects_once(self, monkeypatch):
        seen = recorded_verdicts(monkeypatch)
        for _ in range(2):
            with pytest.raises(NotFound, match="no n <= 50000 satisfies"):
                min_guaranteed_n(0.7, 50_000)
        assert seen == [50_000]  # the verdict at the top fails: nothing below holds

    @pytest.mark.parametrize("q,cap", [(0.0, 100), (1.0, 100), (math.nan, 100), (0.5, 0)])
    def test_domain_errors_come_before_the_memo(self, q, cap):
        thresholds._min_n_cached.cache_clear()
        with pytest.raises(DomainError):
            min_guaranteed_n(q, cap)
        with pytest.raises(DomainError):
            min_guaranteed_n_beta(q, 0.5, cap)
        assert thresholds._min_n_cached.cache_info()[:2] == (0, 0)

    @pytest.mark.parametrize("search", [
        lambda: min_guaranteed_n(0.5, 1717.5),
        lambda: min_guaranteed_n_beta(0.5, 0.3, n_cap=2.5),
        lambda: min_guaranteed_n(0.5, math.nan),
        lambda: min_guaranteed_n_beta(0.5, 0.0, n_cap=math.nan),
    ], ids=["fractional", "fractional-beta", "nan", "nan-beta"])
    def test_a_cap_that_is_no_integer_is_a_domain_error(self, monkeypatch, search):
        bounded_verdicts(monkeypatch)
        with pytest.raises(DomainError, match="n_cap must be"):
            search()
        assert thresholds._min_n_cached.cache_info()[:2] == (0, 0)

    @pytest.mark.parametrize("cap", [3000.0, 1e6, math.inf])
    def test_an_integral_float_cap_searches_as_an_int(self, monkeypatch, cap):
        bounded_verdicts(monkeypatch)
        res = min_guaranteed_n(0.5, cap)
        assert res.n == 1717 and type(res.n) is int
        assert min_guaranteed_n(0.5, int(min(cap, thresholds.SEARCH_LIMIT))) == res
        assert thresholds._min_n_cached.cache_info().currsize == 1

    def test_below_the_cutoffs_no_search(self):
        thresholds._min_n_cached.cache_clear()
        for q, beta in ((0.15, 2.0), (0.2, 1.0), (0.193864, 0.5)):
            assert min_guaranteed_n_beta(q, beta).n == 1
        assert thresholds._min_n_cached.cache_info()[:2] == (0, 0)


def n0(q):
    """N0 of the thresholds module docstring: the verdict is monotone from
    here on, and the tail condition fails on [3, N0)."""
    return max(3, math.ceil(3.64 / -math.log(q)))


def mp_slopes(q, n):
    """d/dn, at real n, of log(lhs/T1), log(lhs/T2) and the log of the
    budget's algebraic term, in 40 digits."""
    with mp.workdps(40):
        q = mp.mpf(repr(q))

        def lhs(t):
            return t * mp.log(q) - mp.log(1 - q ** (2 * t))

        def t1(t):
            return mp.log(2 * q ** mp.sqrt(t) / (15 * t**2))

        def t2(t):
            return mp.log(8 / (3 * t**2) * ((2 * t - 1) / (7 * (t - 1) ** 2)
                                            - mp.pi**2 / (8 * t**2)))

        def algebraic(t):
            return mp.log((2 * mp.sqrt(t) - 1) / (t * (mp.sqrt(t) - 1)))
        return (mp.diff(lambda t: lhs(t) - t1(t), n), mp.diff(lambda t: lhs(t) - t2(t), n),
                mp.diff(algebraic, n))


def t2_log_slope(n):
    """-n d/dn log T2 in the closed form 3 + D/h of the module docstring."""
    with mp.workdps(40):
        n = mp.mpf(n)
        h = (2 * n - 1) / (7 * (n - 1) ** 2) - mp.pi**2 / (8 * n**2)
        d = (3 * n - 1) / (7 * (n - 1) ** 3) - mp.pi**2 / (8 * n**2)
        return 3 + d / h, d


class TestMonotoneSearch:
    """The proof in the thresholds module docstring, step by step, and the
    search it licenses."""

    @pytest.mark.parametrize("cap", [0, -3])
    def test_cap_below_one_is_domain_error(self, cap):
        with pytest.raises(DomainError):
            min_guaranteed_n(0.5, n_cap=cap)
        with pytest.raises(DomainError):
            min_guaranteed_n_beta(0.1, 0.0, n_cap=cap)

    @pytest.mark.parametrize("q,expected", [(0.6, 40878), (0.65, 400285)])
    def test_paper_thresholds_match_40_digit_oracle(self, q, expected):
        assert min_guaranteed_n(q).n == expected
        with mp.workdps(40):
            assert mp_tail_holds(q, expected) and mp_budget_holds(q, expected)
            assert not (mp_tail_holds(q, expected - 1) and mp_budget_holds(q, expected - 1))

    def test_n0_values(self):
        assert [n0(q) for q in (0.5, 0.72, 0.99)] == [6, 12, 363]

    @pytest.mark.parametrize("q", [0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8,
                                   0.9, 0.95, 0.99, 0.995, 0.999])
    def test_derivative_inequalities_from_n0(self, q):
        big_l = -math.log(q)
        for n in (n0(q), n0(q) + 1, 2 * n0(q), 10 * n0(q), 1000 * n0(q)):
            s1, s2, s3 = mp_slopes(q, n)
            assert s1 <= -0.58 / n and s1 <= -0.16 * big_l
            assert s2 <= -0.5 / n
            assert s3 < -1.0 / n

    def test_t2_log_slope(self):
        # the closed form agrees with a numerical derivative ...
        for n in (3, 7, 1000):
            with mp.workdps(40):
                slope = -n * mp.diff(lambda t: mp.log(
                    8 / (3 * t**2) * ((2 * t - 1) / (7 * (t - 1) ** 2)
                                      - mp.pi**2 / (8 * t**2))), n)
                assert abs(slope - t2_log_slope(n)[0]) < mp.mpf(10) ** -25
        # ... is 3.1393 at n = 3, and at most 3 from n = 4 on (D <= 0)
        assert 3.139 < t2_log_slope(3)[0] < 3.14
        assert all(t2_log_slope(n)[1] <= 0 for n in [*range(4, 2000), 10**6, 10**12])

    @pytest.mark.parametrize("q", [0.5, 0.7, 0.9, 0.95, 0.99])
    def test_tail_fails_below_n0(self, q):
        assert math.exp(-3.64) > 0.026 and check_tail_condition(q, 3).rhs < 0.0123
        assert not any(check_tail_condition(q, n).holds for n in range(3, n0(q)))

    def test_verdict_is_monotone_from_three(self):
        for q in [k / 1000 for k in range(1, 1000, 3)]:
            holds = [verdict(q, n).both_hold for n in range(3, 400)]
            assert holds == sorted(holds), q

    def test_two_joins_the_monotone_range(self):
        # step 0 of the module docstring: the verdict at n = 2 needs
        # q < 0.00301, and where it holds it holds at n = 3 with wide margins
        assert not verdict(0.0031, 2).both_hold
        grid = [0.0031 * k / 4000 for k in range(1, 4000)]
        held = [q for q in grid if verdict(q, 2).both_hold]
        assert held and max(held) < 0.00301 and -math.log(0.00301) > 5.8
        assert n0(0.00301) == 3
        assert 8 / 27 * (5 / 28 - math.pi**2 / 72) > 0.0122  # T2(3)
        for q in held:
            assert all(verdict(q, m).both_hold for m in range(3, 9)), q
            lhs = check_tail_condition(q, 3).lhs
            assert lhs < 0.05 * 2 * q ** math.sqrt(3) / 135 and lhs < 3e-8
            assert gamma_budget(q, 3) < gamma_budget(q, 2)
        assert min_guaranteed_n(max(held)) == ScanResult(n=2, later_failures=())

    def test_floor_vanishes_from_098651(self):
        assert pq_floor(0.9865) > 0.0 and -math.log(0.98651) > 0.0135
        assert all(pq_floor(0.98651 + k * 1e-6) == 0.0 for k in range(0, 13490, 7))
        with pytest.raises(NotFound):
            min_guaranteed_n(0.99, n_cap=10**30)

    def test_found_past_a_million(self):
        # q = 0.8: n_q near 7.6e11, inside the proven range
        res = min_guaranteed_n(0.8, n_cap=10**15)
        assert 7e11 < res.n <= thresholds.SEARCH_LIMIT and res.later_failures == ()
        assert verdict(0.8, res.n).both_hold and not verdict(0.8, res.n - 1).both_hold

    def test_cap_past_proven_range_names_its_end(self):
        with pytest.raises(NotFound, match=f"no n <= {2**40} \\(the end of the proven"):
            min_guaranteed_n(0.85, n_cap=10**18)
        with pytest.raises(NotFound, match="no n <= 1000000000000 satisfies"):
            min_guaranteed_n(0.999, n_cap=10**12)


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
