"""Exact best-approximation / width values for Neumann convolution classes.

The peak of |N_{q,beta} convolved with the square wave sign(sin n t)| sits at
y0 = theta*pi/n, where theta is the unique root in [0, 1) of

    sum_{nu>=0} q^(2 nu n)/(2 nu + 1) * cos((2 nu + 1) theta pi - beta pi/2) = 0.

The root is bracketed analytically: writing the left side as
G_q(theta*pi) cos(beta*pi/2) + H_q(theta*pi) sin(beta*pi/2) (up to the
positive factor q^n/n), monotonicity of G_q on (0, pi) and positivity of
H_q there pin the root to [1/2, 1) when beta mod 4 is in [0,1) u [2,3) and
to [0, 1/2) otherwise, with theta = 1/2 exactly at beta even and theta = 0
exactly at beta odd.  Bisection then converges unconditionally; it
evaluates the closed form only inside a proven window around the nu = 0
limit, where q^n <= 1/2, and takes every other midpoint's sign from its
side of the window (``_bisect_theta``).

The three odd-harmonic series (this left side, the square-wave convolution
and the width peak) share one term generator, ``_odd_terms``; each caller
sets its start coefficient, tail, tolerance and label.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .errors import BracketFailure, NeumannWidthsError
from .kernels import DEFAULT_POLICY, EvalPolicy, NeumannParams, _certified_sum, _reduce_phase
from .kernels import eval_gq  # noqa: F401  (bench/tracing.py wraps it here; nothing calls it)
from .policy import _check_n

_BISECT_ITERS = 64  # interval width 0.5 / 2**64 ~ 2.7e-20
_WINDOW_MARGIN = 2.0**-44  # m in _bisect_theta's window, over the closed form's error band


class Branch(enum.Enum):
    """Location of n*y0: HALF means [pi/2, pi), ZERO means [0, pi/2)."""

    HALF = "half"
    ZERO = "zero"


@dataclass(frozen=True)
class ThetaRoot:
    q: float
    beta: float
    n: int
    theta: float
    branch: Branch
    policy: EvalPolicy = field(default=DEFAULT_POLICY, repr=False, compare=False)

    @property
    def y0(self) -> float:
        return self.theta * math.pi / self.n

    @cached_property
    def residual(self) -> float:
        """``theta_equation_lhs`` at the root, summed on first read (up to
        policy.max_terms terms), so a caller that needs only the root skips it."""
        return theta_equation_lhs(NeumannParams(self.q, self.beta), self.n, self.theta,
                                  self.policy)


@dataclass(frozen=True)
class WidthReport:
    """Exact width value plus its asymptotic decomposition.

    ``peak`` is the normalized series magnitude
    |sum_nu q^(2 nu n)/(2 nu+1)^2 sin((2 nu+1) theta pi - beta pi/2)|,
    so that width = (4/pi) * (q^n/n) * peak.  gamma_n solves
    width = (q^n/n) * (4/pi + gamma_n * q^(2n)/(1-q^(2n))), and the sandwich
    fields are (q^n/n) * (1 -+ (4/9) q^(2n)/(1-q^(2n))), between which
    (pi/4)*width always lies.
    """

    q: float
    beta: float
    n: int
    theta: float
    y0: float
    width: float
    peak: float
    gamma_n: float
    sandwich_lo: float
    sandwich_hi: float
    residual: float
    branch: Branch


def _odd_terms(params: NeumannParams, coef: float, ratio: float, power: int, trig,
               arg, tail):
    """Terms coef * ratio^nu / m^power * trig(arg(m) - beta pi/2), m = 2 nu + 1,
    nu >= 0, each with tail(c, m) after it, where c = coef * ratio^(nu+1) is
    the next term's coefficient.  ``arg`` takes m, so that each caller's
    argument rounds as m times its own factors."""
    phase = _reduce_phase(params.beta)
    for m in itertools.count(1, 2):
        term = coef / m**power * trig(arg(m) - phase)
        coef *= ratio
        yield term, tail(coef, m)


def theta_equation_lhs(params: NeumannParams, n: int, theta: float,
                       policy: EvalPolicy = DEFAULT_POLICY) -> float:
    """Definitional series form of the theta-equation left side."""
    ratio = params.q ** (2 * n)
    terms = _odd_terms(params, 1.0, ratio, 1, math.cos, lambda m: m * theta * math.pi,
                       lambda c, m: c / (m + 2))
    s, c = _certified_sum(terms, min(policy.abs_tol, 1e-15) * (1.0 - ratio), policy,
                          "theta equation")
    return s + c


def _limit_theta(beta_r: float) -> float:
    # the nu = 0 limit: the root of cos(theta*pi - beta*pi/2) = 0 in [0, 1).
    if beta_r < 1.0:
        return beta_r / 2.0 + 0.5
    if beta_r < 3.0:
        return beta_r / 2.0 - 0.5
    return beta_r / 2.0 - 1.5


def _bisect_theta(params: NeumannParams, n: int, lo: float, hi: float) -> float:
    """The theta-equation root in [lo, hi] by bisection, for q^n > 0.

    Each evaluation computes the closed form G_q(x) cos(beta pi/2) + H_q(x)
    sin(beta pi/2), x = theta pi, with the operations of ``eval_gq`` and
    ``eval_hq`` in their order, so every value is bit for bit
    eval_gq(q, n, x) cos(beta pi/2) + eval_hq(q, n, x) sin(beta pi/2); the
    factors that do not depend on theta (q^n, 2 q^n, q^(2n), 1 - q^(2n),
    cos and sin of beta pi/2, 4n and 2n) are formed once per solve.  The
    bisection stops once the midpoint of the bracket equals one of its
    ends: the ends are then adjacent floats, and further steps would only
    re-evaluate an end without moving it.  _BISECT_ITERS caps the steps
    (about 53 are taken).  Raises BracketFailure when the closed form has
    no sign change on [lo, hi].

    The window: a midpoint outside W = [theta0 - R, theta0 + R], theta0 the
    nu = 0 limit ``_limit_theta(beta mod 4)``, takes the sign of its side
    without an evaluation.  R = asin(r)/pi + m, r = q^(2n)/(3(1 - q^(2n))),
    m = 2^-44, where q^n <= 1/2 and psi(n) is normal; elsewhere R = 1 and
    every midpoint is evaluated.  Where r is small a solve so evaluates the
    closed form about 13 times (the ends, then the steps once the bracket
    fits in W), not about 55.  The margin m: the closed form is
    psi(n) L(theta), L the theta-equation left side.  The nu >= 1 terms of
    L sum to at most r in magnitude and its nu = 0 term is +-sin(pi d) at
    distance d <= 1/2 from theta0, so at d > R, L has the sign of its side
    of theta0 and |L| >= sin(asin r + pi m) - r >= 0.99 pi m > 2^-42.5
    (r <= 1/9).  The float value is psi(n) (L + e): each log1p argument
    lies in [-3/4, 5/4], where log1p has slope at most 4, and the atan
    argument in [-4/3, 4/3], so the roundings of x = theta pi (math.pi
    included), of the products, sums and quotients, and of cos, sin, log1p
    and atan (each within an ulp) give |e| < 64 u (u = 2^-53); the 2.5
    subnormal steps of 2^-1074 add at most 5 u, as psi(n) >= 2^-1022.  The
    roundings of the phase, of theta0 and of W's ends put the zero of the
    nu = 0 term within 2^-49 of theta0, which keeps |L| above 2^-42.5.  So
    at every midpoint outside W (and at an end outside W) the closed form
    has its side's sign, far above the error band: the bisection moves the
    same end as the evaluate-every-midpoint loop, and returns its bits.

    Where 1 - q^n is below about 1e-8 (2^-26.5), q^(2n) - 2 q^n rounds to
    -1 or below, so log1p has no value at the bracket end theta = 1 (or
    theta = 0), and the solve raises NeumannWidthsError naming that limit.
    Every other argument of log1p is at least that one, since rounding is
    monotone, so the one test before the first step covers every step.
    """
    a = params.q**n
    two_a, a2 = 2.0 * a, a * a
    if a2 - two_a <= -1.0:
        raise NeumannWidthsError(
            f"theta closed form has no value for q={params.q}, n={n}: 1 - q^n = {1.0 - a:.3e} "
            "is below its float limit of about 1e-8, where q^(2n) - 2 q^n rounds to <= -1")
    one_minus_a2 = 1.0 - a * a
    half = _reduce_phase(params.beta)
    cos_half, sin_half = math.cos(half), math.sin(half)
    four_n, two_n = 4.0 * n, 2.0 * n
    log1p, atan, cos, sin, pi = math.log1p, math.atan, math.cos, math.sin, math.pi

    def closed(theta: float) -> float:
        x = theta * pi
        u = two_a * cos(x)
        return ((log1p(u + a2) - log1p(-u + a2)) / four_n * cos_half
                + atan(two_a * sin(x) / one_minus_a2) / two_n * sin_half)

    f_lo, f_hi = closed(lo), closed(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0 or f_lo * f_hi > 0.0:
        raise BracketFailure(
            f"no sign change on [{lo}, {hi}] for q={params.q}, beta={params.beta}, n={n}: "
            f"f({lo})={f_lo:.3e}, f({hi})={f_hi:.3e}")
    neg_lo = f_lo < 0.0
    reach = (math.asin(a2 / (3.0 * one_minus_a2)) / pi + _WINDOW_MARGIN
             if a <= 0.5 and a / n >= 2.0**-1022 else 1.0)
    theta0 = _limit_theta(params.beta_mod4)
    w_lo, w_hi = theta0 - reach, theta0 + reach
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if mid < w_lo:
            lo = mid
        elif mid > w_hi:
            hi = mid
        elif (f_mid := closed(mid)) == 0.0:
            return mid
        elif (f_mid < 0.0) == neg_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@lru_cache(maxsize=4096)
def _solve_theta_cached(params: NeumannParams, n: int, policy: EvalPolicy) -> ThetaRoot:
    """``solve_theta``'s root: exact at integer beta, the nu = 0 limit where
    the closed form cannot resolve the root, and otherwise ``_bisect_theta``
    on the branch's bracket (it stops once the bracket's ends are adjacent
    floats).

    The cut: at the root the closed form has slope pi psi(n) in theta,
    psi(n) = q^n/n, so over one ulp of the root it moves by
    pi psi(n) ulp(theta).  Below the normal range its two quotients and two
    products each round by up to half a subnormal step, 2^-1075, and the
    rounding of 2 q^n cos(theta pi), divided by 4n and 2n, adds at most
    half a step more: 2.5 steps of 2^-1074 in all.  Where the move over one
    ulp of the limit is at least 8 steps, pi psi(n) ulp(limit) >= 2^-1071,
    those errors shift the sign change by under a third of an ulp and the
    bisection runs unchanged.  Below it they can shift it by many ulps (by
    up to half the bracket where psi(n) is subnormal), so the limit is
    taken; q^n == 0 lies inside.  There the limit is the root to half an
    ulp: q^n < n 2^-966, and the nu >= 1 terms move the root by at most
    asin(r)/pi in theta, r = q^(2n)/(3(1 - q^(2n))) (their sum is at most r,
    and the nu = 0 term is sin(pi d) at distance d from the limit), far
    below the ulp of any limit (at least 2^-105).  Either root is clamped
    below 1: the limit beta/2 + 1/2 rounds to 1.0 for beta within an ulp
    below 1 (mod 4), and the bisection's last midpoint can round to its end.
    """
    q, beta = params.q, params.beta
    beta_r = params.beta_mod4
    branch = Branch.HALF if beta_r < 1.0 or 2.0 <= beta_r < 3.0 else Branch.ZERO

    if beta_r == 0.0 or beta_r == 2.0:
        theta = 0.5
    elif beta_r == 1.0 or beta_r == 3.0:
        theta = 0.0
    elif params.psi(n) < 2.0**-1071 / math.ulp(limit := _limit_theta(beta_r)) / math.pi:
        theta = limit
    else:
        bracket = (0.5, 1.0) if branch is Branch.HALF else (0.0, 0.5)
        theta = _bisect_theta(params, n, *bracket)
    theta = min(theta, math.nextafter(1.0, 0.0))

    return ThetaRoot(q=q, beta=beta, n=n, theta=theta, branch=branch, policy=policy)


def solve_theta(params: NeumannParams, n: int,
                policy: EvalPolicy = DEFAULT_POLICY) -> ThetaRoot:
    """Unique root of the theta equation in [0, 1), with residual and branch.

    Results are memoized per (params, n, policy); the returned object is
    immutable (its residual is summed once), so concurrent readers share it.
    Raises NeumannWidthsError where 1 - q^n is below about 1e-8, the float
    limit of the bisection's closed form (``_bisect_theta``).
    """
    _check_n(n)
    return _solve_theta_cached(params, n, policy)


def conv_square_wave(params: NeumannParams, n: int, t: float,
                     policy: EvalPolicy = DEFAULT_POLICY) -> float:
    """Convolution of N_{q,beta} with the square wave sign(sin n*):

    (4/pi) sum_{nu>=0} q^((2nu+1)n) / (n (2nu+1)^2) * sin((2nu+1) n t - beta pi/2).

    Antiperiodic with step pi/n; its sup over a period is the exact width.
    """
    _check_n(n)
    ratio = params.q ** (2 * n)
    terms = _odd_terms(params, params.psi(n), ratio, 2, math.sin, lambda m: m * n * t,
                       lambda c, m: (4.0 / math.pi) * (c / ((m + 2) ** 2 * (1.0 - ratio))))
    s, c = _certified_sum(terms, policy.abs_tol, policy, "square-wave convolution")
    return (4.0 / math.pi) * (s + c)


def exact_width(params: NeumannParams, n: int,
                policy: EvalPolicy = DEFAULT_POLICY) -> WidthReport:
    """Exact width value |Phi(y0)| with the gamma_n decomposition and sandwich.

    The peak magnitude is accumulated in normalized units (the nu=0 term has
    coefficient 1), so the sandwich comparison does not lose accuracy to
    roundtrip scaling even when q^(2n) is at the underflow edge.
    """
    root = solve_theta(params, n, policy)
    residual = root.residual
    q = params.q
    ratio = q ** (2 * n)
    terms = _odd_terms(params, 1.0, ratio, 2, math.sin, lambda m: m * root.theta * math.pi,
                       lambda c, m: c)
    s, c = _certified_sum(terms, policy.abs_tol * (1.0 - ratio), policy, "width peak")
    peak = abs(s + c)

    scale = params.psi(n)
    width = (4.0 / math.pi) * scale * peak
    ratio_factor = ratio / (1.0 - ratio)  # q^(2n)/(1-q^(2n))
    gamma_n = (4.0 / math.pi) * (peak - 1.0) / ratio_factor if ratio_factor > 0.0 else 0.0
    return WidthReport(
        q=q, beta=params.beta, n=n,
        theta=root.theta, y0=root.y0,
        width=width, peak=peak, gamma_n=gamma_n,
        sandwich_lo=scale * (1.0 - (4.0 / 9.0) * ratio_factor),
        sandwich_hi=scale * (1.0 + (4.0 / 9.0) * ratio_factor),
        residual=residual, branch=root.branch,
    )


def theta_cos_bound(params: NeumannParams, n: int,
                    policy: EvalPolicy = DEFAULT_POLICY) -> tuple[float, float]:
    """(|cos(theta pi - beta pi/2)|, q^(2n)/(3(1-q^(2n)))); lhs <= rhs + 1e-13."""
    root = solve_theta(params, n, policy)
    lhs = abs(math.cos(root.theta * math.pi - _reduce_phase(params.beta)))
    ratio = params.q ** (2 * n)
    rhs = ratio / (3.0 * (1.0 - ratio))
    return lhs, rhs
