"""Normal, chi-square and Student t tail probabilities on math and numpy.

`ndtr(x)` is the standard normal CDF, `chdtrc(df, x)` the chi-square
survival function and `stdtr(df, t)` the Student t CDF, each for one integer
df per call.  They keep scipy.special's call shapes: a scalar gives a float,
an array an array of its shape.  chdtrc is the regularized upper incomplete
gamma Q(df/2, x/2), and 1.0 for x <= 0; stdtr(df, -|t|) is I_z(df/2, 1/2) / 2
at z = df / (df + t^2).  Both follow Press et al., Numerical Recipes, 6.2 and
6.4: a series below the mean and a continued fraction above it (for chdtrc,
the finite sum an integer df allows), scaled by a prefactor written through
the Stirling remainder, so that a large df loses no digits to cancellation.
From df = 30 the incomplete beta is DiDonato and Morris's (1992) BGRAT
expansion instead, which needs a few terms where the fraction needs hundreds.
"""

import math
import operator

import numpy as np

_EPS = 2.0 ** -53
# BGRAT's p_n for b = 1/2: the coefficients of (sinh(w/2) / (w/2))^(-1/2) in (w/2)^(2n)
_BGRAT = [1.0]
for _n in range(1, 20):
    _BGRAT.append(sum((_m / 2 - _n) * _BGRAT[_n - _m] / math.factorial(2 * _m + 1)
                      for _m in range(1, _n)) / _n - 0.5 / math.factorial(2 * _n + 1))


def _elementwise(f, x):
    """f of each element: a float for a scalar, else an array of x's shape."""
    if np.ndim(x) == 0:
        return f(float(x))
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(f, x.ravel().tolist()), float, x.size).reshape(x.shape)


def ndtr(x):
    """Standard normal CDF: erfc of -x / sqrt(2), rounded as scipy rounds it."""
    return 0.5 * _elementwise(math.erfc, np.multiply(x, -math.sqrt(0.5)))


def _stirlerr(s):
    """log Gamma(s + 1) - (s + 1/2) log s + s - log sqrt(2 pi); by its series from s = 15."""
    if s < 15:
        return math.lgamma(s + 1) - (s + 0.5) * math.log(s) + s - 0.5 * math.log(2 * math.pi)
    r = 1 / (s * s)
    return (1 / 12 - r * (1 / 360 - r * (1 / 1260 - r * (1 / 1680 - r / 1188)))) / s


def chdtrc(df, x):
    """Chi-square survival P(X > x) on df degrees of freedom."""
    df = operator.index(df)
    a = 0.5 * df
    c = _stirlerr(a) + 0.5 * math.log(2 * math.pi * a)

    def q(x):
        y = 0.5 * x
        if not 0 < y < math.inf:  # 1 at or below zero, 0 at +inf
            return math.nan if math.isnan(y) else float(y <= 0)
        # d = y^a e^-y / Gamma(a + 1) = exp(a (log1p(r) - r) - c), free of the cancellation in
        # a log y - y - lgamma(a + 1); from y = 2a, exp(s) (1 + e) with s + e = (a - y) + rest exact
        r = (y - a) / a
        if r <= 1:
            d = math.exp(a * (math.log1p(r) - r) - c)
        else:
            lead, rest = a - y, a * math.log1p(r) - c
            s = lead + rest
            v = s - lead
            d = math.exp(s) * (1 + (lead - (s - v)) + (rest - v))
        if y < a:  # 1 - P(a, y), P by its series
            term, total, n = 1.0, 1.0, a
            while term > _EPS * total:
                n += 1
                term *= y / n
                total += term
            return 1.0 - d * total
        # Q(a mod 1, y) plus y^s e^-y / Gamma(s + 1) for s = a - 1, a - 2, ... down to a mod 1
        total, s = (math.erfc(math.sqrt(y)) if df % 2 else 0.0), a
        while s >= 1 and d > _EPS * total:
            d *= s / y
            total += d
            s -= 1
        return total

    return _elementwise(q, x)


def _betacf(a, b, x, y):
    """Continued fraction of I_x(a, b) by modified Lentz, with y = 1 - x given exactly."""
    c, d = 1.0, (a + 1) / ((1 - b) + (a + b) * y)  # 1 / (1 - (a + b) x / (a + 1))
    h = d
    for m in range(1, 5000):
        for aa in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d, c = 1 / (1 + aa * d), 1 + aa / c
            h *= d * c
        if abs(d * c - 1) <= _EPS:
            break
    return h


def stdtr(df, t):
    """Student t CDF P(T <= t) on df degrees of freedom."""
    df = operator.index(df)
    a = 0.5 * df
    if a < 15:  # log Gamma(a + 1/2) / Gamma(a)
        log_ratio = math.lgamma(a + 0.5) - math.lgamma(a)
    else:
        log_ratio = (0.5 * math.log(a) + a * math.log1p(-0.5 / a) + 0.5
                     + _stirlerr(a - 0.5) - _stirlerr(a))

    def lower(t):  # P(T <= -|t|) = I_x(a, 1/2) / 2
        t2 = t * t
        x, y, lx = df / (df + t2), t2 / (df + t2), -math.log1p(t2 / df)
        if a >= 15 and lx > -2:  # BGRAT: the sum of p_n h J_n in DiDonato and Morris's terms
            T = a - 0.25
            u = -T * lx
            k = total = math.erfc(math.sqrt(u))
            h, lxp = math.sqrt(u / math.pi) * math.exp(-u), 1.0
            for n in range(1, len(_BGRAT)):
                c = 2 * n - 1.5
                k = (c * (c + 1) * k + (u + c + 1) * h * lxp) / (4 * T * T)
                lxp *= lx * lx / 4
                total += _BGRAT[n] * k
                if abs(_BGRAT[n] * k) <= _EPS * total:
                    break
            return 0.5 * math.exp(log_ratio) / math.sqrt(T) * total
        front = math.exp(a * lx + 0.5 * math.log(y) + log_ratio) / math.sqrt(math.pi)
        if x < (a + 1) / (a + 2.5):
            return 0.5 * front * _betacf(a, 0.5, x, y) / a
        return 0.5 - front * _betacf(0.5, a, y, x)  # (1 - I_y(1/2, a)) / 2

    def cdf(t):
        if math.isnan(t) or t == 0:
            return 0.5 if t == 0 else t
        p = 0.0 if math.isinf(t) else lower(t)
        return p if t < 0 else 1.0 - p

    return _elementwise(cdf, t)
