"""Independent reference values for the benchmark ops.

Nothing here calls `updown`. Values come from closed forms, evaluated with
numpy or, where a special function is needed, with mpmath at 30 digits.
"""

import math

import mpmath as mp
import numpy as np

mp.mp.dps = 30


# -- root-quad integrands ---------------------------------------------------

def damped_cosine(a, k, b):
    """int_0^b exp(-a x) cos(k x) dx."""
    return (a - math.exp(-a * b) * (a * math.cos(k * b) - k * math.sin(k * b))) \
        / (a * a + k * k)


def power_edge(s):
    """int_0^1 x^(s-1) dx."""
    return 1.0 / s


def gamma_moment(n, c):
    """int_0^inf x^n exp(-c x) dx."""
    return math.factorial(n) / c ** (n + 1)


# -- root densities -----------------------------------------------------------

def conjugate(p):
    return p / (p - 1.0)


def stretched_gaussian_norm(p, lam):
    """a with a * texp(-|x|^p*, 2 - lam) of unit mass, via Beta/Gamma."""
    ps = mp.mpf(conjugate(p))
    lam = mp.mpf(lam)
    if lam == 1:
        half = mp.gamma(1 + 1 / ps)
    elif lam > 1:
        half = (lam - 1) ** (-1 / ps) / ps * mp.beta(1 / ps, 1 / (lam - 1) + 1)
    else:
        half = (1 - lam) ** (-1 / ps) / ps * mp.beta(1 / ps, 1 / (1 - lam) - 1 / ps)
    return 1 / (2 * half)


def stretched_gaussian_pdf(p, lam, x):
    ps = mp.mpf(conjugate(p))
    lam = mp.mpf(lam)
    base = 1 - (lam - 1) * mp.mpf(abs(x)) ** ps
    if base <= 0:
        return 0.0
    prof = mp.exp(-mp.mpf(abs(x)) ** ps) if lam == 1 else base ** (1 / (lam - 1))
    return float(stretched_gaussian_norm(p, lam) * prof)


def gzero_pdf(lam, x):
    s = 1 / (mp.mpf(lam) - 1)
    return float(mp.mpf(0.5) / mp.gamma(s + 1) * (-mp.log(abs(x))) ** s)


def exponential_pdf(rate, shift, x):
    return rate * math.exp(-rate * (x - shift))


def power_tail_pdf(eta, x0, x):
    return (eta - 1.0) * x0 ** (eta - 1.0) * x ** -eta


def stretched_gaussian_cdf(p, x):
    """cdf of stretched_gaussian(p, 1): 1/2 + sign(x) P(1/p*, |x|^p*) / 2."""
    ps = conjugate(p)
    return np.array([0.5 + math.copysign(0.5, v) * float(
        mp.gammainc(1 / mp.mpf(ps), 0, mp.mpf(abs(v)) ** ps, regularized=True))
        for v in np.asarray(x, dtype=float)])


def half_stretched_gaussian_cdf(p, x):
    """cdf of half_restriction(stretched_gaussian(p, 1)) on x > 0."""
    return 2.0 * stretched_gaussian_cdf(p, x) - 1.0


def gzero_cdf(lam, x):
    """cdf of gzero(lam): 1/2 + sign(x) Q(s + 1, -log|x|) / 2, s = 1/(lam-1)."""
    s = 1 / (mp.mpf(lam) - 1)
    return np.array([0.5 + math.copysign(0.5, v) * float(
        mp.gammainc(s + 1, -mp.log(abs(v)), mp.inf, regularized=True))
        for v in np.asarray(x, dtype=float)])


# -- functionals of exponential(rate) -----------------------------------------

def exp_mu(rate, p):
    return math.gamma(p + 1.0) / rate ** p


def exp_shannon(rate):
    return 1.0 - math.log(rate)


def exp_renyi(rate, lam):
    return math.log(rate ** (lam - 1.0) / lam) / (1.0 - lam)


def exp_fisher(rate, p, lam):
    """int |f^(lam-2) f'|^p f = rate^(p lam) / (p (lam - 1) + 1)."""
    return rate ** (p * lam) / (p * (lam - 1.0) + 1.0)


def exp_phi_limit0(rate, lam):
    return math.exp((lam * math.log(rate) - (lam - 1.0)) / lam)


def exp_exp_moment(rate, p):
    return (rate / (rate + p)) ** (1.0 / p)


# -- image-query stacks, in root coordinates t ----------------------------------
#
# Each image is a closed-form pushforward of its root. For a root abscissa t,
# `y` is the image coordinate, `pdf` and `d1` the image density and its
# derivative there, `cdf` the image mass below y, and `base` what
# inverse_map(y) returns (the coordinate of the layer below the top one).
# `t_of_level` gives the root abscissa whose image coordinate sits at the
# given image mass level. Up layers use the weight |v| (alpha = 3), anchored
# at the edge where the weight mass converges, or at the root median when it
# diverges on both sides; the anchor is the free constant of the up map.

def _exp_q(v):
    return -np.log1p(-v)


IMAGES = {
    # up(uniform(0,1), 3): y = (1 - t^2)/2
    "up(uniform(0,1),3)": dict(
        root_q=lambda v: v,
        y=lambda t: 0.5 * (1.0 - t * t),
        pdf=lambda t: 1.0 / t,
        d1=lambda t: t ** -3.0,
        cdf=lambda t: 1.0 - t,
        base=lambda t: t,
        t_of_level=lambda l: 1.0 - l),
    # up(exponential(1), 3): y = (1 + t) e^-t
    "up(exponential(1),3)": dict(
        root_q=_exp_q,
        y=lambda t: (1.0 + t) * np.exp(-t),
        pdf=lambda t: 1.0 / t,
        d1=lambda t: np.exp(t) / t ** 3,
        cdf=lambda t: np.exp(-t),
        base=lambda t: t,
        t_of_level=lambda l: -np.log(l)),
    # down(exponential(1), 3): y = e^t, pdf y^-2
    "down(exponential(1),3)": dict(
        root_q=_exp_q,
        y=lambda t: np.exp(t),
        pdf=lambda t: np.exp(-2.0 * t),
        d1=lambda t: -2.0 * np.exp(-3.0 * t),
        cdf=lambda t: -np.expm1(-t),
        base=lambda t: t,
        t_of_level=lambda l: -np.log1p(-l)),
    # up(down(exponential(1), 3), 3): unit weight, median anchor, y = log 2 - t
    "up(down(exponential(1),3),3)": dict(
        root_q=_exp_q,
        y=lambda t: math.log(2.0) - t,
        pdf=lambda t: np.exp(-t),
        d1=lambda t: np.exp(-t),
        cdf=lambda t: np.exp(-t),
        base=lambda t: np.exp(t),
        t_of_level=lambda l: -np.log(l)),
    # up(up(uniform(0,1), 3), 3): y = (t - t^3/3)/2
    "up(up(uniform(0,1),3),3)": dict(
        root_q=lambda v: v,
        y=lambda t: 0.5 * (t - t ** 3 / 3.0),
        pdf=lambda t: 2.0 / (1.0 - t * t),
        d1=lambda t: 8.0 * t / (1.0 - t * t) ** 3,
        cdf=lambda t: t,
        base=lambda t: 0.5 * (1.0 - t * t),
        t_of_level=lambda l: l),
    # up(up(exponential(1), 3), 3): y = 3/4 - e^-2t (2t + 3)/4
    "up(up(exponential(1),3),3)": dict(
        root_q=_exp_q,
        y=lambda t: 0.75 - np.exp(-2.0 * t) * (2.0 * t + 3.0) / 4.0,
        pdf=lambda t: np.exp(t) / (1.0 + t),
        d1=lambda t: t * np.exp(3.0 * t) / (1.0 + t) ** 3,
        cdf=lambda t: -np.expm1(-t),
        base=lambda t: (1.0 + t) * np.exp(-t),
        t_of_level=lambda l: -np.log1p(-l)),
}
