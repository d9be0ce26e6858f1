"""The public surface: every exported name resolves, the package
re-exports every name a submodule exports, and malformed input to a public
call raises a class from updown.errors."""

import importlib
import math
import pkgutil

import numpy as np
import pytest

import updown
from updown import functionals as F
from updown.densities import exponential, rescale, stretched_gaussian, uniform
from updown.down_fisher import (down_fisher, down_order_check,
                                shannon_down_check, verify_fisher_relation)
from updown.errors import DomainError
from updown.functionals import mu, sigma
from updown.transforms import chain
from updown.upper_moments import AlphaVector, prefactor, upper_moment, upper_moment_n

inf, nan = math.inf, math.nan
e1 = exponential(1.0)


def test_every_exported_name_resolves():
    mods = [updown] + [importlib.import_module(f"updown.{m.name}")
                       for m in pkgutil.iter_modules(updown.__path__)]
    assert updown.__all__
    for mod in mods:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.{name} does not resolve"
            assert name in updown.__all__, f"{mod.__name__}.{name} is not re-exported"


@pytest.mark.parametrize("call, error", [
    # no p = -inf limit: 1/p = -0.0 would read as p = 0 in the power
    (lambda: sigma(uniform(2.0, 3.0), -math.inf), DomainError),
    # a NaN p is the caller's, not the integrand's
    (lambda: sigma(uniform(2.0, 3.0), math.nan), DomainError),
    (lambda: mu(uniform(2.0, 3.0), math.nan), DomainError),
    # a numpy scalar is one entry, not a sequence
    (lambda: AlphaVector(np.float32("nan")), DomainError),
    # every step unpacks as (kind, alpha)
    (lambda: chain(exponential(1.0), [("up", 3.0), ("down",)]), DomainError),
    # an unknown kind is the caller's too, not a failed step
    (lambda: chain(exponential(1.0), [("sideways", 3.0)]), DomainError),
    # the Renyi family has no infinite order here: f**lam is 0 or inf
    (lambda: F.renyi(e1, inf), DomainError),
    (lambda: F.renyi(e1, -inf), DomainError),
    (lambda: F.tsallis(e1, inf), DomainError),
    (lambda: F.tsallis(e1, -inf), DomainError),
    (lambda: F.renyi_power(e1, inf), DomainError),
    (lambda: F.renyi_power(e1, -inf), DomainError),
    (lambda: F.phi_limit0(e1, inf), DomainError),
    (lambda: F.phi(e1, inf, 1.0), DomainError),
    # a NaN parameter is the caller's, not the integrand's or a verdict's
    (lambda: F.renyi(e1, nan), DomainError),
    (lambda: F.tsallis(e1, nan), DomainError),
    (lambda: F.exp_moment(e1, nan), DomainError),
    (lambda: F.log_moment(e1, nan), DomainError),
    (lambda: F.fisher(e1, nan, 1.0), DomainError),
    (lambda: F.fisher(e1, 1.0, nan), DomainError),
    (lambda: F.phi(e1, nan, 1.0), DomainError),
    (lambda: F.phi(e1, 1.0, nan), DomainError),
    (lambda: F.phi_limit0(e1, nan), DomainError),
    (lambda: upper_moment(e1, nan, (3.0,)), DomainError),
    (lambda: verify_fisher_relation(e1, nan, 1.0, 3.0), DomainError),
    (lambda: verify_fisher_relation(e1, 2.0, nan, 3.0), DomainError),
    (lambda: down_fisher(e1, inf, 1.0, 2.0), DomainError),
    (lambda: down_fisher(e1, nan, 1.0, 2.0), DomainError),
    (lambda: down_fisher(e1, 2.0, nan, 2.0), DomainError),
    (lambda: down_fisher(e1, 2.0, 1.0, nan), DomainError),
    (lambda: down_order_check(e1, 2.0, 1.0, nan, 2.0), DomainError),
    (lambda: shannon_down_check(e1, nan, 3.0), DomainError),
    # a non-finite parameter is named, not blamed on the integrand or read
    # back as a NaN field
    (lambda: stretched_gaussian(nan, 1.0), DomainError),
    (lambda: stretched_gaussian(2.0, nan), DomainError),
    (lambda: F.fisher(uniform(0.0, 0.5), 2.0, inf), DomainError),
    (lambda: F.phi(exponential(2.0), 2.0, inf), DomainError),
    (lambda: upper_moment(e1, inf, (3.0,)), DomainError),
    (lambda: upper_moment(e1, -inf, (3.0,)), DomainError),
    (lambda: upper_moment_n(e1, inf, (3.0,)), DomainError),
    (lambda: upper_moment_n(e1, -inf, (3.0,)), DomainError),
    (lambda: prefactor(inf, (3.0,)), DomainError),
    (lambda: prefactor(nan, (3.0,)), DomainError),
    # out-of-range family and rescale parameters
    (lambda: uniform(1.0, 0.0), DomainError),
    (lambda: exponential(0.0), DomainError),
    (lambda: rescale(e1, 0.0), DomainError),
], ids=["sigma-neg-inf", "sigma-nan", "mu-nan", "alpha-numpy-scalar", "chain-short-step",
        "chain-unknown-kind",
        "renyi-inf", "renyi-neg-inf", "tsallis-inf", "tsallis-neg-inf", "renyi-power-inf",
        "renyi-power-neg-inf", "phi-limit0-inf", "phi-p-inf", "renyi-nan", "tsallis-nan",
        "exp-moment-nan", "log-moment-nan", "fisher-p-nan", "fisher-lam-nan", "phi-p-nan",
        "phi-lam-nan", "phi-limit0-nan", "upper-moment-nan", "fisher-relation-p-nan",
        "fisher-relation-lam-nan", "down-fisher-p-inf", "down-fisher-p-nan",
        "down-fisher-q-nan", "down-fisher-lam-nan", "order-check-r-nan",
        "shannon-check-q-nan", "stretched-gaussian-p-nan", "stretched-gaussian-lam-nan",
        "fisher-lam-inf", "phi-lam-inf",
        "upper-moment-inf", "upper-moment-neg-inf", "upper-moment-n-inf",
        "upper-moment-n-neg-inf", "prefactor-inf", "prefactor-nan", "uniform-reversed",
        "exponential-zero-rate", "rescale-zero"])
def test_malformed_public_input_raises_a_typed_error(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("call, name", [
    (lambda: F.phi_limit0(e1, -inf), "lam"),
    (lambda: F.phi(e1, -inf, 1.0), "p"),
    (lambda: F.fisher(e1, inf, 1.0), "p"),
    (lambda: F.fisher(e1, -inf, 1.0), "p"),
    (lambda: F.fisher(e1, 2.0, -inf), "lam"),
    (lambda: F.phi(e1, 2.0, -inf), "lam"),
], ids=["phi-limit0-neg-inf", "phi-p-neg-inf", "fisher-p-inf", "fisher-p-neg-inf",
        "fisher-lam-neg-inf", "phi-lam-neg-inf"])
def test_infinite_score_parameters_raise_naming_them(call, name):
    # the caller's parameter, not the integrand (IntegrandError) and no
    # silent NaN (phi_limit0 read Quantity(nan, False, nan) at lam = -inf)
    with pytest.raises(DomainError, match=rf"\b{name} = -?inf|finite {name}, got -?inf"):
        call()
