"""The public surface: every exported name resolves, the package
re-exports every name a submodule exports, and malformed input to a public
call raises a class from updown.errors."""

import importlib
import math
import pkgutil

import numpy as np
import pytest

import updown
from updown.densities import exponential, uniform
from updown.errors import DomainError
from updown.functionals import mu, sigma
from updown.transforms import chain
from updown.upper_moments import AlphaVector


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
], ids=["sigma-neg-inf", "sigma-nan", "mu-nan", "alpha-numpy-scalar", "chain-short-step"])
def test_malformed_public_input_raises_a_typed_error(call, error):
    with pytest.raises(error):
        call()
