"""Per-layer spans and work counts, recorded from outside the library.

`install(tracer)` wraps the public entry points of each `updown` layer,
under every name the package's modules bind them to, and returns a function
that restores the originals. The wrappers cost one attribute test while the
tracer is inactive. While it is active each call opens a span; a span's self
time is its duration minus the time its child spans cover, so the self times
of all spans, the harness span included, add up to the traced wall time.

Root-density evaluations are counted by wrappers put on the pdf and
derivative callables of every root `Density` right after it is constructed.
Each evaluated point is charged to `root.evals` and to the layer of the
innermost open span.
"""

import functools
import importlib
import sys
import time
import types
from collections import Counter

import numpy as np

from updown.densities import Density
from updown.transforms import TransformedDensity

LAYERS = ("numerics", "densities", "transforms", "functionals", "upper_moments",
          "down_fisher")
# by module path: the package re-exports a function under the name down_fisher
numerics, densities, transforms, functionals, upper_moments, down_fisher = (
    importlib.import_module(f"updown.{name}") for name in LAYERS)
# re-entering one of these spans from inside itself extends the open span
# rather than opening a new one, so `calls` counts entries into the layer
_MERGED = {"densities.construct", "transforms.build", "functionals",
           "upper_moments", "down_fisher"}
_QUERY = "transforms.query"


class Tracer:
    def __init__(self):
        self.active = False
        self.stack = []      # open spans: [name, start, child seconds]
        self.calls = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        self.wall = 0.0      # total duration of outermost spans
        self._in_root_eval = False
        self._query_depth = 0

    def enter(self, name):
        if name in _MERGED and self.stack and self.stack[-1][0] == name:
            self.stack[-1].append(None)  # nesting marker, closed by exit()
            return
        self.calls[name] += 1
        self.stack.append([name, time.perf_counter(), 0.0])

    def exit(self):
        top = self.stack[-1]
        if len(top) > 3:
            top.pop()
            return
        name, start, child = self.stack.pop()
        dur = time.perf_counter() - start
        self.self_s[name] += dur - child
        if self.stack:
            self.stack[-1][2] += dur
        else:
            self.wall += dur

    def layer(self):
        return self.stack[-1][0].split(".")[0] if self.stack else "harness"

    def root_eval(self, fn, x):
        if not self.active or self._in_root_eval:
            return fn(x)
        n = int(np.size(x))
        self.counts["root.evals"] += n
        self.counts[f"{self.layer()}.root_evals"] += n
        self._in_root_eval = True
        try:
            return fn(x)
        finally:
            self._in_root_eval = False

    def metrics(self):
        """Per-layer metric values, by name."""
        c, calls, self_s = self.counts, self.calls, self.self_s
        out = {}
        for name in ("numerics.integrate", "densities.construct", "densities.cdf_at",
                     "densities.quantile_many", "densities.integral",
                     "transforms.build", _QUERY, "transforms.integral",
                     "functionals", "upper_moments", "down_fisher", "harness"):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        del out["harness.calls"]
        n = calls["numerics.integrate"]
        out["numerics.integrate.points"] = c["numerics.integrate.points"]
        out["numerics.integrate.unconverged"] = c["numerics.integrate.unconverged"]
        out["numerics.integrate.converged_frac"] = \
            (n - c["numerics.integrate.unconverged"]) / n if n else 0.0
        for name in ("densities.cdf_at", "densities.quantile_many", _QUERY):
            out[f"{name}.points"] = c[f"{name}.points"]
        q = c[f"{_QUERY}.points"]
        out[f"{_QUERY}.root_evals_per_point"] = c[f"{_QUERY}.root_evals"] / q if q else 0.0
        out["root.evals"] = c["root.evals"]
        for layer in LAYERS:
            out[f"{layer}.root_evals"] = c[f"{layer}.root_evals"]
        return out


def _spanned(tracer, fn, name_of, points=False):
    """Wrap fn in a span named name_of(args); None means no span."""

    @functools.wraps(fn)
    def wrapped(*args, **kw):
        if not tracer.active:
            return fn(*args, **kw)
        name = name_of(args)
        if name is None:
            return fn(*args, **kw)
        if points:
            x = args[1] if len(args) > 1 and isinstance(args[0], Density) else args[0]
            tracer.counts[f"{name}.points"] += int(np.size(x))
        query = name == _QUERY
        if query:
            if tracer._query_depth == 0:
                before = tracer.counts["root.evals"]
            tracer._query_depth += 1
        tracer.enter(name)
        try:
            return fn(*args, **kw)
        finally:
            tracer.exit()
            if query:
                tracer._query_depth -= 1
                if tracer._query_depth == 0:
                    tracer.counts[f"{_QUERY}.root_evals"] += \
                        tracer.counts["root.evals"] - before

    return wrapped


def _by_receiver(root_name, image_name):
    def name_of(args):
        return image_name if isinstance(args[0], TransformedDensity) else root_name
    return name_of


def _counting_integrate(tracer, fn):
    @functools.wraps(fn)
    def wrapped(f, iv, *args, **kw):
        if not tracer.active:
            return fn(f, iv, *args, **kw)

        def counted(x):
            tracer.counts["numerics.integrate.points"] += int(np.size(x))
            return f(x)

        tracer.enter("numerics.integrate")
        try:
            res = fn(counted, iv, *args, **kw)
        finally:
            tracer.exit()
        if not res.converged:
            tracer.counts["numerics.integrate.unconverged"] += 1
        return res

    return wrapped


def _rebind(orig, new, patched):
    """Point every updown module name bound to orig at new."""
    for mod in [m for n, m in sys.modules.items()
                if n == "updown" or n.startswith("updown.")]:
        for attr, val in list(vars(mod).items()):
            if val is orig:
                patched.append((mod, attr, orig))
                setattr(mod, attr, new)


def install(tracer):
    """Wrap every layer's public entry points; returns an undo function."""
    patched = []

    def patch_attr(owner, attr, new):
        patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    _rebind(numerics.integrate, _counting_integrate(tracer, numerics.integrate), patched)

    construct = lambda args: "densities.construct"
    for fname in ("uniform", "exponential", "power_tail", "stretched_gaussian",
                  "gzero", "half_restriction", "affine_image", "rescale"):
        fn = getattr(densities, fname)
        _rebind(fn, _spanned(tracer, fn, construct), patched)

    build = lambda args: "transforms.build"
    for fname in ("up", "down", "chain"):
        fn = getattr(transforms, fname)
        _rebind(fn, _spanned(tracer, fn, build), patched)
    patch_attr(TransformedDensity, "reseat",
               _spanned(tracer, TransformedDensity.reseat, build))

    for mod in (functionals, upper_moments, down_fisher):
        layer = mod.__name__.split(".")[-1]
        for fname, fn in list(vars(mod).items()):
            if (isinstance(fn, types.FunctionType) and not fname.startswith("_")
                    and fn.__module__ == mod.__name__):
                _rebind(fn, _spanned(tracer, fn, lambda args, _l=layer: _l), patched)

    for attr, root_name in (("cdf_at", "densities.cdf_at"),
                            ("quantile_many", "densities.quantile_many")):
        patch_attr(Density, attr, _spanned(tracer, getattr(Density, attr),
                                           _by_receiver(root_name, _QUERY), points=True))
    patch_attr(Density, "integral", _spanned(
        tracer, Density.integral, _by_receiver("densities.integral", None)))
    patch_attr(Density, "pdf_at", _spanned(
        tracer, Density.pdf_at, _by_receiver(None, _QUERY), points=True))
    for attr in ("quantile_many", "inverse_map"):
        patch_attr(TransformedDensity, attr, _spanned(
            tracer, getattr(TransformedDensity, attr), lambda args: _QUERY, points=True))
    patch_attr(TransformedDensity, "integral", _spanned(
        tracer, TransformedDensity.integral, lambda args: "transforms.integral"))

    init = Density.__init__

    @functools.wraps(init)
    def traced_init(self, *args, **kw):
        image = isinstance(self, TransformedDensity)
        if tracer.active and not image:
            tracer.enter("densities.construct")
            try:
                init(self, *args, **kw)
            finally:
                tracer.exit()
        else:
            init(self, *args, **kw)
        if image:
            for attr in ("pdf", "d1", "d2"):
                fn = getattr(self, attr)
                if fn is not None:
                    setattr(self, attr, _spanned(tracer, fn, lambda args: _QUERY,
                                                 points=True))
        else:
            for attr in ("pdf", "d1", "d2", "d3"):
                fn = getattr(self, attr)
                if fn is not None:
                    setattr(self, attr, functools.partial(tracer.root_eval, fn))

    patch_attr(Density, "__init__", traced_init)

    def uninstall():
        for owner, attr, orig in reversed(patched):
            setattr(owner, attr, orig)

    return uninstall

