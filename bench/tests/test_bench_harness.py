"""Checks on the benchmark harness itself: verdicts, determinism, tracing."""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import harness as H  # noqa: E402
import tracing  # noqa: E402
import updown as U  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7


def _quad_op(want):
    return H.Op("quad", "gaussian", lambda: U.integrate(
        lambda x: np.exp(-x * x), (-math.inf, math.inf)), "closed form", 1e-9,
        expect=lambda: want, compare=lambda r, w, tol: H.close(r.value, w, tol))


def test_wrong_oracle_fails_the_op():
    right, wrong = _quad_op(math.sqrt(math.pi)), _quad_op(1.01 * math.sqrt(math.pi))
    _, records = H.run_pass([right, wrong])
    assert [ok for _, ok, _ in H.judge(records)] == [True, False]


def test_bare_exception_is_counted_and_the_run_continues():
    def boom():
        raise RuntimeError("bare")

    typed = H.Op("cell", "typed", lambda: U.up(U.gzero(1.5), 1.5), "hypothesis",
                 0.0, raises=U.PreconditionError)
    bare = H.Op("cell", "bare", boom, "hypothesis", 0.0, raises=U.PreconditionError)
    ops = [bare, _quad_op(math.sqrt(math.pi)), typed]
    _, records = H.run_pass(ops)
    verdicts = H.judge(records)
    assert len(records) == 3
    assert [ok for _, ok, _ in verdicts] == [False, True, True]
    assert verdicts[0][2].startswith("RuntimeError")


def _small_root_quad(seed):
    wl = WORKLOADS["root-quad"]
    prm = wl.params(seed)
    ops = wl.ops(prm, wl.build(prm), seed)
    # every kind but the scaled integrand, which runs to the panel budget
    return [op for op in ops if op.kind != "scaled"][:24]


def _traced_pass(ops):
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        tracer.active = True
        tracer.enter("harness")
        try:
            _, records = H.run_pass(ops)
        finally:
            tracer.exit()
            tracer.active = False
    finally:
        uninstall()
    return tracer, H.judge(records)


def test_same_seed_same_ops_and_counts():
    a, b = _small_root_quad(SEED), _small_root_quad(SEED)
    assert [op.label for op in a] == [op.label for op in b]
    assert [op.label for op in a] != [op.label for op in _small_root_quad(SEED + 1)]
    ta, va = _traced_pass(a)
    tb, vb = _traced_pass(b)
    assert va == vb and all(ok for _, ok, _ in va)
    counts = ("root.evals", "numerics.integrate.points", "numerics.integrate.calls",
              "numerics.integrate.unconverged", "densities.cdf_at.points")
    ma, mb = ta.metrics(), tb.metrics()
    assert ma["root.evals"] > 0
    assert {k: ma[k] for k in counts} == {k: mb[k] for k in counts}


def test_traced_self_times_sum_to_wall():
    ops = _small_root_quad(SEED)
    ops.append(H.Op("image", "image pdf", lambda: U.up(U.uniform(0.0, 1.0), 3.0).pdf(
        np.linspace(0.05, 0.45, 16)), "closed form", 1e-10,
        expect=lambda: (1.0 - 2.0 * np.linspace(0.05, 0.45, 16)) ** -0.5,
        compare=H.close))
    tracer, verdicts = _traced_pass(ops)
    assert all(ok for _, ok, _ in verdicts)
    m = tracer.metrics()
    assert m["transforms.build.calls"] == 1 and m["transforms.query.points"] > 0
    assert sum(tracer.self_s.values()) == pytest.approx(tracer.wall, rel=1e-9)
    assert m["harness.self_s"] < tracer.wall


def test_install_wraps_and_restores_every_name():
    def names():
        return (U.integrate, U.up, U.transforms.integrate, U.densities.Density.__init__,
                U.functionals.mu, U.upper_moments.up, U.down_order_check)

    before = names()
    uninstall = tracing.install(tracing.Tracer())
    try:
        during = names()
    finally:
        uninstall()
    assert all(a is not b for a, b in zip(before, during))
    assert names() == before
