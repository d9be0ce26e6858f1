"""Layered benchmark for the `updown` library.

Run from the repository root:

    python3 bench/run.py --workload root-quad --seed 1 --seconds 10 --trace 0

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it records
the run's settings, versions and call-level timings. Per-op verdicts and
the oracle table are written to `.bench_out/`. See bench/README.md.
"""

import argparse
import json
import os
import sys
from pathlib import Path

# one thread everywhere, before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import harness as H  # noqa: E402  (after the thread settings)
import speed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_p90_s": "s",
              "peak_rss_mb": "MB"}
SETUP_REPEATS = 3
IMPORT_REPEATS = 5


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _import_updown():
    """Import updown from this checkout's src/, and nowhere else."""
    if not (SRC / "updown" / "__init__.py").is_file():
        sys.exit(f"bench: no updown package under {SRC}")
    sys.path.insert(0, str(SRC))
    import updown

    if Path(updown.__file__).resolve().parent != SRC / "updown":
        sys.exit(f"bench: imported updown from {updown.__file__}, not {SRC}")
    return updown


def _import_seconds():
    """`import updown` times in fresh interpreters: (raw, normalised) lists.

    Each child times the reference kernel right after its import, on the
    CPU it ran on, to normalise its own import time.
    """
    import subprocess

    code = ("import time; t = time.perf_counter(); import updown; "
            "dt = time.perf_counter() - t; import speed; "
            "print(dt, speed.kernel_seconds())")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT / "bench")]))
    raw, norm = [], []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                             capture_output=True, text=True, check=True, timeout=60)
        dt, k = map(float, out.stdout.split())
        raw.append(dt)
        norm.append(dt * speed.K_REF / k)
    return raw, norm


def _setup(wl, prm):
    """Build the inputs SETUP_REPEATS times: (raw, normalised, last inputs)."""
    build = H.Op("setup", "build", lambda: wl.build(prm), "", 0.0)
    (records,) = H.run_probed([build] * SETUP_REPEATS)
    for r in records:
        if r.error is not None:
            raise r.error
    return [r.seconds for r in records], [r.norm for r in records], records[-1].result


def _end_to_end(passes, import_t, build_t, attr):
    """End-to-end values from per-op times `attr`, "norm" or "seconds"."""
    lats = [getattr(r, attr) for recs in passes for r in recs]
    walls = [sum(getattr(r, attr) for r in recs) for recs in passes]
    return {"setup_s": H.median(import_t) + H.median(build_t),
            "wall_s": H.median(walls), "op_p50_s": H.median(lats),
            "op_p90_s": H.percentile(lats, 90.0), "peak_rss_mb": H.peak_rss_mb()}


def _verdict_summary(wl, verdicts):
    failed = sorted({label for label, ok, _ in verdicts if not ok})
    unexpected = [label for label in failed if label not in wl.known_defects]
    return failed, unexpected


def main(argv=None):
    args = _parse(argv)
    updown = _import_updown()
    import numpy as np
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    prm = wl.params(args.seed)
    info = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": sys.version.split()[0],
            "numpy": np.__version__, "nproc": len(os.sched_getaffinity(0)),
            "updown": str(Path(updown.__file__).parent.relative_to(ROOT))}

    if args.trace:
        metrics, verdicts, detail = _traced(wl, prm, args.seed)
        attempted = len(verdicts)
    else:
        import_raw, import_s = _import_seconds()
        build_raw, build_s, inputs = _setup(wl, prm)
        ops = wl.ops(prm, inputs, args.seed)
        passes = H.run_probed(ops, args.seconds)
        records = [r for recs in passes for r in recs]
        verdicts = H.judge(records)

        values = _end_to_end(passes, import_s, build_s, "norm")
        raw = _end_to_end(passes, import_raw, build_raw, "seconds")
        metrics = {k: H.metric(v, END_TO_END[k]) for k, v in values.items()}
        attempted = len(records)
        calls = {kind: H.metric(H.median([r.norm for r in records if r.op.kind == kind]), "s")
                 for kind in wl.calls}
        info.update(ops=len(ops), passes=len(passes), calls=calls, unnormalised=raw,
                    kernel_ref_s=speed.K_REF, import_s=import_s, build_s=build_s)
        detail = {"oracles": [op.oracle_row() for op in ops],
                  "latencies": [(r.op.label, r.seconds, r.norm) for r in records]}

    failed, unexpected = _verdict_summary(wl, verdicts)
    n_failed = sum(1 for _, ok, _ in verdicts if not ok)
    info.update(attempted=attempted, failed_ops=failed, unexpected_failures=unexpected)
    _write_detail(args, info, verdicts, detail)
    print(json.dumps(info))
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": n_failed, "metrics": metrics}))
    return 0


def _traced(wl, prm, seed):
    """One untraced pass over the overhead slice, then one traced pass."""
    import tracing

    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        inputs = wl.build(prm)
        ops = wl.ops(prm, inputs, seed)
        slice_ = [op for op in ops
                  if wl.overhead_kinds is None or op.kind in wl.overhead_kinds]
        with speed.SpeedProbe() as probe:
            _, plain = H.run_pass(slice_)
            tracer.active = True
            tracer.enter("harness")
            try:
                _, traced = H.run_pass(ops)
            finally:
                tracer.exit()
                tracer.active = False
    finally:
        uninstall()
    for r in plain + traced:
        r.seconds, r.norm = probe.adjust(r.start, r.end)
    in_slice = {id(op) for op in slice_}
    base = sum(r.norm for r in plain)
    with_trace = sum(r.norm for r in traced if id(r.op) in in_slice)
    values = tracer.metrics()
    values["trace.wall_s"] = tracer.wall
    values["trace.overhead_frac"] = (with_trace - base) / base
    metrics = {k: H.metric(v, _unit(k)) for k, v in values.items()}
    detail = {"verdicts_untraced_slice": H.judge(plain)}
    return metrics, H.judge(traced), detail


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("per_point"):
        return "evals/point"
    return "count"


def _write_detail(args, info, verdicts, detail):
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record = dict(info, verdicts=verdicts, **detail)
    path.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(main())
