"""One pass of a workload in a fresh interpreter.

    python3 child.py SPEC.json RESULT.json

SPEC holds the calls (see workloads.py), the parent's clock reading just
before it started this process ("t0"), the source directory specrep must
be imported from, a scratch directory, and whether to stop after set-up
or to trace.  RESULT receives the raw timings, the speed factor the pass
times are to be divided by (see speed.py) and the observations.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    import numpy
    import specrep
    from specrep import cli, jsets, roots, suite

    import workloads

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(specrep.__file__).startswith(src + os.sep):
        print(f"specrep imported from {specrep.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    # functions are looked up on their modules when called, so that the
    # tracer's wrappers are the ones that run
    def make(call, k):
        kind = call[0]
        if kind == "suite":
            cfg = workloads.suite_config(call[1])
            return lambda: suite.run_suite(cfg)
        if kind == "battery":
            fn, cfg = getattr(suite, call[1]), workloads.suite_config(call[2])
            return lambda: fn(cfg)
        if kind == "qp":
            return lambda: jsets.quasi_parabolic_sets(roots.root_system(call[1]),
                                                      frozenset(call[2]))
        if kind == "cli":
            argv = call[1] + ["--out", os.path.join(spec["tmpdir"], f"out{k}")]
            return lambda: cli.main(argv)
        raise ValueError(f"unknown call kind {kind!r}")

    thunks = [make(call, k) for k, call in enumerate(spec["calls"])]
    results, query_s, windows = [], [], []
    t_first = time.perf_counter()
    # untraced passes time the reference chunks while they run; the chunks'
    # time is not counted, nor is importing the harness's speed module
    from speed import Sampler

    sampler, sample = Sampler(), not spec["setup_only"] and tracer is None
    if sample:
        sampler.start()
    t_start = time.perf_counter()
    if not spec["setup_only"]:
        for fn in thunks:
            a, spent = time.perf_counter(), sampler.spent
            results.append(fn())
            b = time.perf_counter()
            query_s.append(b - a - (sampler.spent - spent))
            windows.append((a, b))
    t_end = time.perf_counter()
    if sample:
        sampler.stop()
        sampler.top_up(1)  # a pass shorter than one sampling interval
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(spec["spans_path"])

    observations, canonical = [], None
    for k, (call, res) in enumerate(zip(spec["calls"], results)):
        kind = call[0]
        if kind == "suite":
            observations += workloads.record_observations(res[1])
            canonical = workloads.sha256(suite.to_jsonl(res[1]).encode())
        elif kind == "battery":
            observations += workloads.record_observations(res)
        elif kind == "qp":
            observations.append([workloads.qp_key(call[1], call[2]), "pass",
                                 workloads.qp_value(res)])
        else:
            out = os.path.join(spec["tmpdir"], f"out{k}")
            data = b""
            if os.path.exists(out):  # absent when the command failed early
                with open(out, "rb") as fh:
                    data = fh.read()
            observations.append(workloads.cli_observation(call[1], res, data))
    with open(result_path, "w") as fh:
        json.dump({"setup_s": t_first - spec["t0"],
                   "wall_s": t_end - t_start - sampler.spent, "query_s": query_s,
                   "speed_factor": sampler.factor() if sample else None,
                   "query_factors": ([sampler.factor(a, b) for a, b in windows]
                                     if sample else None),
                   "speed_samples": len(sampler.samples), "rss_mb": rss_mb,
                   "observations": observations, "canonical_sha256": canonical,
                   "python": sys.version.split()[0], "numpy": numpy.__version__}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
