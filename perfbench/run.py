"""Cold-process benchmark of specrep.

    python3 perfbench/run.py --workload suite-default --seed 1 --seconds 44 --trace 0
    python3 perfbench/run.py --workload all        # every workload in turn

Each timed pass of a workload runs in a fresh interpreter, one at a time,
so that the memoized root systems and their caches start cold as they do
for a user.  Every pass's outputs go through the correctness gate against
ref/.  With --trace 0 the run reports the end-to-end metrics; with
--trace 1 it alternates untraced and traced passes and reports the
per-layer metrics.  Times are divided by the machine's speed factor that
each child measures with a fixed reference loop (speed.py).  The last line
of standard output is one JSON object {correct, attempted, failed,
metrics}.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads
from speed import start_factor
from tracer import LAYER_UNITS, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "NUMEXPR_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
          "PYTHONHASHSEED": "0"}
SETUP_PROBES = 6  # set-up-only children per untraced run, besides the passes
CHILD_TIMEOUT_S = 150
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "query_p50_ms": "ms", "query_p90_ms": "ms"}


class ChildFailed(Exception):
    pass


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (statistics.quantiles'
    'inclusive' method); defined for a single value too."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def gate(ref: dict, observations: list, exact_keys: bool) -> tuple[int, list[str]]:
    """Check one pass's observations against the reference records.

    A record may not fail, may not go from pass to anything else, and must
    reproduce the reference value where one is stored (output digests,
    exit codes, quasi-parabolic families).  With exact_keys the pass must
    produce exactly the reference's keys.  Returns (attempted, problems)."""
    problems, seen = [], set()
    for key, status, value in observations:
        seen.add(key)
        want = ref.get(key)
        if want is None:
            problems.append(f"{key}: not in the reference")
        elif status == "fail":
            problems.append(f"{key}: fail")
        elif want[0] == "pass" and status != "pass":
            problems.append(f"{key}: pass -> {status}")
        elif want[1] is not None and value != want[1]:
            problems.append(f"{key}: {value} != reference {want[1]}")
    missing = sorted(ref.keys() - seen) if exact_keys else []
    problems += [f"{key}: missing" for key in missing]
    return len(observations) + len(missing), problems


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": cpu, "loadavg_start": list(os.getloadavg()),
            "platform": platform.platform(), "pinned_env": PINNED}


class Runner:
    """Starts children for one run and keeps their scratch files."""

    def __init__(self, tmp: str, calls: list) -> None:
        self.tmp, self.calls, self.count = tmp, calls, 0
        self.env = {**os.environ, **PINNED, "PYTHONPATH": str(SRC)}

    def child(self, setup_only: bool = False, trace: bool = False,
              calls: list | None = None) -> dict:
        k = self.count = self.count + 1
        spec_path = os.path.join(self.tmp, f"spec{k}.json")
        result_path = os.path.join(self.tmp, f"result{k}.json")
        spec = {"calls": self.calls if calls is None else calls, "src": str(SRC),
                "tmpdir": self.tmp, "setup_only": setup_only, "trace": trace,
                "spans_path": os.path.join(self.tmp, f"spans{k}.json")}
        try:
            # set-up is normalized by a reference start made just before
            setup_factor = None if trace else start_factor(self.env, ROOT,
                                                           CHILD_TIMEOUT_S)
        except (OSError, subprocess.SubprocessError) as e:
            raise ChildFailed(f"reference start before pass {k}: {e}") from e
        spec["t0"] = time.perf_counter()
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), spec_path, result_path],
                cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired as e:
            raise ChildFailed(f"pass {k} exceeded {CHILD_TIMEOUT_S} s") from e
        if proc.returncode != 0:
            raise ChildFailed(f"pass {k} exited {proc.returncode}: {proc.stderr[-2000:]}")
        with open(result_path) as fh:
            res = json.load(fh)
        res["setup_factor"] = setup_factor
        if trace:
            with open(spec["spans_path"]) as fh:
                res["trace"] = json.load(fh)
        return res


def decided_hecke(res: dict) -> int:
    """hecke.indeco and hecke.simple records of a pass that were not skipped."""
    return sum(1 for key, status, _ in res["observations"]
               if key.startswith(("hecke.indeco ", "hecke.simple ")) and status != "skip")


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run: set-up probes, passes until the time is used up, and set-up
    probes in what is left."""
    calls = workloads.calls(workload, seed)
    ref = json.loads((HERE / "ref" / f"{workload}.json").read_text())
    env = environment()
    start = time.perf_counter()
    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        runner = Runner(tmp, calls)
        probes, probe_s = [], 0.0

        def probe() -> None:
            nonlocal probe_s
            a = time.perf_counter()
            probes.append(runner.child(setup_only=True))
            probe_s = max(probe_s, time.perf_counter() - a)

        for _ in range(0 if trace else SETUP_PROBES):
            probe()
        passes, traced = [], []
        while True:
            traced_now = trace and len(traced) < len(passes)
            a = time.perf_counter()
            # cli-point draws new commands for every pass from the seed
            res = runner.child(trace=traced_now,
                               calls=workloads.calls(workload, seed, runner.count))
            last = time.perf_counter() - a
            if traced_now:  # keep the metrics, not the spans
                spans = res.pop("trace")
                res["layers"] = layer_metrics(spans["names"], spans["spans"],
                                              decided_hecke(res))
            (traced if traced_now else passes).append(res)
            if (passes and (traced or not trace)
                    and time.perf_counter() - start + last > seconds):
                break
        # time left that a pass no longer fits in goes to more set-up probes
        while probes and time.perf_counter() - start + probe_s < seconds:
            probe()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted, problems, skips = 0, [], 0
    for p in passes + traced:
        n, probs = gate(ref["records"], p["observations"], workload != "cli-point")
        attempted += n
        problems += probs
        skips += sum(1 for o in p["observations"] if o[1] == "skip")
    env["numpy"] = passes[0]["numpy"]
    canonical = {p["canonical_sha256"] for p in passes + traced} - {None}
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "env": env, "attempted": attempted, "failed": len(problems),
        "problems": problems[:20], "skip_frac": skips / attempted,
        "fail_frac": len(problems) / attempted, "passes": len(passes),
        "traced_passes": len(traced),
    }
    if ref.get("canonical_sha256"):
        report["canonical_matches_seed"] = canonical == {ref["canonical_sha256"]}
    walls = [p["wall_s"] / p["speed_factor"] for p in passes]
    report["raw"] = {"wall_s": statistics.median(p["wall_s"] for p in passes),
                     "speed_factor": statistics.median(p["speed_factor"]
                                                       for p in passes)}
    if not trace:
        # a query is what a user waits for: one command on cli-point, a
        # whole battery run (the pass) on the suite workloads
        queries = ([q / f for p in passes
                    for q, f in zip(p["query_s"], p["query_factors"])]
                   if workload == "cli-point" else walls)
        setups = [p["setup_s"] / p["setup_factor"] for p in probes + passes]
        report["samples"] = {"passes": len(passes), "queries": len(queries),
                             "setups": len(setups)}
        report["metrics"] = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
            "query_p50_ms": 1000 * percentile(queries, 50),
            "query_p90_ms": 1000 * percentile(queries, 90),
        }
        report["units"] = END_TO_END_UNITS
        return report
    metrics = {name: statistics.median(p["layers"][name] for p in traced)
               for name in traced[0]["layers"]}
    # raw times: traced and untraced passes alternate, so they share the
    # machine's speed, and traced passes are not sampled (see speed.py)
    metrics["trace_overhead_frac"] = (statistics.median(p["wall_s"] for p in traced)
                                      / report["raw"]["wall_s"] - 1)
    report["metrics"], report["units"] = metrics, LAYER_UNITS
    return report


def print_report(r: dict) -> None:
    print(f"perfbench {r['workload']} seed={r['seed']} seconds={r['seconds']} "
          f"trace={r['trace']}")
    print("env " + json.dumps(r["env"], sort_keys=True))
    for name, value in r["metrics"].items():
        print(f"  {name:34s} {value:14.6f} {r['units'][name]}")
    print(f"  not normalized: wall_s {r['raw']['wall_s']:.6f} s, median speed "
          f"factor {r['raw']['speed_factor']:.4f}")
    if "samples" in r:
        s = r["samples"]
        print(f"  samples: {s['passes']} passes, {s['queries']} queries, "
              f"{s['setups']} set-ups")
    else:
        print(f"  passes: {r['passes']} untraced, {r['traced_passes']} traced")
    print(f"  {'fail_frac':34s} {r['fail_frac']:14.6f} ratio "
          f"({r['failed']} of {r['attempted']} attempted)")
    print(f"  {'skip_frac':34s} {r['skip_frac']:14.6f} ratio")
    if "canonical_matches_seed" in r:
        print(f"  canonical suite JSONL matches the reference sha256: "
              f"{'yes' if r['canonical_matches_seed'] else 'no'}")
    for prob in r["problems"]:
        print(f"  gate: {prob}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=44)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", help="append the full reports (with environment) "
                                   "to this JSON list file")
    args = ap.parse_args(argv)
    if not (SRC / "specrep" / "__init__.py").is_file():
        print(f"error: no specrep sources under {SRC}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    reports = []
    for name in names:
        try:
            reports.append(measure(name, args.seed, args.seconds, bool(args.trace)))
        except ChildFailed as e:
            print(f"error: {name}: {e}", file=sys.stderr)
            return 1
        print_report(reports[-1])
    if args.save:
        path = Path(args.save)
        saved = json.loads(path.read_text()) if path.exists() else []
        path.write_text(json.dumps(saved + reports, indent=1, sort_keys=True) + "\n")
    single = len(reports) == 1
    metrics = {(m if single else f"{r['workload']}.{m}"): {"value": v, "unit": r["units"][m]}
               for r in reports for m, v in r["metrics"].items()}
    print(json.dumps({"correct": all(r["failed"] == 0 for r in reports),
                      "attempted": sum(r["attempted"] for r in reports),
                      "failed": sum(r["failed"] for r in reports),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
