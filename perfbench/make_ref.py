"""Regenerate the reference outputs in ref/ from the current sources.

    python3 perfbench/make_ref.py

Run it only on a commit whose outputs are known good: the gate in run.py
holds every later commit to these records.  For cli-point it records every
command any seed can produce.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

import workloads
from run import HERE, ROOT, Runner


def main() -> int:
    (HERE / "ref").mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        calls = ([["cli", argv] for argv in workloads.cli_universe()]
                 if workload == "cli-point" else workloads.calls(workload, 0))
        tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
        try:
            res = Runner(tmp, calls).child()
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        records = {key: [status, value] for key, status, value in res["observations"]}
        bad = [key for key, (status, _) in records.items() if status == "fail"]
        if bad or len(records) != len(res["observations"]):
            print(f"{workload}: failing or repeated records: {bad[:5]}", file=sys.stderr)
            return 1
        ref = {"workload": workload, "canonical_sha256": res["canonical_sha256"],
               "python": res["python"], "numpy": res["numpy"], "records": records}
        path = HERE / "ref" / f"{workload}.json"
        path.write_text(json.dumps(ref, indent=0, sort_keys=True) + "\n")
        print(f"{workload}: {len(records)} records, {res['wall_s']:.1f} s -> {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
