"""Regenerate perfbench/golden.json: the histogram digest of every job that
has one, at the reference seed, and exact reference values too slow to
compute in each run.  Run from the root of a parkfn checkout:

    python3 perfbench/make_golden.py

For a fixed seed the histograms must never change, so regenerating the
digests is right only when a change of output is intended and explained.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import workloads as wl


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    from parkfn import enumeration

    golden = wl.load_golden() if wl.GOLDEN_PATH.exists() else {}
    if "exact_mean_first_100000" not in golden:
        golden["exact_mean_first_100000"] = repr(float(enumeration.exact_mean_first(100_000)))
        wl.GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")
    golden["reference_seed"] = wl.REFERENCE_SEED
    for name in (*wl.WORKLOADS, "cli"):
        digests = {}
        for job in wl.build(name, tiny=False).jobs:
            if not job.golden:
                continue
            result = job.run(wl.REFERENCE_SEED)
            errors = job.check(result, wl.REFERENCE_SEED)
            if errors:
                print(f"{job.name}: {errors}", file=sys.stderr)
                return 1
            digests[job.name] = job.fingerprint(result)
        if digests:
            golden[name] = digests
    wl.GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
