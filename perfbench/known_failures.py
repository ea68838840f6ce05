"""Known failing operation of the return_sets layer mix, run on its own.

    python3 perfbench/known_failures.py

``return_support(top, second, -h_5, h_5)`` on the vl family GeometricR(6, 2)
(stage-2 top and second levels) ends in ``LiftError`` once the engine's walk
exceeds its state cap, after about 10 s and 1 GB of memory at the recording
commit. It is kept out of the timed return_sets pass: a single such call
would take the whole pass and most of the machine's memory, and the timed
workloads must issue only operations that succeed. This script keeps it
visible: it issues the operation once and reports it as failed or not, with
its time and peak memory. When a change makes it succeed, move it into the
return_sets stream.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from cutstack import tower, vl
    from cutstack.errors import CutstackError

    fam = vl.VlFamily(vl.VlSpec(2, vl.GeometricR(6, 2)))
    n = 2
    top = tower.LevelSet.level(fam, n, fam.height(n) - 1)
    second = tower.LevelSet.level(fam, n, fam.height(n) - 2)
    h5 = fam.height(5)
    t0 = time.perf_counter()
    try:
        result = tower.return_support(top, second, -h5, h5)
        outcome = f"ok, {len(result.runs)} runs"
        failed = 0
    except CutstackError as exc:
        outcome = f"{type(exc).__name__}: {exc}"
        failed = 1
    seconds = time.perf_counter() - t0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"return_support(top, second, -h_5, h_5) on GeometricR(6, 2): {outcome}")
    print(f"failed_frac = {failed}/1, {seconds:.2f} s, peak_rss_mb = {rss:.0f}")
    print(json.dumps({"attempted": 1, "failed": failed, "seconds": seconds,
                      "peak_rss_mb": rss, "outcome": outcome}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
