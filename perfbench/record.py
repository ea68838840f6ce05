"""Record the expected answers of the default seed.

    python3 perfbench/record.py [workload ...]

Runs the first RECORD[workload] queries of the default-seed stream and writes
the digest of each exact answer (see check.canonical) to
perfbench/expected/<workload>.json. Run it from the repository root, on the
commit whose answers are taken as correct; the checker compares later runs
against these files byte for byte.
"""

from __future__ import annotations

import json
import sys
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from check import EXPECTED_DIR, Checker, digest, expected_path  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, build_workload, reset_outputs  # noqa: E402

# About the number of queries one 20 s pass issues at the recording commit
# (fewer for deep_shift, whose later queries the independent routes cover).
RECORD = {"deep_shift": 10_000, "wide_sets": 800, "return_sets": 800,
          "cli_session": 2_000}


def record(name: str) -> None:
    reset_outputs(name)
    wl = build_workload(name, DEFAULT_SEED)
    checker = Checker(wl, [])
    digests = []
    for q in islice(wl.queries, RECORD[name]):
        result = q.run()
        checker.observe(q, result, None)
        digests.append(digest(q, result))
    checker.finish()
    if checker.failures:
        raise SystemExit(f"{name}: refusing to record, checks failed: "
                         f"{sorted(checker.failures.items())[:5]}")
    EXPECTED_DIR.mkdir(exist_ok=True)
    doc = {"workload": name, "seed": DEFAULT_SEED, "count": len(digests),
           "digests": digests}
    expected_path(name).write_text(json.dumps(doc, indent=0) + "\n", encoding="utf-8")
    print(f"{name}: recorded {len(digests)} answers")


if __name__ == "__main__":
    import cutstack.cli  # noqa: F401  (the CLI workload calls it by module name)
    for name in sys.argv[1:] or WORKLOADS:
        record(name)
