"""One benchmark pass in a fresh interpreter, so every cache starts cold.

Usage: python3 perfbench/child.py '<json spec>'

The child imports the package from the checkout's src/ and loads the packaged
catalog (the set-up every CLI call pays), then prints "ready" so the parent
can time set-up from process start.  A probe stops there.  Otherwise it runs
one pass of the workload and prints the pass record as one JSON line.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repulse
    from repulse import catalog

    if not Path(repulse.__file__).resolve().is_relative_to(src):
        print(f"child: imported repulse from {repulse.__file__}, not {src}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    cat = catalog.load_catalog()
    load_s = time.perf_counter() - t0
    print(f"ready {time.clock_gettime(time.CLOCK_MONOTONIC)!r}", flush=True)
    if spec.get("probe"):
        return 0

    import workloads

    record = workloads.run_pass(spec["workload"], spec["params"], spec["trace"], cat,
                                spec.get("spans_path"))
    if "layers" in record:
        record["layers"]["catalog.load_s"] = load_s
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
