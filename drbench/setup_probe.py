"""Set-up probe: one fresh interpreter's set-up cost for a workload.

Times ``import repro.api`` plus building the workload's first system
(or fabric), before any cycle steps.  Making the workload's inputs is
not timed.  The time is scaled to the reference host speed by
calibration runs just before and after it (``hostspeed.py``), and
printed as the last line.

    python3 drbench/setup_probe.py <workload> <seed>
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hostspeed import Calibrator, scale  # noqa: E402
from workloads import WORKLOADS  # noqa: E402  (imports no program code)


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    calibrate = Calibrator()
    calibrate()  # the first run pays allocator warm-up
    before = calibrate()
    t0 = time.perf_counter()
    import repro.api  # noqa: F401

    imported = time.perf_counter() - t0
    workload = WORKLOADS[name](seed, Path(__file__).resolve().parent / ".work")
    t1 = time.perf_counter()
    workload.build_first()
    raw = imported + time.perf_counter() - t1
    calibrate()  # the first run after the imports is slowed by them
    after = calibrate()
    print(raw, raw * scale(before, after))


if __name__ == "__main__":
    main()
