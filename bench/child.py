"""One benchmark round in a fresh interpreter.

    python3 bench/child.py '{"workload": ..., "seed": ..., "size": {...},
                             "traced": false, "trace_out": null}'

Prints the round's record as one JSON line.  The start time is taken,
and the speed probes started, before the system under test is imported,
so ``setup_s`` includes importing it.
"""

import json
import sys
import time
from pathlib import Path

if __name__ == "__main__":
    t0 = time.perf_counter()
    from hostclock import SteadyClock

    clock = SteadyClock()
    clock.start()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from workloads import run_round

    args = json.loads(sys.argv[1])
    record = run_round(args["workload"], args["seed"], args["size"],
                       args["traced"], args.get("trace_out"), clock, t0)
    clock.stop()
    print(json.dumps(record))
