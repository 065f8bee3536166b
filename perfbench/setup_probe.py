"""Time one workload's set-up in a fresh interpreter and print the seconds.

Set-up is what runs before the first event is dispatched: importing the
given modules, ``parse_config``, the topology build and ``Simulation(...)``
construction, which pre-generates the arrivals.  Importing the benchmark's
own ``workloads`` module is excluded.  It prints the seconds and then this
host's rate on the calibration loop, measured right after in the same
process.

    python3 perfbench/setup_probe.py <workload> <seed> wdmsim [wdmsim.cli]
"""

import importlib
import sys
import time

import srcpath

RATE_BLOCK_S = 0.1


def main() -> None:
    srcpath.use_source_tree()
    name, seed, *modules = sys.argv[1:]
    start = time.perf_counter()
    for module in modules:
        importlib.import_module(module)
    imported = time.perf_counter()
    import workloads

    begin = time.perf_counter()
    workloads.setup(workloads.WORKLOADS[name], int(seed))
    seconds = imported - start + time.perf_counter() - begin
    import calibrate

    print(seconds, calibrate.rate(RATE_BLOCK_S))


if __name__ == "__main__":
    main()
