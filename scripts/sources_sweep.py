"""Blocking versus number of concurrent traffic sources, both routers.

Each source adds 4 calls/s of offered load, so the {1, 2, 3, 4} sweep
quadruples the aggregate arrival rate across its range; with 2 wavelengths
per link the blocking curves rise visibly and the threshold-cost router
stays below the shortest-hop baseline throughout.

Every run starts from an empty network and lasts 100 requests, so the
figures include the empty-network transient.  Against 2,000-request runs
this understates blocking at 4 sources by about 20 % for the threshold-cost
router (0.060 against 0.075) and about 3 % for the baseline, which flatters
the router under study.
"""

import argparse
from pathlib import Path

from wdmsim.cli import run_scenario
from wdmsim.config import parse_config
from wdmsim.errors import SimError

CONFIG = """\
name = sources-sweep
router = both
sweep = sources 1,2,3,4
wavelengths = 2
arrival_rate = 4.0
holding_time = 0.5
max_requests = 100
"""


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="out/sources_sweep", help="output directory")
    parser.add_argument("--seeds", type=int, default=20, help="number of seeds")
    args = parser.parse_args()

    scenario = parse_config(CONFIG)
    scenario.seeds = list(range(args.seeds))
    try:
        result = run_scenario(scenario, Path(args.out))
    except SimError as err:
        parser.error(str(err))

    print(f"{'scenario':<28} {'blocking':>9} {'utilization':>12}")
    for row in result.aggregate_rows:
        print(f"{row['scenario']:<28} {row['blocking_probability']:>9.4f} "
              f"{row['mean_utilization']:>12.4f}")
    print(f"\nartifacts in {result.out_dir}")


if __name__ == "__main__":
    main()
