"""Blocking and throughput versus per-session traffic rate, both routers.

Runs the {2, 4, 6, 8} Mb/s sweep under a capacity-tight variant of the stock
scenario (2 wavelengths per link, 6 calls/s, 0.5 s mean holding) so blocking
is visible, and writes summary.csv / runs.csv / per-run time series under
--out.  The per-session rate feeds the packet throughput metric; occupancy,
and therefore blocking, is set by the arrival process, so the blocking
column is flat across rates while packets_received scales.

Every run starts from an empty network and lasts 120 requests, so the
figures include the empty-network transient and understate steady-state
blocking; on the sources sweep the same transient hides about 20 % of the
threshold-cost router's blocking and about 3 % of the baseline's.
"""

import argparse
from pathlib import Path

from wdmsim.cli import run_scenario
from wdmsim.config import parse_config
from wdmsim.errors import SimError

CONFIG = """\
name = rate-sweep
router = both
sweep = rate 2,4,6,8
wavelengths = 2
arrival_rate = 6.0
holding_time = 0.5
max_requests = 120
"""


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="out/rate_sweep", help="output directory")
    parser.add_argument("--seeds", type=int, default=20, help="number of seeds")
    parser.add_argument("--workers", type=int, default=4)
    args = parser.parse_args()

    scenario = parse_config(CONFIG)
    scenario.seeds = list(range(args.seeds))
    try:
        result = run_scenario(scenario, Path(args.out), workers=args.workers)
    except SimError as err:
        parser.error(str(err))

    print(f"{'scenario':<24} {'blocking':>9} {'packets':>9} {'delay_ms':>9}")
    for row in result.aggregate_rows:
        print(f"{row['scenario']:<24} {row['blocking_probability']:>9.4f} "
              f"{row['packets_received']:>9.0f} {row['mean_delay'] * 1e3:>9.2f}")
    print(f"\nartifacts in {result.out_dir}")


if __name__ == "__main__":
    main()
