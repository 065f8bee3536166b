"""Failure restoration on a 4-node cycle: measured backup versus saturation.

A single pinned 0->2 session rides the primary [0,1,2] while probes measure
the disjoint detour [0,3,2].  Link 0-1 fails mid-session.  With the detour
idle the probes report blocking 0 and every seeded run restores onto it;
with the detour's channels pre-saturated the probes report blocking 1 and
every run drops the session instead.
"""

import argparse

from wdmsim.engine import ROUTER_RFTR, SimConfig, Simulation
from wdmsim.topology import parse_topology

SQUARE = """\
nodes 4
link 0 1 10 8
link 1 2 10 8
link 2 3 10 8
link 3 0 10 8
"""


def scripted_run(seed: int, saturate: bool):
    topo = parse_topology(SQUARE)
    if saturate:
        for link_id in (2, 3):  # both lanes of the [0,3,2] detour
            link = topo.links[link_id]
            for lane in (0, 1):
                for w in range(link.total_channels):
                    link.occupy(lane, w)
    cfg = SimConfig(arrival_rate=50.0, max_requests=1, seed=seed,
                    failures=[(1.0, 0)], router=ROUTER_RFTR)
    sim = Simulation(cfg, topology=topo, audit=True)
    sim.arrivals = [(t, 0, 2, 50.0) for (t, _, _, _) in sim.arrivals]
    return sim.run()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=50, help="number of seeded runs")
    args = parser.parse_args()
    if args.seeds < 1:
        parser.error(f"--seeds must be >= 1, got {args.seeds}")

    for label, saturate in (("idle detour", False), ("saturated detour", True)):
        restored = dropped = packs = nacks = 0
        for seed in range(args.seeds):
            report = scripted_run(seed, saturate)
            restored += report.restored
            dropped += report.dropped
            packs += report.probe_packs
            nacks += report.probe_nacks
        print(f"{label:<18} restored {restored}/{args.seeds}  "
              f"dropped {dropped}/{args.seeds}  "
              f"probe feedback {packs} pack / {nacks} nack")


if __name__ == "__main__":
    main()
