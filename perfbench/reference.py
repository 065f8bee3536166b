"""Reference-count check: reproduce the event and probe counts ROADMAP records.

Scenario: default mesh, 8 wavelengths, ``arrival_rate = 4``, 4 sources,
``holding_time = 0.5``, 5000 requests, seed 1, no failures.  Counts come from
wrapping ``Simulation.schedule``.  The counts describe today's event model;
a change that removes events on purpose (ROADMAP 4f) updates them here.

    python3 perfbench/reference.py      # exit status 1 on any mismatch
"""

import sys

import srcpath

srcpath.use_source_tree()

import wdmsim  # noqa: E402

import layers  # noqa: E402
import tracer  # noqa: E402

CONFIG = """\
wavelengths = 8
arrival_rate = 4
holding_time = 0.5
session_traffics = 4
max_requests = 5000
seed = 1
router = {router}
"""

EXPECTED = {
    "rftr": {"events": 381_415, "probes_sent": 141_030},
    "baseline": {"events": 10_617, "probes_sent": 0},
}


def reference_counts(router: str) -> dict:
    config = wdmsim.parse_config(CONFIG.format(router=router)).base
    with tracer.Tracer([layers.EVENT_COUNTER]) as tr:
        report = wdmsim.Simulation(config).run()
    return {"events": tr.counts()["engine.events"], "probes_sent": report.probes_sent}


def main() -> int:
    srcpath.check_imported(wdmsim)
    status = 0
    for router, expected in EXPECTED.items():
        got = reference_counts(router)
        verdict = "ok" if got == expected else "MISMATCH"
        status |= got != expected
        print(f"{router:<9} events {got['events']:>7} (expected {expected['events']}) "
              f"probes_sent {got['probes_sent']:>7} (expected {expected['probes_sent']}) {verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main())
