"""Golden corpus: small scenarios run end to end, every CSV pinned by sha256.

Each scenario goes through ``cli.run_scenario``, as ``wdmsim sweep`` runs it,
and every file it writes must hash to the committed value.  Between them the
scenarios cover both routers, both conversion modes, 2 and 8 wavelengths,
failures with repairs (one link failing twice), baseline restorations that are
later dropped, ``adaptive_scale``, ``backups_m = 1``, a rate sweep and a
topology file.  A change that means to keep behaviour leaves every pin as it
is; one that means to change it re-pins in the same change and says why.
"""

from __future__ import annotations

import hashlib

import pytest

from wdmsim.cli import run_scenario
from wdmsim.config import parse_config
from wdmsim.metrics import MetricsCollector

# a 5-node ring with two chords, 4 wavelengths per link
TOPOLOGY = """\
nodes 5
link 0 1 5 4
link 1 2 5 4
link 2 3 5 4
link 3 4 5 4
link 4 0 5 4
link 0 2 8 4
link 1 3 8 4
"""

# name -> (config text, {file name: sha256 of its bytes})
SCENARIOS: dict[str, tuple[str, dict[str, str]]] = {}


def _pin(name: str, text: str, pins: dict[str, str]) -> None:
    SCENARIOS[name] = (f"name = {name}\n{text}", pins)


_pin("rftr-8", """
router = rftr
arrival_rate = 3.0
holding_time = 0.5
max_requests = 200
seeds = 1, 2
""", {
    "runs.csv":
        "3cf0fecc5e96883de47c545dc935c2ec3480d73f4ede9e2462b2f56f7df1fccf",
    "summary.csv":
        "9614e98ea31100912d1311880e2458050e08c5f2b019b81fb089183cc29ee7bb",
    "timeseries_rftr-8-rftr-seed1.csv":
        "f82abc68e737afdeed330d80200e962efe6c38d475754deca8cb4c78b708d27a",
    "timeseries_rftr-8-rftr-seed2.csv":
        "f50d26c36d7314a6d20501bb65cfa9ba669e9cf1b85c4dcea6b0fc8c8945a948",
})

_pin("baseline-8", """
router = baseline
arrival_rate = 3.0
holding_time = 0.5
max_requests = 200
seeds = 1, 2
""", {
    "runs.csv":
        "2a95a7a00fac21ec567d76c9434921b1aac8efddd21d1ab96349dbe52965877b",
    "summary.csv":
        "f1f1c1a9c7fe66841324d8601785460e021811c3a8fe28cf56929d42dc6e8dac",
    "timeseries_baseline-8-baseline-seed1.csv":
        "7c9d64c6e5e8cca8316abcac454200e7da2bee551d578ed489574357f21dfae3",
    "timeseries_baseline-8-baseline-seed2.csv":
        "9867dd422c43f868e19d46df9a838076f09dcc534f2ac9b361d72fa817ae3218",
})

_pin("both-2-full", """
router = both
wavelengths = 2
conversion_mode = full
arrival_rate = 4.0
holding_time = 0.5
max_requests = 200
seeds = 3
""", {
    "runs.csv":
        "0c21fddb04e292d0f7494e70a1a34afe5dffae5f876e67df4a1742d84150b65f",
    "summary.csv":
        "9752ba8ca99324fab042b390d470e9030d025662dc0582731604e6b213055a52",
    "timeseries_both-2-full-baseline-seed3.csv":
        "0628b091a4cab3a9f2e90b1022ea2fed3625dd8429b9709e4624308aa8be1660",
    "timeseries_both-2-full-rftr-seed3.csv":
        "b1f6791631b91253f994e817935a88b50154952fb55a4863689935011bd9c875",
})

_pin("both-failing-twice", """
router = both
wavelengths = 2
arrival_rate = 4.0
holding_time = 0.5
max_requests = 300
seeds = 1, 2
failures = 1.0:3, 2.0:8, 3.0:3, 5.0:0
repairs = 1.5:3, 4.0:8, 6.0:0
""", {
    "runs.csv":
        "53f62e3e58a1ade7f611276b1f20b6305cfce4f4da6a42a0f20cd2e2a2aab8ce",
    "summary.csv":
        "8aad6cfa6a9b4dc6972e508eeca7ad28d2351a4cf10d72ea3ed08e799e1d33fd",
    "timeseries_both-failing-twice-baseline-seed1.csv":
        "be998a79b541e3a264414f6f095019b9f8e0642536e4289eef889d47824aef00",
    "timeseries_both-failing-twice-baseline-seed2.csv":
        "777ec8a53341fd3c8836f2316e643960e1f1cc87de7230f7e4dbcd302f9d31f8",
    "timeseries_both-failing-twice-rftr-seed1.csv":
        "6bb4d5542f41999812cb851ecb491275c829a5087ef079f0ae74a40ec3498326",
    "timeseries_both-failing-twice-rftr-seed2.csv":
        "1f8846cd74227735c7d24a632a7fd42da0d7862d53c9e15d846d896a9f878d16",
})

_pin("both-full-failures", """
router = both
wavelengths = 2
conversion_mode = full
arrival_rate = 4.0
holding_time = 0.5
max_requests = 300
seeds = 4
failures = 1.0:3, 2.0:8, 3.0:3
repairs = 1.5:3, 4.0:8
""", {
    "runs.csv":
        "fdc3a7828add763ec5d12fd3682284d5d493513d1d7e0a48477d1e9c6f7abaf5",
    "summary.csv":
        "9501f63c5b6943d3f16f223a8e576cb78fe78af14f6ed6a9b629a961b4be69a1",
    "timeseries_both-full-failures-baseline-seed4.csv":
        "49481407dbd43cf8c7692d8be45c7ab50f280ac8538643aa3f2f13de251cd3d9",
    "timeseries_both-full-failures-rftr-seed4.csv":
        "0581e1d25f9a6a20d470bd4d81ebf05552b01b9a1af3010f9fa4e67ada2c4533",
})

_pin("baseline-sweep-restored-dropped", """
router = baseline
wavelengths = 2
arrival_rate = 4.0
holding_time = 2.0
max_requests = 300
seeds = 1, 2
sweep = sources 2, 4
failures = 2.0:3, 2.5:8, 3.0:0, 3.5:5, 4.0:1
repairs = 2.8:3, 5.0:8, 8.0:0
""", {
    "runs.csv":
        "355d0220cf31c68119671cbe374a6713297203bfda4cb4185d660f6df5115d1c",
    "summary.csv":
        "c6e166a95bc0c164269ab345e55e0cb3109cb3853dd5565fb9dd0496854a9f8d",
    "timeseries_baseline-sweep-restored-dropped-baseline-sources2-seed1.csv":
        "456e52c15251c1f43157bff22af4e3c8e602539a095aa3a32bda57fe6d7f65d1",
    "timeseries_baseline-sweep-restored-dropped-baseline-sources2-seed2.csv":
        "1d86b9227518733563c582f6e00545a172290998c7c1f99a4ec68e962431af47",
    "timeseries_baseline-sweep-restored-dropped-baseline-sources4-seed1.csv":
        "35d9ede6574f249c2f00abbc23e4fa0cd1c82a31797f1bd7e80d1c9da50e9978",
    "timeseries_baseline-sweep-restored-dropped-baseline-sources4-seed2.csv":
        "75f61ae6efc0ee7f9be015ea1bb1cba314b2238efe148bedf8fdba9d0233ce38",
})

_pin("rftr-adaptive", """
router = rftr
adaptive_scale = 0.3
arrival_rate = 4.0
holding_time = 0.5
max_requests = 200
seeds = 5
failures = 2.0:1
repairs = 3.0:1
""", {
    "summary.csv":
        "0c71e47ed16d4df89a87f3f03273a4d8717a3c92405752fa1468359689d4b7e8",
    "timeseries_rftr-adaptive-rftr-seed5.csv":
        "8d3fc60732c4620e58d556613dc5fea7ab86fb450f87bc4574d8b421b2e87ef2",
})

_pin("rftr-one-backup", """
router = rftr
backups_m = 1
wavelengths = 2
arrival_rate = 4.0
holding_time = 0.5
max_requests = 200
seeds = 6
failures = 1.0:3, 2.0:3
repairs = 1.5:3
""", {
    "summary.csv":
        "f125363e5fa36246503d251059a2d90f329b906c85ab983a15f270c2eae06315",
    "timeseries_rftr-one-backup-rftr-seed6.csv":
        "934b160da92b3c5dfd871310032cb0d03f967754548dc5d16d21c51845845cf3",
})

_pin("both-rate-sweep", """
router = both
wavelengths = 4
arrival_rate = 2.0
max_requests = 100
seeds = 7
sweep = rate 1, 4
""", {
    "runs.csv":
        "29f12d518926863f4cd1615cb66e7f416f688a922991ca86138f532b2954c75c",
    "summary.csv":
        "e564ddafdcdd3cf5ee8113cb92a69fce2833115ebb959a0267eeb4b9f378456f",
    "timeseries_both-rate-sweep-baseline-rate1-seed7.csv":
        "b6a34458be4744143e401d9f709daad67e3ea8bce11811069308d9834cb2ca10",
    "timeseries_both-rate-sweep-baseline-rate4-seed7.csv":
        "0a9663fe6ffda5bbfd982444efd8d8abb99baf809a3ee8558d79207551beb935",
    "timeseries_both-rate-sweep-rftr-rate1-seed7.csv":
        "6611474d42793f2f6a2bee4b11d6407f973d54fa2e76bb597e2c4ddae2d84b01",
    "timeseries_both-rate-sweep-rftr-rate4-seed7.csv":
        "662389fe7610d94bce3ecbe5d26055485e0b0a65704f6d48dc83b649921f02e5",
})

_pin("both-topology-file", """
router = both
arrival_rate = 3.0
holding_time = 0.5
max_requests = 200
seeds = 8
failures = 1.0:5, 2.0:1
repairs = 3.0:5
""", {
    "runs.csv":
        "89bc4c147ee28fc77fd2b23cde3b6d3f62c1729c35e90f9feb030e20dc84148e",
    "summary.csv":
        "fdae4e044ea5bd33526635aeb07b22cd1ec02370ea47578bbb96704dee1967e8",
    "timeseries_both-topology-file-baseline-seed8.csv":
        "592f097335e81446f5ad16b3df068536a0d78c13553b166098169c897b55d580",
    "timeseries_both-topology-file-rftr-seed8.csv":
        "ca8e04dc0e9de6e187cc725d1797e7ab3428a10c587fdcef764e60ad8c3e13c5",
})


def run_corpus_scenario(name: str, tmp_path):
    """Run one scenario into ``tmp_path / "out"``; returns (result, {file: sha256})."""
    text, _ = SCENARIOS[name]
    if name == "both-topology-file":
        topo = tmp_path / "ring5.topo"
        topo.write_text(TOPOLOGY, encoding="utf-8")
        text += f"topology = {topo}\n"
    result = run_scenario(parse_config(text), tmp_path / "out")
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted((tmp_path / "out").iterdir())}
    return result, digests


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_corpus_scenario_writes_the_pinned_bytes(name, tmp_path):
    _, digests = run_corpus_scenario(name, tmp_path)
    assert digests == SCENARIOS[name][1]


def test_corpus_baseline_restores_and_later_drops(tmp_path, monkeypatch):
    """In the baseline sweep a later failure drops connections an earlier one restored."""
    dropped_after_restore = []
    on_dropped = MetricsCollector.on_dropped

    def spy(self, conn, now):
        dropped_after_restore.append(conn.id in self.restored_ids)
        on_dropped(self, conn, now)

    monkeypatch.setattr(MetricsCollector, "on_dropped", spy)
    run_corpus_scenario("baseline-sweep-restored-dropped", tmp_path)
    assert any(dropped_after_restore)
