"""The stock studies under ``studies/``: each is a scenario file ``wdmsim sweep`` runs."""

import ast
from dataclasses import replace
from pathlib import Path

import pytest

from wdmsim.config import parse_config, validate_scenario

ROOT = Path(__file__).resolve().parents[1]
STUDIES = sorted((ROOT / "studies").glob("*.cfg"))


def study(name):
    return parse_config((ROOT / "studies" / name).read_text(encoding="utf-8"))


def test_both_stock_studies_are_there():
    assert [path.name for path in STUDIES] == ["rate.cfg", "sources.cfg"]


@pytest.mark.parametrize("path", STUDIES, ids=lambda path: path.name)
def test_study_is_valid_with_twenty_seeds(path):
    scenario = study(path.name)
    assert scenario.seeds == list(range(20))
    assert validate_scenario(scenario) == []


def test_benchmark_sources_sweep_is_the_sources_study():
    # the benchmark keeps its own copy of the text; read it, without importing or
    # changing the harness, and hold it to the study file, seeds set aside
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8"))
    text = next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["SOURCES_SWEEP"])
    assert replace(parse_config(text), seeds=[]) == replace(study("sources.cfg"), seeds=[])
