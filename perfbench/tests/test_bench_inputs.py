"""Seeded inputs, the metric names promised in BENCHMARK.json, and the
refusal to run without the library sources."""

import json
import os
import shutil
import subprocess
import sys

import layers
from conftest import BENCH, ROOT
from workloads import WORKLOADS


def test_same_seed_same_inputs_other_seed_other_inputs(tmp_path):
    for name, cls in WORKLOADS.items():
        digests = []
        for k, seed in enumerate((5, 5, 6)):
            d = tmp_path / f"{name}{k}"
            d.mkdir()
            digests.append(cls(seed, str(d)).digest())
        assert digests[0] == digests[1] != digests[2], name


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "op_s", "peak_rss_mb"}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.units()
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
