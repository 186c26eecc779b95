"""Outputs do not depend on string hashing.

The search keeps the printed forms each (point, operator) pair has tried
in sets of strings, whose iteration order follows Python's hash seed.  No
output may: the same bench or repair command run under two values of
PYTHONHASHSEED must write the same bytes.
"""

import os
import subprocess
import sys
from pathlib import Path

import minirepair
from minirepair.presets import PRESET_NAMES

from conftest import CORPUS, corpus_bug_names

SRC = Path(minirepair.__file__).resolve().parent.parent


def run_cli(args, hash_seed, out):
    """`python -m minirepair.cli <args> --out <out>` under `hash_seed`;
    returns the bytes of every file it wrote, by name."""
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-m", "minirepair.cli", *args, "--out", str(out)],
                   env=env, check=True, capture_output=True)
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def test_bench_csv_does_not_depend_on_the_hash_seed(tmp_path):
    args = ["bench", str(CORPUS), "--modes", ",".join(PRESET_NAMES), "--seeds", "1,2"]
    first = run_cli(args, 0, tmp_path / "0")
    assert set(first) == {"bench.csv", "summary.csv"}
    assert first["bench.csv"].count(b"\n") == 1 + len(corpus_bug_names()) * len(PRESET_NAMES) * 2
    assert run_cli(args, 1, tmp_path / "1") == first


def test_repair_report_and_patches_do_not_depend_on_the_hash_seed(tmp_path):
    args = ["repair", str(CORPUS / "audit-scope"), "--mode", "cardumen", "--seed", "1"]
    first = run_cli(args, 0, tmp_path / "0")
    assert "report.json" in first and any(name.endswith(".patch") for name in first)
    assert run_cli(args, 1, tmp_path / "1") == first
