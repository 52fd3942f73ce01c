"""tools/bench_pairs.py: alternating paired runs and their summary."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# a stand-in for bench/run.py: logs its call, prints noise and one JSON line
FAKE_RUN = r"""
import json, os, sys
here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
seed = int(sys.argv[sys.argv.index("--seed") + 1])
with open(os.path.join(here, "..", "calls.log"), "a") as fh:
    fh.write(os.path.basename(here) + "\n")
print("not json")
wall = {"base": 1.0, "change": 0.5}[os.path.basename(here)] + 0.01 * seed
print(json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": {
    "wall_s": {"value": wall, "unit": "s"},
    "peak_rss_mb": {"value": 100.0, "unit": "MiB"}}}))
"""


def _fake_root(tmp_path, name):
    root = tmp_path / name
    (root / "bench").mkdir(parents=True)
    (root / "bench" / "run.py").write_text(FAKE_RUN)
    (root / "BENCHMARK.json").write_text(json.dumps({
        "end_to_end": [{"name": "wall_s", "better": "lower"},
                       {"name": "peak_rss_mb", "better": "lower"}]}))
    return str(root)


def test_pairs_alternate_and_summarize(tmp_path):
    bench_pairs = _load()
    base, change = _fake_root(tmp_path, "base"), _fake_root(tmp_path, "change")
    out = tmp_path / "out"
    out.mkdir()
    assert bench_pairs.main([base, change, "--workload", "w", "--pairs", "4",
                             "--seconds", "1", "--seed", "3", "--name", "t",
                             "--out-dir", str(out)]) == 0
    calls = (tmp_path / "calls.log").read_text().split()
    assert calls == ["base", "change", "change", "base"] * 2
    result = json.loads((out / "BENCH_t.json").read_text())
    assert result["seeds"] == [3, 4, 5, 6]
    assert result["correct"] == {"base": True, "change": True}
    wall = result["metrics"]["wall_s"]
    assert wall["pairs_won"] == {"base": 0, "change": 4}
    assert wall["base"]["median"] == pytest.approx(1.045)
    assert wall["change"]["median"] == pytest.approx(0.545)
    assert wall["base"]["q1"] < wall["base"]["median"] < wall["base"]["q3"]
    assert result["metrics"]["peak_rss_mb"]["pairs_won"] == {"base": 0, "change": 0}
