"""Smoke test of the benchmark itself on a tiny slice of each workload.

    python3 -m pytest bench/test_bench.py

It checks that every metric named in BENCHMARK.json is printed with its
unit, and that a planted wrong answer is counted as a failed op.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import extraspecial.cli  # noqa: E402
import extraspecial.cohomology  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)

SMALL = ("gamma:10 over", "j:10 over", "h2n:4:2 over")
BUILD = workloads.build


def _tiny(name: str, seed: int, trace: bool = False):
    """The workload with a short pass that still has the 11 ops a tail needs."""
    wl = BUILD(name, seed, trace)
    if name == "sweep":
        wl.argv = ["verify-theorems", "--max-n", "3", "--dim-cap", "4", "--lambdas=-1,2,3,5"]
    elif name == "cover-large":
        wl.ops = [op for op in wl.ops if any(k in op.label for k in SMALL)][:12]
    elif name == "cli":
        wl.ops = [op for op in wl.ops if "doc2" not in " ".join(op.argv)][:14]
    else:
        wl.ops = [op for op in wl.ops if "GF(100003)" not in op.label][:12]
    return wl


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(run, "IMPORT_SAMPLES", 1)
    monkeypatch.setattr(workloads, "build", _tiny)


def _expected(trace: bool) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_metric_is_printed_with_its_unit(tiny, name, trace):
    result, report = run.run(name, seed=3, seconds=0.1, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 11
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == _expected(trace)
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert report["seed"] == 3 and report["inputs"] and report["python"]
    assert report["failed_frac"] == 0


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_a_planted_wrong_answer_raises_failed_frac(tiny, monkeypatch, name):
    real = extraspecial.cohomology.multiplier_dim
    wrong = lambda a, theory: real(a, theory) + 1  # noqa: E731
    monkeypatch.setattr(extraspecial.cohomology, "multiplier_dim", wrong)
    monkeypatch.setattr(extraspecial.cli, "multiplier_dim", wrong)
    result, report = run.run(name, seed=3, seconds=0.1, trace=False)
    assert not result["correct"]
    assert result["failed"] > 0
    assert report["failed_frac"] == result["failed"] / result["attempted"] > 0


def test_tail_is_the_rank_with_ten_ops_of_a_pass_beyond_it():
    lat = [float(i) for i in range(1, 31)]
    assert run.tail_latency(lat) == (20.0, 100 * 20 / 30)
    with pytest.raises(ValueError):
        run.tail_latency(lat[:10])


def test_each_op_keeps_its_median_latency_over_passes():
    passes = [[3.0, 1.0, 2.0], [1.0, 4.0, 2.5], [2.0, 5.0, 9.0]]
    assert run.median_per_op(passes) == [2.0, 4.0, 2.5]


def test_a_time_is_scaled_by_the_reference_samples_around_it():
    nominal = hostspeed.NOMINAL_S
    assert hostspeed.scale(nominal, nominal) == pytest.approx(1.0)
    assert hostspeed.scale(0.01, 0.03) == pytest.approx(nominal / 0.02)


def test_a_checkout_without_sources_exits_nonzero(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", str(tmp_path / "src"))
    assert run.main(["--workload", "sweep", "--seed", "1"]) == 2
