"""Tests of the benchmark itself: names, configurations, seeding, smoke runs."""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from pb_harness import E2E_METRICS, LAYER_METRICS, Phase, _steal_fit, run_workload  # noqa: E402
from pb_workloads import WORKLOADS  # noqa: E402
from repro.core import TrainingConfig  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_metric_names_and_units_are_valid():
    for name, unit in {**E2E_METRICS, **LAYER_METRICS}.items():
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), (name, unit)
    assert not set(E2E_METRICS) & set(LAYER_METRICS)


def test_benchmark_json_matches_the_code():
    spec = _benchmark_json()
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (workload.name, workload.why) for workload in WORKLOADS.values()
    ]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_METRICS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_METRICS
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_config_constructs_and_chunks_whole_periods(name):
    workload = WORKLOADS[name]
    assert isinstance(workload.config, TrainingConfig)
    factory, shards = workload.make_task(0)
    with workload.trainer_cls(factory, shards, workload.config) as trainer:
        period = (
            trainer.iterations_per_round
            if workload.algorithm == "fl-gan"
            else trainer.swap_period
        )
    assert period > 0 and workload.config.iterations % period == 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seed_changes_the_data_but_not_the_config(name):
    workload = WORKLOADS[name]
    factory_a, shards_a = workload.make_task(1)
    factory_b, shards_b = workload.make_task(2)
    _, shards_again = workload.make_task(1)
    assert factory_a.parameter_counts() == factory_b.parameter_counts()
    assert [len(s) for s in shards_a] == [len(s) for s in shards_b]
    assert not np.array_equal(shards_a[0].images, shards_b[0].images)
    for first, again in zip(shards_a, shards_again):
        assert np.array_equal(first.images, again.images)
    with workload.trainer_cls(factory_a, shards_a, workload.config) as trainer_a:
        with workload.trainer_cls(factory_b, shards_b, workload.config) as trainer_b:
            assert trainer_a.config == trainer_b.config
            assert trainer_a.history.config == trainer_b.history.config


def _synthetic_phase(shares):
    """A phase whose throughput is 100/s less 200/s per unit of steal share."""
    marks, times = [(0, 0.0, 0, 0, 0.0)], []
    now, count, stolen, ticks, cpu = 0.0, 0, 0, 0, 0.0
    for share in shares:
        rate = 100.0 - 200.0 * share
        done = max(1, round(rate * 0.25))
        times.extend(now + (i + 1) / rate for i in range(done))
        now, count = times[-1], count + done
        stolen, ticks = stolen + round(share * 50), ticks + 50
        cpu += done * 0.01 * (1.0 + share)
        marks.append((count, now, stolen, ticks, cpu))
    return Phase(times=times, start=0.0, end=now, cpu_s=cpu, marks=marks)


def test_steal_fit_recovers_the_figures_at_zero_steal():
    shares = np.random.default_rng(0).uniform(0.0, 0.3, size=40)
    fit = _steal_fit(_synthetic_phase(shares))
    assert fit.rate == pytest.approx(100.0, rel=0.03)
    assert fit.cpu_s_per_iter == pytest.approx(0.01, rel=0.03)
    assert np.median(fit.gaps_ms) == pytest.approx(10.0, rel=0.05)
    assert fit.slope < 0


def test_steal_fit_keeps_raw_figures_without_steal_variation():
    phase = _synthetic_phase([0.0] * 20)
    fit = _steal_fit(phase)
    assert fit.rate == phase.iters / phase.duration
    assert fit.slope == 0.0


@pytest.mark.slow
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_runs_emit_every_metric_and_repeat_bitwise(name, tmp_path):
    workload = WORKLOADS[name]
    plain = run_workload(workload, seed=3, seconds=0.1, setup_reps=2)
    spans = tmp_path / "spans.jsonl"
    traced = run_workload(
        workload, seed=3, seconds=0.1, trace=True, setup_reps=2, trace_path=str(spans)
    )
    for result, names in ((plain, E2E_METRICS), (traced, LAYER_METRICS)):
        assert result.correct, result.info["problems"]
        assert result.failed == 0 and result.attempted > 0
        assert list(result.metrics) == list(names)
        assert all(math.isfinite(value) for value, _ in result.metrics.values())
    assert plain.metrics["ok_iter_share"][0] == 1.0
    assert plain.metrics["iters_per_s"][0] > 0
    # Same seed, same loss series: the parity contract of a sync workload.
    assert plain.info["loss_digest"] == traced.info["loss_digest"]
    lines = spans.read_text().splitlines()
    assert "span_fields" in json.loads(lines[0]) and len(lines) > 1
    name_, start, end, parent, iteration = json.loads(lines[1])
    assert end >= start and parent >= -1 and iteration >= 0


def _run_cli(cwd, *args):
    """Run the CLI in a session of its own; return its result and what it left running."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    process = subprocess.Popen(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    stdout, stderr = process.communicate(timeout=170)
    out = subprocess.CompletedProcess(process.args, process.returncode, stdout, stderr)
    return out, _session_members(process.pid)


def _session_members(sid):
    """Pids of the processes in session ``sid``, zombies included (never waited for)."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid:
            members.append(int(entry))
    return members


@pytest.mark.slow
def test_cli_prints_the_result_line_last():
    out, left = _run_cli(
        ROOT, "--workload", "flgan-toy-pipe", "--seed", "5", "--seconds", "0.1", "--trace", "0"
    )
    assert out.returncode == 0, out.stderr
    assert left == [], "the run left processes behind (slots or the shm resource tracker)"
    line = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert {name: m["unit"] for name, m in line["metrics"].items()} == E2E_METRICS


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out, _ = _run_cli(
        tmp_path, "--workload", "flgan-toy-pipe", "--seed", "1", "--seconds", "1", "--trace", "0"
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
