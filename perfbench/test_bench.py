"""Tests of the benchmark's own code: inputs, metric names, tracer and reference check."""

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bench_trace
import bench_workloads as bw
import run
from ladderxx import core, levelstats, wavefront

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _state_of(inputs: dict):
    """The input values that reach the timed calls, as comparable arrays."""
    out = {}
    for key, value in inputs.items():
        if key == "disorder":
            rows = value if isinstance(value, list) else [value]
            out[key] = np.array([d.fields for d in rows])
        elif key == "states":
            out[key] = np.array(
                [s.amplitudes for kind in value for M in value[kind] for s in value[kind][M]]
            )
        elif key == "basis":
            out[key] = value.states
        elif isinstance(value, np.ndarray | list):
            out[key] = np.asarray(value)
        else:
            out[key] = value
    return out


@pytest.mark.parametrize("workload", sorted(bw.WORKLOADS))
def test_same_seed_same_inputs(workload):
    make_inputs, _ = bw.WORKLOADS[workload]
    a, b = _state_of(make_inputs(5)), _state_of(make_inputs(5))
    assert a.keys() == b.keys()
    for key in a:
        if isinstance(a[key], np.ndarray):
            np.testing.assert_array_equal(a[key], b[key])
        else:
            assert a[key] == b[key]
    # the seed selects input set seed % INPUT_SETS
    c = _state_of(make_inputs(5 + bw.INPUT_SETS))
    for key in a:
        if isinstance(a[key], np.ndarray):
            np.testing.assert_array_equal(a[key], c[key])


@pytest.mark.parametrize("workload", ["wavefront", "decay"])
def test_other_seed_other_draws(workload):
    make_inputs, _ = bw.WORKLOADS[workload]
    a, b = make_inputs(1), make_inputs(2)
    da = a["disorder"] if isinstance(a["disorder"], list) else [a["disorder"]]
    db = b["disorder"] if isinstance(b["disorder"], list) else [b["disorder"]]
    assert da[0].fields != db[0].fields


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    for name in end_to_end + per_layer + [w["name"] for w in spec["workloads"]]:
        assert NAME.fullmatch(name), name
        assert len(name) <= 64
    assert end_to_end == ["wall_s", "setup_s", "peak_rss_mib"]
    assert per_layer == bw.per_layer_metric_names()
    assert [w["name"] for w in spec["workloads"]] == list(bw.WORKLOADS) == list(run.WORKLOAD_NAMES)


def test_tracer_sees_nested_calls_and_restores_bindings():
    originals = {
        (levelstats, "diagonalize"): levelstats.diagonalize,
        (wavefront, "multi_distance_otoc_values"): wavefront.multi_distance_otoc_values,
        (core, "diagonalize"): core.diagonalize,
        (core.SectorBasis, "__init__"): core.SectorBasis.__init__,
    }
    tracer = bench_trace.Tracer(bw.TRACED_MODULES, bw.TRACED_CONSTRUCTORS, bw.SPAN_COUNTERS)
    with pytest.raises(ValueError):
        with tracer:
            assert levelstats.diagonalize is not originals[(levelstats, "diagonalize")]
            with tracer.span("bench.unit"):
                levelstats.ensemble_gap_ratio(core.LadderParams(L=3), [1.0], 2, 0)
                core.SectorBasis(1)  # raises: L outside the supported range
    for (owner, attr), fn in originals.items():
        assert getattr(owner, attr) is fn

    spans = tracer.spans
    by_index = {i: s for i, s in enumerate(spans)}
    diag = [s for s in spans if s.name == "core.diagonalize"]
    assert len(diag) == 2
    assert all(by_index[s.parent].name == "levelstats.ensemble_gap_ratio" for s in diag)
    failed = [s for s in spans if s.error is not None]
    assert [s.name for s in failed] == ["bench.unit", "core.SectorBasis"]
    metrics = bw.layer_metrics(spans)
    assert metrics["core.diagonalize.calls"][0] == 2
    assert metrics["levelstats.dropped_pairs"][0] >= 0
    assert metrics["levelstats.ensemble_gap_ratio.self_s"][0] < bench_trace.busy_s(
        spans, "levelstats.ensemble_gap_ratio"
    )


def test_self_time_subtracts_children():
    spans = [
        bench_trace.Span("a", 0.0, 10.0),
        bench_trace.Span("b", 1.0, 4.0, parent=0),
        bench_trace.Span("a", 5.0, 7.0, parent=0),
    ]
    assert bench_trace.self_s(spans, "a") == pytest.approx(5.0 + 2.0)
    assert bench_trace.busy_s(spans, "a") == pytest.approx(10.0)  # nested a counted once
    assert bench_trace.calls(spans, "a") == 2


def _perturbed(value, delta):
    """Copy of a stored output with its first finite number moved by delta."""
    if isinstance(value, float):
        return value + delta
    out = copy.deepcopy(value)
    flat = out
    while isinstance(flat[0], list):
        flat = flat[0]
    i = next(i for i, v in enumerate(flat) if v is not None)
    flat[i] += delta
    return out


@pytest.mark.parametrize("workload", sorted(bw.WORKLOADS))
def test_reference_check_catches_1e6_perturbation(workload):
    reference = bw.load_reference(workload, 0)
    ledger = bw.Ledger()
    bw.check_outputs(copy.deepcopy(reference), reference, ledger)
    assert ledger.failed == 0 and ledger.attempted == len(reference)
    for key, value in reference.items():
        if value is None or (isinstance(value, list) and all(v is None for v in value)):
            continue
        ledger = bw.Ledger()
        outputs = copy.deepcopy(reference)
        outputs[key] = _perturbed(value, 1e-6)
        bw.check_outputs(outputs, reference, ledger)
        assert ledger.failed == 1, key


def test_reference_check_counts_missing_output():
    reference = bw.load_reference("decay", 3)
    ledger = bw.Ledger()
    bw.check_outputs({}, reference, ledger)
    assert ledger.failed == ledger.attempted == len(reference)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decay", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
