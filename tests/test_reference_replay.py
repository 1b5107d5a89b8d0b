"""Replay the analysis layer on the benchmark's stored inputs and outputs.

`perfbench/references/{decay,wavefront}.json` hold, for each of 16 input
sets, the exact OTOC decay series and the sampled errors' saturated means
(decay), and the space-time grid (wavefront), together with what the fits
made of them. Rerunning only the fits and contours on those stored inputs
checks this layer against the benchmark's outputs without the OTOC kernels.
The tolerances, sample counts and contour levels are imported from the
benchmark's own workload module, so they are kept in one place.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from ladderxx.fits import fit_error_scaling, fit_mbl_form
from ladderxx.otoc import OtocSeries, default_decay_times, default_lightcone_times
from ladderxx.wavefront import WavefrontGrid, extract_contour, fit_dynamical_exponent

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))
from bench_workloads import (  # noqa: E402
    DECAY_M,
    EXACT_ATOL,
    FIT_RTOL,
    REFERENCE_DIR,
    WAVEFRONT_ETAS,
)


def stored_sets(workload: str) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json") as f:
        sets = json.load(f)["sets"]
    assert len(sets) == 16
    return sets


def test_decay_scaling_exponents_replay():
    for ref in stored_sets("decay").values():
        for key, b in ref.items():
            if not key.endswith("_scaling_b"):
                continue
            saturated = ref[key.replace("_scaling_b", "_saturated")]
            fit = fit_error_scaling((DECAY_M, saturated), "scaling_power")
            assert fit.params["b"] == pytest.approx(b, rel=0.0, abs=EXACT_ATOL)


def test_decay_stretched_fit_replay():
    times = default_decay_times(60)
    for ref in stored_sets("decay").values():
        fit = fit_mbl_form(OtocSeries(times=times, values=np.array(ref["exact"])))
        got = [fit.params[k] for k in ("a", "b", "c")]
        assert got == pytest.approx(ref["mbl"], rel=FIT_RTOL, abs=0.0)


def test_wavefront_gamma_replay():
    times = default_lightcone_times()
    for ref in stored_sets("wavefront").values():
        values = np.array(ref["grid"])
        grid = WavefrontGrid(
            distances=np.arange(1, values.shape[0] + 1), times=times, values=values
        )
        gammas = [
            fit_dynamical_exponent(extract_contour(grid, eta)).params["gamma"]
            for eta in WAVEFRONT_ETAS
        ]
        assert gammas == pytest.approx(ref["gamma"], rel=0.0, abs=EXACT_ATOL)
