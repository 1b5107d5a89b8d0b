"""The three paper workloads of the ladderxx benchmark.

Each workload has three parts:

* ``inputs(seed)`` builds everything the timed calls need (set-up): the
  sector basis, operator diagonals, disorder realizations and initial
  states. The workload seed selects input set ``seed % INPUT_SETS``; every
  input set has a stored reference computed by the seed code, so every run
  is checked exactly.
* ``run(inputs, ledger)`` makes the timed calls into ``ladderxx`` and
  returns the physics outputs as plain lists and numbers.
* the reference check, `check_outputs`, compares the outputs with the
  stored ones at the tolerances below.

All calls go through module attributes (``core.diagonalize``), never through
names bound here, so that `bench_trace.Tracer` sees them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ladderxx import core, fits, levelstats, otoc, wavefront

INPUT_SETS = 16
REFERENCE_DIR = Path(__file__).resolve().parent / "references"

EPS = float(np.finfo(np.float64).eps)
# Outputs of dense linear algebra and linear least squares: a few thousand
# ulps of float64 covers a change of BLAS kernel or thread count (the traced
# run's single-thread pass matches references recorded at two threads).
EXACT_ATOL = 1e4 * EPS
# Parameters of the nonlinear stretched fit are converged only to the
# solver's step tolerance (1e-8), so they are compared relatively at sqrt(eps).
FIT_RTOL = math.sqrt(EPS)

LEVELSTATS_L = 7
LEVELSTATS_H = (0.5, 2.0, 8.0)
LEVELSTATS_REALIZATIONS = 1

WAVEFRONT_L = 6
WAVEFRONT_H = 1.0
WAVEFRONT_REALIZATIONS = 1
# eta = 0.01 of DEFAULT_ETA_GRID lies below the L = 6 OTOC floor (the grid's
# minimum is 0.02-0.04 over t <= 10), so its contour is empty and the fit
# cannot be made; the other seven levels all cross.
WAVEFRONT_ETAS = tuple(eta for eta in wavefront.DEFAULT_ETA_GRID if eta >= 0.05)

DECAY_L = 6
DECAY_H = 4.0
DECAY_PROBE_SITE = 6
DECAY_M = (1, 4, 16, 64)
DECAY_KINDS = ("haar", "fock")
DECAY_EPS = ("eps1", "eps2")


@dataclass
class Ledger:
    """Operations attempted and failed: realizations, fits and output checks."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def record(self, label: str, ok: bool, detail: str = "", count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count
            self.errors.append(f"{label} (x{count}): {detail}")

    def attempt(self, label: str, fn, *args, **kwargs):
        """Call fn; an exception counts as a failed operation and gives None."""
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            self.record(label, False, repr(exc))
            return None
        self.record(label, True)
        return result


def input_set(seed: int) -> int:
    return int(seed) % INPUT_SETS


# --- levelstats: gap-ratio sweep over h at L = 7 ---------------------------------


def levelstats_inputs(seed: int) -> dict:
    # ensemble_gap_ratio derives its disorder streams from the master seed,
    # keyed by int L, float alpha and float h.
    return {
        "params": core.LadderParams(L=int(LEVELSTATS_L), alpha=1.0, h=0.0),
        "h_list": [float(h) for h in LEVELSTATS_H],
        "seed": input_set(seed),
    }


def levelstats_run(inputs: dict, ledger: Ledger) -> dict:
    n = len(inputs["h_list"]) * LEVELSTATS_REALIZATIONS
    try:
        reports = levelstats.ensemble_gap_ratio(
            inputs["params"], inputs["h_list"], LEVELSTATS_REALIZATIONS, inputs["seed"]
        )
    except Exception as exc:
        ledger.record("realization", False, repr(exc), count=n)
        return {}
    ledger.record("realization", True, count=n)
    return {
        "mean_r": [r.ensemble_mean for r in reports],
        "stderr": [r.stderr for r in reports],
    }


# --- wavefront: space-time OTOC grid, contours and gamma at L = 6 ----------------


def _disorder(params: core.LadderParams, seed: int, workload: str, count: int) -> list:
    return [
        core.sample_disorder(
            params,
            core.derive_seed(input_set(seed), workload, int(params.L), float(params.h), r),
        )
        for r in range(count)
    ]


def wavefront_inputs(seed: int) -> dict:
    params = core.LadderParams(L=int(WAVEFRONT_L), alpha=1.0, h=float(WAVEFRONT_H))
    return {
        "params": params,
        "disorder": _disorder(params, seed, "wavefront", WAVEFRONT_REALIZATIONS),
        "times": otoc.default_lightcone_times(),
    }


def wavefront_run(inputs: dict, ledger: Ledger) -> dict:
    try:
        grid = wavefront.build_spacetime_grid(inputs["params"], inputs["disorder"], inputs["times"])
    except Exception as exc:
        ledger.record("realization", False, repr(exc), count=len(inputs["disorder"]))
        return {}
    ledger.record("realization", True, count=len(inputs["disorder"]))
    gammas = []
    for eta in WAVEFRONT_ETAS:
        fit = ledger.attempt(
            f"gamma fit eta={eta}",
            lambda: wavefront.fit_dynamical_exponent(wavefront.extract_contour(grid, eta)),
        )
        gammas.append(None if fit is None else fit.params["gamma"])
    return {"grid": grid.values.tolist(), "gamma": gammas}


# --- decay: exact versus sampled OTOC decay at L = 6, h = 4 ----------------------


def decay_inputs(seed: int) -> dict:
    params = core.LadderParams(L=int(DECAY_L), alpha=1.0, h=float(DECAY_H))
    basis = core.SectorBasis(params.L)
    s = input_set(seed)
    draw = {"haar": otoc.haar_state, "fock": otoc.fock_state}
    return {
        "params": params,
        "basis": basis,
        "disorder": _disorder(params, seed, "decay", 1)[0],
        "op_i": core.sigma_z_operator(basis, 1, DECAY_PROBE_SITE),
        "op_1": core.sigma_z_operator(basis, 1, 1),
        "times": otoc.default_decay_times(60),
        "states": {
            kind: {
                M: [draw[kind](basis, core.derive_seed(s, "decay", kind, M, j)) for j in range(M)]
                for M in DECAY_M
            }
            for kind in DECAY_KINDS
        },
    }


def decay_run(inputs: dict, ledger: Ledger) -> dict:
    op_i, op_1, times = inputs["op_i"], inputs["op_1"], inputs["times"]
    try:
        H = core.build_hamiltonian(inputs["params"], inputs["disorder"], inputs["basis"])
        eig = core.diagonalize(H)
        exact = otoc.exact_otoc(eig, op_i, op_1, times)
        sampled = {
            kind: [otoc.sampled_otoc(eig, op_i, op_1, inputs["states"][kind][M], times) for M in DECAY_M]
            for kind in DECAY_KINDS
        }
    except Exception as exc:
        ledger.record("realization", False, repr(exc))
        return {}
    ledger.record("realization", True)

    out = {"exact": exact.values.real.tolist()}
    mbl = ledger.attempt("fit_mbl_form", fits.fit_mbl_form, exact)
    out["mbl"] = None if mbl is None else [mbl.params[k] for k in ("a", "b", "c")]
    for kind in DECAY_KINDS:
        for e in DECAY_EPS:
            sat = ledger.attempt(
                f"error_signal {kind} {e}",
                lambda: [fits.error_signal(exact, series, e).saturation_mean() for series in sampled[kind]],
            )
            scaling = None if sat is None else ledger.attempt(
                f"fit_error_scaling {kind} {e}",
                fits.fit_error_scaling,
                (list(DECAY_M), sat),
                "scaling_power",
            )
            out[f"{kind}_{e}_saturated"] = sat
            out[f"{kind}_{e}_scaling_b"] = None if scaling is None else scaling.params["b"]
    return out


WORKLOADS = {
    "levelstats": (levelstats_inputs, levelstats_run),
    "wavefront": (wavefront_inputs, wavefront_run),
    "decay": (decay_inputs, decay_run),
}

# Stored outputs compared relatively at FIT_RTOL; every other key at EXACT_ATOL.
FIT_KEYS = {"mbl"}


# --- reference check -------------------------------------------------------------


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str, seed: int) -> dict:
    with open(reference_path(workload)) as f:
        return json.load(f)["sets"][str(input_set(seed))]


def matches(key: str, got, want) -> tuple[bool, str]:
    """Compare one output with its reference; nan matches only nan."""
    if got is None and want is None:
        return True, ""
    if got is None or want is None:
        return False, f"got {got!r}, reference {want!r}"
    g, w = np.array(got, dtype=float), np.array(want, dtype=float)  # null -> nan
    if g.shape != w.shape:
        return False, f"shape {g.shape} != reference {w.shape}"
    if key in FIT_KEYS:
        ok = np.isclose(g, w, rtol=FIT_RTOL, atol=0.0, equal_nan=True)
    else:
        ok = np.isclose(g, w, rtol=0.0, atol=EXACT_ATOL, equal_nan=True)
    if ok.all():
        return True, ""
    worst = float(np.nanmax(np.abs(g - w)))
    return False, f"{int((~ok).sum())} of {ok.size} values differ, max |diff| {worst:.3e}"


def check_outputs(outputs: dict, reference: dict, ledger: Ledger) -> None:
    """One check per stored output; a missing or mismatching output is a failure."""
    for key, want in reference.items():
        if key not in outputs:
            ledger.record(f"check {key}", False, "output missing")
            continue
        ok, detail = matches(key, outputs[key], want)
        ledger.record(f"check {key}", ok, detail)


# --- counts recorded on traced spans ---------------------------------------------


def _steps(args) -> dict:
    return {"steps": np.atleast_1d(args["times"]).size}


SPAN_COUNTERS = {
    "otoc.multi_distance_otoc_values": lambda a, r: {**_steps(a), "defect": r[1]},
    "otoc.exact_otoc": lambda a, r: {**_steps(a), "cross_check_max": r.meta["cross_check_max"]},
    "otoc.sampled_otoc": lambda a, r: {"state_steps": len(a["states"]) * _steps(a)["steps"]},
    "levelstats.ensemble_gap_ratio": lambda a, r: {
        "dropped_pairs": sum(rep.meta["dropped_pairs"] for rep in r)
    },
    "wavefront.extract_contour": lambda a, r: {"missing": len(r.meta["missing"])},
}

TRACED_MODULES = (core, otoc, fits, levelstats, wavefront)
TRACED_CONSTRUCTORS = ((core, "SectorBasis"),)


# --- per-layer metrics from a traced pass ----------------------------------------


# Per-layer timings that the single-thread pass repeats, with the suffix ".1t".
TIMED_SUFFIXES = ("busy_s", "self_s", "step_s", "state_step_s", "max_call_s", "traced_wall_s")


def per_layer_metric_names() -> list[str]:
    """Every metric a traced run prints, in order."""
    names = list(layer_metrics([]))
    names.append("bench.trace_overhead_frac")
    names += [f"{n}.1t" for n in layer_metrics([]) if n.endswith(TIMED_SUFFIXES)]
    return names


def _per(total: float, count: float) -> float:
    return total / count if count else 0.0


def layer_metrics(spans) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass (set-up and unit), as name -> (value, unit).

    Layers a workload does not call read 0.
    """
    from bench_trace import busy_s, calls, count_max, count_sum, failed, max_call_s, self_s

    multi = "otoc.multi_distance_otoc_values"
    exact = "otoc.exact_otoc"
    sampled = "otoc.sampled_otoc"
    return {
        "bench.traced_wall_s": (busy_s(spans, "bench.unit"), "s"),
        "core.SectorBasis.busy_s": (busy_s(spans, "core.SectorBasis"), "s"),
        "core.build_hamiltonian.busy_s": (busy_s(spans, "core.build_hamiltonian"), "s"),
        "core.build_hamiltonian.calls": (calls(spans, "core.build_hamiltonian"), "count"),
        "core.diagonalize.busy_s": (busy_s(spans, "core.diagonalize"), "s"),
        "core.diagonalize.calls": (calls(spans, "core.diagonalize"), "count"),
        "core.diagonalize.max_call_s": (max_call_s(spans, "core.diagonalize"), "s"),
        f"{multi}.busy_s": (busy_s(spans, multi), "s"),
        f"{multi}.step_s": (_per(busy_s(spans, multi), count_sum(spans, multi, "steps")), "s"),
        f"{multi}.defect": (count_max(spans, multi, "defect"), "abs"),
        f"{exact}.busy_s": (busy_s(spans, exact), "s"),
        f"{exact}.step_s": (_per(busy_s(spans, exact), count_sum(spans, exact, "steps")), "s"),
        f"{exact}.cross_check_max": (count_max(spans, exact, "cross_check_max"), "abs"),
        f"{sampled}.busy_s": (busy_s(spans, sampled), "s"),
        f"{sampled}.state_step_s": (
            _per(busy_s(spans, sampled), count_sum(spans, sampled, "state_steps")),
            "s",
        ),
        "otoc.haar_state.busy_s": (busy_s(spans, "otoc.haar_state"), "s"),
        "otoc.fock_state.busy_s": (busy_s(spans, "otoc.fock_state"), "s"),
        "levelstats.ensemble_gap_ratio.self_s": (self_s(spans, "levelstats.ensemble_gap_ratio"), "s"),
        "levelstats.gap_ratios.busy_s": (busy_s(spans, "levelstats.gap_ratios"), "s"),
        "levelstats.dropped_pairs": (
            count_sum(spans, "levelstats.ensemble_gap_ratio", "dropped_pairs"),
            "count",
        ),
        "wavefront.build_spacetime_grid.self_s": (self_s(spans, "wavefront.build_spacetime_grid"), "s"),
        "wavefront.extract_contour.busy_s": (busy_s(spans, "wavefront.extract_contour"), "s"),
        "wavefront.fit_dynamical_exponent.busy_s": (busy_s(spans, "wavefront.fit_dynamical_exponent"), "s"),
        "wavefront.fit_dynamical_exponent.failed": (failed(spans, "wavefront.fit_dynamical_exponent"), "count"),
        "wavefront.contour_missing": (count_sum(spans, "wavefront.extract_contour", "missing"), "count"),
        "fits.fit_mbl_form.busy_s": (busy_s(spans, "fits.fit_mbl_form"), "s"),
        "fits.fit_mbl_form.failed": (failed(spans, "fits.fit_mbl_form"), "count"),
        "fits.error_signal.busy_s": (busy_s(spans, "fits.error_signal"), "s"),
        "fits.fit_error_scaling.busy_s": (busy_s(spans, "fits.fit_error_scaling"), "s"),
    }
