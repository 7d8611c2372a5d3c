"""Self-test of the benchmark: repeatable traces and oracles with teeth.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from casimir_plasmons import compute_eta_breakdown  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_work_counts_repeat(name, tmp_path):
    workload = workloads.WORKLOADS[name]()
    workload.setup(str(tmp_path))
    runs = [run.traced_run(workload, name, seed=7, seconds=1.0) for _ in range(2)]
    counts = [
        {k: v for k, v in layers.items() if run.unit_of(k) in ("count", "bytes")}
        for _, layers, _, _ in runs
    ]
    assert counts[0] == counts[1]
    assert any(counts[0].values())
    assert all(unchanged for _, _, _, unchanged in runs)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared == {k: run.unit_of(k) for k in runs[0][1]}


def test_end_to_end_metrics_match_the_declaration():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == run.END_TO_END_UNITS


def test_alpha_matches_its_definition():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    integral = mp.quad(
        lambda s: 2 * s * (mp.sqrt(1 + mp.e**-s) + mp.sqrt(1 - mp.e**-s) - 2),
        [0, 1, 5, 20, 60, 200],
    )
    alpha = -(60 * mp.sqrt(2) / mp.pi**2) * integral
    assert abs(oracles.ALPHA - float(alpha)) <= 1e-16


def _fake(b, **changes):
    fields = dict(vars(b), **changes)
    return SimpleNamespace(**fields)


@pytest.mark.parametrize("Omega_P", [1e-3, 100.0])
def test_breakdown_oracles_flag_perturbed_values(Omega_P):
    b = compute_eta_breakdown(Omega_P)
    assert oracles.check_breakdown(Omega_P, b) == []
    nudged = b.eta_total * (1 + 1e-4)
    bad = oracles.check_breakdown(
        Omega_P, _fake(b, eta_total=nudged, eta_ph=nudged - b.eta_pl)
    )
    assert [q for q, _ in bad] == ["eta_total"]
    assert oracles.check_breakdown(Omega_P, _fake(b, eta_ph=b.eta_ph * 2))[0][0] == "eta_ph"
    assert oracles.check_breakdown(Omega_P, _fake(b, eta_ev=-b.eta_ev))[0][0] == "eta_ev"


def test_breakdown_oracle_flags_an_error_estimate_that_is_too_small():
    # At 1e4 the expansion's remainder is below 1e-10, far inside the default
    # tolerance, so only the reported error estimate can be caught out.
    Omega_P = 1e4
    b = compute_eta_breakdown(Omega_P)
    off = b.eta_total + 2e-10
    assert oracles.promised_error(off) > 2e-10
    assert oracles.check_breakdown(Omega_P, _fake(b, eta_total=off, eta_ph=off - b.eta_pl))
    assert oracles.check_breakdown(
        Omega_P, _fake(b, error_estimates=dict(b.error_estimates, eta_total=0.0))
    ) == []


def test_surface_oracles_flag_perturbed_values(tmp_path):
    workload = workloads.SurfaceModes()
    workload.setup(str(tmp_path))
    Omega_P = 2.0 * math.pi
    outcome = workload.run(Omega_P)
    assert workload.check(Omega_P, outcome.value) == []
    pl, ev = outcome.value
    assert workload.check(Omega_P, (pl * (1 + 1e-6), ev))[0][0] == "identity"
    assert workload.check(Omega_P, (pl, -ev))[0][0] == "eta_ev"
    small = 1e-4
    pl, ev = workload.run(small).value
    assert workload.check(small, (pl, ev)) == []
    assert workload.check(small, (pl * (1 + 1e-4), ev))[0][0] == "eta_pl"


def test_dispersion_oracles_flag_perturbed_values(tmp_path):
    workload = workloads.Dispersion()
    workload.setup(str(tmp_path))
    Omega_P = 3.0
    outcome = workload.run(Omega_P)
    workload.finish(outcome)
    text = outcome.value
    assert workload.check(Omega_P, text) == []
    lines = text.split("\n")
    row = next(i for i, line in enumerate(lines) if line.startswith("plasmonic_plus"))
    fields = lines[row].split(",")

    def with_row(new_fields):
        copy = list(lines)
        copy[row] = ",".join(new_fields)
        return "\n".join(copy)

    moved = fields[:4] + [f"{float(fields[4]) * (1 + 1e-6):.11e}"] + fields[5:]
    assert "plasmonic_plus" in [q for q, _ in workload.check(Omega_P, with_row(moved))]
    zeroed = fields[:4] + [f"{0.0:.11e}", "evanescent"]
    assert "ordering" in [q for q, _ in workload.check(Omega_P, with_row(zeroed))]
    dropped = "\n".join(lines[:row] + lines[row + 1:])
    assert workload.check(Omega_P, dropped)[0][0] == "plasmonic_plus"


def test_known_wrong_bands_are_narrow():
    bad = [("eta_total", "low")]
    assert workloads.is_known_wrong("breakdown_scan", 1e-6, bad)
    assert not workloads.is_known_wrong("breakdown_scan", 1.0, bad)
    assert not workloads.is_known_wrong("breakdown_scan", 1e-6, bad + [("eta_pl", "x")])
    assert not workloads.is_known_wrong("surface_modes", 1e-6, bad)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("results"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    argv = [sys.executable, f"{BENCH.name}/run.py", "--workload", "surface_modes",
            "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
