"""End-to-end tests of the command-line interface.

Each test drives ``cli.main`` with an argv list and inspects captured stdout,
stderr, the exit code, and any files written.  The documented exit-code
contract: 0 success, 1 failed verification, 2 argument errors, 3 convergence
failures.
"""

from __future__ import annotations

import ast
import hashlib
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from casimir_plasmons import cli, decomposition, modes

FLOAT_FIELD = re.compile(r"^-?\d\.\d{11}e[+-]\d{2,3}$")


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _rows(text: str):
    lines = text.splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


# ----------------------------------------------------------------------
# eta
# ----------------------------------------------------------------------


class TestEta:
    def test_csv_contract(self, capsys) -> None:
        code, out, err = run_cli(["eta", "--l-over-lambda-p", "1"], capsys)
        assert code == 0
        assert err == ""
        assert out.endswith("\n") and "\r" not in out
        header, rows = _rows(out)
        assert header == (
            "L_over_lambdaP,eta_total,eta_pl,eta_ph,eta_ev,"
            "err_eta_total,err_eta_pl,err_eta_ph,err_eta_ev"
        )
        assert len(rows) == 1
        fields = rows[0]
        assert len(fields) == 9
        assert all(FLOAT_FIELD.match(field) for field in fields)
        values = [float(field) for field in fields]
        assert values[0] == 1.0
        assert values[1] == pytest.approx(0.6040795415892096, abs=1e-9)
        assert values[2] == pytest.approx(-21.43800046006416, abs=1e-7)
        assert values[3] == pytest.approx(values[1] - values[2], rel=1e-10)
        assert values[4] == pytest.approx(2.3160652299805986, abs=1e-7)
        assert all(v >= 0.0 for v in values[5:])

    def test_json_contract(self, capsys) -> None:
        code, out, err = run_cli(
            ["eta", "--l-over-lambda-p", "1", "--format", "json"], capsys
        )
        assert code == 0
        assert out.endswith("\n")
        data = json.loads(out)
        assert data["schema_version"] == "1"
        assert data["L_over_lambdaP"] == 1.0
        assert data["Omega_P"] == pytest.approx(2.0 * math.pi, rel=1e-15)
        assert data["eta_total"] == pytest.approx(0.6040795415892096, abs=1e-9)
        assert data["eta_ph"] == data["eta_total"] - data["eta_pl"]
        assert set(data["error_estimates"]) == {
            "eta_total",
            "eta_pl",
            "eta_ph",
            "eta_ev",
        }

    def test_parameterizations_are_equivalent(self, capsys) -> None:
        _, dimensionless, _ = run_cli(["eta", "--l-over-lambda-p", "1"], capsys)
        _, physical, _ = run_cli(
            ["eta", "--lambda-p", "136e-9", "--separation", "136e-9"], capsys
        )
        _, direct, _ = run_cli(["eta", "--omega-p-l", "6.283185307179586"], capsys)
        assert physical == dimensionless
        assert direct == dimensionless

    def test_short_separation_converges(self, capsys) -> None:
        # Omega_P = 6.3e-5 lies in the band where nested quadrature gave up.
        code, out, err = run_cli(["eta", "--l-over-lambda-p", "1e-5"], capsys)
        assert code == 0
        assert err == ""
        _, rows = _rows(out)
        assert 0.0 < float(rows[0][1]) < 1e-4


# ----------------------------------------------------------------------
# argument errors (exit code 2)
# ----------------------------------------------------------------------


class TestArgumentErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["eta", "--omega-p-l", "-1"],
            ["eta", "--omega-p-l", "1", "--l-over-lambda-p", "2"],
            ["eta"],
            ["eta", "--lambda-p", "100e-9"],
            ["sweep", "--range", "5:1"],
            ["sweep", "--range", "0:1"],
            ["sweep", "--range", "1"],
            ["sweep", "--range", "a:b"],
            ["sweep", "--range", "0.1:1", "--points", "1"],
            ["dispersion", "--l-over-lambda-p", "1", "--max-photonic-m", "-1"],
            ["dispersion", "--omega-p-l", "1", "--points", "1"],
            ["constants", "--format", "csv"],
            ["bogus-subcommand"],
            ["eta", "--l-over-lambda-p", "1", "--frobnicate"],
            ["eta", "--omega-p-l", "inf"],
            ["eta", "--l-over-lambda-p", "inf"],
            ["eta", "--lambda-p", "inf", "--separation", "1e-7"],
            ["eta", "--omega-p-l", "2e15"],
            ["eta", "--omega-p-l", "1e200"],
        ],
    )
    def test_exit_code_two(self, argv, capsys) -> None:
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert err != ""

    def test_negative_plasma_parameter_message(self, capsys) -> None:
        code, _, err = run_cli(["eta", "--omega-p-l", "-1"], capsys)
        assert code == 2
        assert "Omega_P must be positive" in err

    def test_help_exits_zero(self, capsys) -> None:
        code, out, _ = run_cli(["--help"], capsys)
        assert code == 0
        assert "eta" in out and "verify" in out

    def test_no_arguments_is_an_error(self, capsys) -> None:
        code, _, _ = run_cli([], capsys)
        assert code == 2


class TestGatedArguments:
    """Integer flags and the rescaled sweep range end in one ``error:`` line."""

    @staticmethod
    def _one_line_error(argv, capsys) -> None:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(argv, capsys)
        assert [str(w.message) for w in caught] == []
        assert code == 2 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            # 2**70 points: numpy cannot allocate the grid.
            ["sweep", "--range", "0.1:1", "--points", "1180591620717411303424"],
            # lo / lambda_p rounds to 0.
            ["sweep", "--range", "1e-320:1e-300", "--lambda-p", "1e300", "--points", "2"],
            # hi / lambda_p rounds to inf.
            ["sweep", "--range", "1:2", "--lambda-p", "1e-310", "--points", "2"],
        ],
        ids=["sweep-points-2**70", "sweep-lo-underflows", "sweep-hi-overflows"],
    )
    def test_exit_two_in_one_line(self, argv, capsys) -> None:
        self._one_line_error(argv, capsys)

    def test_sweep_points_past_bound_build_no_grid(self, capsys, monkeypatch) -> None:
        def never(*args, **kwargs):
            raise AssertionError("a grid was built for a rejected --points")

        monkeypatch.setattr(np, "geomspace", never)
        self._one_line_error(["sweep", "--range", "0.1:1", "--points", "1000001"], capsys)

    def test_photonic_m_past_bound_builds_no_branch(self, capsys, monkeypatch) -> None:
        def never(*args, **kwargs):
            raise AssertionError("a branch was built for a rejected --max-photonic-m")

        monkeypatch.setattr(cli, "BranchId", never)
        argv = ["dispersion", "--omega-p-l", "2.5", "--points", "8", "--max-photonic-m", "1001"]
        self._one_line_error(argv, capsys)


def test_cli_renders_in_one_place() -> None:
    # One function writes CSV or JSON; no command branches on the format.
    source = Path(cli.__file__).read_text()
    assert source.count("json.dumps") <= 1
    branching = [
        node.name
        for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("cmd_")
        and any(
            isinstance(inner, ast.Attribute)
            and inner.attr == "format"
            and isinstance(inner.value, ast.Name)
            and inner.value.id == "args"
            for inner in ast.walk(node)
        )
    ]
    assert branching == []


class TestRepeatedCalls:
    def test_each_repeat_matches_its_first_call(self, capsys) -> None:
        # main() builds its parser once per process; parsing must not leak
        # state from one call into the next.
        argvs = [
            ["dispersion", "--omega-p-l", "2.5", "--points", "8", "--max-photonic-m", "3"],
            ["eta", "--l-over-lambda-p", "1"],
            ["eta", "--omega-p-l", "-1"],
            ["--help"],
            ["dispersion", "--omega-p-l", "2.5", "--points", "8", "--format", "json"],
            ["sweep", "--range", "5:1"],
            ["constants"],
        ]
        first = [run_cli(argv, capsys) for argv in argvs]
        assert [result[0] for result in first] == [0, 0, 2, 0, 0, 2, 0]
        for _ in range(2):
            for argv, expected in zip(argvs, first):
                assert run_cli(argv, capsys) == expected

    def test_build_parser_returns_a_fresh_parser(self) -> None:
        assert cli.build_parser() is not cli.build_parser()


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------


class TestSweep:
    def test_log_grid_csv(self, capsys) -> None:
        argv = ["sweep", "--range", "0.05:0.5", "--points", "3"]
        code, out, err = run_cli(argv, capsys)
        assert code == 0 and err == ""
        header, rows = _rows(out)
        assert header == "L_over_lambdaP,eta_total,eta_pl,eta_ph,eta_ev"
        assert len(rows) == 3
        xs = [float(r[0]) for r in rows]
        assert xs == sorted(xs)
        assert xs[0] == pytest.approx(0.05, rel=1e-12)
        assert xs[1] == pytest.approx(math.sqrt(0.05 * 0.5), rel=1e-11)
        assert xs[2] == pytest.approx(0.5, rel=1e-12)
        # deterministic: a second run reproduces the bytes exactly
        _, again, _ = run_cli(argv, capsys)
        assert again == out
        assert "\r" not in out

    def test_linear_grid(self, capsys) -> None:
        code, out, _ = run_cli(
            ["sweep", "--range", "0.05:0.5", "--points", "3", "--spacing", "linear"],
            capsys,
        )
        assert code == 0
        _, rows = _rows(out)
        assert float(rows[1][0]) == pytest.approx(0.275, rel=1e-12)

    def test_physical_range_rescales(self, capsys) -> None:
        code, out, _ = run_cli(
            ["sweep", "--lambda-p", "100e-9", "--range", "50e-9:200e-9", "--points", "3"],
            capsys,
        )
        assert code == 0
        _, rows = _rows(out)
        xs = [float(r[0]) for r in rows]
        assert xs[0] == pytest.approx(0.5, rel=1e-12)
        assert xs[1] == pytest.approx(1.0, rel=1e-11)
        assert xs[2] == pytest.approx(2.0, rel=1e-12)

    def test_json(self, capsys) -> None:
        code, out, _ = run_cli(
            ["sweep", "--range", "0.1:1", "--points", "2", "--format", "json"], capsys
        )
        assert code == 0
        data = json.loads(out)
        assert data["schema_version"] == "1"
        assert len(data["rows"]) == 2
        assert data["rows"][0]["L_over_lambdaP"] == pytest.approx(0.1)
        for row in data["rows"]:
            assert row["eta_ph"] == row["eta_total"] - row["eta_pl"]


# ----------------------------------------------------------------------
# dispersion
# ----------------------------------------------------------------------


class TestDispersion:
    def test_csv_contract(self, capsys) -> None:
        code, out, err = run_cli(
            [
                "dispersion",
                "--l-over-lambda-p",
                "1.5",
                "--points",
                "24",
                "--max-photonic-m",
                "2",
            ],
            capsys,
        )
        assert code == 0 and err == ""
        header, rows = _rows(out)
        assert header == "branch,pol,m,K,Omega,sector"

        # branch blocks appear in the documented order
        seen = []
        for branch, pol, m, *_ in rows:
            key = (branch, pol, m)
            if key not in seen:
                seen.append(key)
        surface = [k for k in seen if k[0] != "photonic"]
        assert surface == [
            ("plasmonic_plus", "TM", ""),
            ("plasmonic_minus", "TM", ""),
            ("interface_reference", "TM", ""),
        ]
        photonic = [k for k in seen if k[0] == "photonic"]
        assert photonic == sorted(photonic, key=lambda k: (k[1] != "TE", int(k[2])))
        assert all(m.isdigit() for _, _, m in photonic)

        by_branch: dict = {}
        for branch, pol, m, big_k, omega, sector in rows:
            by_branch.setdefault((branch, pol, m), []).append(
                (float(big_k), float(omega), sector)
            )

        omega_p = 3.0 * math.pi
        k_p = modes.branch_constants(omega_p).k_P
        plus = by_branch[("plasmonic_plus", "TM", "")]
        sectors = [s for _, _, s in plus]
        flips = sum(1 for a, b in zip(sectors, sectors[1:]) if a != b)
        assert flips == 1
        crossing_k = next(k for k, _, s in plus if s == "evanescent")
        assert crossing_k >= k_p * (1.0 - 1e-9)

        for key in (("plasmonic_minus", "TM", ""), ("interface_reference", "TM", "")):
            assert all(s == "evanescent" for _, _, s in by_branch[key])
        for key in by_branch:
            if key[0] == "photonic":
                assert all(s == "propagative" for _, _, s in by_branch[key])
            ks = [k for k, _, _ in by_branch[key]]
            assert ks == sorted(ks)

    def test_json(self, capsys) -> None:
        code, out, _ = run_cli(
            [
                "dispersion",
                "--l-over-lambda-p",
                "1.5",
                "--points",
                "8",
                "--max-photonic-m",
                "1",
                "--format",
                "json",
            ],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert data["schema_version"] == "1"
        assert data["L_over_lambdaP"] == pytest.approx(1.5)
        names = [b["branch"] for b in data["branches"]]
        assert names[:3] == [
            "plasmonic_plus",
            "plasmonic_minus",
            "interface_reference",
        ]
        for branch in data["branches"]:
            for point in branch["points"]:
                assert set(point) == {"K", "Omega", "sector"}


# SHA-256 of the CLI outputs whose bytes must not change.  The dispersion
# digests (400 points, m <= 5) were pinned once every root find converged to
# about 4 ulp of its root: every plus and minus frequency agrees with a
# 50-digit mpmath bisection to within 2 ulp (see
# test_modes.test_dispersion_table_frequencies_match_mpmath), and the three
# photonic rows that moved now print mpmath's root rounded to 12 digits.
# The eta and sweep digests were pinned from the product exp-sinh rule of eta_total, which
# agrees with the polar-coordinate oracle to about 1e-15: eta_total moved by
# at most 3e-13 relative and eta_ph = eta_total - eta_pl by as much in
# absolute terms (up to 4 units of its 12th printed digit), and
# err_eta_total fell to about 3e-14 relative (the last level difference
# scaled by its rate of fall, plus 64 ulp); sweep-physical-json's second
# eta_pl then moved by 6e-16 relative (its estimate is 2e-10) with a 1-ulp
# change of y_plus.  sweep-physical-json was re-pinned again when eta_total's
# decay constants became square roots of sums of squares: three of its seven
# eta_total moved by 1-2 ulp, and eta_ph = eta_total - eta_pl with them.  The constants digest guards the scalar integrand of
# alpha, evaluated node by node with libm, and the sign change, where
# eta_pl is now 8e-17 (1.9e-12 before, within its estimate of 4.9e-11).
# eta-csv, eta-json, sweep-physical-json and constants were re-pinned when
# the branch functions and omega0 took one scaled form each: eta_pl, eta_ph
# and eta_ev moved by at most 2.9e-15 relative (estimates at least 3.9e-11),
# beta_ev by 4.9e-15 (its error 1.3e-4), the error columns by at most 1.4e-5.
# eta-json, sweep-physical-json and constants were re-pinned when the depth
# k_P**2 - omega0(k_P)**2 and the cube gap k_P**3 - omega0(k_P)**3 stopped
# cancelling (both within 8e-16 of mpmath): eta_ev moved by at most 9.1e-15
# relative, err_eta_ev by 4.6e-6, beta_ev by 4.7e-11 and its fit residual by
# 5.2e-8; no other column moved.  verify-csv, verify-json and dispersion-json
# were pinned before the commands' CSV and JSON rendering became one function,
# to hold the bytes of the outputs that no other digest covered.  constants
# was re-pinned when gamma and beta_ev became limit integrals in place of a
# square-root fit at Omega_P = 1e3, 1e4, 1e5: gamma moved by -6.4e-5 and
# beta_ev by -3.1e-4 relative, onto mpmath and the Richardson limit of the
# closed forms (test_decomposition.TestAsymptoticLimits); alpha and the sign
# change kept their bits; fit_residuals gave way to error_estimates.
# eta-csv, eta-json and sweep-physical-json were re-pinned when the reference
# correction of eta_ev became a closed form with a rounding bound: eta_ev moved
# by at most 2.3e-15 relative, err_eta_ev by at most 0.55 of itself (it had
# held the correction's quadrature estimate); no other column moved.
# eta-csv, eta-json, sweep-physical-json and constants were re-pinned when the
# continuation integral of eta_pl took 2 u (g_plus - u) in place of 2 u g_plus
# less (2/3) y_plus**3: eta_pl moved by at most 1.5e-15 relative, eta_ph by
# 9.2e-16, the sign change by 3.7e-16; err_eta_pl and err_eta_ph by a factor
# of 1.17 to 1.44, the sign change's estimate by 1.19; no other column moved.
# eta-csv, eta-json, sweep-physical-json and constants were re-pinned when the
# branch sum took s = v**2/(1e-4 + v): eta_pl moved by at most 1.5e-15
# relative and eta_ev by 5.3e-16 (sweep-physical-json only); err_eta_pl and
# err_eta_ph rose by at most 5.4e-3 of themselves, err_eta_ev by 1.8e-2, the
# sign change's estimate by 5.2e-3; no other column moved.
@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["dispersion", "--omega-p-l", "1e-3", "--points", "400", "--max-photonic-m", "5"],
            "fc44a7ac84fac9fed7bce6553487865c00ee88dfa88534f5b69af7f6738a69e1",
        ),
        (
            [
                "dispersion", "--omega-p-l", "9.42477796076938",
                "--points", "400", "--max-photonic-m", "5",
            ],
            "e811a8efb17ae428fad0f8b9425c13109e4009bd8d7632a41208aa706571432e",
        ),
        (
            ["dispersion", "--omega-p-l", "1e4", "--points", "400", "--max-photonic-m", "5"],
            "06741dc99458ffac2ef1c6e778e50a397394ee0b9ee33e518f3440d0bfc5df9c",
        ),
        (
            ["eta", "--l-over-lambda-p", "1"],
            "4312ab73c9db3f5ccdada68baedccd3ef1e2bd49949c543bb09baa6fc56530a7",
        ),
        (
            ["eta", "--l-over-lambda-p", "0.25", "--format", "json"],
            "57104400f333058555236d5430eea4eb0d524f2ae6b719f1444ba30e9f4fc326",
        ),
        (
            ["sweep", "--range", "0.01:10", "--points", "20"],
            "55ecd8550f8fc78014375898c7b8451a665445655613b368a5eb84e5fa0e3224",
        ),
        (
            [
                "sweep", "--range", "1e-8:1e-6", "--lambda-p", "137e-9",
                "--points", "7", "--format", "json",
            ],
            "f9f737b091f0e6953b7b2c5cb927647fd2af5b5230978190a58f4f87e688b2f5",
        ),
        (
            ["constants"],
            "abf57f0dd03a31d1c94d92dd181cd07f97e9f4c935d56ee5fc5fa49e6c3b9b79",
        ),
        (
            ["verify"],
            "43c206ccab800ab05488fae3d58b960db31bb685932ab81ce1c8cac0e73a26fa",
        ),
        (
            ["verify", "--format", "json"],
            "757c89420767a2a32478be2a4bb829f73cdfeac2b017833753cb8862474663fd",
        ),
        (
            [
                "dispersion", "--omega-p-l", "2.5", "--points", "8",
                "--max-photonic-m", "2", "--format", "json",
            ],
            "a3988205de4a0455b98b6aa94656866055ad28759916fc370f5c4c6d3335c87e",
        ),
    ],
    ids=[
        "dispersion-1e-3",
        "dispersion-3pi",
        "dispersion-1e4",
        "eta-csv",
        "eta-json",
        "sweep-csv",
        "sweep-physical-json",
        "constants",
        "verify-csv",
        "verify-json",
        "dispersion-json",
    ],
)
def test_table_bytes_are_pinned(argv, digest, capsys) -> None:
    code, out, err = run_cli(argv, capsys)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# ----------------------------------------------------------------------
# constants
# ----------------------------------------------------------------------


class TestConstants:
    def test_json_contract(self, capsys) -> None:
        code, out, err = run_cli(["constants"], capsys)
        assert code == 0 and err == ""
        data = json.loads(out)
        assert list(data) == [
            "schema_version",
            "alpha",
            "gamma",
            "beta_ev",
            "sign_change_L_over_lambdaP",
            "error_estimates",
        ]
        assert data["alpha"] == pytest.approx(1.193, abs=1e-3)
        assert data["gamma"] == pytest.approx(29.752, rel=5e-3)
        assert data["beta_ev"] == pytest.approx(1.62399, rel=1e-3)
        assert data["sign_change_L_over_lambdaP"] == pytest.approx(0.0757, abs=1e-3)
        assert data["gamma"] == pytest.approx(29.7527891716, rel=1e-8)
        assert data["beta_ev"] == pytest.approx(1.623985562, rel=1e-8)
        assert list(data["error_estimates"]) == list(data)[1:5]
        assert all(0.0 < v < 1e-8 for v in data["error_estimates"].values())


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------


class TestVerify:
    def test_default_run_passes(self, capsys) -> None:
        code, out, err = run_cli(["verify"], capsys)
        assert code == 0
        header, rows = _rows(out)
        assert header == "status,name,detail"
        assert len(rows) == 5
        assert all(row[0] == "pass" for row in rows)
        names = [row[1] for row in rows]
        assert names[0] == "quadrature-tolerance-gate"
        assert len(set(names)) == len(names)

    def test_json_structure(self, capsys) -> None:
        code, out, _ = run_cli(["verify", "--format", "json"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["schema_version"] == "1"
        assert data["all_passed"] is True
        assert len(data["checks"]) == 5
        for check in data["checks"]:
            assert set(check) == {"name", "status", "detail"}
            assert check["status"] == "pass"

    def test_injected_continuation_fault_is_caught(self, capsys, monkeypatch) -> None:
        # flip the sign of the tangent used only by the continuation formula;
        # the self-check must notice and exit 1 while the quadrature gate,
        # which does not touch the continuation, keeps passing
        monkeypatch.setattr(modes, "_tan", lambda x: -math.tan(x))
        code, out, _ = run_cli(["verify"], capsys)
        assert code == 1
        _, rows = _rows(out)
        status = {row[1]: row[0] for row in rows}
        assert status["propagative-identity"] == "fail"
        assert status["quadrature-tolerance-gate"] == "pass"
        assert any(row[0] == "fail" for row in rows)

    def test_understated_error_estimate_is_caught(self, capsys, monkeypatch) -> None:
        # A branch-sum bias of 1000 * rel_tol that its error estimate does not
        # report moves eta_pl and eta_ev between the check's two tolerances.
        original = decomposition._branch_sum_integral

        def biased(Omega_P, spec):
            value, error = original(Omega_P, spec)
            return value + 1e3 * spec.rel_tol, error

        monkeypatch.setattr(decomposition, "_branch_sum_integral", biased)
        code, out, _ = run_cli(["verify"], capsys)
        assert code == 1
        _, rows = _rows(out)
        status = {row[1]: row[0] for row in rows}
        assert status["error-estimates-cover"] == "fail"
        assert status["quadrature-tolerance-gate"] == "pass"

    def test_unreachable_tolerance_exits_three(self, capsys) -> None:
        code, _, err = run_cli(["verify", "--tol", "1e-15"], capsys)
        assert code == 3
        assert "convergence failure" in err
        assert "exp(-sqrt(x))" in err


# ----------------------------------------------------------------------
# file output
# ----------------------------------------------------------------------


class TestFileOutput:
    def test_written_file_matches_stdout(self, capsys, tmp_path) -> None:
        target = tmp_path / "point.csv"
        argv = ["eta", "--l-over-lambda-p", "0.25"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        code = cli.main(argv + ["--output", str(target)])
        capsys.readouterr()
        assert code == 0
        assert target.read_text() == out
        # no stray temporaries left behind
        assert [p.name for p in tmp_path.iterdir()] == ["point.csv"]

    def test_overwrites_existing_file(self, capsys, tmp_path) -> None:
        target = tmp_path / "out.json"
        target.write_text("stale")
        code = cli.main(
            ["eta", "--l-over-lambda-p", "1", "--format", "json", "--output", str(target)]
        )
        capsys.readouterr()
        assert code == 0
        data = json.loads(target.read_text())
        assert data["schema_version"] == "1"
        assert target.read_text().endswith("\n")
