import dataclasses
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crawford.api import CrawfordQuery, crawford, scaled_instance
from crawford.cli import MatrixParseError, load_matrix, main, parse_gaussian
from crawford.ellipsoid import EllipsoidCapExceeded, certified_ball, solve
from crawford.linalg import ComplexMatrix, GaussianRational
from crawford.oracle import support_search
from helpers import (
    CHI_EXAMPLE,
    COPRIME_DENOMINATORS,
    DIAG_PM,
    EXAMPLE_TILDE,
    IDENTITY2,
    format_gaussian,
    gr,
    identity,
    large,
    save_matrix,
)

DATA = Path(__file__).parent / "data"

# one entry of 10^160: exact input the CLI accepts, whose squared norm
# exceeds the float64 range
HUGE = ComplexMatrix([[gr(10**160), gr(1)], [gr(0), gr(2)]])


# a 3x3 Gaussian-integer matrix with chi(10, C) about 5.95
FINE = ComplexMatrix(
    [
        [gr(1, 2), gr(-3), gr(2, -1)],
        [gr(0), gr(-2, 1), gr(0, 3)],
        [gr(1), gr(-1, -1), gr(2)],
    ]
)

# a 4x4 Gaussian-integer matrix with imaginary parts on and off the diagonal
GAUSSIAN4 = ComplexMatrix(
    [
        [gr(2, 1), gr(-1), gr(0, 3), gr(1, -2)],
        [gr(0), gr(-3, 1), gr(2), gr(0, -1)],
        [gr(1, 1), gr(4), gr(-2, -2), gr(1)],
        [gr(-1, 3), gr(0, 2), gr(0), gr(5)],
    ]
)


def write_matrix(path, mat: ComplexMatrix):
    save_matrix(mat, path)
    return str(path)


PARSE_CASES = [
    ("2", gr(2)),
    ("-4i", gr(0, -4)),
    ("3+i", gr(3, 1)),
    ("1/2-2/3i", gr(Fraction(1, 2), Fraction(-2, 3))),
    ("i", gr(0, 1)),
    ("-i", gr(0, -1)),
    ("+2", gr(2)),
    ("1/2 - 2/3 i", gr(Fraction(1, 2), Fraction(-2, 3))),
    ("0", gr(0)),
    ("-7/3", gr(Fraction(-7, 3))),
    ("0+0i", gr(0)),
    ("5-i", gr(5, -1)),
]


# each was once accepted or crashed with a non-parse error
MALFORMED_FILES = [
    '{"n": 2, "entries": ["12", "34"]}',
    '{"n": 2, "entries": [[1, 2], [3, 4]]}',
    '{"n": 1, "entries": 5}',
    '{"n": 1, "entries": "1"}',
    '{"n": 1, "entries": [[null]]}',
    '{"n": true, "entries": [["1"]]}',
    '{"n": 1.0, "entries": [["1"]]}',
]


class TestParseGaussian:
    @pytest.mark.parametrize("text,want", PARSE_CASES)
    def test_corpus(self, text, want):
        assert parse_gaussian(text) == want

    @pytest.mark.parametrize("bad", ["bogus", "", "1/0", "2.5", "i i", "+ -3", "3~i"])
    def test_rejects(self, bad):
        with pytest.raises(MatrixParseError):
            parse_gaussian(bad)

    rationals = st.fractions(min_value=-99, max_value=99, max_denominator=40)

    @settings(max_examples=200)
    @given(rationals, rationals)
    def test_format_round_trip(self, re, im):
        g = GaussianRational(re, im)
        assert parse_gaussian(format_gaussian(g)) == g


class TestMatrixFiles:
    def test_save_load_round_trip(self, tmp_path):
        p = tmp_path / "m.json"
        save_matrix(EXAMPLE_TILDE, p)
        assert load_matrix(p) == EXAMPLE_TILDE
        payload = json.loads(p.read_text())
        assert payload["n"] == 2
        assert payload["entries"][0][1] == "-4i"

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_matrix(tmp_path / "absent.json")

    def test_bad_entry(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"n": 1, "entries": [["wat"]]}')
        with pytest.raises(MatrixParseError):
            load_matrix(p)

    def test_bad_shape(self, tmp_path):
        p = tmp_path / "shape.json"
        p.write_text('{"n": 2, "entries": [["1", "0"]]}')
        with pytest.raises(MatrixParseError):
            load_matrix(p)

    def test_bad_json(self, tmp_path):
        p = tmp_path / "nope.json"
        p.write_text("{")
        with pytest.raises(MatrixParseError):
            load_matrix(p)

    @pytest.mark.parametrize("text", MALFORMED_FILES)
    def test_malformed_file(self, tmp_path, text):
        p = tmp_path / "bad.json"
        p.write_text(text)
        with pytest.raises(MatrixParseError):
            load_matrix(p)


@pytest.mark.parametrize("command", ["chi", "verify", "export", "range"])
class TestInputChecks:
    """main checks eps before it dispatches and each command parses the
    centre after it reads the matrix, so a bad eps outranks a missing file
    and a missing file outranks a bad centre."""

    @pytest.mark.parametrize("eps", ["0", "1"])
    def test_epsilon_window(self, tmp_path, capsys, command, eps):
        p = write_matrix(tmp_path / "c.json", IDENTITY2)
        assert main([command, p, "--eps", eps]) == 2
        assert "epsilon must lie in (0, 1)" in capsys.readouterr().err

    def test_bad_center(self, tmp_path, capsys, command):
        p = write_matrix(tmp_path / "c.json", IDENTITY2)
        assert main([command, p, "--center", "nope"]) == 2
        assert "cannot parse Gaussian rational 'nope'" in capsys.readouterr().err

    def test_missing_file_before_bad_center(self, tmp_path, capsys, command):
        absent = str(tmp_path / "absent.json")
        assert main([command, absent, "--center", "nope"]) == 4
        assert capsys.readouterr().err.startswith("io error: ")

    def test_bad_eps_before_missing_file(self, tmp_path, capsys, command):
        absent = str(tmp_path / "absent.json")
        assert main([command, absent, "--eps", "0"]) == 2
        assert "epsilon must lie in (0, 1)" in capsys.readouterr().err


class TestCmdChi:
    def test_reference_example_text(self, tmp_path, capsys):
        p = write_matrix(tmp_path / "c.json", EXAMPLE_TILDE)
        code = main(["chi", p, "--center", "-3-i", "--eps", "1e-4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "chi" in out
        chi_line = [ln for ln in out.splitlines() if ln.startswith("chi")][0]
        assert abs(float(chi_line.split()[-1]) - 1.923) < 1e-3

    def test_json_schema(self, tmp_path, capsys):
        p = write_matrix(tmp_path / "c.json", EXAMPLE_TILDE)
        code = main(
            ["chi", p, "--center=-3-i", "--eps", "1e-4", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload.keys()) == [
            "chi",
            "z",
            "method",
            "epsilon",
            "iterations",
            "iteration_cap",
            "cuts_feasibility",
            "cuts_objective",
            "cuts_spectral",
            "cuts_modulus",
            "cuts_ceiling",
            "certified_gap",
            "lower_bound",
            "max_feasible_distance",
            "lower_bound_dual",
            "certs_dual",
            "dual_solves",
            "closed_by",
            "falls",
            "outer_R",
            "epsilon_solver",
            "scale_factor",
            "setup_s",
            "solve_s",
        ]
        assert payload["setup_s"] >= 0.0 and payload["solve_s"] >= 0.0
        cuts = [payload[k] for k in ("cuts_spectral", "cuts_modulus", "cuts_ceiling")]
        assert all(isinstance(k, int) and k >= 0 for k in cuts)
        assert sum(cuts) < payload["iterations"]
        assert payload["lower_bound_dual"] <= payload["lower_bound"]
        assert isinstance(payload["certs_dual"], int) and payload["certs_dual"] >= 0
        assert isinstance(payload["dual_solves"], int)
        assert payload["certs_dual"] <= payload["dual_solves"]
        assert payload["closed_by"] in ("feasible", "dual")
        assert payload["method"] == "sdp"
        assert payload["lower_bound"] <= CHI_EXAMPLE <= payload["chi"]
        assert payload["certified_gap"] == pytest.approx(
            payload["chi"] - payload["lower_bound"], abs=1e-15
        )
        assert 0.0 <= payload["certified_gap"] <= 1e-4
        assert payload["epsilon"] == 1e-4
        assert abs(payload["chi"] - CHI_EXAMPLE) < 1e-4
        z = complex(payload["z"][0], payload["z"][1])
        assert abs(abs(z) - payload["chi"]) < 2e-4

    def test_identity_defaults(self, tmp_path, capsys):
        p = write_matrix(tmp_path / "i.json", IDENTITY2)
        code = main(["chi", p, "--eps", "1e-4"])
        out = capsys.readouterr().out
        assert code == 0
        chi_line = [ln for ln in out.splitlines() if ln.startswith("chi")][0]
        assert abs(float(chi_line.split()[-1]) - 1.0) < 1e-4

    def test_zero_matrix_notes_short_circuit(self, tmp_path, capsys):
        p = write_matrix(tmp_path / "z.json", ComplexMatrix.zeros(2))
        code = main(["chi", p])
        out = capsys.readouterr().out
        assert code == 0
        assert "zero matrix" in out
        # the short circuit runs no route, so no evaluation count is shown
        assert "oracle evaluations" not in out
        assert main(["chi", p, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == ["chi", "z", "method", "epsilon", "short_circuit"]
        assert payload["short_circuit"] == "zero matrix"

    def test_oracle_method(self, tmp_path, capsys):
        p = write_matrix(tmp_path / "c.json", EXAMPLE_TILDE)
        code = main(
            ["chi", p, "--center=-3-i", "--eps", "1e-4", "--method", "oracle", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "oracle"
        assert list(payload) == [
            "chi", "z", "method", "epsilon", "evaluations", "theta", "oracle_s",
        ]
        assert payload["oracle_s"] >= 0.0
        assert abs(payload["chi"] - CHI_EXAMPLE) < 1e-4

    def test_both_method_adds_the_oracle_keys(self, tmp_path, capsys):
        # the SDP route's keys, then the oracle's under the same names as
        # on --method oracle, then the two that compare the routes
        p = write_matrix(tmp_path / "c.json", EXAMPLE_TILDE)
        argv = ["chi", p, "--center=-3-i", "--eps", "1e-4", "--json"]
        assert main(argv) == 0
        sdp_keys = list(json.loads(capsys.readouterr().out))
        assert main([*argv, "--method", "both"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == [
            *sdp_keys, "evaluations", "theta", "oracle_s", "oracle_value",
            "discrepancy",
        ]
        search = support_search(EXAMPLE_TILDE.translate(gr(-3, -1)), 1e-4)
        assert payload["evaluations"] == search.grid_size
        assert payload["theta"] == search.theta
        assert payload["oracle_value"] == search.chi
        assert payload["discrepancy"] == abs(payload["chi"] - search.chi)
        assert main(argv[:-1] + ["--method", "both"]) == 0
        out = capsys.readouterr().out
        assert f"oracle evaluations = {search.grid_size}\n" in out
        assert "iterations = " in out

    def test_oracle_method_default_eps(self, tmp_path, capsys):
        # at the default eps, 1e-6, the oracle route must still be quick
        p = write_matrix(tmp_path / "c.json", EXAMPLE_TILDE)
        code = main(["chi", p, "--center=-3-i", "--method", "oracle"])
        out = capsys.readouterr().out
        assert code == 0
        chi = float(out.splitlines()[0].split("=")[1])
        assert abs(chi - 1.923) <= 1e-3
        assert "oracle evaluations = " in out


class TestOneRecord:
    """`ellipsoid.SolveResult` is the one definition of the SDP route's
    statistics: `solver_stats` and `chi --json` hold each of its fields
    but value and X, with the bounds times s, and every key that either
    reported before keeps its name and meaning."""

    SCALED = ("certified_gap", "lower_bound", "lower_bound_dual", "falls")
    # the keys of solver_stats and of chi --json before they were read
    # off SolveResult
    OLD_STATS = (
        "iterations", "iteration_cap", "cuts_feasibility", "cuts_objective",
        "lower_bound", "certified_gap", "max_feasible_distance", "outer_R",
        "epsilon_solver", "scale_factor", "setup_s", "solve_s", "cuts_spectral",
        "cuts_modulus", "cuts_ceiling", "lower_bound_dual", "certs_dual",
        "dual_solves", "closed_by",
    )
    OLD_JSON = (
        "chi", "z", "iterations", "method", "epsilon", "lower_bound",
        "certified_gap", "setup_s", "solve_s", "cuts_spectral", "cuts_modulus",
        "cuts_ceiling", "lower_bound_dual", "certs_dual", "dual_solves",
        "closed_by",
    )

    @pytest.mark.parametrize(
        "mat, centre",
        [(EXAMPLE_TILDE, "-3-i"), (COPRIME_DENOMINATORS, "1+i")],
        ids=["example", "chi_zero"],
    )
    def test_stats_and_json_are_the_solve_result(self, tmp_path, capsys, mat, centre):
        eps = 1e-4
        c = parse_gaussian(centre)
        result = crawford(CrawfordQuery(matrix=mat, center=c, epsilon=eps))
        stats = result.solver_stats
        p = write_matrix(tmp_path / "c.json", mat)
        assert main(["chi", p, "--center", centre, "--eps", "1e-4", "--json"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 1
        doc = json.loads(out)
        # the solve crawford() ran: C - cI over s, at eps/s
        inst, ts, scale = scaled_instance(mat.translate(c))
        s = float(scale)
        ball = certified_ball(inst, ts)
        res = solve(ball, eps / s)

        assert result.chi == doc["chi"] == res.value * s
        fields = [f.name for f in dataclasses.fields(res)]
        assert fields[:2] == ["value", "X"]
        for name in fields[2:]:
            want = getattr(res, name)
            if name == "falls":
                want = tuple(f * s for f in want)
            elif name in self.SCALED and want is not None:
                want = want * s
            assert stats[name] == want, name
            assert doc[name] == (list(want) if name == "falls" else want), name
        if mat is COPRIME_DENOMINATORS:
            assert res.lower_bound == 0.0 and result.chi <= eps
        assert set(self.OLD_STATS) <= set(stats)
        assert set(self.OLD_JSON) <= set(doc)
        assert stats["outer_R"] == doc["outer_R"] == float(ball.outer_R)
        assert stats["epsilon_solver"] == doc["epsilon_solver"] == eps / s
        assert stats["scale_factor"] == Fraction(doc["scale_factor"]) == scale
        assert doc["method"] == "sdp" and doc["epsilon"] == eps
        assert doc["z"] == [result.nearest_point.real, result.nearest_point.imag]
        for key in ("setup_s", "solve_s"):
            assert stats[key] >= 0.0 and doc[key] >= 0.0


class TestExitCodes:
    def test_missing_file_io(self, tmp_path, capsys):
        assert main(["chi", str(tmp_path / "absent.json")]) == 4

    def test_parse_error(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"n": 1, "entries": [["wat"]]}')
        assert main(["chi", str(p)]) == 2

    @pytest.mark.parametrize("text", MALFORMED_FILES)
    def test_malformed_file(self, tmp_path, capsys, text):
        p = tmp_path / "bad.json"
        p.write_text(text)
        assert main(["chi", str(p)]) == 2

    def test_bad_center(self, tmp_path, capsys):
        p = write_matrix(tmp_path / "c.json", IDENTITY2)
        assert main(["chi", p, "--center", "nope"]) == 2

    def test_bad_eps(self, tmp_path, capsys):
        p = write_matrix(tmp_path / "c.json", IDENTITY2)
        assert main(["chi", p, "--eps", "2.0"]) == 2

    @pytest.mark.parametrize("command", ["chi", "verify"])
    @pytest.mark.parametrize("failure", ["chart", "frobenius_bound"])
    def test_solver_runtime_error_exits_3(
        self, tmp_path, capsys, monkeypatch, command, failure
    ):
        # a ChartError out of the repair, or crawford's check that chi
        # stays below ||C||_F + eps, is a solver diagnostic, not a traceback.
        # The ascent closes this example without a repair, so with no
        # ascent steps the loop's first step repairs the centre G
        from crawford import api, ellipsoid

        if failure == "chart":

            def broken(inst, dens):
                raise ellipsoid.ChartError("repair collapsed the trace; point was garbage")

            monkeypatch.setattr(ellipsoid, "_ASCENT_STEPS", 0)
            monkeypatch.setattr(ellipsoid, "repair_point", broken)
            expect = "repair collapsed the trace"
        else:
            monkeypatch.setattr(api, "numerical_radius_upper", lambda c: 0.0)
            expect = "exceeds the Frobenius bound"
        p = write_matrix(tmp_path / "c.json", EXAMPLE_TILDE)
        assert main([command, p, "--center=-3-i", "--eps", "1e-4"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("solver error: ") and expect in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "argv",
        [["chi"], ["chi", "--method", "oracle"], ["verify"]],
        ids=["sdp", "oracle", "verify"],
    )
    def test_entry_beyond_float_range_exits_3(self, tmp_path, capsys, argv):
        # ||C||_F^2 = 10^320 + 5 is exact, but beyond float64: an honest
        # solver diagnostic, never a traceback, and no numpy overflow
        # warning before it (a warning is an error here)
        p = write_matrix(tmp_path / "h.json", HUGE)
        assert main(argv[:1] + [p] + argv[1:]) == 3
        err = capsys.readouterr().err
        assert err.startswith("solver error: ") and "float64 range" in err
        assert err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize("command", ["chi", "verify"])
    @pytest.mark.parametrize("k", [10**8, 10**12])
    def test_large_entries_exit_3(self, tmp_path, capsys, command, k):
        # entries of 10^8 and up once exited 3 when the chart's Cholesky
        # factor failed in float64.  On C/s, 10^8 solves (eps/s ~ 1e-13);
        # at 10^12 eps/s ~ 1e-17 is below float resolution, and the run
        # still ends with an honest solver diagnostic
        p = write_matrix(tmp_path / "l.json", large(k))
        code = main([command, p, "--eps", "1e-4"])
        out, err = capsys.readouterr()
        if k == 10**8:
            assert code == 0, err
            assert command == "chi" or out.endswith("verify OK\n")
        else:
            assert code == 3
            assert err.startswith("solver error: ") and err.count("\n") == 1

    def test_exit_3_in_the_callers_units(self, tmp_path, capsys):
        # the solve of C/s at eps/s fails; crawford() raises it again with
        # the bounds times s, and chi's message quotes eps and s, never eps/s
        t = large(10**12)
        inst, ts, scale = scaled_instance(t)
        s = float(scale)
        with pytest.raises(EllipsoidCapExceeded) as raw:
            solve(certified_ball(inst, ts), 1e-4 / s)
        with pytest.raises(EllipsoidCapExceeded) as got:
            crawford(CrawfordQuery(matrix=t, epsilon=1e-4))
        assert got.value.result.value == raw.value.result.value * s
        assert got.value.result.lower_bound == raw.value.result.lower_bound * s
        assert got.value.iterations == raw.value.iterations
        assert got.value.result.iteration_cap == raw.value.result.iteration_cap
        p = write_matrix(tmp_path / "l.json", t)
        assert main(["chi", p, "--eps", "1e-4"]) == 3
        err = capsys.readouterr().err
        assert "eps=0.0001" in err and f"s = {scale}" in err
        assert f"{1e-4 / s:g}" not in err
        assert f"best {got.value.result.value:.9g}" in err

    def test_tiny_entries(self, tmp_path, capsys):
        # entries of 10^-200 and 10^-201: C/s is an instance of norm about
        # 1 solved at eps/s, so chi = 10^-201 comes out to about eps/s
        # relative (the cleared-denominator instance once gave a negative
        # iteration cap); s = 2^-1100 is below the float64 range
        tiny = ComplexMatrix(
            [[gr(Fraction(1, 10**200)), gr(0)], [gr(0), gr(Fraction(1, 10**201))]]
        )
        p = write_matrix(tmp_path / "t.json", tiny)
        assert main(["chi", p, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["chi"] == pytest.approx(1e-201, rel=1e-5)
        p = write_matrix(tmp_path / "u.json", ComplexMatrix([[gr(Fraction(1, 2**1100))]]))
        assert main(["chi", p]) == 3
        err = capsys.readouterr().err
        assert err.startswith("solver error: ") and "float64 range" in err

    def test_centre_on_a_fine_lattice(self, tmp_path, capsys):
        # the centre's denominator 10^9 once scaled the solved instance by
        # 10^9 and failed the chart's Cholesky factor (exit 3); on C/s it
        # only moves chi by about 1e-9
        p = write_matrix(tmp_path / "m.json", FINE)
        values = []
        for centre in ("10", "10+1/1000000000i"):
            assert main(["chi", p, "--center", centre, "--eps", "1e-4", "--json"]) == 0
            values.append(json.loads(capsys.readouterr().out)["chi"])
        assert values[0] == pytest.approx(5.9492213, abs=1e-4)
        assert abs(values[1] - values[0]) <= 1e-4

    def test_entry_beyond_float_range_exports(self, tmp_path, capsys):
        p = write_matrix(tmp_path / "h.json", HUGE)
        out = tmp_path / "h.dat-s"
        assert main(["export", p, "--out", str(out)]) == 0
        assert "1e+160" in out.read_text()


class TestCmdExport:
    def test_reference_example(self, tmp_path, capsys):
        p = write_matrix(tmp_path / "c.json", EXAMPLE_TILDE)
        out = tmp_path / "c.dat-s"
        code = main(["export", p, "--center=-3-i", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "24"
        assert lines[2] == "4 2 1"
        stdout = capsys.readouterr().out
        assert "24" in stdout and "4 2 1" in stdout

    def test_mdim_n1(self, tmp_path, capsys):
        p = write_matrix(tmp_path / "s.json", ComplexMatrix([[gr(3, 4)]]))
        out = tmp_path / "s.dat-s"
        assert main(["export", p, "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "14"

    def test_mdim_n3(self, tmp_path, capsys):
        p = write_matrix(tmp_path / "t.json", identity(3).scale(2))
        out = tmp_path / "t.dat-s"
        assert main(["export", p, "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "36"

    def test_zero_matrix_rejected(self, tmp_path, capsys):
        p = write_matrix(tmp_path / "z.json", ComplexMatrix.zeros(2))
        assert main(["export", p]) == 2

    @pytest.mark.parametrize(
        "name,mat,summary",
        [
            ("export_n1", ComplexMatrix([[gr(3, 4)]]), "b: 12 zeros then 2 14\n"),
            (
                "export_coprime",
                COPRIME_DENOMINATORS,
                "b: 34 zeros then 2 184\nnote: instance is for l*C with l = 21\n",
            ),
            ("export_gaussian4", GAUSSIAN4, "b: 48 zeros then 2 26\n"),
        ],
    )
    def test_pinned_bytes(self, tmp_path, capsys, name, mat, summary):
        # files written by an earlier export; the SDPA bytes must not move
        p = write_matrix(tmp_path / f"{name}.json", mat)
        out = tmp_path / f"{name}.dat-s"
        assert main(["export", p, "--out", str(out)]) == 0
        assert out.read_bytes() == (DATA / f"{name}.dat-s").read_bytes()
        assert capsys.readouterr().out.endswith(summary)

    def test_constraints_generated_once(self, tmp_path, capsys, monkeypatch):
        # the b values printed are the ones export_sdpa wrote
        from crawford import sdp

        calls = []
        constraints = sdp.constraints

        def counted(inst):
            calls.append(inst)
            return constraints(inst)

        monkeypatch.setattr(sdp, "constraints", counted)
        p = write_matrix(tmp_path / "c.json", EXAMPLE_TILDE)
        out = tmp_path / "c.dat-s"
        assert main(["export", p, "--center=-3-i", "--out", str(out)]) == 0
        assert len(calls) == 1
        assert capsys.readouterr().out.endswith("b: 22 zeros then 2 18\n")


class TestCmdRange:
    def test_reference_example_csv(self, tmp_path, capsys):
        p = write_matrix(tmp_path / "c.json", EXAMPLE_TILDE)
        out = tmp_path / "r.csv"
        code = main(
            ["range", p, "--center=-3-i", "--samples", "720", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "theta,re,im"
        assert len(lines) == 721
        best = min(
            math.hypot(float(r.split(",")[1]), float(r.split(",")[2]))
            for r in lines[1:]
        )
        assert abs(best - 1.923) < 1e-2
        assert "1.92" in capsys.readouterr().out

    def test_identity_rows(self, tmp_path, capsys):
        p = write_matrix(tmp_path / "i.json", IDENTITY2)
        out = tmp_path / "i.csv"
        assert main(["range", p, "--samples", "8", "--out", str(out)]) == 0
        for row in out.read_text().splitlines()[1:]:
            _, re_s, im_s = row.split(",")
            assert abs(float(re_s) - 1.0) < 1e-9
            assert abs(float(im_s)) < 1e-9

    def test_hermitian_stays_real(self, tmp_path, capsys):
        p = write_matrix(tmp_path / "d.json", DIAG_PM)
        out = tmp_path / "d.csv"
        assert main(["range", p, "--samples", "360", "--out", str(out)]) == 0
        for row in out.read_text().splitlines()[1:]:
            assert abs(float(row.split(",")[2])) < 1e-9

    def test_svg_output(self, tmp_path, capsys):
        p = write_matrix(tmp_path / "c.json", EXAMPLE_TILDE)
        out = tmp_path / "plot.svg"
        code = main(
            ["range", p, "--center=-3-i", "--samples", "64", "--out", str(out)]
        )
        assert code == 0
        text = out.read_text()
        assert "<polyline" in text and "<circle" in text

    def test_samples_floor(self, tmp_path, capsys):
        p = write_matrix(tmp_path / "i.json", IDENTITY2)
        assert main(["range", p, "--samples", "2"]) == 2


class TestCmdVerify:
    def test_reference_example_passes(self, tmp_path, capsys):
        p = write_matrix(tmp_path / "c.json", EXAMPLE_TILDE)
        code = main(["verify", p, "--center=-3-i", "--eps", "1e-4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "sdp_vs_oracle: PASS" in out
        assert "rotation_identity: PASS" in out
        assert "FAIL" not in out

    def test_rotation_identity_catches_a_wrong_value(
        self, tmp_path, capsys, monkeypatch
    ):
        # verify solves chi(i c, i C), a different SDP instance with the
        # same value; one that is off by 10 eps must fail it with exit 5
        from crawford import cli

        eps = 1e-4
        rotated = gr(1, -3)  # i * (-3 - i)
        solve = cli.crawford
        seen = []

        def off_when_rotated(query):
            res = solve(query)
            if query.center == rotated:
                seen.append(query)
                res = dataclasses.replace(res, chi=res.chi + 10 * eps)
            return res

        monkeypatch.setattr(cli, "crawford", off_when_rotated)
        p = write_matrix(tmp_path / "c.json", EXAMPLE_TILDE)
        code = main(["verify", p, "--center=-3-i", "--eps", str(eps)])
        out = capsys.readouterr().out
        assert len(seen) == 1
        assert code == 5
        assert "rotation_identity: FAIL" in out

    def test_inner_ball_matches_a_point_by_point_loop(self, tmp_path, capsys, monkeypatch):
        # the check assembles its 20 points one at a time and takes each
        # block's eigenvalues over all of them at once; the least one is
        # the least of the per-point spectra
        import numpy as np

        from crawford import ellipsoid

        points = []
        point = ellipsoid.AffineChart.point

        def spy(chart, u):
            z = point(chart, u)
            points.append((chart.n, z))
            return z

        monkeypatch.setattr(ellipsoid.AffineChart, "point", spy)
        p = write_matrix(tmp_path / "c.json", GAUSSIAN4)
        assert main(["verify", p, "--eps", "1e-4", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert len(points) == 20
        worst = min(
            min(
                float(np.linalg.eigvalsh(z[: 2 * n, : 2 * n])[0]),
                float(np.linalg.eigvalsh(z[2 * n : 2 * n + 2, 2 * n : 2 * n + 2])[0]),
                float(z[2 * n + 2, 2 * n + 2]),
            )
            for n, z in points
        )
        assert f"inner_ball: PASS (min eigenvalue {worst:.3g})" in out

    def test_outer_ball_reads_the_witness(self, tmp_path, capsys, monkeypatch):
        # chi = 0 closes at the ball centre, so the solve visits no other
        # centre; the witness's Z(X*, |w(X*)|) still lies r - |w| from G,
        # and a radius below that distance must fail the check with exit 5.
        # Both are read on the solved instance C/s, whose ceiling is 1, so
        # R = 12 + 4
        from crawford import cli

        solve = cli.crawford
        radii = []

        def shrunk(query):
            res = solve(query)
            assert res.solver_stats["max_feasible_distance"] == 0.0
            radii.append(res.ball.outer_R)
            ball = dataclasses.replace(res.ball, outer_R=Fraction(1, 10**3))
            return dataclasses.replace(res, ball=ball)

        p = write_matrix(tmp_path / "c.json", EXAMPLE_TILDE)
        assert main(["verify", p, "--eps", "1e-4"]) == 0
        out = capsys.readouterr().out
        d = float(out.split("outer_ball: PASS (max distance ")[1].split()[0])
        assert 1.0 < d <= 16
        monkeypatch.setattr(cli, "crawford", shrunk)
        assert main(["verify", p, "--eps", "1e-4"]) == 5
        out = capsys.readouterr().out
        assert f"outer_ball: FAIL (max distance {d:.6g} vs R 0.001)" in out
        assert radii[0] == 16

    def test_scaling_identity_solves_a_different_instance(
        self, tmp_path, capsys, monkeypatch
    ):
        # verify's third solve is chi(0, 3t) for t = C - cI: over its power
        # of two s' that is 3t/s', not the t/s of the first solve, which a
        # power-of-two factor would give back
        from crawford import cli

        solve = cli.crawford
        seen = []

        def spy(query):
            res = solve(query)
            seen.append((query, res))
            return res

        monkeypatch.setattr(cli, "crawford", spy)
        p = write_matrix(tmp_path / "c.json", EXAMPLE_TILDE)
        assert main(["verify", p, "--center=-3-i", "--eps", "1e-4"]) == 0
        assert "scaling_identity: PASS" in capsys.readouterr().out
        (q0, r0), _, (q2, r2) = seen
        assert q2.matrix == q0.matrix.translate(q0.center).scale(3)
        assert q2.center == gr(0)
        assert (r0.scale_factor, r2.scale_factor) == (8, 32)
        assert r2.ball.chart.inst != r0.ball.chart.inst
        assert abs(r2.chi - 3 * r0.chi) <= 4e-4

    def test_one_set_up_and_one_chart_per_solve(self, tmp_path, capsys, monkeypatch):
        # verify solves three queries (the given one, its rotation and its
        # triple), and its inner-ball check reads the first one's ball: the
        # one dense chart map, built from the traceless basis, that it needs
        from crawford import ellipsoid, sdp

        calls = {"build_instance": 0, "build_chart": 0, "_traceless_basis": 0}

        def count(module, name):
            fn = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        count(sdp, "build_instance")
        count(ellipsoid, "build_chart")
        count(ellipsoid, "_traceless_basis")
        p = write_matrix(tmp_path / "c.json", EXAMPLE_TILDE)
        code = main(["verify", p, "--center=-3-i", "--eps", "1e-4"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "inner_ball: PASS" in out
        assert calls == {"build_instance": 3, "build_chart": 3, "_traceless_basis": 1}

    def test_seeded_random_passes(self, tmp_path, capsys):
        import numpy as np

        from helpers import random_gaussian_integer

        rng = np.random.default_rng(42)
        mat = random_gaussian_integer(rng, 3, -5, 5)
        p = write_matrix(tmp_path / "r.json", mat)
        code = main(["verify", p, "--eps", "1e-4", "--seed", "42"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "FAIL" not in out

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_far_centre_passes(self, tmp_path, capsys, n):
        # chi > 0: the SDP value may sit up to eps above chi, and the
        # oracle's within its delta, so the 1.5 eps check must still hold
        import numpy as np

        from helpers import outside_centre, random_gaussian_integer

        rng = np.random.default_rng(1500 + n)
        for k in range(2):
            mat = random_gaussian_integer(rng, n, -3, 3)
            centre = outside_centre(mat, rng.uniform(0.0, 2.0 * math.pi), 1.5)
            p = write_matrix(tmp_path / f"f{k}.json", mat)
            code = main(["verify", p, "--center", format_gaussian(centre), "--eps", "1e-4"])
            out = capsys.readouterr().out
            assert code == 0, out
            assert "sdp_vs_oracle: PASS" in out
            assert "FAIL" not in out

    def test_zero_matrix(self, tmp_path, capsys):
        p = write_matrix(tmp_path / "z.json", ComplexMatrix.zeros(2))
        code = main(["verify", p])
        out = capsys.readouterr().out
        assert code == 0
        assert "0" in out
