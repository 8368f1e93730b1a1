import dataclasses
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crawford.cli import (
    MatrixParseError,
    RunConfig,
    format_gaussian,
    load_matrix,
    main,
    parse_gaussian,
    save_matrix,
)
from crawford.linalg import ComplexMatrix, GaussianRational
from helpers import (
    CHI_EXAMPLE,
    COPRIME_DENOMINATORS,
    DIAG_PM,
    EXAMPLE_TILDE,
    IDENTITY2,
    gr,
    identity,
)

DATA = Path(__file__).parent / "data"

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


class TestRunConfig:
    def test_epsilon_window(self):
        with pytest.raises(ValueError):
            RunConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            RunConfig(epsilon=1.0)
        assert RunConfig(epsilon=0.5).epsilon == 0.5


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
            "iterations",
            "method",
            "epsilon",
            "lower_bound",
            "certified_gap",
            "setup_s",
            "solve_s",
        ]
        assert payload["setup_s"] >= 0.0 and payload["solve_s"] >= 0.0
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

    def test_oracle_method(self, tmp_path, capsys):
        p = write_matrix(tmp_path / "c.json", EXAMPLE_TILDE)
        code = main(
            ["chi", p, "--center=-3-i", "--eps", "1e-4", "--method", "oracle", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "oracle"
        assert list(payload) == [
            "chi", "z", "iterations", "method", "epsilon", "oracle_s"
        ]
        assert payload["oracle_s"] >= 0.0
        assert abs(payload["chi"] - CHI_EXAMPLE) < 1e-4

    def test_oracle_method_default_eps(self, tmp_path, capsys):
        # at the default eps, 1e-6, the oracle route must still be quick
        p = write_matrix(tmp_path / "c.json", EXAMPLE_TILDE)
        code = main(["chi", p, "--center=-3-i", "--method", "oracle"])
        out = capsys.readouterr().out
        assert code == 0
        chi = float(out.splitlines()[0].split("=")[1])
        assert abs(chi - 1.923) <= 1e-3
        assert "oracle evaluations = " in out


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
        # stays below ||C||_F + eps, is a solver diagnostic, not a traceback
        from crawford import api, ellipsoid

        if failure == "chart":

            def broken(inst, dens):
                raise ellipsoid.ChartError("repair collapsed the trace; point was garbage")

            monkeypatch.setattr(ellipsoid, "repair_point", broken)
            expect = "repair collapsed the trace"
        else:
            monkeypatch.setattr(api, "numerical_radius_upper", lambda c: 0.0)
            expect = "exceeds the Frobenius bound"
        p = write_matrix(tmp_path / "c.json", EXAMPLE_TILDE)
        assert main([command, p, "--center=-3-i", "--eps", "1e-4"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("solver error: ") and expect in err


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

    def test_one_set_up_and_one_chart_per_solve(self, tmp_path, capsys, monkeypatch):
        # verify solves three queries (the given one, its rotation and its
        # double), and its inner-ball check reads the first one's ball
        from crawford import ellipsoid, sdp

        calls = {"build_instance": 0, "build_chart": 0}

        def count(module, name):
            fn = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        count(sdp, "build_instance")
        count(ellipsoid, "build_chart")
        p = write_matrix(tmp_path / "c.json", EXAMPLE_TILDE)
        code = main(["verify", p, "--center=-3-i", "--eps", "1e-4"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "inner_ball: PASS" in out
        assert calls == {"build_instance": 3, "build_chart": 3}

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

    def test_zero_matrix(self, tmp_path, capsys):
        p = write_matrix(tmp_path / "z.json", ComplexMatrix.zeros(2))
        code = main(["verify", p])
        out = capsys.readouterr().out
        assert code == 0
        assert "0" in out
