import dataclasses
import math

import numpy as np
import pytest

from crawford.linalg import ComplexMatrix, frobenius_ceiling, hermitian_split
from crawford.sdp import (
    SdpInstance,
    annihilators,
    assemble_feasible_point,
    build_instance,
    constraints,
    export_sdpa,
    objective,
    read_sdpa,
)
from helpers import (
    EXAMPLE,
    DIAG_PM,
    ambient_dim,
    blocks,
    dense_constraints,
    densify,
    exact_entries,
    gr,
    random_density,
    random_hermitian_gaussian_integer,
)


def example_instance() -> SdpInstance:
    return build_instance(*hermitian_split(EXAMPLE), frobenius_ceiling(EXAMPLE))


def sym_unit(m, i, j):
    out = np.zeros((m, m))
    out[i, j] = 1.0
    out[j, i] = 1.0
    return out


def modulus_block(x, y, r):
    """The 2x2 block of Z(X, r) for a 1x1 C = x + iy, where X = [[1]]
    gives <A, X> = x and <B, X> = y."""
    mat = ComplexMatrix([[gr(x, y)]])
    inst = build_instance(*hermitian_split(mat), frobenius_ceiling(mat))
    return blocks(assemble_feasible_point(inst, np.eye(1), r))[1]


class TestModulusBlock:
    def test_three_four_five(self):
        m = modulus_block(3, 4, 5.0)
        assert np.array_equal(m, [[8.0, 4.0], [4.0, 2.0]])
        assert abs(np.linalg.det(m)) < 1e-12
        assert np.linalg.eigvalsh(m)[0] >= 0.0

    def test_origin(self):
        # C = diag(1, -1) and X = I/2 give <A, X> = <B, X> = 0
        inst = build_instance(*hermitian_split(DIAG_PM), frobenius_ceiling(DIAG_PM))
        m = blocks(assemble_feasible_point(inst, 0.5 * np.eye(2), 0.0))[1]
        assert np.array_equal(m, np.zeros((2, 2)))

    def test_boundary_irrational(self):
        r = math.sqrt(10.0)
        m = modulus_block(3, 1, r)
        assert np.allclose(m, [[r + 3, 1.0], [1.0, r - 3]])
        assert abs(np.linalg.det(m)) < 1e-12


class TestSubspaceBasis:
    def test_n2_matches_displayed_family(self):
        m = 7
        expected = []
        for i in range(4):
            for j in (4, 5, 6):
                expected.append(sym_unit(m, i, j))
        for i in (4, 5):
            expected.append(sym_unit(m, i, 6))
        expected.append(sym_unit(m, 0, 2))
        expected.append(sym_unit(m, 1, 3))
        expected.append(sym_unit(m, 0, 3) + sym_unit(m, 1, 2))
        for i in range(2):
            for j in range(i, 2):
                expected.append(sym_unit(m, i, j) - sym_unit(m, 2 + i, 2 + j))
        got = annihilators(2)
        assert len(got) == 20 == len(expected)
        for a, e in zip(got, expected):
            assert np.array_equal(densify(a, m), e)

    def test_n1_count_and_independence(self):
        fs = [densify(a, 5).ravel() for a in annihilators(1)]
        assert len(fs) == 10
        gram = np.array([[u @ v for v in fs] for u in fs])
        assert np.linalg.matrix_rank(gram) == 10

    def test_entries_in_minus_one_zero_one(self):
        for n in (1, 2, 3, 5):
            for a in annihilators(n):
                assert {v for _, _, v in a} <= {-1, 1}
                # upper-triangle entries, each position at most once
                assert all(i <= j for i, j, _ in a)
                assert len({(i, j) for i, j, _ in a}) == len(a)

    def test_annihilates_structured_points(self):
        rng = np.random.default_rng(21)
        for n in (1, 2, 3):
            basis = [densify(a, 2 * n + 3) for a in annihilators(n)]
            for _ in range(100 // len((1, 2, 3)) + 1):
                h = random_hermitian_gaussian_integer(rng, n).to_complex()
                yh = np.block([[h.real, -h.imag], [h.imag, h.real]])
                tt = rng.standard_normal((2, 2))
                full = np.zeros((2 * n + 3, 2 * n + 3))
                full[: 2 * n, : 2 * n] = yh
                full[2 * n : 2 * n + 2, 2 * n : 2 * n + 2] = tt + tt.T
                full[2 * n + 2, 2 * n + 2] = rng.standard_normal()
                for f in basis:
                    assert abs((f * full).sum()) < 1e-9

    def test_dimension_identity(self):
        for n in range(1, 9):
            fs = [densify(a, 2 * n + 3).ravel() for a in annihilators(n)]
            N = n * n + 7 * n + 2
            assert len(fs) == N
            # annihilator count + structured-subspace dim fills the ambient space
            assert N + (n * n + 4) == (n + 2) * (2 * n + 3)
            gram = np.array([[u @ v for v in fs] for u in fs])
            assert np.linalg.matrix_rank(gram) == N

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            annihilators(0)

    def test_each_call_returns_a_fresh_list(self):
        # the rows are built once per n; a caller that edits its list, as
        # the certificate tamper tests do, leaves the next caller's intact
        inst = example_instance()
        got, cons = annihilators(2), constraints(inst)
        got.clear()
        cons[0] = None
        assert len(annihilators(2)) == 20
        assert constraints(inst)[0] == (annihilators(2)[0], 1, 0)


class TestBuildInstance:
    def test_instance_is_its_data(self):
        inst = example_instance()
        fields = [f.name for f in dataclasses.fields(SdpInstance)]
        assert fields == ["frob_ceiling", "a", "b"]
        assert inst.n == inst.a.n == 2
        assert (inst.a, inst.b) == hermitian_split(EXAMPLE)
        assert inst.frob_ceiling == frobenius_ceiling(EXAMPLE) == 7

    def test_reference_tail_blocks(self):
        inst = example_instance()
        assert inst.n == 2
        assert inst.N == 20
        assert inst.m == 24
        assert inst.block_sizes == (4, 2, 1)
        cons = constraints(inst)
        assert len(cons) == inst.m
        assert [f for f, _, _ in cons[: inst.N]] == annihilators(2)
        assert all(den == 1 and b == 0 for _, den, b in cons[: inst.N])
        tails = [(densify(exact_entries(f, den), 7, object), b) for f, den, b in cons[inst.N :]]
        assert len(tails) == 4
        f1, b1 = tails[0]
        # -hat A and -hat B of the worked example
        assert np.array_equal(
            f1[:4, :4], -np.array([[3, 1, 0, 2], [1, 3, -2, 0], [0, -2, 3, 1], [2, 0, 1, 3]])
        )
        assert np.array_equal(
            f1[4:6, 4:6].astype(float), np.array([[1.0, 0.0], [0.0, -1.0]])
        )
        assert f1[6, 6] == 0 and b1 == 0
        f2, b2 = tails[1]
        assert np.array_equal(
            f2[:4, :4], -np.array([[1, -2, 0, -1], [-2, 1, 1, 0], [0, 1, 1, -2], [-1, 0, -2, 1]])
        )
        assert np.array_equal(
            f2[4:6, 4:6].astype(float), np.array([[0.0, 1.0], [1.0, 0.0]])
        )
        assert b2 == 0
        f3, b3 = tails[2]
        assert np.array_equal(f3[:4, :4].astype(float), np.eye(4))
        assert b3 == 2
        f4, b4 = tails[3]
        assert np.array_equal(f4[4:6, 4:6].astype(float), np.eye(2))
        assert f4[6, 6] == 2
        assert b4 == 18
        # every tail is block-diagonal
        for f, _ in tails:
            assert not f[:4, 4:].any() and not f[4:6, 6:].any()

    def test_objective_reads_half_u_plus_w(self):
        inst = example_instance()
        f0 = densify(objective(inst.n), ambient_dim(inst))
        rng = np.random.default_rng(5)
        for _ in range(20):
            vec = rng.standard_normal(ambient_dim(inst)**2 + 1)
            z = np.zeros((7, 7))
            z[:4, :4] = vec[:16].reshape(4, 4)
            z[4:6, 4:6] = vec[16:20].reshape(2, 2)
            z[6, 6] = vec[20]
            u, w = z[4, 4], z[5, 5]
            assert abs((f0 * z).sum() - 0.5 * (u + w)) < 1e-12

    def test_feasible_iff_r_dominates_modulus(self):
        inst = example_instance()
        a, b = hermitian_split(EXAMPLE)
        a_f = a.to_complex()
        b_f = b.to_complex()
        rng = np.random.default_rng(9)
        for _ in range(40):
            x = random_density(rng, 2)
            zval = complex((a_f.conj() * x).sum().real, (b_f.conj() * x).sum().real)
            for r in (abs(zval) * 1.01 + 1e-6, abs(zval) + 1.0):
                full = assemble_feasible_point(inst, x, r)
                for f, b in dense_constraints(inst):
                    assert abs((f * full).sum() - b) < 1e-8
                zy, zuv, zt = blocks(full)
                assert np.linalg.eigvalsh(zy)[0] >= -1e-9
                assert np.linalg.eigvalsh(zuv)[0] >= -1e-9
                assert zt >= -1e-9
            if abs(zval) > 1e-3:
                bad = assemble_feasible_point(inst, x, abs(zval) * 0.98)
                assert np.linalg.eigvalsh(blocks(bad)[1])[0] < 0.0

    def test_structured_points_lie_in_affine_slice(self):
        inst = example_instance()
        rng = np.random.default_rng(13)
        for _ in range(10):
            full = assemble_feasible_point(inst, random_density(rng, 2), 3.0)
            for f, _ in dense_constraints(inst)[: inst.N]:
                assert abs((f * full).sum()) < 1e-9

    def test_rejects_zero_pencil(self):
        a, b = hermitian_split(ComplexMatrix.zeros(2))
        with pytest.raises(ValueError):
            build_instance(a, b, 1)

    def test_rejects_bad_ceiling(self):
        a, b = hermitian_split(EXAMPLE)
        with pytest.raises(ValueError):
            build_instance(a, b, 0)


class TestExportSdpa:
    def test_header_and_key_lines(self, tmp_path):
        inst = example_instance()
        path = tmp_path / "example.dat-s"
        export_sdpa(inst, path)
        text = path.read_bytes().decode()
        assert "\r" not in text
        lines = text.splitlines()
        assert lines[0] == "24"
        assert lines[1] == "3"
        assert lines[2] == "4 2 1"
        assert lines[3].endswith("2.0 18.0")
        assert lines[3].split()[:20] == ["0.0"] * 20
        f0_lines = [ln for ln in lines if ln.startswith("0 ")]
        assert f0_lines == ["0 2 1 1 0.5", "0 2 2 2 0.5"]

    def test_cross_block_annihilators_emit_nothing(self, tmp_path):
        inst = example_instance()
        path = tmp_path / "example.dat-s"
        export_sdpa(inst, path)
        matnos = {
            int(ln.split()[0]) for ln in path.read_text().splitlines()[4:]
        }
        # families coupling distinct blocks vanish against the variable
        assert matnos.isdisjoint(range(1, 15))
        assert "15 1 1 3 1.0" in path.read_text()

    def test_reexport_is_byte_identical(self, tmp_path):
        inst = example_instance()
        p1 = tmp_path / "a.dat-s"
        p2 = tmp_path / "b.dat-s"
        export_sdpa(inst, p1)
        export_sdpa(inst, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_blockwise(self, tmp_path):
        inst = example_instance()
        path = tmp_path / "rt.dat-s"
        export_sdpa(inst, path)
        data = read_sdpa(path)
        assert data.mdim == inst.m
        assert data.block_sizes == (4, 2, 1)
        cons = dense_constraints(inst)
        assert np.allclose(data.b, [b for _, b in cons], atol=1e-15)
        mats = [densify(objective(inst.n), 7)] + [f for f, _ in cons]
        for got, want in zip(data.matrices, mats):
            assert np.allclose(got[0], want[:4, :4], atol=1e-15)
            assert np.allclose(got[1], want[4:6, 4:6], atol=1e-15)
            assert np.allclose(got[2], want[6:, 6:], atol=1e-15)

    def test_io_error_carries_path(self, tmp_path):
        inst = example_instance()
        bad = tmp_path / "missing" / "x.dat-s"
        with pytest.raises(OSError, match="x.dat-s"):
            export_sdpa(inst, bad)

    def test_returns_the_b_it_wrote(self, tmp_path):
        inst = example_instance()
        path = tmp_path / "b.dat-s"
        b = export_sdpa(inst, path)
        assert b == [b for *_, b in constraints(inst)]
        assert np.array_equal(read_sdpa(path).b, [float(v) for v in b])


class TestReadSdpa:
    """Malformed files raise ValueError naming the path, never IndexError."""

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "3\n",
            "1\n3\n4 2 1\n0.0\n2 1 1 1 1.0\n",
            "1\n3\n4 2 1\n0.0\n1 4 1 1 1.0\n",
            "1\n3\n4 2 1\n0.0\n1 2 3 1 1.0\n",
        ],
        ids=["empty", "header_only", "matno_beyond_mdim", "block_4", "index_beyond_block"],
    )
    def test_malformed_file_raises_value_error(self, tmp_path, text):
        path = tmp_path / "bad.dat-s"
        path.write_text(text)
        with pytest.raises(ValueError, match="bad.dat-s"):
            read_sdpa(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1\n3\n4 2\n0.0\n", "need nBLOCK positive block sizes"),
            ("2\n3\n4 2 1\n0.0\n", "b length does not match mDIM"),
            ("1\n3\n4 2 1\n0.0\n1 1 1 1 x\n", "bad entry line '1 1 1 1 x'"),
        ],
        ids=["sizes_short_of_nblock", "b_short_of_mdim", "non_numeric_entry"],
    )
    def test_each_check_names_its_fault(self, tmp_path, text, message):
        path = tmp_path / "bad.dat-s"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            read_sdpa(path)

    def test_unreadable_path_carries_path(self, tmp_path):
        path = tmp_path / "absent.dat-s"
        with pytest.raises(OSError, match="cannot read SDPA file .*absent.dat-s"):
            read_sdpa(path)
