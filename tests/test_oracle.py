import math
from fractions import Fraction

import numpy as np
import pytest

from crawford.linalg import (
    ComplexMatrix,
    GaussianRational,
    frobenius_ceiling,
    hermitian_split,
)
from crawford.oracle import (
    minimizing_witness,
    sample_boundary,
    support_search,
    write_boundary_csv,
    write_boundary_svg,
)
from helpers import (
    CHI_EXAMPLE,
    DIAG_PM,
    EXAMPLE,
    EXAMPLE_TILDE,
    IDENTITY2,
    gr,
    random_gaussian_integer,
)


def float_parts(mat: ComplexMatrix):
    a, b = hermitian_split(mat)
    return a.to_complex(), b.to_complex()


def sampled_gmax(mat: ComplexMatrix, m: int = 4096) -> float:
    """max over m uniform directions of lambda_min(cos t A + sin t B)."""
    a_f, b_f = float_parts(mat)
    t = 2.0 * math.pi * np.arange(m) / m
    h = np.cos(t)[:, None, None] * a_f + np.sin(t)[:, None, None] * b_f
    return float(np.linalg.eigvalsh(h)[:, 0].max())


class TestChiOracle:
    def test_reference_example(self):
        got = support_search(EXAMPLE, 1e-4).chi
        assert abs(got - 1.923) < 1e-3
        assert abs(got - CHI_EXAMPLE) < 1e-4

    def test_indefinite_diagonal(self):
        assert support_search(DIAG_PM, 1e-4).chi == 0.0

    def test_identity(self):
        assert support_search(IDENTITY2, 1e-4).chi == pytest.approx(1.0, abs=1e-9)

    def test_scalar_matrix(self):
        c = ComplexMatrix([[gr(3, 4)]])
        assert support_search(c, 1e-4).chi == pytest.approx(5.0, abs=1e-9)

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            support_search(EXAMPLE, 0.0)

    @pytest.mark.parametrize("delta", [math.inf, math.nan])
    def test_rejects_non_finite_delta(self, delta):
        # a nan delta makes every stop comparison false: the search never
        # returned
        with pytest.raises(ValueError, match="finite and positive"):
            support_search(EXAMPLE, delta)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_certificate_random(self, n):
        rng = np.random.default_rng(500 + n)
        cases = [ComplexMatrix.zeros(n)]
        for _ in range(2):
            c = random_gaussian_integer(rng, n, -3, 3)
            if not c.is_zero():
                # chi >= 1 about the centre ceil(||C||_F) + 1
                cases += [c, c.translate(gr(frobenius_ceiling(c) + 1))]
        for c in cases:
            ref = sampled_gmax(c)
            a_f, b_f = float_parts(c)
            for delta in (1e-3, 1e-6):
                s = support_search(c, delta)
                assert s.chi == max(0.0, s.gmax) >= 0.0
                # gmax itself may stay below ref after the chi = 0 exit
                assert s.chi >= ref - delta
                h = math.cos(s.theta) * a_f + math.sin(s.theta) * b_f
                assert s.gmax == pytest.approx(np.linalg.eigvalsh(h)[0], abs=1e-12)
                if s.chi == 0.0:
                    # exact zero: every Lipschitz bound was <= 0
                    assert ref <= 1e-12

    def test_small_positive_chi(self):
        # W(EXAMPLE_TILDE) is the ellipse with foci +-(2 - 2i) and semi-axes
        # 3 and 1; the centre lies on its major axis, 9/4 sqrt 2 from 0, so
        # the nearest point is the vertex 3(1 - i)/sqrt 2 off the quarter turns
        c = EXAMPLE_TILDE.translate(gr(Fraction(9, 4), Fraction(-9, 4)))
        want = 9.0 * math.sqrt(2.0) / 4.0 - 3.0
        for delta in (1e-4, 1e-6):
            assert support_search(c, delta).chi == pytest.approx(want, abs=delta)

    def test_early_exit_inside(self):
        # 0 is a segment point of W(DIAG_PM) and the centre of the ellipse
        # W(EXAMPLE_TILDE), at depth 1
        for c in (DIAG_PM, EXAMPLE_TILDE):
            s = support_search(c, 1e-6)
            assert s.chi == 0.0
            assert s.grid_size < 200

    def test_worked_example_evaluation_counts(self):
        # arcs already below the stop threshold are never pushed; the
        # search must still take exactly the same evaluations
        assert support_search(EXAMPLE, 1e-4).grid_size == 688
        assert support_search(EXAMPLE, 1e-6).grid_size == 6798

    def test_search_angle_matches_reference(self):
        # the best evaluation sits near the top of a smooth maximum, so its
        # error is second order in the final arc width, far below delta
        s = support_search(EXAMPLE, 1e-4)
        assert s.chi == pytest.approx(CHI_EXAMPLE, abs=1e-6)
        assert s.theta == pytest.approx(0.6478507, abs=1e-4)


class TestSampleBoundary:
    def test_identity_collapses(self):
        for z in sample_boundary(IDENTITY2, 12):
            assert abs(z - 1.0) < 1e-12

    def test_normal_matrix_endpoints(self):
        for z in sample_boundary(DIAG_PM, 4):
            assert min(abs(z - 1.0), abs(z + 1.0)) < 1e-9

    def test_reference_min_modulus(self):
        pts = sample_boundary(EXAMPLE, 720)
        assert abs(min(abs(z) for z in pts) - 1.923) < 1e-2

    def test_membership_via_support_inequalities(self):
        a_f, b_f = float_parts(EXAMPLE)
        for z in sample_boundary(EXAMPLE, 60):
            for phi in np.linspace(0.0, 2.0 * math.pi, 37):
                h = math.cos(phi) * a_f + math.sin(phi) * b_f
                support = np.linalg.eigvalsh(h)[-1]
                assert math.cos(phi) * z.real + math.sin(phi) * z.imag <= support + 1e-8

    def test_convexity_consistency(self):
        rng = np.random.default_rng(37)
        for _ in range(5):
            c = random_gaussian_integer(rng, 3, -2, 2)
            m = 400
            pts = sample_boundary(c, m)
            gap = 2.0 * math.pi * math.sqrt(float(c.frobenius_sq())) / m
            chi = support_search(c, 1e-2).chi
            assert min(abs(z) for z in pts) >= chi - gap - 1e-2

    def test_rotation_equivariance(self):
        phi = math.pi / 7
        den = 10**12
        q = GaussianRational(
            Fraction(round(math.cos(phi) * den), den),
            Fraction(round(math.sin(phi) * den), den),
        )
        rotated = EXAMPLE.scale(q)
        m = 90
        a_f, b_f = float_parts(EXAMPLE)
        cf = EXAMPLE.to_complex()
        got = sample_boundary(rotated, m)
        for k, zr in enumerate(got):
            # cos(t)A' + sin(t)B' = H(t - phi) for the unrotated pencil
            t = 2.0 * math.pi * k / m - phi
            h = math.cos(t) * a_f + math.sin(t) * b_f
            _, vec = np.linalg.eigh(h)
            x = vec[:, -1]
            z = complex(x.conj() @ cf @ x) * complex(math.cos(phi), math.sin(phi))
            assert abs(zr - z) < 1e-9

    def test_rejects_tiny_m(self):
        with pytest.raises(ValueError):
            sample_boundary(EXAMPLE, 2)


class TestMinimizingWitness:
    def test_reference_witness_modulus(self):
        s = support_search(EXAMPLE, 1e-4)
        a_f, b_f = float_parts(EXAMPLE)
        x = minimizing_witness(a_f, b_f, s.theta)
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
        z = complex(x.conj() @ EXAMPLE.to_complex() @ x)
        assert abs(z) == pytest.approx(CHI_EXAMPLE, abs=1e-6)

    def test_degenerate_eigenspace_mixture(self):
        # normal matrix diag(1, 1+2i): support at theta = 0 is doubly
        # degenerate, nearest point of the segment [1, 1+2i] is 1
        c = ComplexMatrix([[gr(1), gr(0)], [gr(0), gr(1, 2)]])
        a_f, b_f = float_parts(c)
        x = minimizing_witness(a_f, b_f, 0.0)
        z = complex(x.conj() @ c.to_complex() @ x)
        assert abs(z - 1.0) < 1e-9
        assert support_search(c, 1e-6).chi == pytest.approx(1.0, abs=1e-6)

    def test_witness_agrees_with_chi_randomized(self):
        rng = np.random.default_rng(41)
        for _ in range(8):
            c = random_gaussian_integer(rng, 3, -2, 2)
            s = support_search(c, 1e-3)
            if s.chi == 0.0:
                continue
            a_f, b_f = float_parts(c)
            x = minimizing_witness(a_f, b_f, s.theta)
            z = complex(x.conj() @ c.to_complex() @ x)
            # the witness modulus error is second order in the theta error,
            # so it is much tighter than delta
            assert abs(abs(z) - s.chi) <= 1e-4


class TestWriters:
    def test_csv_layout(self, tmp_path):
        path = tmp_path / "boundary.csv"
        pts = sample_boundary(EXAMPLE, 720)
        write_boundary_csv(pts, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "theta,re,im"
        assert len(lines) == 721
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert complex(float(first[1]), float(first[2])) == pytest.approx(pts[0])

    def test_csv_io_error(self, tmp_path):
        with pytest.raises(OSError, match="boundary.csv"):
            pts = sample_boundary(EXAMPLE, 8)
            write_boundary_csv(pts, tmp_path / "nope" / "boundary.csv")

    def test_svg_layout(self, tmp_path):
        path = tmp_path / "range.svg"
        pts = sample_boundary(EXAMPLE, 64)
        write_boundary_svg(pts, path, marker=complex(1.533, 1.161))
        text = path.read_text()
        assert text.startswith("<svg ")
        assert "<polyline" in text
        assert '<circle' in text and 'fill="red"' in text
        assert text.rstrip().endswith("</svg>")

    def test_svg_marker_optional(self, tmp_path):
        path = tmp_path / "plain.svg"
        write_boundary_svg(sample_boundary(IDENTITY2, 8), path)
        assert "<circle" not in path.read_text()
