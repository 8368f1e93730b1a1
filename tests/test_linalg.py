from fractions import Fraction
from numbers import Rational

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crawford.ellipsoid import certified_ball
from crawford.linalg import (
    ComplexMatrix,
    GaussianRational,
    clear_denominators,
    frobenius_ceiling,
    hat_embed,
    hermitian_split,
)
from crawford.sdp import build_instance, constraints
from helpers import (
    COPRIME_DENOMINATORS,
    EXAMPLE,
    EXAMPLE_TILDE,
    densify,
    gr,
    random_gaussian_integer,
)

rationals = st.fractions(
    min_value=-5, max_value=5, max_denominator=8
)
gaussians = st.builds(GaussianRational, rationals, rationals)


def small_matrix(n):
    return st.lists(
        st.lists(gaussians, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(ComplexMatrix)


# entries a/p + (b/q) i with p, q drawn from pairwise coprime denominators
coprime_rationals = st.builds(
    Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 5, 7])
)
coprime_matrices = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(
            st.builds(GaussianRational, coprime_rationals, coprime_rationals),
            min_size=n,
            max_size=n,
        ),
        min_size=n,
        max_size=n,
    ).map(ComplexMatrix)
)


def reference_hat(h: ComplexMatrix) -> np.ndarray:
    re = np.array([[x.re for x in row] for row in h.entries], dtype=object)
    im = np.array([[x.im for x in row] for row in h.entries], dtype=object)
    return np.block([[re, -im], [im, re]])


def all_fractions(arr) -> bool:
    return all(isinstance(v, Fraction) for v in np.asarray(arr).flat)


class TestGaussianRational:
    @given(gaussians, gaussians)
    def test_ring_ops_exact(self, a, b):
        assert (a + b) - b == a
        assert a * b == b * a
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()

    @given(gaussians)
    def test_abs2_matches_conjugate_product(self, a):
        prod = a * a.conjugate()
        assert prod.im == 0
        assert prod.re == a.abs2()

    def test_reduced_storage(self):
        g = GaussianRational(Fraction(2, 4), Fraction(-6, 9))
        assert g.re == Fraction(1, 2) and g.re.denominator == 2
        assert g.im == Fraction(-2, 3)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            GaussianRational(0.5, 0)


class TestHermitianSplit:
    def test_reference_example(self):
        pen = hermitian_split(EXAMPLE)
        assert pen.a == ComplexMatrix([[gr(3), gr(1, -2)], [gr(1, 2), gr(3)]])
        assert pen.b == ComplexMatrix([[gr(1), gr(-2, 1)], [gr(-2, -1), gr(1)]])

    def test_untranslated_example(self):
        pen = hermitian_split(EXAMPLE_TILDE)
        assert pen.a == ComplexMatrix([[gr(0), gr(1, -2)], [gr(1, 2), gr(0)]])
        assert pen.b == ComplexMatrix([[gr(0), gr(-2, 1)], [gr(-2, -1), gr(0)]])

    def test_identity_has_no_skew_part(self):
        pen = hermitian_split(ComplexMatrix.identity(3))
        assert pen.a == ComplexMatrix.identity(3)
        assert pen.b.is_zero()

    @settings(max_examples=60)
    @given(small_matrix(2))
    def test_reconstruction_exact(self, c):
        pen = hermitian_split(c)
        assert pen.a.is_hermitian() and pen.b.is_hermitian()
        recon = pen.a + pen.b.scale(GaussianRational(0, 1))
        assert recon == c


class TestExactSetupMatchesReference:
    """The one-pass split, build_instance and certified_ball against a
    reference made from ComplexMatrix operations and dense inner products."""

    @settings(max_examples=40, deadline=None)
    @given(coprime_matrices)
    def test_split_instance_and_ball(self, c):
        cint, l = clear_denominators(c)
        assert cint == c.scale(l)
        for m in (c, cint):
            adj = m.adjoint()
            a_ref = (m + adj).scale(Fraction(1, 2))
            b_ref = (m - adj).scale(GaussianRational(0, Fraction(-1, 2)))
            pen = hermitian_split(m)
            assert pen.a == a_ref and pen.b == b_ref
            for hat, ref in ((hat_embed(pen.a), a_ref), (hat_embed(pen.b), b_ref)):
                assert all_fractions(hat)
                assert np.array_equal(hat, reference_hat(ref))
            if m.is_zero():
                continue
            k = frobenius_ceiling(m)
            inst = build_instance(pen, k)
            cons = constraints(inst)
            size, h = inst.ambient_dim, 2 * m.n
            tails = [densify(f, size, object) for f, _ in cons[inst.N :]]
            assert np.array_equal(tails[0][:h, :h], -reference_hat(a_ref))
            assert np.array_equal(tails[1][:h, :h], -reference_hat(b_ref))
            assert all(isinstance(v, Rational) for f, _ in cons for _, _, v in f)
            assert [b for _, b in cons[inst.N :]] == [0, 0, 2, 2 * (k + 2)]
            ball = certified_ball(inst, m)
            tr = sum((m[i, i] for i in range(m.n)), GaussianRational(0))
            x, y = tr.re / m.n, tr.im / m.n
            g = densify(ball.center, size, object)
            assert np.array_equal(
                g[h : h + 2, h : h + 2],
                np.array([[k + 1 + x, y], [y, k + 1 - x]], dtype=object),
            )
            for f, b in cons:
                assert (densify(f, size, object) * g).sum() == b


class TestHatEmbed:
    def test_reference_pair(self):
        pen = hermitian_split(EXAMPLE)
        expect_a = np.array(
            [[3, 1, 0, 2], [1, 3, -2, 0], [0, -2, 3, 1], [2, 0, 1, 3]]
        )
        expect_b = np.array(
            [[1, -2, 0, -1], [-2, 1, 1, 0], [0, 1, 1, -2], [-1, 0, -2, 1]]
        )
        assert np.array_equal(hat_embed(pen.a).astype(float), expect_a)
        assert np.array_equal(hat_embed(pen.b).astype(float), expect_b)

    def test_identity(self):
        h = hat_embed(ComplexMatrix.identity(3))
        assert np.array_equal(h.astype(float), np.eye(6))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            hat_embed(ComplexMatrix([[gr(0), gr(1)], [gr(0), gr(0)]]))

    @settings(max_examples=40)
    @given(small_matrix(2), small_matrix(2))
    def test_half_inner_product_exact(self, c1, c2):
        h1 = (c1 + c1.adjoint()).scale(Fraction(1, 2))
        h2 = (c2 + c2.adjoint()).scale(Fraction(1, 2))
        lhs = sum(
            (h1[i, j] * h2[j, i] for i in range(2) for j in range(2)),
            GaussianRational(0),
        )
        assert lhs.im == 0
        rhs = (hat_embed(h1) * hat_embed(h2)).sum()
        assert 2 * lhs.re == rhs

    def test_eigenvalue_doubling(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            h = random_gaussian_integer(rng, n)
            h = (h + h.adjoint()).scale(Fraction(1, 2))
            base = np.linalg.eigvalsh(h.to_complex())
            hatted = np.linalg.eigvalsh(hat_embed(h).astype(float))
            assert np.allclose(np.repeat(base, 2), hatted, atol=1e-9)

    def test_psd_preserved_both_ways(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            c = random_gaussian_integer(rng, 2, -2, 2)
            prod = c.adjoint()  # C* C is PSD, build it exactly
            psd_rows = [
                [
                    sum(
                        (prod[i, k] * c[k, j] for k in range(2)),
                        GaussianRational(0),
                    )
                    for j in range(2)
                ]
                for i in range(2)
            ]
            psd = ComplexMatrix(psd_rows)
            lam = np.linalg.eigvalsh(hat_embed(psd).astype(float))
            assert lam[0] >= -1e-9


class TestFrobeniusCeiling:
    def test_reference_example(self):
        assert EXAMPLE.frobenius_sq() == 40
        assert frobenius_ceiling(EXAMPLE) == 7

    def test_sqrt2(self):
        assert frobenius_ceiling(ComplexMatrix.identity(2)) == 2

    def test_exact_square(self):
        assert frobenius_ceiling(ComplexMatrix([[gr(3)]])) == 3

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            frobenius_ceiling(ComplexMatrix.zeros(2))

    @settings(max_examples=80)
    @given(small_matrix(2))
    def test_bracketing_exact(self, c):
        if c.is_zero():
            return
        k = frobenius_ceiling(c)
        q = c.frobenius_sq()
        assert k * k >= q
        assert (k - 1) * (k - 1) < q


class TestClearDenominators:
    def test_half(self):
        cint, l = clear_denominators(ComplexMatrix([[gr(Fraction(1, 2))]]))
        assert l == 2
        assert cint == ComplexMatrix([[gr(1)]])

    def test_integer_passthrough(self):
        c = ComplexMatrix([[gr(2), gr(0, -3)], [gr(1), gr(4)]])
        cint, l = clear_denominators(c)
        assert l == 1 and cint is c

    def test_mixed(self):
        c = ComplexMatrix(
            [[gr(Fraction(1, 2)), gr(0, Fraction(1, 3))], [gr(0), gr(1)]]
        )
        cint, l = clear_denominators(c)
        assert l == 6
        assert cint == ComplexMatrix([[gr(3), gr(0, 2)], [gr(0), gr(6)]])

    def test_lcm_not_product(self):
        cint, l = clear_denominators(COPRIME_DENOMINATORS)
        assert l == 21
        assert cint == COPRIME_DENOMINATORS.scale(21)

    @settings(max_examples=60)
    @given(small_matrix(2))
    def test_scaling_is_exact(self, c):
        cint, l = clear_denominators(c)
        assert cint == c.scale(l)
        for row in cint.entries:
            for x in row:
                assert x.re.denominator == 1 and x.im.denominator == 1
