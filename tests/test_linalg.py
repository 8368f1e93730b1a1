import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crawford.api import scaled_instance, sdp_instance
from crawford.cli import load_matrix
from crawford.ellipsoid import certified_ball
from crawford.linalg import (
    ComplexMatrix,
    GaussianRational,
    clear_denominators,
    frobenius_ceiling,
    hat_upper,
    hermitian_split,
)
from crawford.sdp import annihilators, ball_center, build_instance, constraints
from helpers import (
    COPRIME_DENOMINATORS,
    EXAMPLE,
    EXAMPLE_TILDE,
    adjoint,
    ambient_dim,
    densify,
    exact_entries,
    gr,
    identity,
    random_gaussian_integer,
    save_matrix,
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
        a, b = hermitian_split(EXAMPLE)
        assert a == ComplexMatrix([[gr(3), gr(1, -2)], [gr(1, 2), gr(3)]])
        assert b == ComplexMatrix([[gr(1), gr(-2, 1)], [gr(-2, -1), gr(1)]])

    def test_untranslated_example(self):
        a, b = hermitian_split(EXAMPLE_TILDE)
        assert a == ComplexMatrix([[gr(0), gr(1, -2)], [gr(1, 2), gr(0)]])
        assert b == ComplexMatrix([[gr(0), gr(-2, 1)], [gr(-2, -1), gr(0)]])

    def test_identity_has_no_skew_part(self):
        a, b = hermitian_split(identity(3))
        assert a == identity(3)
        assert b.is_zero()

    @settings(max_examples=60)
    @given(small_matrix(2))
    def test_reconstruction_exact(self, c):
        a, b = hermitian_split(c)
        assert a.is_hermitian() and b.is_hermitian()
        recon = a + b.scale(GaussianRational(0, 1))
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
            adj = adjoint(m)
            a_ref = (m + adj).scale(Fraction(1, 2))
            b_ref = (m - adj).scale(GaussianRational(0, Fraction(-1, 2)))
            a, b = hermitian_split(m)
            assert a == a_ref and b == b_ref
            for h, ref in ((a, a_ref), (b, b_ref)):
                upper = hat_upper(h)
                assert all(type(p) is int for _, _, p in upper)
                hat = densify(exact_entries(upper, h.den), 2 * m.n, object)
                assert np.array_equal(hat, reference_hat(ref))
            if m.is_zero():
                continue
            k = frobenius_ceiling(m)
            inst = build_instance(a, b, k)
            cons = constraints(inst)
            size, h = ambient_dim(inst), 2 * m.n
            # each row is int numerators over its denominator
            assert all(type(p) is int for f, _, _ in cons for _, _, p in f)
            assert [den for _, den, _ in cons] == [1] * inst.N + [a.den, b.den, 1, 1]
            exact = [densify(exact_entries(f, den), size, object) for f, den, _ in cons]
            assert np.array_equal(exact[inst.N][:h, :h], -reference_hat(a_ref))
            assert np.array_equal(exact[inst.N + 1][:h, :h], -reference_hat(b_ref))
            assert [b for *_, b in cons[inst.N :]] == [0, 0, 2, 2 * (k + 2)]
            ball = certified_ball(inst, m)
            tr = sum((m[i, i] for i in range(m.n)), GaussianRational(0))
            x, y = tr.re / m.n, tr.im / m.n
            g = densify(ball.center, size, object)
            assert np.array_equal(
                g[h : h + 2, h : h + 2],
                np.array([[k + 1 + x, y], [y, k + 1 - x]], dtype=object),
            )
            for f, (_, _, b) in zip(exact, cons):
                assert (f * g).sum() == b


class TestIntegerRows:
    """Every row of `sdp.constraints` is int numerators over one row
    denominator, and divided by it equals the Fraction reference built
    from the dense hat embedding, entry for entry and in the same order."""

    @pytest.mark.parametrize("form", [scaled_instance, sdp_instance])
    @settings(max_examples=40, deadline=None)
    @given(c=coprime_matrices)
    def test_rows_equal_the_fraction_reference(self, form, c):
        assume(not c.is_zero())
        inst = form(c)[0]
        k = 2 * inst.n

        def negated_upper(h):
            # hat H densified, then its nonzero upper triangle row by row:
            # hat_upper's order
            d = densify(exact_entries(hat_upper(h), h.den), k, object)
            return [(i, j, -d[i, j]) for i in range(k) for j in range(i, k) if d[i, j]]

        want = [(list(f), 0) for f in annihilators(inst.n)] + [
            (negated_upper(inst.a) + [(k, k, 1), (k + 1, k + 1, -1)], 0),
            (negated_upper(inst.b) + [(k, k + 1, 1)], 0),
            ([(i, i, 1) for i in range(k)], 2),
            ([(k, k, 1), (k + 1, k + 1, 1), (k + 2, k + 2, 2)], 2 * (inst.frob_ceiling + 2)),
        ]
        cons = constraints(inst)
        assert [den for _, den, _ in cons] == [1] * inst.N + [inst.a.den, inst.b.den, 1, 1]
        assert all(type(p) is int for f, _, _ in cons for _, _, p in f)
        assert [(exact_entries(f, den), b) for f, den, b in cons] == want


class TestHatEmbed:
    def test_reference_pair(self):
        a, b = hermitian_split(EXAMPLE)
        expect_a = np.array(
            [[3, 1, 0, 2], [1, 3, -2, 0], [0, -2, 3, 1], [2, 0, 1, 3]]
        )
        expect_b = np.array(
            [[1, -2, 0, -1], [-2, 1, 1, 0], [0, 1, 1, -2], [-1, 0, -2, 1]]
        )
        assert np.array_equal(densify(exact_entries(hat_upper(a), a.den), 4), expect_a)
        assert np.array_equal(densify(exact_entries(hat_upper(b), b.den), 4), expect_b)

    def test_identity(self):
        h = identity(3)
        assert np.array_equal(densify(exact_entries(hat_upper(h), h.den), 6), np.eye(6))

    @settings(max_examples=40)
    @given(small_matrix(2), small_matrix(2))
    def test_half_inner_product_exact(self, c1, c2):
        h1 = (c1 + adjoint(c1)).scale(Fraction(1, 2))
        h2 = (c2 + adjoint(c2)).scale(Fraction(1, 2))
        lhs = sum(
            (h1[i, j] * h2[j, i] for i in range(2) for j in range(2)),
            GaussianRational(0),
        )
        assert lhs.im == 0
        hat1, hat2 = (densify(exact_entries(hat_upper(h), h.den), 4, object) for h in (h1, h2))
        rhs = (hat1 * hat2).sum()
        assert 2 * lhs.re == rhs

    def test_eigenvalue_doubling(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            h = random_gaussian_integer(rng, n)
            h = (h + adjoint(h)).scale(Fraction(1, 2))
            base = np.linalg.eigvalsh(h.to_complex())
            hatted = np.linalg.eigvalsh(densify(exact_entries(hat_upper(h), h.den), 2 * n))
            assert np.allclose(np.repeat(base, 2), hatted, atol=1e-9)

    def test_psd_preserved_both_ways(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            c = random_gaussian_integer(rng, 2, -2, 2)
            prod = adjoint(c)  # C* C is PSD, build it exactly
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
            lam = np.linalg.eigvalsh(densify(exact_entries(hat_upper(psd), psd.den), 4))
            assert lam[0] >= -1e-9


class TestFrobeniusCeiling:
    def test_reference_example(self):
        assert EXAMPLE.frobenius_sq() == 40
        assert frobenius_ceiling(EXAMPLE) == 7

    def test_sqrt2(self):
        assert frobenius_ceiling(identity(2)) == 2

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


def big_coprime_rows(rnd: random.Random, n: int) -> list:
    """n rows of entries a/p + (b/q) i with |a|, |b| <= 10^20 and p, q
    drawn from the pairwise coprime 1, 2, 3, 5, 7."""

    def part():
        return Fraction(rnd.randint(-(10**20), 10**20), rnd.choice((1, 2, 3, 5, 7)))

    return [[gr(part(), part()) for _ in range(n)] for _ in range(n)]


class TestIntegerSetupMatchesFractionReference:
    """translate -> clear_denominators -> hermitian_split ->
    frobenius_ceiling -> build_instance -> ball_center / constraints, run
    on integer numerators, against a reference that repeats every step
    with Fraction arithmetic on GaussianRational entries."""

    @staticmethod
    def reference(entries: list, centre: GaussianRational):
        n = len(entries)
        rows = [[entries[i][j] - (centre if i == j else 0) for j in range(n)] for i in range(n)]
        l = math.lcm(*(v.denominator for row in rows for x in row for v in (x.re, x.im)))
        rows = [[x * l for x in row] for row in rows]
        # A = (C + C*)/2 and B = (C - C*)/(2i) = (C - C*)(-i/2)
        half, minus_half_i = gr(Fraction(1, 2)), gr(0, Fraction(-1, 2))
        a = [[(rows[i][j] + rows[j][i].conjugate()) * half for j in range(n)] for i in range(n)]
        b = [
            [(rows[i][j] - rows[j][i].conjugate()) * minus_half_i for j in range(n)]
            for i in range(n)
        ]
        frob_sq = sum(x.abs2() for row in rows for x in row)
        ceiling = math.isqrt(math.floor(frob_sq))
        while ceiling * ceiling < frob_sq:
            ceiling += 1
        return l, a, b, ceiling

    @staticmethod
    def reference_hat_negated(h) -> list:
        n = len(h)
        upper = [(i, j, h[i][j].re) for i in range(n) for j in range(i, n)]
        out = []
        for i in range(n):
            out += [(i, j, v) for i2, j, v in upper if i2 == i]
            out += [(i, n + j, -h[i][j].im) for j in range(n)]
        out += [(n + i, n + j, v) for i, j, v in upper]
        return [(i, j, -v) for i, j, v in out if v != 0]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_setup_against_fraction_reference(self, n):
        rnd = random.Random(1900 + n)
        for _ in range(4):
            entries = big_coprime_rows(rnd, n)
            centre = gr(Fraction(rnd.randint(-99, 99), 4), Fraction(rnd.randint(-99, 99), 3))
            l_ref, a_ref, b_ref, ceiling_ref = self.reference(entries, centre)
            inst, _, l = sdp_instance(ComplexMatrix(entries).translate(centre))
            assert l == l_ref
            assert [list(row) for row in inst.a.entries] == a_ref
            assert [list(row) for row in inst.b.entries] == b_ref
            assert inst.frob_ceiling == ceiling_ref
            want = np.array(
                [[float(x.re), float(x.im)] for h in (a_ref, b_ref) for row in h for x in row]
            ).reshape(2, -1)
            assert inst.pencil_flat.tobytes() == want.tobytes()

            k = 2 * n
            tr = sum((a_ref[i][i] + b_ref[i][i] * GaussianRational(0, 1) for i in range(n)), gr(0))
            x, y = tr.re / n, tr.im / n
            r = ceiling_ref + 1
            assert list(ball_center(inst)) == [(i, i, Fraction(1, n)) for i in range(k)] + [
                (k, k, r + x), (k, k + 1, y), (k + 1, k + 1, r - x), (k + 2, k + 2, 1),
            ]
            cons = constraints(inst)
            want_tails = [
                (self.reference_hat_negated(a_ref) + [(k, k, 1), (k + 1, k + 1, -1)], 0),
                (self.reference_hat_negated(b_ref) + [(k, k + 1, 1)], 0),
                ([(i, i, 1) for i in range(k)], 2),
                ([(k, k, 1), (k + 1, k + 1, 1), (k + 2, k + 2, 2)], 2 * (ceiling_ref + 2)),
            ]
            assert [(exact_entries(f, den), b) for f, den, b in cons] == [
                (list(f), 0) for f in annihilators(n)
            ] + want_tails


class TestComplexMatrixValues:
    """Numerators over one reduced denominator: equal values are equal
    objects, whichever way they were built."""

    def test_equal_values_compare_and_hash_equal(self):
        half = ComplexMatrix([[gr(Fraction(1, 2))]])
        built = [
            half.scale(2),
            ComplexMatrix([[gr(1)]]),
            ComplexMatrix([[gr(Fraction(3, 3), Fraction(0, 5))]]),
            half + half,
            ComplexMatrix([[gr(Fraction(5, 2))]]).translate(gr(Fraction(3, 2))),
            ComplexMatrix([[gr(0, Fraction(-1, 3))]]).scale(gr(0, 3)),
        ]
        for m in built:
            assert m == built[0] and hash(m) == hash(built[0])
            assert (m.re, m.im, m.den) == (((1,),), ((0,),), 1)
        assert len(set(built)) == 1

    def test_difference_with_itself_is_zero(self):
        c = COPRIME_DENOMINATORS
        assert c - c == ComplexMatrix.zeros(3)
        assert (c - c).den == 1

    def test_denominator_lcm_is_reduced(self):
        m = ComplexMatrix([[gr(Fraction(2, 4)), gr(0, Fraction(1, 3))], [gr(0), gr(5)]])
        assert m.den == 6
        assert m.scale(2).den == 3
        assert m.scale(6).den == 1
        assert COPRIME_DENOMINATORS.den == 21
        assert ComplexMatrix([[gr(Fraction(6, 4))]]).den == 2

    def test_entries_view_round_trips(self):
        rnd = random.Random(5)
        for n in (1, 3, 5):
            rows = big_coprime_rows(rnd, n)
            c = ComplexMatrix(rows)
            assert [list(row) for row in c.entries] == rows
            assert ComplexMatrix(c.entries) == c
            assert all(c[i, j] == c.entries[i][j] for i in range(n) for j in range(n))

    def test_save_load_keeps_entries(self, tmp_path):
        rnd = random.Random(6)
        for n in (1, 2, 4):
            rows = big_coprime_rows(rnd, n)
            path = tmp_path / f"m{n}.json"
            save_matrix(ComplexMatrix(rows), path)
            loaded = load_matrix(path)
            assert loaded == ComplexMatrix(rows)
            assert [list(row) for row in loaded.entries] == rows

    def test_to_complex_matches_fraction_floats(self):
        # p / den by int division is float(Fraction(p, den)), also far
        # beyond 2^53
        rnd = random.Random(7)
        for n in (1, 3, 6):
            c = ComplexMatrix(big_coprime_rows(rnd, n)).scale(gr(10**40 + 1, 3))
            want = np.array(
                [[complex(float(x.re), float(x.im)) for x in row] for row in c.entries]
            )
            assert c.to_complex().tobytes() == want.tobytes()
