import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crawford import ellipsoid
from crawford.api import (
    CrawfordQuery,
    CrawfordResult,
    Method,
    crawford,
    numerical_radius_upper,
    scaled_instance,
    sdp_instance,
)
from crawford.cli import main
from crawford.linalg import ComplexMatrix, GaussianRational, hermitian_split
from crawford.oracle import support_search
from helpers import (
    CHI_EXAMPLE,
    COPRIME_DENOMINATORS,
    DIAG_PM,
    EXAMPLE,
    EXAMPLE_CENTER,
    EXAMPLE_TILDE,
    chi_bracket,
    gr,
    identity,
    near_boundary_draws,
    outside_centre,
    random_gaussian_integer,
    save_matrix,
)

EPS = 1e-4


def run(mat, center=GaussianRational(0, 0), method=Method.SDP_ELLIPSOID, **kw):
    return crawford(
        CrawfordQuery(matrix=mat, center=center, epsilon=EPS, method=method, **kw)
    )


class TestReferenceExample:
    def test_sdp_route(self):
        res = run(EXAMPLE_TILDE, center=EXAMPLE_CENTER)
        assert CHI_EXAMPLE - 1e-9 <= res.chi <= CHI_EXAMPLE + EPS
        assert abs(abs(res.nearest_point) - res.chi) <= 2 * EPS
        assert res.nearest_point_original == pytest.approx(
            res.nearest_point + complex(-3.0, -1.0), abs=1e-12
        )

    def test_oracle_route(self):
        res = run(EXAMPLE_TILDE, center=EXAMPLE_CENTER, method=Method.ORACLE_SWEEP)
        assert res.chi == pytest.approx(CHI_EXAMPLE, abs=EPS)

    def test_both_routes_agree(self):
        res = run(EXAMPLE_TILDE, center=EXAMPLE_CENTER, method=Method.BOTH)
        assert res.chi == pytest.approx(CHI_EXAMPLE, abs=EPS)
        assert "oracle_value" in res.solver_stats
        assert abs(res.solver_stats["discrepancy"]) <= 2 * EPS
        assert res.solver_stats["oracle_value"] == pytest.approx(
            CHI_EXAMPLE, abs=EPS
        )

    def test_zero_center_reaches_zero(self):
        res = run(EXAMPLE_TILDE)
        assert 0.0 <= res.chi <= EPS


class TestSimpleMatrices:
    def test_scaled_identity(self):
        res = run(identity(3).scale(5))
        assert res.chi == pytest.approx(5.0, abs=EPS)
        assert res.nearest_point == pytest.approx(5.0 + 0.0j, abs=2e-2)

    def test_zero_matrix_short_circuit(self):
        res = run(ComplexMatrix.zeros(2))
        assert res.chi == 0.0
        assert res.nearest_point == 0.0
        assert res.solver_stats.get("short_circuit") == "zero matrix"
        x = res.witness_X
        assert np.allclose(x, np.eye(2) / 2.0)

    def test_zero_after_translation_short_circuit(self):
        res = run(identity(2).scale(gr(2, 1)), center=gr(2, 1))
        assert res.chi == 0.0
        assert res.solver_stats.get("short_circuit") == "zero matrix"

    def test_indefinite_diagonal(self):
        assert run(DIAG_PM).chi <= EPS

    def test_one_by_one(self):
        res = run(ComplexMatrix([[gr(3, 4)]]))
        assert res.chi == pytest.approx(5.0, abs=EPS)
        assert res.nearest_point == pytest.approx(3 + 4j, abs=2e-2)


class TestIdentities:
    def test_translation(self):
        shift = gr(1, Fraction(1, 2))
        direct = run(EXAMPLE_TILDE, center=EXAMPLE_CENTER)
        pre = EXAMPLE_TILDE + identity(2).scale(-shift)
        shifted = run(pre, center=EXAMPLE_CENTER + (-shift))
        assert abs(direct.chi - shifted.chi) <= 2 * EPS

    def test_scaling(self):
        base = run(EXAMPLE)
        doubled = run(EXAMPLE.scale(2))
        assert abs(doubled.chi - 2.0 * base.chi) <= 3 * EPS

    def test_hermitian_segment(self):
        pos = ComplexMatrix([[gr(2), gr(0)], [gr(0), gr(5)]])
        assert run(pos).chi == pytest.approx(2.0, abs=2 * EPS)
        neg = pos.scale(-1)
        assert run(neg).chi == pytest.approx(2.0, abs=2 * EPS)
        assert run(DIAG_PM).chi <= 2 * EPS

    def test_frobenius_upper_bound(self):
        rng = np.random.default_rng(43)
        for _ in range(5):
            c = random_gaussian_integer(rng, 2, -3, 3)
            if c.is_zero():
                continue
            res = run(c)
            assert res.chi <= numerical_radius_upper(c) + EPS


class TestWitness:
    def test_sdp_witness_consistency(self):
        res = run(EXAMPLE_TILDE, center=EXAMPLE_CENTER)
        x = res.witness_X
        assert x is not None
        assert np.allclose(x, x.conj().T)
        assert np.trace(x).real == pytest.approx(1.0, abs=1e-9)
        assert np.linalg.eigvalsh(x)[0] >= -1e-9
        a, b = hermitian_split(EXAMPLE)
        za = float((a.to_complex().conj() * x).sum().real)
        zb = float((b.to_complex().conj() * x).sum().real)
        assert math.hypot(za, zb) <= res.chi + 2 * EPS
        assert complex(za, zb) == pytest.approx(res.nearest_point, abs=2e-3)

    def test_oracle_witness_consistency(self):
        res = run(EXAMPLE_TILDE, center=EXAMPLE_CENTER, method=Method.ORACLE_SWEEP)
        x = res.witness_X
        assert x is not None
        assert np.trace(x).real == pytest.approx(1.0, abs=1e-9)
        assert np.linalg.eigvalsh(x)[0] >= -1e-9
        assert abs(abs(res.nearest_point) - res.chi) <= 2 * EPS

    def test_oracle_zero_chi_has_no_witness(self):
        res = run(DIAG_PM, method=Method.ORACLE_SWEEP)
        assert res.chi == 0.0
        assert res.witness_X is None
        assert res.nearest_point == 0.0


class TestStatsAndValidation:
    def test_scale_factor_for_rational_input(self):
        # ||C||_F = 1/2 is itself a power of two
        c = ComplexMatrix([[gr(Fraction(1, 2))]])
        res = run(c)
        assert res.scale_factor == Fraction(1, 2)
        assert res.solver_stats["scale_factor"] == Fraction(1, 2)
        assert res.chi == pytest.approx(0.5, abs=EPS)

    def test_coprime_denominators_match_oracle(self):
        # the product of all 18 denominators (21^9) made the solver hit its
        # iteration cap with lower bound 0; ||C - (4 + i)I||_F^2 = 3319/49
        res = run(COPRIME_DENOMINATORS, center=gr(4, 1), method=Method.BOTH)
        assert res.scale_factor == 16
        assert res.solver_stats["lower_bound"] <= res.chi
        assert res.solver_stats["discrepancy"] <= 2 * EPS

    def test_sdp_stats_fields(self):
        # the worked example and a chi = 0 input, both closed at their
        # first step, by a Newton ascent and by Wolfe steps
        for mat, center in ((EXAMPLE, gr(0)), (COPRIME_DENOMINATORS, gr(1, 1))):
            self.check_sdp_stats(mat, center)

    def check_sdp_stats(self, mat, center):
        res = run(mat, center=center)
        stats = res.solver_stats
        for key in ("iterations", "lower_bound", "epsilon_solver"):
            assert key in stats
        assert 0 < stats["iterations"] <= stats["iteration_cap"]
        assert stats["certified_gap"] == pytest.approx(
            res.chi - stats["lower_bound"], abs=1e-15
        )
        assert 0.0 <= stats["certified_gap"] <= EPS
        # the SolveResult fields but value and X, in their order, then the
        # set-up's keys and the phase timings; the modulus and ceiling cuts
        # are the steps that took no spectrum of X
        by_block = ["cuts_spectral", "cuts_modulus", "cuts_ceiling"]
        assert list(stats) == [
            "iterations", "iteration_cap", "cuts_feasibility", "cuts_objective",
            *by_block, "certified_gap", "lower_bound", "max_feasible_distance",
            "lower_bound_dual", "certs_dual", "dual_solves", "closed_by", "falls",
            "outer_R", "epsilon_solver", "scale_factor", "setup_s", "solve_s",
        ]
        assert stats["cuts_feasibility"] == sum(stats[k] for k in by_block)
        # the dual bound is a lower bound on chi and never above lb, and
        # each dual certificate came from a pencil eigen-solve
        assert stats["lower_bound_dual"] <= stats["lower_bound"] <= res.chi
        assert isinstance(stats["certs_dual"], int) and stats["certs_dual"] > 0
        assert isinstance(stats["dual_solves"], int)
        assert stats["certs_dual"] <= stats["dual_solves"]
        assert stats["closed_by"] in ("feasible", "dual")
        if mat is EXAMPLE:
            # the Newton ascent from the first centre's angle closes the
            # gap on its rank-one densities, within the first step
            assert stats["lower_bound"] <= CHI_EXAMPLE + 1e-12
            assert stats["lower_bound_dual"] == pytest.approx(CHI_EXAMPLE, abs=EPS)
            assert stats["closed_by"] == "dual"
            assert stats["dual_solves"] >= 2
        else:
            # chi = 0: lambda_min <= 0 at every angle, so each solve gives a
            # support point of W beyond 0, and Wolfe steps on their hull
            # with the first centre's density close the gap at that centre
            assert stats["lower_bound"] == 0.0
            assert stats["lower_bound_dual"] <= 0.0
            assert stats["iterations"] == 1
            assert stats["closed_by"] == "dual"
            assert stats["certs_dual"] == stats["dual_solves"] <= 4

    def test_oracle_stats_fields(self):
        res = run(EXAMPLE, method=Method.ORACLE_SWEEP)
        stats = res.solver_stats
        search = support_search(EXAMPLE, EPS)
        assert list(stats) == ["evaluations", "theta", "oracle_s"]
        assert stats["evaluations"] == search.grid_size >= 4
        assert stats["theta"] == search.theta
        assert "iterations" not in stats

    @pytest.mark.parametrize(
        "method, keys",
        [
            (Method.SDP_ELLIPSOID, ("setup_s", "solve_s")),
            (Method.ORACLE_SWEEP, ("oracle_s",)),
            (Method.BOTH, ("setup_s", "solve_s", "oracle_s")),
        ],
    )
    def test_phase_timings(self, method, keys):
        t0 = time.perf_counter()
        res = run(EXAMPLE, method=method)
        wall = time.perf_counter() - t0
        stats = res.solver_stats
        assert {"setup_s", "solve_s", "oracle_s"} & set(stats) == set(keys)
        assert all(stats[k] >= 0.0 for k in keys)
        assert sum(stats[k] for k in keys) <= wall

    def test_epsilon_validated(self):
        with pytest.raises(ValueError):
            CrawfordQuery(matrix=EXAMPLE, epsilon=0.0)
        with pytest.raises(ValueError):
            CrawfordQuery(matrix=EXAMPLE, epsilon=-1e-6)

    @pytest.mark.parametrize("eps", [math.inf, math.nan])
    def test_non_finite_epsilon_rejected(self, eps):
        # an infinite eps once reached the solver and the oracle, which
        # failed with a bare "math domain error" or a wrong value
        with pytest.raises(ValueError, match="finite and positive"):
            CrawfordQuery(matrix=EXAMPLE, epsilon=eps)


class TestSetUp:
    def test_sdp_instance_clears_denominators(self):
        inst, cint, scale = sdp_instance(COPRIME_DENOMINATORS)
        assert scale == 21
        assert cint == COPRIME_DENOMINATORS.scale(gr(21))
        assert inst.n == 3

    @pytest.mark.parametrize("method", [Method.SDP_ELLIPSOID, Method.BOTH])
    def test_ball_charts_the_solved_instance(self, method):
        res = run(COPRIME_DENOMINATORS, center=gr(4, 1), method=method)
        assert res.scale_factor == 16
        chart = res.ball.chart
        assert chart.inst.n == 3
        assert chart.inst.frob_ceiling == 1 and chart.sigma == 2.0
        value = math.hypot(*chart.inst.pencil_values(res.witness_X))
        assert value * 16 == pytest.approx(res.chi, rel=1e-12)

    @pytest.mark.parametrize(
        "mat, s",
        [
            (ComplexMatrix([[gr(Fraction(1, 2))]]), Fraction(1, 2)),
            (identity(5).scale(Fraction(1, 5)), Fraction(1, 2)),
            (identity(3).scale(Fraction(1, 3)), Fraction(1)),
            (identity(1), Fraction(1)),
            (identity(17), Fraction(8)),
            (ComplexMatrix([[gr(8)]]), Fraction(8)),
            (COPRIME_DENOMINATORS.translate(gr(4, 1)), Fraction(16)),
            (ComplexMatrix([[gr(2**150, 1)]]), Fraction(2**151)),
            (ComplexMatrix([[gr(Fraction(1, 2**400))]]), Fraction(1, 2**400)),
        ],
        ids=["half", "fifth", "third", "one", "seventeen", "eight", "coprime", "big", "tiny"],
    )
    def test_scale_factor_is_the_least_power_of_two(self, mat, s):
        q = mat.frobenius_sq()
        inst, scaled, scale = scaled_instance(mat)
        assert scale == s and scaled == mat.scale(1 / s)
        assert s * s >= q > s * s / 4
        assert inst.frob_ceiling == 1

    def test_scale_factor_for_random_ratios(self):
        # ||C||_F^2 = (a^2 + b^2) / d^2 with a, b and d of up to 400 bits,
        # so the squared norm falls on both sides of 1
        rnd = random.Random(89)
        sides = set()
        for _ in range(300):
            a, b, d = (rnd.getrandbits(rnd.randint(1, 400)) for _ in range(3))
            mat = ComplexMatrix([[gr(Fraction(a, d + 1), Fraction(b + 1, d + 1))]])
            q = mat.frobenius_sq()
            _, _, s = scaled_instance(mat)
            # s = 2^k for k of either sign
            assert 1 in (s.numerator, s.denominator)
            assert max(s.numerator, s.denominator).bit_count() == 1
            assert s * s >= q > s * s / 4
            sides.add(q > 1)
        assert sides == {True, False}

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_zero_matrix_has_no_scaled_instance(self, n):
        # every power of two covers ||0||_F^2 = 0, so there is no least one
        with pytest.raises(ValueError, match="zero matrix"):
            scaled_instance(ComplexMatrix.zeros(n))

    def test_no_ball_on_the_oracle_route(self):
        res = run(EXAMPLE_TILDE, center=EXAMPLE_CENTER, method=Method.ORACLE_SWEEP)
        assert res.ball is None

    @pytest.mark.parametrize("method", list(Method))
    def test_no_ball_for_the_zero_short_circuit(self, method):
        res = run(identity(2), center=gr(1), method=method)
        assert res.solver_stats["short_circuit"] == "zero matrix"
        assert res.ball is None


class TestRadiusBound:
    def test_reference_example(self):
        assert numerical_radius_upper(EXAMPLE) == pytest.approx(math.sqrt(40.0))

    def test_zero(self):
        assert numerical_radius_upper(ComplexMatrix.zeros(3)) == 0.0

    def test_identity(self):
        for n in (1, 2, 5):
            assert numerical_radius_upper(identity(n)) == pytest.approx(
                math.sqrt(float(n))
            )


# --- the two-sided bracket on chi > 0 inputs ---------------------------

def assert_bracket(res, lo, hi, eps):
    """lower_bound <= chi <= chi reported, within eps, for lo <= chi <= hi."""
    lower = res.solver_stats["lower_bound"]
    assert lower <= hi + 1e-9
    assert lo <= res.chi + 1e-9
    assert res.chi - lower <= eps * (1.0 + 1e-12)


class TestScaledInputs:
    """Entries times 10^3 at eps = 0.1, as the CLI sees them for such
    data: the objective's minimum over E lags far behind chi there, and
    only the dual bound lambda_min(cos t A + sin t B) at the best
    certificate closes the gap before the iteration cap (without it,
    EllipsoidCapExceeded at the cap for most of these)."""

    @pytest.mark.parametrize("n", [3, 4])
    def test_bracket_closes(self, n):
        rng = np.random.default_rng(1900 + n)
        eps = 0.1
        for _ in range(4):
            c = random_gaussian_integer(rng, n, -3, 3)
            theta = rng.uniform(0.0, 2.0 * math.pi)
            centre = outside_centre(c, theta, rng.uniform(1.0, 2.0))
            mat = c.translate(centre).scale(1000)
            lo, hi = chi_bracket(mat)
            assert lo >= 290.0
            res = crawford(CrawfordQuery(matrix=mat, epsilon=eps))
            assert_bracket(res, lo, hi, eps)


class TestLoopAfterTheAscent:
    def test_huge_entry_closes_in_the_loop(self):
        # the one ascent from G leaves a gap on this matrix, and the
        # deep-cut loop closes it from G, whose density already holds
        # best_cert: its first cut is a deep objective cut (218 steps when
        # the loop's first cut at G was a central one)
        mat = ComplexMatrix([[gr(10**150), gr(1)], [gr(0), gr(0, 2)]])
        res = crawford(CrawfordQuery(matrix=mat))
        stats = res.solver_stats
        assert abs(res.chi - 2.0) <= 1e-6
        assert stats["lower_bound"] <= 2.0 <= res.chi + 1e-12
        assert 1 < stats["iterations"] < 218


class TestIterationCap:
    """The loop's last exit: with no ascent steps and E never shrinking,
    neither bound can move, and the run stops at the cap with G's
    density as its certificate."""

    @pytest.fixture
    def frozen(self, monkeypatch):
        monkeypatch.setattr(ellipsoid, "_ASCENT_STEPS", 0)
        monkeypatch.setattr(ellipsoid, "_shrink", lambda z, p_mat, b, alpha: None)

    def test_crawford_raises_at_the_cap(self, frozen):
        with pytest.raises(ellipsoid.EllipsoidCapExceeded) as got:
            crawford(CrawfordQuery(matrix=EXAMPLE, epsilon=EPS))
        e = got.value
        assert e.reason.startswith("iteration cap")
        assert "eps=0.0001" in str(e) and "s = 8" in str(e)
        res = e.result
        assert res.iterations == res.iteration_cap == e.iterations
        assert res.lower_bound <= CHI_EXAMPLE <= res.value
        assert np.array_equal(res.X, np.eye(2) / 2)

    def test_cli_exits_3(self, frozen, tmp_path, capsys):
        path = tmp_path / "c.json"
        save_matrix(EXAMPLE, path)
        assert main(["chi", str(path), "--eps", "1e-4"]) == 3
        assert capsys.readouterr().err.startswith("solver error: iteration cap")


class TestExactModulusOfOneEntry:
    """chi(0, [c]) = |c| exactly.  At c = 10^32 + 1 float(c) lies
    5,366,162,204,393,471 above c, and the bracket [float(c), float(c)]
    is reported with gap 0: it misses c.  An honest run either raises
    or brackets c within eps."""

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    def test_bracket_holds_or_raises(self):
        c, eps = 10**32 + 1, 1e-6
        try:
            res = crawford(CrawfordQuery(matrix=ComplexMatrix([[gr(c)]]), epsilon=eps))
        except ellipsoid.EllipsoidCapExceeded:
            return
        lower = res.solver_stats["lower_bound"]
        assert Fraction(lower) <= c <= Fraction(res.chi)
        assert res.chi - lower <= eps


class TestScaleInvariance:
    """crawford solves C/s, s the least power of two with s >= ||C||_F, at
    eps/s: the instance is ceiling 1 whatever the scale of C, so chi(kC)
    follows k chi(C), the iteration cap stays put, and a coarse eps leaves
    the cap positive.  The family: entries in [-3, 3] with the diagonal
    shifted by -20, chi about 15 to 19."""

    @pytest.fixture(scope="class", params=[(3, 0), (3, 1), (4, 0), (4, 1)])
    def shifted(self, request):
        n, j = request.param
        rng = np.random.default_rng(2200 + n)
        for _ in range(j + 1):
            c = random_gaussian_integer(rng, n, -3, 3).translate(gr(20))
        return c, chi_bracket(c)

    def test_chi_scales_with_k(self, shifted):
        c, (lo, hi) = shifted
        eps = 1e-4
        base = crawford(CrawfordQuery(matrix=c, epsilon=eps))
        assert_bracket(base, lo, hi, eps)
        d = c.n**2
        for k in (1, 10**3, 10**6, 10**9):
            res = crawford(CrawfordQuery(matrix=c.scale(k), epsilon=k * eps))
            # both values lie in [chi, chi + eps] at their scale
            assert abs(res.chi - k * base.chi) <= k * eps
            assert res.solver_stats["lower_bound"] <= k * hi * (1.0 + 1e-12)
            # s/||kC||_F lies in [1, 2), so eps/s moves by less than a
            # factor of 2 against k eps: the cap by less than 2 (d + 1) d ln 2
            cap = res.solver_stats["iteration_cap"]
            assert 0 < cap
            drift = abs(cap - base.solver_stats["iteration_cap"])
            assert drift <= 2 * (d + 1) * d * math.log(2) + 1

    def test_power_of_two_solves_the_same_instance(self, shifted):
        c, _ = shifted
        base = crawford(CrawfordQuery(matrix=c, epsilon=1e-4))
        res = crawford(CrawfordQuery(matrix=c.scale(2**30), epsilon=2**30 * 1e-4))
        assert res.scale_factor == 2**30 * base.scale_factor
        assert res.ball.chart.inst == base.ball.chart.inst
        assert res.chi == 2**30 * base.chi
        assert res.solver_stats["iteration_cap"] == base.solver_stats["iteration_cap"]

    @pytest.mark.parametrize("eps", [100.0, 1e4])
    def test_coarse_eps_at_the_library(self, shifted, eps):
        # eps = 100 >= 3n, and 10^4 >= 3n s, where eps/s >= 3n and the
        # cap's shrink term d ln(n max(1, 3 s/eps)) is d ln n, not negative
        c, (lo, hi) = shifted
        res = crawford(CrawfordQuery(matrix=c, epsilon=eps))
        assert res.solver_stats["iteration_cap"] >= 64
        assert_bracket(res, lo, hi, eps)

    def test_near_boundary_centres_on_a_fine_lattice(self):
        # centres on (Z + iZ)/10^6; draw 88 of this stream once ended with
        # "iteration cap -72 exceeded" at eps 8.3e-5
        rng = np.random.default_rng(2100)
        for k, (c, centre, eps) in enumerate(near_boundary_draws(rng, 89, 10**6)):
            if k >= 6 and k != 88:
                continue
            res = crawford(CrawfordQuery(matrix=c, center=centre, epsilon=eps))
            assert_bracket(res, *chi_bracket(c.translate(centre)), eps)
            assert res.solver_stats["iteration_cap"] >= 64


gaussian_ints = st.builds(GaussianRational, st.integers(-3, 3), st.integers(-3, 3))
coprime_rationals = st.builds(
    Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 5, 7])
)
gaussian_rationals = st.builds(GaussianRational, coprime_rationals, coprime_rationals)


@st.composite
def far_instances(draw):
    """(C, centre) with integer or coprime-rational entries, n = 1..5, and
    the centre 1 to 2 beyond a support line of W(C), rounded to a lattice
    of step 1 or 1/3: chi >= 1 - sqrt(2)/2."""
    n = draw(st.integers(1, 5))
    entry = draw(st.sampled_from([gaussian_ints, gaussian_rationals]))
    row = st.lists(entry, min_size=n, max_size=n)
    c = ComplexMatrix(draw(st.lists(row, min_size=n, max_size=n)))
    theta = draw(st.floats(0.0, 2.0 * math.pi))
    dist = draw(st.floats(1.0, 2.0))
    return c, outside_centre(c, theta, dist, draw(st.sampled_from([1, 3])))


@st.composite
def hermitian_instances(draw):
    """(H, centre, chi) for an integer Hermitian H, n = 1..5, and a far
    centre: W(H) is [lambda_min, lambda_max] on the real line, so chi is
    the distance from the centre to that interval."""
    n = draw(st.integers(1, 5))
    entries = [[None] * n for _ in range(n)]
    for i in range(n):
        entries[i][i] = GaussianRational(draw(st.integers(-3, 3)), 0)
        for j in range(i + 1, n):
            z = draw(gaussian_ints)
            entries[i][j], entries[j][i] = z, z.conjugate()
    h = ComplexMatrix(entries)
    centre = outside_centre(
        h, draw(st.floats(0.0, 2.0 * math.pi)), draw(st.floats(1.0, 2.0))
    )
    lam = np.linalg.eigvalsh(h.to_complex())
    x, y = float(centre.re), float(centre.im)
    chi = math.hypot(max(lam[0] - x, 0.0, x - lam[-1]), y)
    return h, centre, chi


class TestTwoSidedBracket:
    """lower_bound <= chi <= chi reported, and the gap is at most eps, on
    chi > 0 inputs where both bounds move: best_cert at feasible centres
    and to the dual bound's densities, lb through the dual bound."""

    @settings(max_examples=30, deadline=None)
    @given(far_instances())
    def test_far_centres(self, inst):
        c, centre = inst
        eps = 1e-3
        lo, hi = chi_bracket(c.translate(centre))
        res = crawford(CrawfordQuery(matrix=c, center=centre, epsilon=eps))
        assert_bracket(res, lo, hi, eps)
        assert res.solver_stats["lower_bound_dual"] <= hi + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(hermitian_instances())
    def test_hermitian_closed_form(self, inst):
        h, centre, chi = inst
        eps = 1e-3
        assert chi > 0.0
        res = crawford(CrawfordQuery(matrix=h, center=centre, epsilon=eps))
        assert_bracket(res, chi, chi, eps)
        assert res.solver_stats["lower_bound_dual"] <= chi + 1e-9
