import math
import time
from fractions import Fraction

import numpy as np
import pytest

from crawford.api import (
    CrawfordQuery,
    CrawfordResult,
    Method,
    crawford,
    crawford_number,
    numerical_radius_upper,
    sdp_instance,
)
from crawford.linalg import ComplexMatrix, GaussianRational, hermitian_split
from crawford.oracle import support_search
from helpers import (
    CHI_EXAMPLE,
    COPRIME_DENOMINATORS,
    DIAG_PM,
    EXAMPLE,
    EXAMPLE_CENTER,
    EXAMPLE_TILDE,
    gr,
    identity,
    random_gaussian_integer,
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
        assert res.method_used is Method.SDP_ELLIPSOID
        assert abs(abs(res.nearest_point) - res.chi) <= 2 * EPS
        assert res.nearest_point_original == pytest.approx(
            res.nearest_point + complex(-3.0, -1.0), abs=1e-12
        )

    def test_oracle_route(self):
        res = run(EXAMPLE_TILDE, center=EXAMPLE_CENTER, method=Method.ORACLE_SWEEP)
        assert res.chi == pytest.approx(CHI_EXAMPLE, abs=EPS)
        assert res.method_used is Method.ORACLE_SWEEP

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
        pen = hermitian_split(EXAMPLE)
        za = float((pen.a.to_complex().conj() * x).sum().real)
        zb = float((pen.b.to_complex().conj() * x).sum().real)
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
        c = ComplexMatrix([[gr(Fraction(1, 2))]])
        res = run(c)
        assert res.scale_factor == 2
        assert res.chi == pytest.approx(0.5, abs=EPS)

    def test_coprime_denominators_match_oracle(self):
        # the product of all 18 denominators (21^9) made the solver hit its
        # iteration cap with lower bound 0
        res = run(COPRIME_DENOMINATORS, center=gr(4, 1), method=Method.BOTH)
        assert res.scale_factor == 21
        assert res.solver_stats["lower_bound"] <= res.chi
        assert res.solver_stats["discrepancy"] <= 2 * EPS

    def test_sdp_stats_fields(self):
        res = run(EXAMPLE)
        stats = res.solver_stats
        for key in ("iterations", "lower_bound", "epsilon_solver"):
            assert key in stats
        assert 0 < stats["iterations"] <= stats["iteration_cap"]
        assert stats["certified_gap"] == pytest.approx(
            res.chi - stats["lower_bound"], abs=1e-15
        )
        assert 0.0 <= stats["certified_gap"] <= EPS

    def test_oracle_stats_fields(self):
        res = run(EXAMPLE, method=Method.ORACLE_SWEEP)
        stats = res.solver_stats
        assert stats["evaluations"] == support_search(EXAMPLE, EPS).grid_size
        assert stats["iterations"] == stats["evaluations"] >= 4

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

    def test_shorthand(self):
        val = crawford_number(EXAMPLE, epsilon=EPS)
        assert val == pytest.approx(CHI_EXAMPLE, abs=EPS)


class TestSetUp:
    def test_sdp_instance_clears_denominators(self):
        inst, cint, scale = sdp_instance(COPRIME_DENOMINATORS)
        assert scale == 21
        assert cint == COPRIME_DENOMINATORS.scale(gr(21))
        assert inst.n == 3

    @pytest.mark.parametrize("method", [Method.SDP_ELLIPSOID, Method.BOTH])
    def test_ball_charts_the_solved_instance(self, method):
        res = run(COPRIME_DENOMINATORS, center=gr(4, 1), method=method)
        assert res.scale_factor == 21
        chart = res.ball.chart
        assert chart.inst.n == 3
        value = math.hypot(*chart.inst.pencil_values(res.witness_X))
        assert value == pytest.approx(res.chi * res.scale_factor, rel=1e-12)

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
