import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from crawford import ellipsoid, sdp
from crawford.api import CrawfordQuery, crawford, sdp_instance
from crawford.ellipsoid import (
    EllipsoidCapExceeded,
    _shrink,
    build_chart,
    certified_ball,
    nearest_point_weights,
    repair_point,
    separation_oracle,
    solve,
)
from crawford.linalg import (
    ComplexMatrix,
    GaussianRational,
    frobenius_ceiling,
    hermitian_split,
)
from crawford.oracle import support_search
from crawford.sdp import assemble_feasible_point, build_instance, objective
from helpers import (
    CHI_EXAMPLE,
    DIAG_PM,
    EXAMPLE,
    IDENTITY2,
    ambient_dim,
    blocks,
    chart_coordinates,
    chart_jacobian,
    chi_bracket,
    dense_constraints,
    densify,
    gr,
    identity,
    near_boundary_draws,
    outside_centre,
    random_density,
    random_gaussian_integer,
)


def make(mat: ComplexMatrix):
    inst = build_instance(*hermitian_split(mat), frobenius_ceiling(mat))
    return inst, certified_ball(inst, mat)


def diagonal(*entries):
    n = len(entries)
    return ComplexMatrix(
        [[entries[i] if i == j else gr(0) for j in range(n)] for i in range(n)]
    )


class TestCertifiedBall:
    def test_reference_example(self):
        inst, ball = make(EXAMPLE)
        assert ball.inner_r == Fraction(1, 2)
        assert ball.outer_R == 40
        # S = [[c + 1 + x, y], [y, c + 1 - x]] with (x, y) = (1/n) tr C
        gy, guv, gt = blocks(densify(ball.center, ambient_dim(inst), object))
        assert (guv[0, 0] - inst.frob_ceiling - 1, guv[0, 1]) == (3, 1)
        assert np.array_equal(guv.astype(float), np.array([[11.0, 1.0], [1.0, 5.0]]))
        assert np.array_equal(gy.astype(float), 0.5 * np.eye(4))
        assert gt == 1

    def test_identity2(self):
        inst, ball = make(IDENTITY2)
        assert ball.inner_r == Fraction(1, 2)
        assert ball.outer_R == 20
        _, guv, _ = blocks(densify(ball.center, ambient_dim(inst)))
        assert np.array_equal(guv, np.array([[4.0, 0.0], [0.0, 2.0]]))

    def test_trace_identities_exact(self):
        for mat in (EXAMPLE, IDENTITY2, DIAG_PM, identity(3)):
            inst, ball = make(mat)
            gy, guv, gt = blocks(densify(ball.center, ambient_dim(inst), object))
            assert sum(gy[i, i] for i in range(2 * inst.n)) == 2
            u, w = guv[0, 0], guv[1, 1]
            assert u + w + 2 * gt == 2 * (inst.frob_ceiling + 2)

    def test_s_minus_identity_psd(self):
        for mat in (EXAMPLE, IDENTITY2, DIAG_PM):
            inst, ball = make(mat)
            s = blocks(densify(ball.center, ambient_dim(inst)))[1] - np.eye(2)
            assert np.linalg.eigvalsh(s)[0] >= 0.0

    def test_wrong_matrix_rejected(self):
        inst, _ = make(EXAMPLE)
        with pytest.raises(ValueError):
            certified_ball(inst, IDENTITY2)

    @pytest.mark.parametrize("k", range(4))
    def test_shifted_tail_rhs_rejected(self, k, monkeypatch):
        inst, _ = make(EXAMPLE)
        cons = sdp.constraints(inst)
        f, den, b = cons[inst.N + k]
        cons[inst.N + k] = (f, den, b + Fraction(1, inst.n))
        monkeypatch.setattr(sdp, "constraints", lambda _: cons)
        with pytest.raises(ValueError, match=rf"violates constraint F_{inst.N + k + 1}$"):
            certified_ball(inst, EXAMPLE)

    def test_changed_ahat_entry_rejected(self, monkeypatch):
        # F_{N+1} holds -Ahat; G = diag(I/n, S, 1) meets its diagonal
        inst, _ = make(EXAMPLE)
        with pytest.raises(ValueError, match="not built from this matrix"):
            certified_ball(changed_a(inst, {(1, 1): 1}), EXAMPLE)
        cons = sdp.constraints(inst)
        f, den, b = cons[inst.N]
        (i, j, p), rest = f[0], f[1:]
        assert (i, j) == (0, 0)
        # the entry p / den lowered by 1
        cons[inst.N] = (((0, 0, p - den),) + rest, den, b)
        monkeypatch.setattr(sdp, "constraints", lambda _: cons)
        with pytest.raises(ValueError, match=rf"violates constraint F_{inst.N + 1}$"):
            certified_ball(inst, EXAMPLE)

    def test_changed_offdiagonal_a_pair_rejected(self):
        # A stays Hermitian and its trace is unchanged, and G's support,
        # the diagonal, does not meet the change
        inst, _ = make(EXAMPLE)
        with pytest.raises(ValueError, match="not built from this matrix"):
            certified_ball(changed_a(inst, {(0, 1): 1, (1, 0): 1}), EXAMPLE)

    def test_changed_offdiagonal_b_pair_rejected(self):
        # a Hermitian change to B's imaginary parts: B stays Hermitian, its
        # trace is unchanged, and only Re(A + iB) = Re A - Im B moves
        inst, _ = make(EXAMPLE)
        with pytest.raises(ValueError, match="not built from this matrix"):
            certified_ball(changed_b(inst, {(0, 1): gr(0, 1), (1, 0): gr(0, -1)}), EXAMPLE)

    def test_broken_annihilator_rejected(self, monkeypatch):
        # E_00 - E_nn (the two Re blocks agree) meets G's diagonal; with
        # its -1 flipped, <F, G> = 2/n, not 0
        inst, _ = make(EXAMPLE)
        n = inst.n
        cons = sdp.constraints(inst)
        num = cons.index((((0, 0, 1), (n, n, -1)), 1, 0))
        cons[num] = (((0, 0, 1), (n, n, 1)), 1, 0)
        monkeypatch.setattr(sdp, "constraints", lambda _: cons)
        with pytest.raises(ValueError, match=rf"violates constraint F_{num + 1}$"):
            certified_ball(inst, EXAMPLE)


def changed_a(inst, deltas):
    """inst with deltas[i, j] added to A_ij."""
    rows = [list(row) for row in inst.a.entries]
    for (i, j), delta in deltas.items():
        rows[i][j] = rows[i][j] + delta
    return dataclasses.replace(inst, a=ComplexMatrix(rows))


def changed_b(inst, deltas):
    """inst with deltas[i, j] added to B_ij."""
    rows = [list(row) for row in inst.b.entries]
    for (i, j), delta in deltas.items():
        rows[i][j] = rows[i][j] + delta
    return dataclasses.replace(inst, b=ComplexMatrix(rows))


class TestChart:
    def test_dimension_is_n_squared(self):
        for mat, d in ((identity(1), 1), (EXAMPLE, 4), (identity(3), 9)):
            inst, _ = make(mat)
            assert build_chart(inst).dim == d

    def test_orthonormal_rows(self):
        # a contraction that is an isometry along u_d: what the 1/n inner
        # ball and the objective's gradient e_d / sqrt(3) need
        for mat in (EXAMPLE, identity(3)):
            inst, _ = make(mat)
            assert_contraction(inst, chart_jacobian(build_chart(inst)))

    def test_basis_annihilates_all_constraints(self):
        inst, _ = make(EXAMPLE)
        chart = build_chart(inst)
        m = ambient_dim(inst)
        for row in chart_jacobian(chart):
            direction = row.reshape(m, m)
            assert np.abs(direction - direction.T).max() < 1e-12
            for f, _ in dense_constraints(inst):
                assert abs((f * direction).sum()) < 1e-12

    def test_affine_points_satisfy_equalities(self):
        inst, _ = make(EXAMPLE)
        chart = build_chart(inst)
        rng = np.random.default_rng(7)
        for _ in range(20):
            zc = rng.standard_normal(chart.dim) * 3.0
            full = chart.point(zc)
            for f, b in dense_constraints(inst):
                assert abs((f * full).sum() - b) < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_batched_rows_are_single_points(self, n):
        # a (k, d) batch gives k rows, each the single-point value; at
        # n = 1, d = 1 and the traceless basis is empty.  The batched
        # products sum in another order, so X and Z agree to a few units
        # in the last place of their largest entries, 1 and c + 2
        c = random_gaussian_integer(np.random.default_rng(600 + n), n, -5, 5)
        inst, ball = make(c.translate(gr(1, 1)))
        chart = ball.chart
        u = float(ball.inner_r) * np.random.default_rng(n).standard_normal((20, chart.dim))
        dens, r, z = chart.density(u), chart.modulus(u), chart.point(u)
        assert dens.shape == (20, n, n)
        assert r.shape == (20,)
        assert z.shape == (20, ambient_dim(inst), ambient_dim(inst))
        ulp = np.finfo(float).eps
        for i, row in enumerate(u):
            assert np.abs(dens[i] - chart.density(row)).max() <= 4 * ulp
            assert r[i] == chart.modulus(row)
            assert type(chart.modulus(row)) is float
            assert np.abs(z[i] - chart.point(row)).max() <= 4 * ulp * (inst.frob_ceiling + 2)


def assert_contraction(inst, jac):
    """The eigenvalues of J J' lie in [1/(1 + c^2), 1], and u_d's row is
    a unit vector orthogonal to the others: ||dZ||_F <= ||du||, with
    equality along u_d."""
    gram = jac @ jac.T
    lam = np.linalg.eigvalsh(gram)
    assert lam[0] >= 1.0 / (1 + inst.frob_ceiling**2) - 1e-12
    assert lam[-1] <= 1.0 + 1e-12
    e_d = np.eye(gram.shape[0])[-1]
    assert np.abs(gram @ e_d - e_d).max() < 1e-12


class TestChartGates:
    """The closed-form chart against the annihilator list, the single
    source of truth for the structure: a contraction, tangent to every
    equality constraint, centred at the ball's G."""

    @pytest.fixture(scope="class", params=[1, 2, 3, 4, 5, 6, 16])
    def charted(self, request):
        n = request.param
        c = random_gaussian_integer(np.random.default_rng(800 + n), n, -5, 5)
        out = []
        # the shifted matrix has a large ||Ahat||, the ill-conditioned case
        for mat in (c, c.translate(gr(frobenius_ceiling(c) + 1))):
            inst, ball = make(mat)
            chart = build_chart(inst)
            out.append((inst, ball, chart, chart_jacobian(chart)))
        return out

    def test_jacobian_orthonormal(self, charted):
        for inst, _, chart, jac in charted:
            assert chart.dim == inst.n**2
            assert_contraction(inst, jac)

    def test_jacobian_annihilated_by_every_constraint(self, charted):
        for inst, _, _, jac in charted:
            rows = np.array([f.ravel() for f, _ in dense_constraints(inst)])
            assert rows.shape[0] == inst.N + 4
            assert np.abs(rows @ jac.T).max() < 1e-12

    def test_origin_is_ball_center(self, charted):
        for inst, ball, chart, _ in charted:
            g = densify(ball.center, ambient_dim(inst))
            assert np.abs(chart.point(np.zeros(chart.dim)) - g).max() < 1e-12


class TestInitialEllipsoid:
    """E_0 is the Loewner ellipsoid of the cylinder
    {||X - I/n||_F <= sqrt(1 - 1/n)} x {|r - c - 1| <= c + 1}: it holds
    every feasible point, and the cylinder's rim lies on its boundary.
    Points are mapped into the chart by least squares on its Jacobian."""

    @pytest.fixture(scope="class", params=range(1, 9))
    def charted(self, request):
        n = request.param
        c = random_gaussian_integer(np.random.default_rng(900 + n), n, -5, 5)
        out = []
        for mat in (c, c.translate(gr(frobenius_ceiling(c) + 1))):
            inst, ball = make(mat)
            chart = build_chart(inst)
            out.append((inst, ball, chart, np.linalg.inv(chart.initial_shape)))
        return out

    def test_holds_feasible_points(self, charted):
        rng = np.random.default_rng(47)
        for inst, _, chart, inv in charted:
            n = inst.n
            for _ in range(10):
                v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                v /= np.linalg.norm(v)
                for dens in (np.outer(v, v.conj()), random_density(rng, n)):
                    modulus = math.hypot(*inst.pencil_values(dens))
                    for r in (modulus, inst.frob_ceiling + 2.0):
                        z = assemble_feasible_point(inst, dens, r)
                        u = chart_coordinates(chart, z)
                        assert u @ inv @ u <= 1.0 + 1e-9

    def test_rim_on_boundary(self, charted):
        rng = np.random.default_rng(53)
        for inst, _, chart, inv in charted:
            n = inst.n
            c = inst.frob_ceiling
            for _ in range(10):
                # a unit traceless Hermitian direction
                h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                h = h + h.conj().T
                h -= np.trace(h) / n * np.eye(n)
                norm = np.linalg.norm(h)
                h = h / norm if norm > 0.0 else h
                dens = np.eye(n) / n + math.sqrt(1.0 - 1.0 / n) * h
                for r in (0.0, 2.0 * c + 2.0):
                    z = assemble_feasible_point(inst, dens, r)
                    u = chart_coordinates(chart, z)
                    assert u @ inv @ u == pytest.approx(1.0, abs=1e-9)

    def test_cap_from_log_det(self, charted):
        for inst, ball, chart, _ in charted:
            res = solve(ball, 1e-3)
            d = chart.dim
            f0n = max(1.0, np.linalg.norm(densify(objective(inst.n), ambient_dim(inst))))
            r_in = float(ball.inner_r)
            half_logdet = 0.5 * np.linalg.slogdet(chart.initial_shape)[1]
            # the objective r ranges over [0, c + 2] on the feasible set
            spread = (inst.frob_ceiling + 2) * f0n
            cap = math.ceil(
                2 * (d + 1) * (half_logdet + d * math.log(spread / (r_in * 1e-3)))
            ) + 64
            assert res.iteration_cap == cap
            # the R-ball's cap, which this E_0 replaces, at the same spread
            big_r = float(ball.outer_R)
            ball_cap = math.ceil(
                2 * d * (d + 1) * math.log(spread * big_r / (r_in * 1e-3))
            ) + 64
            assert res.iteration_cap <= ball_cap
            assert 0 < res.iterations <= res.iteration_cap


class TestSeparationOracle:
    def test_center_is_feasible_improving(self):
        inst, ball = make(EXAMPLE)
        chart = build_chart(inst)
        cut = separation_oracle(chart, np.zeros(chart.dim), math.inf)
        assert cut.kind == "objective" and cut.depth == 0.0
        assert cut.min_eig >= 0.0

    def test_center_not_improving_gives_objective_cut(self):
        inst, ball = make(EXAMPLE)
        chart = build_chart(inst)
        cut = separation_oracle(chart, np.zeros(chart.dim), 0.0)
        assert cut.kind == "objective"

    def test_indefinite_uv_block_cut(self):
        # Y = G's block and u + w = 0 (t = c + 2): the 2x2 block is
        # [[x, y], [y, -x]] with (x, y) = tr C / n, eigenvalues +-|tr C| / n
        inst, ball = make(EXAMPLE)
        chart = build_chart(inst)
        _, guv, _ = blocks(densify(ball.center, ambient_dim(inst), object))
        # S = [[c + 1 + x, y], [y, c + 1 - x]]
        x, y = float(guv[0, 0] - inst.frob_ceiling - 1), float(guv[0, 1])
        zp = densify(ball.center, ambient_dim(inst))
        k = 2 * inst.n
        zp[k : k + 2, k : k + 2] = [[x, y], [y, -x]]
        zp[k + 2, k + 2] = inst.frob_ceiling + 2.0
        zc = chart_coordinates(chart, zp)
        assert np.allclose(chart.point(zc), zp, atol=1e-12)
        cut = separation_oracle(chart, zc, math.inf)
        assert cut.kind == "feasibility"
        assert cut.min_eig == pytest.approx(-math.hypot(x, y))
        assert_cut_separates(inst, chart, zc, cut, np.random.default_rng(19))

    def test_eigenvector_cut_separates(self):
        # X indefinite while |w(X)| <= r <= c + 2: only the big block is
        # violated, so the cut is X's, along -grad lambda_min(X)
        inst, ball = make(EXAMPLE)
        chart = build_chart(inst)
        rng = np.random.default_rng(17)
        zc = indefinite_center(chart, rng, lam_min=-0.2)

        def lam_x(u):
            return float(np.linalg.eigvalsh(chart.density(u))[0])

        cut = separation_oracle(chart, zc, math.inf)
        assert (cut.kind, cut.block) == ("feasibility", "spectral")
        assert cut.min_eig == pytest.approx(lam_x(zc), abs=1e-12)
        assert cut.min_eig < 0.0
        h = 1e-6
        grad = np.array([
            (lam_x(zc + h * e) - lam_x(zc - h * e)) / (2.0 * h)
            for e in np.eye(chart.dim)
        ])
        assert np.allclose(cut.normal, -grad, atol=1e-6)
        assert_cut_separates(inst, chart, zc, cut, rng)


def indefinite_center(chart, rng, lam_min):
    """A chart point whose X has least eigenvalue lam_min < 0 and whose
    r lies midway between |w(X)| and c + 2, so the 2x2 and scalar blocks
    hold.  A direction whose X has |w(X)| >= c + 2, where no such r
    exists, is drawn again."""
    top = chart.inst.frob_ceiling + 2.0
    m = top
    while m >= top:
        u = np.zeros(chart.dim)
        u[:-1] = rng.standard_normal(chart.dim - 1)
        lam = float(np.linalg.eigvalsh(chart.density(u))[0])
        # X = I/n + s (X(u) - I/n) is affine in s along the ray
        u[:-1] *= (1.0 / chart.n - lam_min) / (1.0 / chart.n - lam)
        m = math.hypot(*chart.inst.pencil_values(chart.density(u)))
    u[-1] = (0.5 * (m + top) - chart.inst.frob_ceiling - 1.0) * math.sqrt(3.0)
    return u


class TestCheapBlocksFirst:
    """The 2x2 and scalar blocks are checked before X's spectrum: a
    violated one gives the cut, and np.linalg.eigh is not called."""

    @pytest.fixture
    def eigh_calls(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counted(x):
            calls.append(x.shape)
            return eigh(x)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        return calls

    def test_modulus_cut_before_spectrum(self, eigh_calls):
        inst, _ = make(EXAMPLE)
        chart = build_chart(inst)
        u = indefinite_center(chart, np.random.default_rng(31), lam_min=-1.0)
        m = math.hypot(*inst.pencil_values(chart.density(u)))
        # r - |w(X)| = -1e-3, above lambda_min(X) = -1: X is the more
        # violated block, and the modulus cut is still the one taken
        u[-1] = (m - 1e-3 - inst.frob_ceiling - 1.0) * math.sqrt(3.0)
        cut = separation_oracle(chart, u, math.inf)
        assert eigh_calls == []
        assert (cut.kind, cut.block) == ("feasibility", "modulus")
        assert cut.min_eig == pytest.approx(-1e-3, abs=1e-12)
        assert np.linalg.eigvalsh(chart.density(u))[0] == pytest.approx(-1.0)

    def test_ceiling_cut_before_spectrum(self, eigh_calls):
        inst, _ = make(EXAMPLE)
        chart = build_chart(inst)
        u = np.zeros(chart.dim)
        # r = c + 3: t = -1
        u[-1] = 2.0 * math.sqrt(3.0)
        cut = separation_oracle(chart, u, math.inf)
        assert eigh_calls == []
        assert (cut.kind, cut.block) == ("feasibility", "ceiling")
        assert cut.min_eig == pytest.approx(-1.0, abs=1e-12)
        assert np.array_equal(cut.normal, chart.objective_grad)

    def test_one_spectrum_at_a_feasible_center(self, eigh_calls):
        inst, _ = make(EXAMPLE)
        chart = build_chart(inst)
        cut = separation_oracle(chart, np.zeros(chart.dim), math.inf)
        assert eigh_calls == [(inst.n, inst.n)]
        assert cut.kind == "objective" and cut.depth == 0.0
        assert cut.block is None and cut.spectrum is not None


def assert_cut_separates(inst, chart, zc, cut, rng):
    """Every PSD chart point x keeps normal . (x - zc) <= min_eig: the
    feasibility cut is deep and discards no feasible point, nor does the
    halfspace the solver keeps, which is backed off from it by the PSD
    tolerance.  The points run from the PSD boundary r = |z| of the 2x2
    block to that of the scalar block, t = 0."""
    assert 0.0 < cut.depth < -cut.min_eig
    top = inst.frob_ceiling + 2.0
    for _ in range(30):
        dens = random_density(rng, inst.n)
        uv = blocks(assemble_feasible_point(inst, dens, 0.0))[1]
        modulus = math.hypot(uv[0, 0], uv[0, 1])
        for r in (modulus, modulus + (top - modulus) * rng.random(), top):
            z = assemble_feasible_point(inst, dens, r)
            x = chart_coordinates(chart, z)
            assert np.allclose(chart.point(x), z, atol=1e-9)
            assert cut.normal @ (x - zc) <= cut.min_eig + 1e-9
            assert cut.normal @ (x - zc) <= -cut.depth


class TestModulusCut:
    """The 2x2 block's cut at centres with r < |w(X)| and X positive
    definite, where that block is the violated one."""

    @pytest.mark.parametrize(
        "mat",
        [
            EXAMPLE,
            # B = 0: b = 0 exactly
            ComplexMatrix([[gr(3), gr(1)], [gr(1), gr(1)]]),
            # B = diag(1e-18, 0): |b| <= 1e-17 |a|
            ComplexMatrix([[gr(3, Fraction(1, 10**18)), gr(0)], [gr(0), gr(1)]]),
        ],
        ids=["example", "b_zero", "b_tiny"],
    )
    def test_cut_keeps_feasible_points_and_is_the_gradient(self, mat):
        inst, _ = make(mat)
        chart = build_chart(inst)
        rng = np.random.default_rng(29)

        def lam_t(u):
            return float(np.linalg.eigvalsh(blocks(chart.point(u))[1])[0])

        for _ in range(4):
            # ||X - I/n||_F <= ||u_x|| / sqrt(2) < 1/n keeps X PD
            u = rng.standard_normal(chart.dim)
            u[:-1] *= 0.5 / (chart.n * np.linalg.norm(u[:-1]))
            a, b = inst.pencil_values(chart.density(u))
            m = math.hypot(a, b)
            if mat is not EXAMPLE:
                assert abs(b) <= 1e-17 * abs(a)
            # r = |w(X)| / 2
            u[-1] = (0.5 * m - inst.frob_ceiling - 1.0) * math.sqrt(3.0)
            assert chart.modulus(u) < m
            cut = separation_oracle(chart, u, math.inf)
            assert (cut.kind, cut.block) == ("feasibility", "modulus")
            assert cut.min_eig == pytest.approx(chart.modulus(u) - m, abs=1e-12)
            h = 1e-6
            grad = np.array([
                (lam_t(u + h * e) - lam_t(u - h * e)) / (2.0 * h)
                for e in np.eye(chart.dim)
            ])
            assert np.allclose(cut.normal, -grad, atol=1e-6)
            assert_cut_separates(inst, chart, u, cut, rng)


class TestDeepCutUpdate:
    @pytest.mark.parametrize("d", [1, 9])
    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.9])
    def test_new_ellipsoid_holds_the_kept_cap(self, d, alpha):
        rng = np.random.default_rng(int(100 * d + 10 * alpha))
        m = rng.standard_normal((d, d))
        p_mat = m @ m.T + 0.5 * np.eye(d)
        z = rng.standard_normal(d)
        g = rng.standard_normal(d)
        root = math.sqrt(g @ p_mat @ g)
        # x = z + L u with L L' = P maps the unit ball onto E, and the
        # kept halfspace g.(x - z) <= -alpha root onto h.u <= -alpha
        chol = np.linalg.cholesky(p_mat)
        h = chol.T @ g / root
        # the far pole and the rim of the cap touch the smallest ellipsoid
        # that holds the cap; the rest of the cap lies inside it
        touching, inside = [-h], []
        for _ in range(300):
            e = np.zeros(d)
            if d > 1:
                e = rng.standard_normal(d)
                e -= (e @ h) * h
                e /= np.linalg.norm(e)
            s = -1.0 + (1.0 - alpha) * rng.random()
            r = math.sqrt(1.0 - s * s)
            inside += [s * h + r * e, s * h + rng.random() * r * e]
            touching.append(-alpha * h + math.sqrt(1.0 - alpha * alpha) * e)
        z_new, p_new = z.copy(), p_mat.copy()
        _shrink(z_new, p_new, p_mat @ g / root, alpha)
        inv = np.linalg.inv(p_new)

        def q(u):
            x = z + chol @ u
            assert g @ (x - z) <= -alpha * root + 1e-9
            return (x - z_new) @ inv @ (x - z_new)

        assert all(q(u) <= 1.0 + 1e-9 for u in inside + touching)
        assert all(q(u) >= 1.0 - 1e-9 for u in touching)

    @staticmethod
    def always_deep(monkeypatch):
        # no ascent steps, so G's density I/n is the only certificate and
        # the gap stays open; then every cut empties the ellipsoid.  The
        # patched cut is not a true one, so only the emptying rule is
        # checked
        oracle = ellipsoid.separation_oracle

        def deep(chart, u, best_value):
            cut = oracle(chart, u, best_value)
            return dataclasses.replace(
                cut, kind="feasibility", block="spectral", depth=1e6
            )

        monkeypatch.setattr(ellipsoid, "_ASCENT_STEPS", 0)
        monkeypatch.setattr(ellipsoid, "separation_oracle", deep)

    def test_emptying_cut_sets_lower_bound_to_best(self, monkeypatch):
        # a cut with alpha >= 1 leaves no feasible point below best, so the
        # solve takes best as its lower bound and stops; G's density is a
        # certificate before the loop, so that is its first step
        inst, ball = make(diagonal(gr(2, 3), gr(2, -3), gr(5, 6)))
        self.always_deep(monkeypatch)
        res = solve(ball, 1e-4)
        assert res.iterations == 1
        assert res.dual_solves == res.certs_dual == 0
        assert res.lower_bound_dual is None
        # G's density is I/3, with w = tr(C)/3 = 3 + 2i
        assert res.falls == (pytest.approx(abs(3 + 2j), abs=1e-12),)
        assert res.lower_bound == res.value == res.falls[-1]
        assert res.closed_by == "feasible"

    def test_emptying_cut_at_g_returns_its_density(self, monkeypatch):
        # the loop's first cut already has G's certificate to fall back on
        inst, ball = make(EXAMPLE)
        self.always_deep(monkeypatch)
        res = solve(ball, 1e-4)
        trace = np.trace(EXAMPLE.to_complex())
        assert res.iterations == 1
        assert res.lower_bound == res.value
        assert res.value == pytest.approx(abs(trace) / inst.n, abs=1e-12)
        assert np.array_equal(res.X, np.eye(inst.n) / inst.n)


class TestPsdTraceBound:
    def test_frobenius_below_trace(self):
        rng = np.random.default_rng(23)
        for _ in range(500):
            k = int(rng.integers(1, 8))
            m = rng.standard_normal((k, k))
            psd = m @ m.T
            assert np.linalg.norm(psd) <= np.trace(psd) + 1e-12


class TestSolve:
    def test_reference_example_value(self):
        inst, ball = make(EXAMPLE)
        res = solve(ball, 1e-4)
        assert 1.9225 <= res.value <= 1.9235
        assert CHI_EXAMPLE <= res.value <= CHI_EXAMPLE + 1e-4

    def test_identity(self):
        inst, ball = make(IDENTITY2)
        res = solve(ball, 1e-4)
        assert 1.0 - 1e-9 <= res.value <= 1.0 + 1e-4

    def test_indefinite_diagonal_reaches_zero(self):
        inst, ball = make(DIAG_PM)
        res = solve(ball, 1e-4)
        assert 0.0 <= res.value <= 1e-4

    def test_deterministic(self):
        inst, ball = make(EXAMPLE)
        r1 = solve(ball, 1e-4)
        r2 = solve(ball, 1e-4)
        assert r1.value == r2.value
        assert r1.iterations == r2.iterations
        assert r1.cuts_feasibility == r2.cuts_feasibility

    def test_accepted_values_monotone(self):
        inst, ball = make(EXAMPLE)
        falls = solve(ball, 1e-4).falls
        assert len(falls) >= 1
        assert all(b <= a + 1e-15 for a, b in zip(falls, falls[1:]))

    def test_result_invariants(self):
        inst, ball = make(EXAMPLE)
        res = solve(ball, 1e-4)
        full = assemble_feasible_point(inst, res.X, res.value)
        zy, zuv, zt = blocks(full)
        tol = 1e-9 * float(ball.outer_R)
        assert np.linalg.eigvalsh(0.5 * (zy + zy.T))[0] >= -tol
        assert np.linalg.eigvalsh(zuv)[0] >= -tol
        assert zt >= -tol
        f0 = densify(objective(inst.n), ambient_dim(inst))
        assert res.value == pytest.approx((f0 * full).sum(), abs=1e-12)
        for f, b in dense_constraints(inst):
            assert abs((f * full).sum() - b) <= 1e-9
        assert res.certified_gap == res.value - res.lower_bound
        assert 0.0 <= res.certified_gap <= 1e-4
        assert res.lower_bound <= res.value
        assert res.value - res.lower_bound <= 1e-4 + 1e-12
        assert res.cuts_feasibility + res.cuts_objective <= res.iterations
        assert res.cuts_feasibility == (
            res.cuts_spectral + res.cuts_modulus + res.cuts_ceiling
        )

    def test_lower_bound_below_truth(self):
        inst, ball = make(EXAMPLE)
        res = solve(ball, 1e-4)
        assert res.lower_bound <= CHI_EXAMPLE + 1e-12

    @pytest.mark.parametrize("n", range(2, 6))
    def test_bracket_holds_against_oracle(self, n):
        rng = np.random.default_rng(700 + n)
        for _ in range(2):
            c = random_gaussian_integer(rng, n, -3, 3)
            # chi >= 1 about the centre ceil(||C||_F) + 1
            mat = c.translate(gr(frobenius_ceiling(c) + 1))
            inst, ball = make(mat)
            res = solve(ball, 1e-4)
            # the oracle's best evaluation sits near the top of a smooth
            # maximum: its error is second order in the final arc width
            chi = support_search(mat, 1e-6).chi
            assert chi >= 1.0
            assert res.lower_bound <= chi + 1e-9 <= res.value + 1e-9
            assert res.value - res.lower_bound <= 1e-4

    def test_inner_ball_inclusion(self):
        inst, ball = make(EXAMPLE)
        chart = build_chart(inst)
        g = densify(ball.center, ambient_dim(inst))
        rng = np.random.default_rng(29)
        r_in = float(ball.inner_r)
        for _ in range(200):
            w = rng.standard_normal(chart.dim)
            w /= np.linalg.norm(w)
            z = chart.point(r_in * w)
            # the chart is a contraction: the step from G has Frobenius
            # length at most r_in
            assert np.linalg.norm(z - g) <= r_in + 1e-12
            zy, zuv, zt = blocks(z)
            assert np.linalg.eigvalsh(zy)[0] >= -1e-9
            assert np.linalg.eigvalsh(zuv)[0] >= -1e-9
            assert zt >= -1e-9

    def test_outer_ball_bound(self):
        inst, ball = make(EXAMPLE)
        res = solve(ball, 1e-4)
        assert res.max_feasible_distance <= float(ball.outer_R) + 1e-6

    def test_rejects_nonpositive_eps(self):
        inst, ball = make(EXAMPLE)
        with pytest.raises(ValueError):
            solve(ball, 0.0)

    @pytest.mark.parametrize("eps", [math.inf, math.nan])
    def test_rejects_non_finite_eps(self, eps):
        _, ball = make(EXAMPLE)
        with pytest.raises(ValueError, match="finite and positive"):
            solve(ball, eps)

    def test_cap_diagnostic_carries_state(self):
        inst, ball = make(EXAMPLE)
        res = dataclasses.replace(solve(ball, 1e-4), value=2.0, lower_bound=1.0, iterations=5)
        try:
            raise EllipsoidCapExceeded("test", res)
        except EllipsoidCapExceeded as e:
            assert e.result is res and e.reason == "test" and e.iterations == 5
            assert str(e) == "test; best 2, certified lower bound 1"
            assert not hasattr(e, "best") and not hasattr(e, "lower_bound")


class TestEllipsoidAlone:
    """With no ascent steps, G's density is the only certificate before
    the loop, and the paper's deep-cut ellipsoid method closes the gap on
    its own, certified by the repaired feasible centres."""

    @pytest.mark.parametrize("shifted", [False, True], ids=["example", "shifted"])
    def test_runs_to_closure(self, shifted, monkeypatch):
        mat = EXAMPLE
        if shifted:
            c = random_gaussian_integer(np.random.default_rng(700), 3, -3, 3)
            # chi >= 1 about the centre ceil(||C||_F) + 1
            mat = c.translate(gr(frobenius_ceiling(c) + 1))
        lo, hi = chi_bracket(mat)
        monkeypatch.setattr(ellipsoid, "_ASCENT_STEPS", 0)
        inst, ball = make(mat)
        assert "x_map" not in ball.chart.__dict__
        res = solve(ball, 1e-4)
        # the loop built the chart's dense map on its first step
        assert "x_map" in ball.chart.__dict__
        assert res.lower_bound <= hi + 1e-9 and lo <= res.value + 1e-9
        assert res.certified_gap <= 1e-4
        assert 1 < res.iterations <= res.iteration_cap
        assert res.closed_by == "feasible"
        assert res.dual_solves == 0 and res.lower_bound_dual is None

    def test_shape_stays_exactly_symmetric(self, monkeypatch):
        # the loop never re-symmetrizes P, so every update must keep it so
        c = random_gaussian_integer(np.random.default_rng(700), 3, -3, 3)
        mat = c.translate(gr(frobenius_ceiling(c) + 1))
        shrink = ellipsoid._shrink
        asymmetric = []

        def spy(z, p_mat, b, alpha):
            shrink(z, p_mat, b, alpha)
            asymmetric.append(not np.array_equal(p_mat, p_mat.T))

        monkeypatch.setattr(ellipsoid, "_ASCENT_STEPS", 0)
        monkeypatch.setattr(ellipsoid, "_shrink", spy)
        _, ball = make(mat)
        res = solve(ball, 1e-4)
        assert len(asymmetric) == res.iterations - 1 > 100
        assert not any(asymmetric)


class TestLazyChart:
    """The chart's dense maps are built on first use, so a solve that the
    ascent closes builds none of them."""

    def test_ascent_closed_solve_builds_no_dense_map(self):
        c = random_gaussian_integer(np.random.default_rng(701), 4, -3, 3)
        res = crawford(CrawfordQuery(matrix=c, center=outside_centre(c, 0.7, 2.0), epsilon=1e-4))
        assert res.solver_stats["iterations"] == 1
        assert res.solver_stats["closed_by"] == "dual"
        built = res.ball.chart.__dict__
        assert not {"x_origin", "x_map", "pencil_grad", "initial_shape"} & built.keys()

    def test_first_use_builds_the_traceless_basis_once(self, monkeypatch):
        calls = []
        basis = ellipsoid._traceless_basis

        def counted(n):
            calls.append(n)
            return basis(n)

        monkeypatch.setattr(ellipsoid, "_traceless_basis", counted)
        inst, ball = make(EXAMPLE)
        chart = ball.chart
        assert calls == [] and chart.dim == 4
        x_map = chart.x_map
        assert calls == [2] and x_map.shape == (4, 8) and not x_map[-1].any()
        assert chart.point(np.ones(4)).shape == (ambient_dim(inst),) * 2
        assert chart.x_map is x_map and calls == [2]


class TestRepair:
    def test_repaired_point_feasible_and_bounds_chi(self):
        inst, ball = make(EXAMPLE)
        chart = build_chart(inst)
        rng = np.random.default_rng(31)
        for _ in range(10):
            zc = rng.standard_normal(chart.dim) * 0.3
            w, x = repair_point(inst, chart.density(zc))
            val = abs(w)
            zy, zuv, zt = blocks(assemble_feasible_point(inst, x, val))
            assert abs(np.trace(x) - 1.0) < 1e-9
            assert val >= CHI_EXAMPLE - 1e-9
            assert np.linalg.eigvalsh(zy)[0] >= -1e-9
            assert np.linalg.eigvalsh(zuv)[0] >= -1e-9
            assert zt >= -1e-9
            assert abs(np.trace(zy) - 2.0) < 1e-9

    def test_indefinite_density_clipped_to_trace_one(self):
        inst, _ = make(EXAMPLE)
        chart = build_chart(inst)
        rng = np.random.default_rng(37)
        for _ in range(10):
            dens = chart.density(rng.standard_normal(chart.dim) * 50.0)
            assert np.linalg.eigvalsh(dens)[0] < -0.1
            w, x = repair_point(inst, dens)
            val = abs(w)
            assert abs(np.trace(x) - 1.0) < 1e-9
            assert np.linalg.eigvalsh(x)[0] >= -1e-12
            assert w == complex(*inst.pencil_values(x))
            assert val == math.hypot(*inst.pencil_values(x))
            assert val >= CHI_EXAMPLE - 1e-9


def hull_samples(w, steps=400):
    """Points of conv{w}, dense on its edges and over its inside."""
    w = np.asarray(w, dtype=complex)
    t = np.linspace(0.0, 1.0, steps + 1)
    out = [w]
    for i in range(len(w)):
        for j in range(i + 1, len(w)):
            out.append((1.0 - t) * w[i] + t * w[j])
    if len(w) == 3:
        a, b = np.meshgrid(t, t)
        keep = a + b <= 1.0
        a, b = a[keep], b[keep]
        out.append((1.0 - a - b) * w[0] + a * w[1] + b * w[2])
    return np.concatenate(out)


class TestNearestPointWeights:
    """The planar step of the certificate: convex weights of the point of
    the hull of at most three values w_i in C that lies nearest 0."""

    def check(self, w):
        lam = nearest_point_weights(w)
        assert len(lam) == len(w)
        assert min(lam) >= 0.0
        assert sum(lam) == pytest.approx(1.0, abs=1e-12)
        point = sum(l * p for l, p in zip(lam, w))
        assert abs(point) <= np.abs(hull_samples(w)).min() + 1e-12
        return lam, point

    def test_single_point(self):
        assert nearest_point_weights([3 - 4j]) == [1.0]

    def test_vertex(self):
        lam, point = self.check([1 + 1j, 2 + 3j])
        assert lam == [1.0, 0.0] and point == 1 + 1j
        lam, point = self.check([4 + 1j, 2 - 1j, 1 + 0.5j])
        assert lam == [0.0, 0.0, 1.0]

    def test_edge(self):
        lam, point = self.check([1 + 1j, 1 - 1j])
        assert lam == [0.5, 0.5] and point == 1.0
        lam, point = self.check([2 + 2j, 2 - 1j, 5 + 0j])
        assert lam[2] == 0.0 and point == pytest.approx(2.0, abs=1e-15)

    def test_interior(self):
        lam, point = self.check([1.0 + 0j, -1 + 1j, -1 - 1j])
        assert all(l > 0.0 for l in lam)
        assert abs(point) <= 1e-15

    def test_collinear(self):
        # 0 on the segment: no triangle, the edge through 0 gives it
        lam, point = self.check([1 + 1j, 2 + 2j, -1 - 1j])
        assert abs(point) <= 1e-15 and lam[1] == 0.0
        # 0 off the line's hull: the nearest end
        lam, point = self.check([2 + 2j, 3 + 3j, 1 + 1j])
        assert lam == [0.0, 0.0, 1.0]
        # the foot of 0 on the line, inside an edge
        lam, point = self.check([2 + 1j, 2 + 5j, 2 - 3j])
        assert lam[1] == 0.0 and point == pytest.approx(2.0, abs=1e-15)

    def test_duplicates(self):
        for w in ([1 + 2j, 1 + 2j], [1 + 2j] * 3, [2j, 2j, 1.0 + 0j], [1j, -1j, 1j]):
            self.check(w)
        assert self.check([1 + 2j] * 3)[1] == 1 + 2j
        assert abs(self.check([1j, -1j, 1j])[1]) <= 1e-15

    def test_random(self):
        rng = np.random.default_rng(61)
        for k in (2, 3) * 60:
            w = list(rng.standard_normal(k) + 1j * rng.standard_normal(k))
            self.check(w)
            self.check([p + complex(*rng.standard_normal(2)) * 3.0 for p in w])


def inside_matrix(rng, n):
    """C - round(tr C / n) I for a random integer n x n C, n >= 2, redrawn
    until the support search certifies chi = 0 there and every one of 512
    sampled directions keeps the support function 0.25 or more beyond it.
    (At n = 1 the translate is the zero matrix, which has no instance.)"""
    thetas = np.linspace(0.0, 2.0 * math.pi, 512, endpoint=False)
    while True:
        c = random_gaussian_integer(rng, n, -3, 3)
        tr = np.trace(c.to_complex()) / n
        centre = gr(round(tr.real), round(tr.imag))
        mat = c.translate(centre)
        if mat.is_zero() or support_search(mat, 1e-6).chi != 0.0:
            continue
        t = mat.to_complex()
        a, b = 0.5 * (t + t.conj().T), -0.5j * (t - t.conj().T)
        g = [np.linalg.eigvalsh(math.cos(th) * a + math.sin(th) * b)[0] for th in thetas]
        if max(g) <= -0.25:
            return mat


class TestHullCertificate:
    """chi = 0 ends as soon as the hull of the support points holds a
    point within eps of 0; the witness is a density whose value is read
    off it, and the objective cut at best_cert keeps every optimum."""

    @pytest.mark.parametrize("n", range(2, 7))
    def test_chi_zero_family(self, n):
        rng = np.random.default_rng(1100 + n)
        for eps in (1e-3, 1e-6):
            mat = inside_matrix(rng, n)
            inst, ball = make(mat)
            res = solve(ball, eps)
            assert res.value <= eps
            assert res.lower_bound == 0.0
            assert np.linalg.eigvalsh(res.X)[0] >= -1e-12
            assert abs(np.trace(res.X) - 1.0) <= 1e-12
            assert res.value == math.hypot(*inst.pencil_values(res.X))

    @pytest.mark.parametrize("n", range(1, 5))
    def test_bracket_just_outside(self, n):
        # centres 0.01 beyond the support line of W(C) in a random direction
        rng = np.random.default_rng(1200 + n)
        for _ in range(2):
            c = random_gaussian_integer(rng, n, -3, 3)
            t = c.to_complex()
            a, b = 0.5 * (t + t.conj().T), -0.5j * (t - t.conj().T)
            th = rng.uniform(0.0, 2.0 * math.pi)
            h = np.linalg.eigvalsh(math.cos(th) * a + math.sin(th) * b)[-1]
            z = (h + 0.01) * complex(math.cos(th), math.sin(th))
            centre = GaussianRational(
                Fraction(z.real).limit_denominator(10**4),
                Fraction(z.imag).limit_denominator(10**4),
            )
            mat = c.translate(centre)
            inst, ball = make(mat)
            res = solve(ball, 1e-4)
            chi = support_search(mat, 1e-7).chi
            assert chi >= 0.009
            assert res.lower_bound <= chi + 1e-9 <= res.value + 1e-9
            assert res.value - res.lower_bound <= 1e-4
            assert res.value == math.hypot(*inst.pencil_values(res.X))

    def test_witness_is_a_repaired_density(self, monkeypatch):
        # every certificate is G's density I/n or comes out of
        # repair_point, a single centre's or a combination's: clipped to
        # the PSD cone, trace rescaled to 1
        repaired = []

        def spy(inst, dens):
            out = repair_point(inst, dens)
            repaired.append(out[1])
            return out

        monkeypatch.setattr(ellipsoid, "repair_point", spy)
        rng = np.random.default_rng(1300)
        for n in (2, 3, 4):
            repaired.clear()
            inst, ball = make(inside_matrix(rng, n))
            res = solve(ball, 1e-4)
            assert np.array_equal(res.X, np.eye(n) / n) or any(
                x is res.X for x in repaired
            )
            assert np.linalg.eigvalsh(res.X)[0] >= -1e-12
            assert abs(np.trace(res.X) - 1.0) <= 1e-12
            assert res.value == abs(complex(*inst.pencil_values(res.X)))


def far_matrix(rng, n, rational):
    """C - centre for a random C with integer entries, or with real parts
    over 3 and imaginary parts over 7, and a centre 1 to 2 beyond a
    support line of W(C), on the lattice (Z + iZ)/3 when rational."""
    c = random_gaussian_integer(rng, n, -3, 3)
    if rational:
        c = ComplexMatrix(
            [[gr(Fraction(z.re, 3), Fraction(z.im, 7)) for z in row] for row in c.entries]
        )
    theta = rng.uniform(0.0, 2.0 * math.pi)
    centre = outside_centre(c, theta, rng.uniform(1.0, 2.0), 3 if rational else 1)
    return c.translate(centre)


def is_pencil(inst, m):
    """Whether m = cos t A + sin t B for some t."""
    ab = inst.pencil_flat
    flat = np.ascontiguousarray(m).ravel().view(float)
    coef = np.linalg.lstsq(ab.T, flat, rcond=None)[0]
    return (
        np.abs(coef @ ab - flat).max() <= 1e-12 * (1.0 + np.abs(flat).max())
        and abs(coef @ coef - 1.0) <= 1e-12
    )


class TestRankOneCertificate:
    """At each fall of best_cert the dual slack cos t A + sin t B -
    lambda_min I, t = arg w, has a null vector v, and the rank-one density
    vv* is offered as a certificate: at the optimal t it is an optimum
    (complementary slackness)."""

    @pytest.fixture
    def solved(self, monkeypatch):
        # far-centre solves at n = 3..5, integer and coprime-rational, with
        # the densities repair_point made
        repaired = []

        def spy(inst, dens):
            out = repair_point(inst, dens)
            repaired.append(out[1])
            return out

        monkeypatch.setattr(ellipsoid, "repair_point", spy)
        rng = np.random.default_rng(1500)
        runs = []
        for n in (3, 4, 5):
            for rational in (False, True):
                mat = far_matrix(rng, n, rational)
                inst, cint, scale = sdp_instance(mat)
                repaired.clear()
                res = solve(certified_ball(inst, cint), 1e-4 * scale)
                from_repair = any(x is res.X for x in repaired)
                runs.append((mat, inst, scale, res, from_repair))
        return runs

    def test_bracket_against_chi(self, solved):
        for mat, inst, scale, res, _ in solved:
            lo, hi = chi_bracket(mat)
            assert res.lower_bound / scale <= hi + 1e-9
            assert lo <= res.value / scale + 1e-9
            assert res.value - res.lower_bound <= 1e-4 * scale
            assert res.certs_dual >= 1

    def test_witness_is_a_rank_one_density(self, solved):
        dual = 0
        for _, inst, _, res, from_repair in solved:
            assert res.value == math.hypot(*inst.pencil_values(res.X))
            if from_repair:
                continue
            # not a repaired density: the null vector's vv*
            assert res.certs_dual > 0
            dual += 1
            x = res.X
            lam = np.linalg.eigvalsh(x)
            assert np.abs(x - x.conj().T).max() <= 1e-12
            assert lam[0] >= -1e-12 and lam[-2] <= 1e-12
            assert abs(np.trace(x) - 1.0) <= 1e-12
        assert dual >= 1


def rotated(diag, c, s):
    """Q diag(d) Q' for the rational Givens rotation Q = [[c, -s, 0],
    [s, c, 0], [0, 0, 1]], c^2 + s^2 = 1: a unitary similarity, so the
    numerical range is that of diag(d)."""
    q = [[c, -s, 0], [s, c, 0], [0, 0, 1]]
    return ComplexMatrix(
        [
            [sum((q[i][k] * q[j][k] * diag[k] for k in range(3)), gr(0)) for j in range(3)]
            for i in range(3)
        ]
    )


def check_bracket(eps, res, scale, lo, hi):
    """res, a solve at eps * scale, brackets chi in [lo, hi] to within
    eps at its first step, with lower_bound <= value however the last
    bits fall."""
    assert res.lower_bound / scale <= hi + 1e-9 and lo <= res.value / scale + 1e-9
    assert 0.0 <= res.certified_gap <= eps * scale
    assert res.lower_bound <= res.value
    assert res.iterations == 1
    assert res.closed_by == "dual"


class TestDualAscent:
    """At each fall of best_cert, an ascent on t raises f(t) =
    lambda_min(cos t A + sin t B): a Newton step with the exact curvature
    where f is smooth and rose, a Wolfe step on the support points it
    visited elsewhere, each solve raising lb and offering a density."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("rational", [False, True])
    def test_far_centres(self, n, rational):
        rng = np.random.default_rng(1800 + 10 * n + rational)
        mat = far_matrix(rng, n, rational)
        inst, cint, scale = sdp_instance(mat)
        res = solve(certified_ball(inst, cint), 1e-4 * scale)
        lo, hi = chi_bracket(mat)
        assert res.lower_bound / scale <= hi + 1e-9
        assert lo <= res.value / scale + 1e-9
        assert res.value - res.lower_bound <= 1e-4 * scale
        assert res.dual_solves >= 2
        assert res.certs_dual <= res.dual_solves
        assert res.closed_by == "dual"
        assert res.value == math.hypot(*inst.pencil_values(res.X))

    def test_shifted_family_closes_in_a_few_steps(self):
        # chi >= 1 about ceil(||C||_F) + 1: the ascent reaches the optimal
        # angle from the first centre's, where a single solve at that
        # angle needs the ellipsoid to bring it there (hundreds of steps)
        rng = np.random.default_rng(1900)
        for n in range(3, 9):
            c = random_gaussian_integer(rng, n, -3, 3)
            mat = c.translate(GaussianRational(frobenius_ceiling(c) + 1, 0))
            inst, cint, _ = sdp_instance(mat)
            res = solve(certified_ball(inst, cint), 1e-4)
            assert res.iterations <= 50, n
            assert res.closed_by == "dual"
            lo, hi = chi_bracket(mat)
            assert res.lower_bound <= hi + 1e-9 and lo <= res.value + 1e-9
            assert res.value - res.lower_bound <= 1e-4

    @pytest.mark.parametrize(
        "diag",
        [
            [gr(2, 3), gr(2, -3), gr(5)],
            # the first centre's angle, arg(3 + 2i), is off the kink
            [gr(2, 3), gr(2, -3), gr(5, 6)],
        ],
        ids=["on_axis", "off_axis"],
    )
    @pytest.mark.parametrize("rotate", [False, True])
    @pytest.mark.parametrize("eps", [1e-4, 1e-7])
    def test_kinked_maximum(self, diag, rotate, eps):
        # W is the triangle of the diagonal entries, and its nearest point
        # to 0, namely 2, lies inside the edge from 2 - 3i to 2 + 3i: at
        # t* = 0 lambda_min = 2 is double and f has a kink, where Newton's
        # model does not hold
        if rotate:
            mat = rotated(diag, Fraction(3, 5), Fraction(4, 5))
        else:
            mat = ComplexMatrix(
                [[diag[i] if i == j else gr(0) for j in range(3)] for i in range(3)]
            )
        inst, cint, scale = sdp_instance(mat)
        assert scale == (25 if rotate else 1)
        res = solve(certified_ball(inst, cint), eps * scale)
        assert res.lower_bound / scale <= 2.0 <= res.value / scale + 1e-12
        # the support points of both branches span the edge, so a Wolfe
        # step lands on 2
        check_bracket(eps, res, scale, 2.0, 2.0)
        assert res.lower_bound_dual <= 2.0 * scale + 1e-9
        assert res.dual_solves <= 4

    @pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-7, 1e-8])
    def test_normal_two_by_two(self, eps):
        # W of a normal C is the segment between its eigenvalues, and f is
        # the least of two sinusoids with -f'' = lambda_0, small here: the
        # Newton step overshoots the kink, and the Wolfe step on the two
        # branches' support points is not lower than the best of them, so
        # the ascent solves once more at that certificate's angle
        c = ComplexMatrix([[gr(2, -3), gr(2, 2)], [gr(-2, -2), gr(-1)]])
        mat = c.translate(GaussianRational(Fraction(2961, 1000), Fraction(-809, 200)))
        inst, cint, scale = sdp_instance(mat)
        res = solve(certified_ball(inst, cint), eps * scale)
        check_bracket(eps, res, scale, *chi_bracket(mat))
        assert res.dual_solves <= 4

    def test_near_boundary_family(self):
        # centres 1e-3 to 0.3 beyond a support line of W(C), where the
        # least eigenvalue of the pencil is near-double at many angles
        rng = np.random.default_rng(2100)
        for c, centre, eps in near_boundary_draws(rng, 40, 10**4):
            mat = c.translate(centre)
            inst, cint, scale = sdp_instance(mat)
            res = solve(certified_ball(inst, cint), eps * scale)
            check_bracket(eps, res, scale, *chi_bracket(mat))
            assert res.dual_solves <= 12


class TestWolfeStep:
    """While lambda_min(cos t A + sin t B) <= 0, the least eigenvector v
    gives a support point w(vv*) of W(C) beyond 0, and a Wolfe step on the
    hull of the fallen density and those points replaces the Newton step:
    at chi = 0 the gap closes at the first centre."""

    @staticmethod
    def check(mat, eps, monkeypatch):
        # each certificate, a hull point or vv*, has its value read off
        # X, and the certificates fall strictly; every pencil eigen-solve
        # is counted
        calls = []
        eigh = np.linalg.eigh

        def counted(x):
            calls.append(x)
            return eigh(x)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        inst, ball = make(mat)
        res = solve(ball, eps)
        monkeypatch.undo()
        assert res.iterations == 1
        assert res.value <= eps and res.lower_bound == 0.0
        assert res.value == math.hypot(*inst.pencil_values(res.X))
        assert all(b < a for a, b in zip(res.falls, res.falls[1:]))
        assert sum(is_pencil(inst, m) for m in calls) == res.dual_solves <= 4
        if res.falls[0] > 0.0:
            assert res.dual_solves >= 1 and res.lower_bound_dual <= 0.0
            assert res.closed_by == "dual" and res.certs_dual == len(res.falls) - 1
        return inst, res

    def test_chi_zero_closes_at_the_first_step(self, monkeypatch):
        # the trace-centred family of `inside_matrix`, and random matrices
        # about 0
        for n in range(2, 7):
            rng = np.random.default_rng(1100 + n)
            for eps in (1e-3, 1e-6, 1e-8):
                self.check(inside_matrix(rng, n), eps, monkeypatch)
        rng = np.random.default_rng(2000)
        for n in (3, 3, 4, 4, 5, 5):
            mat = random_gaussian_integer(rng, n, -3, 3)
            assert support_search(mat, 1e-6).chi == 0.0
            self.check(mat, 1e-4, monkeypatch)

    @pytest.mark.parametrize(
        "mat",
        [
            diagonal(gr(0), gr(1)),
            diagonal(gr(0, 1), gr(0, -1), gr(1)),
            diagonal(gr(2, 3), gr(2, -3), gr(-1)),
        ],
        ids=["vertex", "edge", "interior"],
    )
    @pytest.mark.parametrize("eps", [1e-4, 1e-8])
    def test_boundary_of_w_closes_at_the_first_step(self, mat, eps, monkeypatch):
        # 0 is a vertex of W, a point of an edge, or inside the triangle
        # next to an edge
        self.check(mat, eps, monkeypatch)

    def test_witness_is_a_repaired_density(self, monkeypatch):
        # 0 lies inside W, so the nearest point of the support points' hull
        # is a combination of two or three of them, rounded by repair_point
        repaired = []

        def spy(inst, dens):
            out = repair_point(inst, dens)
            repaired.append(out[1])
            return out

        monkeypatch.setattr(ellipsoid, "repair_point", spy)
        rng = np.random.default_rng(1600)
        for n in (3, 4, 5):
            repaired.clear()
            inst, ball = make(inside_matrix(rng, n))
            res = solve(ball, 1e-4)
            assert res.closed_by == "dual"
            assert any(x is res.X for x in repaired)
            assert np.linalg.eigvalsh(res.X)[0] >= -1e-12
            assert abs(np.trace(res.X) - 1.0) <= 1e-12
            assert res.value == math.hypot(*inst.pencil_values(res.X))
