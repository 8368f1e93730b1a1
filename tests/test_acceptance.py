"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (bypassing capture, so the report
shows up in plain pytest output) and then asserts, so a red criterion is
both visible in the log and fails the suite.  The trailing scaling study
is report-only.
"""

import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from crawford.api import CrawfordQuery, Method, crawford, numerical_radius_upper
from crawford.ellipsoid import build_chart, certified_ball, solve
from crawford.linalg import (
    ComplexMatrix,
    GaussianRational,
    frobenius_ceiling,
    hat_upper,
    hermitian_split,
)
from crawford.sdp import annihilators, build_instance, export_sdpa, objective, read_sdpa
from helpers import (
    CHI_EXAMPLE,
    DIAG_PM,
    EXAMPLE,
    EXAMPLE_CENTER,
    EXAMPLE_TILDE,
    adjoint,
    ambient_dim,
    blocks,
    dense_constraints,
    densify,
    exact_entries,
    gr,
    identity,
    random_gaussian_integer,
    random_hermitian_gaussian_integer,
)

DATA = Path(__file__).parent / "data"


@pytest.fixture
def report(capsys):
    """One PASS/FAIL line per criterion, written through the capture."""

    def _report(num: int, ok: bool, detail: str) -> bool:
        line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {detail}"
        with capsys.disabled():
            print(line, flush=True)
        return ok

    return _report


def sdp_chi(mat, center=GaussianRational(0, 0), eps=1e-4):
    return crawford(
        CrawfordQuery(matrix=mat, center=center, epsilon=eps)
    ).chi


def test_criterion_01_worked_example_both_paths(report):
    t0 = time.time()
    res_sdp = crawford(
        CrawfordQuery(
            matrix=EXAMPLE_TILDE,
            center=EXAMPLE_CENTER,
            epsilon=1e-4,
            method=Method.SDP_ELLIPSOID,
        )
    )
    res_orc = crawford(
        CrawfordQuery(
            matrix=EXAMPLE_TILDE,
            center=EXAMPLE_CENTER,
            epsilon=1e-4,
            method=Method.ORACLE_SWEEP,
        )
    )
    dt = time.time() - t0
    err_s = abs(res_sdp.chi - 1.923)
    err_o = abs(res_orc.chi - 1.923)
    ok = err_s <= 1e-3 and err_o <= 1e-3
    assert report(
        1,
        ok,
        f"worked example: sdp={res_sdp.chi:.6f} oracle={res_orc.chi:.6f} "
        f"(target 1.923 +- 1e-3, {dt:.2f} s)",
    )


def test_criterion_02_oracle_equivalence_50_random(report):
    rng = np.random.default_rng(20260825)
    t0 = time.time()
    cases = []
    for rep in range(10):
        for n in (2, 3, 4, 5, 6):
            mat = random_gaussian_integer(rng, n, -5, 5)
            cases.append((mat, GaussianRational(0, 0)))
    # random matrices almost always have 0 in W(C); about the centre
    # ceil(||C||_F) + 1 chi is at least 1
    for rep in range(2):
        for n in (2, 3, 4, 5, 6):
            mat = random_gaussian_integer(rng, n, -5, 5)
            cases.append((mat, GaussianRational(frobenius_ceiling(mat) + 1, 0)))
    worst = 0.0
    count = positive = 0
    for mat, center in cases:
        if mat.is_zero():
            continue
        res = crawford(
            CrawfordQuery(matrix=mat, center=center, epsilon=1e-4, method=Method.BOTH)
        )
        worst = max(worst, abs(res.solver_stats["discrepancy"]))
        count += 1
        positive += res.solver_stats["oracle_value"] > 0.0
    dt = time.time() - t0
    ok = worst <= 2e-4 and count >= 60 and positive >= 10
    assert report(
        2,
        ok,
        f"sdp vs oracle on {count} random matrices n=2..6 "
        f"({count - positive} with chi = 0, {positive} with chi > 0): "
        f"max |difference| = {worst:.2e} <= 2e-4 ({dt:.0f} s)",
    )


def test_criterion_03_trivial_exactness(report):
    errs = []
    for n in (1, 2, 3):
        errs.append(abs(sdp_chi(identity(n), eps=1e-6) - 1.0))
    zero = crawford(CrawfordQuery(matrix=ComplexMatrix.zeros(2), epsilon=1e-6))
    errs.append(abs(zero.chi))
    errs.append(abs(sdp_chi(DIAG_PM, eps=1e-6)))
    ok = max(errs) <= 1e-6
    assert report(
        3,
        ok,
        f"chi(I_n)=1, chi(0)=0, chi(diag(1,-1))=0: max error = {max(errs):.2e} <= 1e-6",
    )


def test_criterion_04_structure_counts(report):
    ok = True
    for n in range(1, 9):
        N = n * n + 7 * n + 2
        fs = [densify(a, 2 * n + 3).ravel() for a in annihilators(n)]
        gram = np.array([[u @ v for v in fs] for u in fs])
        mat = identity(n) if n != 2 else EXAMPLE
        inst = build_instance(*hermitian_split(mat), frobenius_ceiling(mat))
        chart = build_chart(inst)
        ok &= len(fs) == N
        ok &= ambient_dim(inst) == 2 * n + 3
        ok &= (n + 2) * (2 * n + 3) == N + n * n + 4
        ok &= chart.dim == n * n
        ok &= np.linalg.matrix_rank(gram) == N
    n2 = 2 * 2 + 4 == 8 and (2 * 2 + 7 * 2 + 2) == 20
    ok &= n2
    assert report(
        4,
        ok,
        "N = n^2+7n+2, ambient (n+2)(2n+3), chart n^2, Gram rank N for n=1..8; "
        "n=2 gives dim 8 / codim 20",
    )


def test_criterion_05_certified_ball(report):
    rng = np.random.default_rng(55)
    ok = True
    details = []
    for n in (2, 3, 4, 5, 6):
        mat = random_gaussian_integer(rng, n, -5, 5)
        inst = build_instance(*hermitian_split(mat), frobenius_ceiling(mat))
        ball = certified_ball(inst, mat)
        gy, guv, gt = blocks(densify(ball.center, ambient_dim(inst)))
        s_eigs = np.linalg.eigvalsh(guv)
        lam_g = min(
            np.linalg.eigvalsh(gy)[0], s_eigs[0], gt
        )
        ok &= lam_g >= min(1.0 / n, s_eigs[0]) - 1e-12
        ok &= np.linalg.eigvalsh(guv - np.eye(2))[0] >= -1e-12
        chart = build_chart(inst)
        r_in = float(ball.inner_r)
        worst_dir = 0.0
        for _ in range(200):
            w = rng.standard_normal(chart.dim)
            w /= np.linalg.norm(w)
            step_y, step_uv, step_t = blocks(chart.point(r_in * w))
            lam = min(
                np.linalg.eigvalsh(step_y)[0],
                np.linalg.eigvalsh(step_uv)[0],
                step_t,
            )
            worst_dir = min(worst_dir, lam)
            ok &= lam >= -1e-9
        res = solve(ball, 1e-3)
        ok &= res.max_feasible_distance <= float(ball.outer_R) + 1e-6
        details.append(f"n={n} dir_min={worst_dir:.1e}")
    assert report(
        5,
        ok,
        "ball certificates n=2..6: G strictly feasible, S >= I, 200 inner "
        "directions PSD, visited |Z-G| <= R (" + ", ".join(details) + ")",
    )


def test_criterion_06_translation_and_scaling(report):
    rng = np.random.default_rng(66)
    eps = 1e-4
    worst_t = worst_s = 0.0
    ells = (2, 3, 5)
    for k in range(20):
        n = 2 + (k % 2)
        mat = random_gaussian_integer(rng, n, -4, 4)
        if mat.is_zero():
            continue
        c = GaussianRational(
            Fraction(int(rng.integers(-6, 7)), 2),
            Fraction(int(rng.integers(-6, 7)), 3),
        )
        # dist(c, W(C)) is unchanged by a rotation, W(iC) = i W(C), and by
        # the adjoint, W(C*) = conj W(C); both give a different SDP instance
        direct = sdp_chi(mat, center=c, eps=eps)
        rotated = sdp_chi(mat.scale(gr(0, 1)), center=gr(0, 1) * c, eps=eps)
        adjoined = sdp_chi(adjoint(mat), center=c.conjugate(), eps=eps)
        worst_t = max(worst_t, abs(direct - rotated), abs(direct - adjoined))
        ell = ells[k % 3]
        base = sdp_chi(mat, eps=eps)
        scaled = sdp_chi(mat.scale(ell), eps=eps)
        worst_s = max(worst_s, abs(scaled - ell * base) / (ell + 1))
    ok = worst_t <= 2 * eps and worst_s <= eps
    assert report(
        6,
        ok,
        f"identities over 20 instances: rotation/adjoint max err {worst_t:.2e} <= 2e-4, "
        f"scaling max err/(l+1) {worst_s:.2e} <= 1e-4",
    )


def test_criterion_07_hermitian_closed_form(report):
    rng = np.random.default_rng(77)
    eps = 1e-4
    worst = 0.0
    for k in range(20):
        n = 2 + (k % 3)
        mat = random_hermitian_gaussian_integer(rng, n)
        if mat.is_zero():
            continue
        lam = np.linalg.eigvalsh(mat.to_complex())
        truth = 0.0 if lam[0] <= 0.0 <= lam[-1] else min(abs(lam[0]), abs(lam[-1]))
        got = sdp_chi(mat, eps=eps)
        worst = max(worst, abs(got - truth))
    ok = worst <= 2 * eps
    assert report(
        7,
        ok,
        f"hermitian interval distance, 20 matrices: max error {worst:.2e} <= 2e-4",
    )


def test_criterion_08_hat_embedding_properties(report):
    rng = np.random.default_rng(88)
    worst_ip = worst_ev = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 5))
        h1 = random_hermitian_gaussian_integer(rng, n)
        h2 = random_hermitian_gaussian_integer(rng, n)
        ip = float((h1.to_complex().conj() * h2.to_complex()).sum().real)
        hat1, hat2 = (densify(exact_entries(hat_upper(h), h.den), 2 * n) for h in (h1, h2))
        hat_ip = 0.5 * float((hat1 * hat2).sum())
        worst_ip = max(worst_ip, abs(ip - hat_ip))
        base = np.linalg.eigvalsh(h1.to_complex())
        doubled = np.linalg.eigvalsh(hat1)
        worst_ev = max(worst_ev, np.abs(np.repeat(base, 2) - doubled).max())
    ok = worst_ip <= 1e-9 and worst_ev <= 1e-9
    assert report(
        8,
        ok,
        f"hat identities, 500 trials: inner-product err {worst_ip:.2e}, "
        f"eigenvalue-doubling err {worst_ev:.2e} (<= 1e-9)",
    )


def test_criterion_09_frobenius_upper_bound(report):
    rng = np.random.default_rng(99)
    eps = 1e-4
    ok = True
    worst_slack = -math.inf
    cases = [
        (EXAMPLE_TILDE, EXAMPLE_CENTER),
        (EXAMPLE, GaussianRational(0, 0)),
        (identity(3), GaussianRational(0, 0)),
    ]
    for _ in range(10):
        n = int(rng.integers(1, 5))
        cases.append((random_gaussian_integer(rng, n, -5, 5), GaussianRational(0, 0)))
    for mat, center in cases:
        shifted = mat.translate(center)
        if shifted.is_zero():
            continue
        chi = sdp_chi(mat, center=center, eps=eps)
        bound = numerical_radius_upper(shifted)
        ok &= chi <= bound + eps
        worst_slack = max(worst_slack, chi - bound)
    assert report(
        9,
        ok,
        f"chi <= |C|_F + eps on {len(cases)} instances "
        f"(max chi - bound = {worst_slack:.2e})",
    )


def test_criterion_10_sdpa_golden_file(report, tmp_path):
    inst = build_instance(*hermitian_split(EXAMPLE), frobenius_ceiling(EXAMPLE))
    fresh = tmp_path / "fresh.dat-s"
    export_sdpa(inst, fresh)
    golden = DATA / "example_reference.dat-s"
    identical = fresh.read_bytes() == golden.read_bytes()
    data = read_sdpa(fresh)
    cons = dense_constraints(inst)
    mats = [densify(objective(inst.n), ambient_dim(inst))] + [f for f, _ in cons]
    rt = 0.0
    for got, want in zip(data.matrices, mats):
        rt = max(
            rt,
            np.abs(got[0] - want[:4, :4]).max(),
            np.abs(got[1] - want[4:6, 4:6]).max(),
            abs(got[2][0, 0] - want[6, 6]),
        )
    rt = max(rt, np.abs(data.b - [b for _, b in cons]).max())
    ok = identical and rt <= 1e-15
    assert report(
        10,
        ok,
        f"SDPA export byte-identical to golden file = {identical}, "
        f"round-trip max err = {rt:.1e} <= 1e-15",
    )


def test_scaling_report_not_gated(capsys):
    # complexity claims are not reproducible as stated; instead report how
    # each solve ended at fixed eps: its steps, the pencil eigen-solves of
    # the dual bound and its Newton ascent, and the kind of certificate
    # that holds the value.  Random C about 0 and C - kI about 0 with
    # k = ceil(||C||_F) + 1 (chi >= 1); rows are labelled by the measured
    # chi, since a random C about 0 need not hold 0 in W(C)
    rng = np.random.default_rng(123)
    eps = 1e-3
    rows = {"chi <= eps": [], "chi > 0": []}
    for n in range(2, 9):
        mat = random_gaussian_integer(rng, n, -3, 3)
        cases = [(0, mat)]
        if n <= 6:
            centre = frobenius_ceiling(mat) + 1
            cases.append((centre, mat.translate(GaussianRational(centre, 0))))
        for centre, c in cases:
            inst = build_instance(*hermitian_split(c), frobenius_ceiling(c))
            ball = certified_ball(inst, c)
            t0 = time.time()
            res = solve(ball, eps)
            dt = time.time() - t0
            family = "chi <= eps" if res.lower_bound == 0.0 else "chi > 0"
            rows[family].append((n, centre, res, dt))
    lines = [
        "[scaling report] how each solve ended at eps=1e-3 (not gated); "
        "chi <= eps when the certified lower bound is 0"
    ]
    for family, found in rows.items():
        for n, centre, res, dt in found:
            lines.append(
                f"[scaling report]   n={n}  centre={centre:3d}  chi={res.value:9.4f}  "
                f"iterations={res.iterations:6d}  cap={res.iteration_cap:7d}  "
                f"dual_solves={res.dual_solves:4d}  closed_by={res.closed_by:9s}  "
                f"({dt:.2f} s)"
            )
        kinds = sorted({res.closed_by for _, _, res, _ in found})
        lines.append(
            f"[scaling report]   {family}: {len(found)} solves, closed by "
            + ", ".join(
                f"{k} {sum(res.closed_by == k for _, _, res, _ in found)}" for k in kinds
            )
        )
    with capsys.disabled():
        print("\n".join(lines), flush=True)
