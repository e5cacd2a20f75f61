"""Acceptance suite: twelve end-to-end criteria for the library.

Each test prints one `[criterion N] PASS/FAIL` line (run with `pytest -s`
to see them) and then asserts. Seeds are fixed so every Monte Carlo
threshold below is deterministic. Total runtime is about a minute.
"""

import math

import numpy as np

from haar_digits.laws import Benford, PowerLaw, UniformSignificand, windowed_power_cdf
from haar_digits.lie import (
    MC_SIGMAS,
    ConeProblem,
    adjoint_det_on_l,
    adjoint_det_on_u,
    sl2_cone_volume,
    sl2_cone_volume_mc,
)
from haar_digits.rng import RngStream
from haar_digits.samplers import (
    WindowSpec,
    sample_gln_pos_window,
    sample_log_uniform,
    sample_orthogonal_haar,
    sample_sln_lud_window,
    sample_sphere_coords,
)
from haar_digits.specfun import integrate
from haar_digits.sphere import SphereErf, SphereExact, SphereLimit
from haar_digits.stats import (
    build_empirical,
    chi_square_first_digit,
    chi_square_independence,
    digit_contingency,
    digit_tv,
    ks_statistic,
    ks_test,
)

SEED = 42
CHUNK = 250_000


def _report(num, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {num:2d}] {status} - {name}: {detail}", flush=True)
    assert passed, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_benford_analytics():
    cdf2 = Benford(10).cdf(2.0)
    digit9 = Benford(10).first_digit_probs()[8]
    gap_cdf = abs(cdf2 - 0.301029995664)
    gap_d9 = abs(digit9 - 0.045757)
    _report(
        1,
        "benford analytics",
        gap_cdf < 1e-12 and gap_d9 < 1e-6,
        f"|cdf(2)-0.301029995664|={gap_cdf:.2e} (<1e-12), "
        f"|P(d=9)-0.045757|={gap_d9:.2e} (<1e-6)",
    )


def test_criterion_02_power_law_consistency():
    gap = abs(windowed_power_cdf(10, 2.0, 6, 2.0) - 5.0 / 9.0)
    masses = []
    for k in (1.5, 2.0, 3.0):
        law = PowerLaw(10, k)
        masses.append(integrate(lambda s: law.density(s), np.linspace(1.0, 10.0, 33)))
    mass_gap = max(abs(m - 1.0) for m in masses)
    _report(
        2,
        "power-law consistency",
        gap < 1e-5 and mass_gap < 1e-9,
        f"|windowed cdf(m=6, s=2) - 5/9|={gap:.2e} (<1e-5), "
        f"max |integral(density)-1| over k in (1.5,2,3) = {mass_gap:.2e} (<1e-9)",
    )


def _arcsine_series_cdf(s, base=10, terms=400):
    """Independent series for the circle first-coordinate significand CDF."""
    total = 0.0
    for i in range(1, terms + 1):
        scale = float(base) ** (-i)
        if scale == 0.0:
            break
        total += math.asin(min(s * scale, 1.0)) - math.asin(scale)
    return 2.0 * total / math.pi


def test_criterion_03_sphere_closed_forms():
    grid = np.linspace(1.0, 10.0, 50)
    flat_gap = float(np.max(np.abs(SphereExact(base=10, n=2).cdf(grid) - (grid - 1.0) / 9.0)))
    circle = SphereExact(base=10, n=1)
    circle_gap = max(abs(circle.cdf(float(s)) - _arcsine_series_cdf(float(s))) for s in grid)
    _report(
        3,
        "sphere closed forms",
        flat_gap < 1e-9 and circle_gap < 1e-9,
        f"n=2 sup|cdf-(s-1)/9|={flat_gap:.2e} (<1e-9), "
        f"n=1 sup|cdf-arcsine series|={circle_gap:.2e} (<1e-9)",
    )


def test_criterion_04_erf_asymptotic():
    grid = np.array([1.0 + (j * 9.0) / 99.0 for j in range(1, 100)])

    def sup_gap(n):
        exact = np.asarray(SphereExact(base=10, n=n).cdf(grid), dtype=float)
        approx = np.asarray(SphereErf(base=10, n=n).cdf(grid), dtype=float)
        return float(np.max(np.abs(exact - approx)))

    gap_small = sup_gap(100)
    gap_large = sup_gap(10_000)
    _report(
        4,
        "erf asymptotic",
        gap_large < 0.005 and gap_large < gap_small,
        f"sup gap at n=10^4: {gap_large:.2e} (<0.005), at n=10^2: {gap_small:.2e} "
        f"(must be larger)",
    )


def test_criterion_05_periodicity():
    grid = np.linspace(1.0, 10.0, 999)
    f100 = np.asarray(SphereLimit(base=10, n=100).cdf(grid), dtype=float)
    f10000 = np.asarray(SphereLimit(base=10, n=10_000).cdf(grid), dtype=float)
    analytic_gap = float(np.max(np.abs(f100 - f10000)))
    root = RngStream(SEED)
    hists = {}
    for n in (100, 10_000):
        stream = root.substream(n)
        parts = [
            sample_sphere_coords(n, 1, stream, CHUNK)[:, 0]
            for _ in range(1_000_000 // CHUNK)
        ]
        hists[n] = build_empirical(np.concatenate(parts), 10)
    tv = digit_tv(hists[100], hists[10_000])
    _report(
        5,
        "limit-law periodicity",
        analytic_gap < 1e-10 and tv < 0.01,
        f"sup|F_100-F_10000|={analytic_gap:.2e} (<1e-10), "
        f"MC digit TV(S^100, S^10000) at N=10^6 each = {tv:.4f} (<0.01)",
    )


def test_criterion_06_orthogonal_components():
    rng = RngStream(SEED)
    parts = [sample_orthogonal_haar(10, rng, 25_000)[:, 0, 0] for _ in range(4)]
    entries = np.concatenate(parts)
    d = ks_statistic(build_empirical(entries, 10), SphereExact(base=10, n=9))
    _report(
        6,
        "orthogonal (1,1)-entry law",
        d < 0.01,
        f"KS distance of 10^5 Haar O(10) entries vs exact S^9 law = {d:.5f} (<0.01)",
    )


def test_criterion_07_sln_benford_and_independence():
    spec = WindowSpec(eps=1.0, m=3)
    sample_stream = RngStream(SEED).substream(0)
    d11, d22, g13, g21 = [], [], [], []
    total = 1_000_000
    done = 0
    while done < total:
        c = min(CHUNK, total - done)
        sample = sample_sln_lud_window(3, 10, spec, sample_stream, c)
        d11.append(sample.diag[:, 0].copy())
        d22.append(sample.diag[:, 1].copy())
        # Every entry of g is Benford (README, *The laws*), off the diagonal too.
        g13.append(sample.g[:, 0, 2].copy())
        g21.append(sample.g[:, 1, 0].copy())
        done += c
    d11 = np.concatenate(d11)
    d22 = np.concatenate(d22)
    law = Benford(10)
    stat_d11 = chi_square_first_digit(d11, law).statistic
    stat_d22 = chi_square_first_digit(d22, law).statistic
    indep = chi_square_independence(digit_contingency(d11, d22)).statistic
    stat_g13 = chi_square_first_digit(np.concatenate(g13), law).statistic
    stat_g21 = chi_square_first_digit(np.concatenate(g21), law).statistic
    ok = (
        stat_d11 < 26.12
        and stat_d22 < 26.12
        and indep < 83.7
        and stat_g13 < 26.12
        and stat_g21 < 26.12
    )
    _report(
        7,
        "SL_3 diagonal factor",
        ok,
        f"chi2(8): d11={stat_d11:.2f}, d22={stat_d22:.2f} (<26.12); "
        f"independence chi2(64)={indep:.2f} (<83.7); entries (1,3), (2,1) "
        f"chi2(8): {stat_g13:.2f}, {stat_g21:.2f} (<26.12)",
    )


def test_criterion_08_gln_determinants():
    spec = WindowSpec(eps=1.0, m=3)
    rng = RngStream(SEED)
    dets = []
    total = 1_000_000
    done = 0
    while done < total:
        c = min(CHUNK, total - done)
        sample = sample_gln_pos_window(3, 10, spec, rng, c)
        # Recompute the determinant from the matrices rather than trusting
        # the sampler's bookkeeping.
        dets.append(np.linalg.det(sample.matrices))
        done += c
    stat = chi_square_first_digit(np.concatenate(dets), Benford(10)).statistic
    _report(
        8,
        "GL_3^+ determinant law",
        stat < 26.12,
        f"chi2(8) of 10^6 determinant significands vs Benford = {stat:.2f} (<26.12)",
    )


def test_criterion_09_adjoint_identity():
    root = RngStream(SEED)
    worst = 0.0
    for n in range(2, 6):
        stream = root.substream(n)
        for _ in range(100):
            mags = np.exp(stream.uniform(-2.0, 2.0, n))
            signs = np.where(np.asarray(stream.random(n)) < 0.5, -1.0, 1.0)
            d = mags * signs
            u = np.eye(n)
            for i in range(n):
                for j in range(i + 1, n):
                    u[i, j] = stream.uniform(-3.0, 3.0)
            # adjoint_det_on_l checks internally that the projected action
            # is triangular in the distance-from-diagonal basis ordering.
            product = adjoint_det_on_l(d, u) * adjoint_det_on_u(d)
            worst = max(worst, abs(product - 1.0))
    _report(
        9,
        "adjoint determinant identity",
        worst < 1e-9,
        f"max |det_l(ud) * det_u(d) - 1| over 100 draws x n in 2..5 = {worst:.2e} (<1e-9)",
    )


def test_criterion_10_sl2_cone():
    # One draw: the volume of the cone of edge 10, the volumes of the cones
    # of edge 2 and 5 inside it, and the law of the accepted points' window
    # edges, which is Benford because the volume grows as ln x.
    problem = ConeProblem(10.0, 0.1)
    mc, edges = sl2_cone_volume_mc(problem, RngStream(SEED), 10_000_000)
    analytic = sl2_cone_volume(problem)
    mc_gap = abs(mc.estimate - analytic) / analytic
    sigma_gaps = [
        mc.subregion(int(np.count_nonzero(edges <= x))).sigma_gap(
            sl2_cone_volume(ConeProblem(x, 0.1))
        )
        for x in (2.0, 5.0, 10.0)
    ]
    alpha = math.erfc(MC_SIGMAS / math.sqrt(2.0))  # a normal deviate MC_SIGMAS out
    law = Benford(10)
    ks = ks_test(edges, law, alpha=alpha)
    chi2 = chi_square_first_digit(edges, law, alpha=alpha)
    _report(
        10,
        "SL_2 cone volume law",
        mc_gap < 0.02 and max(sigma_gaps) < MC_SIGMAS and ks.passed and chi2.passed,
        f"MC gap at 10^7 trials={mc_gap:.4f} (<0.02, stderr {mc.stderr / analytic:.4f} rel); "
        f"vol(x) at x=2,5,10 from the same draw off by "
        f"{', '.join(f'{g:.2f}' for g in sigma_gaps)} stderr (<{MC_SIGMAS:g}); "
        f"{ks.n} edges vs Benford: KS p={ks.p_approx:.3g}, chi2 p={chi2.p_approx:.3g} "
        f"(>={alpha:.2g})",
    )


def test_criterion_11_scale_invariance():
    x = sample_log_uniform(10, 3, RngStream(SEED), count=100_000)
    law = Benford(10)
    report_plain = ks_test(x, law)
    report_scaled = ks_test(3.7 * x, law)
    threshold = 0.01
    ok = (
        report_plain.passed
        and report_scaled.passed
        and report_plain.statistic < threshold
        and report_scaled.statistic < threshold
    )
    _report(
        11,
        "scale invariance",
        ok,
        f"KS before scaling D={report_plain.statistic:.5f}, after x3.7 "
        f"D={report_scaled.statistic:.5f} (both <{threshold} and alpha-passing)",
    )


def test_criterion_12_negative_control():
    flat = RngStream(SEED).uniform(1.0, 10.0, 100_000)
    report = ks_test(flat, Benford(10))
    _report(
        12,
        "negative control",
        (not report.passed) and report.statistic > 0.05,
        f"uniform significands vs Benford: D={report.statistic:.4f} (>0.05), "
        f"p~{report.p_approx:.2e} (rejected)",
    )
    # The same sample is accepted by its own law, so the rejection above is
    # discriminating rather than blanket.
    assert ks_test(flat, UniformSignificand(10)).passed
