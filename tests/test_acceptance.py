"""Desk-scale acceptance sweep.

One test per shipped guarantee; each prints a [Cnn] PASS/FAIL line with
the measured numbers (visible with pytest -s, or on failure). Budgets are
asserted alongside the numeric tolerances.
"""

import json
import math
import time

import numpy as np
import pytest

from primeaps import arcs, cli, fourier, measures, roth, sieve
from primeaps.fourier import TorusGrid
from primeaps.measures import BASE_ZN, Measure

import paper


def _verdict(tag: str, ok: bool, detail: str) -> None:
    print(f"\n[{tag}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{tag}: {detail}"


COPRIME_BM = [
    (b, m) for b in range(1, 7) for m in range(1, 7) if math.gcd(b, m) == 1
]


def test_c01_sigma_closed_matches_direct(spf_table):
    t0 = time.perf_counter()
    cop = {q: [a for a in range(q) if math.gcd(a, q) == 1] for q in range(1, 61)}
    worst = 0.0
    checked = 0
    for b, m in COPRIME_BM:
        pp = measures.MeasureParams(b=b, m=m, N=1000)
        for q in range(1, 61):
            direct = paper.sigma_aq_direct_all(q, pp, None, spf_table)
            for a in cop[q]:
                err = abs(
                    paper.sigma_aq(a, q, pp, None, spf_table) - direct[a]
                )
                worst = max(worst, err)
                checked += 1
        for Q in range(1, 33):
            for q in range(1, 61):
                direct = paper.sigma_aq_direct_all(q, pp, Q, spf_table)
                for a in cop[q]:
                    err = abs(
                        paper.sigma_aq(a, q, pp, Q, spf_table)
                        - direct[a]
                    )
                    worst = max(worst, err)
                    checked += 1
    elapsed = time.perf_counter() - t0
    _verdict(
        "C01",
        worst <= 1e-10 and elapsed < 10.0,
        f"sigma closed vs direct: {checked} comparisons, worst {worst:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_c02_ramanujan_equals_mobius(spf_table):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for q in range(1, 10_001):
        mob = paper.mobius(q, spf_table)
        for _ in range(5):
            a = int(rng.integers(1, q + 1))
            while math.gcd(a, q) != 1:
                a = int(rng.integers(1, q + 1))
            worst = max(worst, abs(paper.ramanujan_sum(q, a) - mob))
    elapsed = time.perf_counter() - t0
    _verdict(
        "C02",
        worst <= 1e-8 and elapsed < 30.0,
        f"ramanujan vs mobius: q<=1e4 x5, worst {worst:.2e}, {elapsed:.1f}s",
    )


def _brute_triple(fw, gw, hw):
    acc = 0.0
    for d in range(len(fw)):
        acc += float(np.sum(fw * np.roll(gw, -d) * np.roll(hw, -2 * d)))
    return acc


def test_c03_triple_count_matches_brute():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    worst_real = 0.0
    set_mismatches = 0
    for N in (7, 17, 101, 211):
        for _ in range(20):
            w = (rng.random(N) < 0.4).astype(np.float64)
            F = fourier.spectrum(Measure(N, w, base=BASE_ZN))
            got = fourier.triple_count(F, F, F)
            if round(got) != round(_brute_triple(w, w, w)):
                set_mismatches += 1
        for _ in range(20):
            fs = [
                Measure(N, rng.standard_normal(N), signed=True, base=BASE_ZN)
                for _ in range(3)
            ]
            got = fourier.triple_count(*map(fourier.spectrum, fs))
            expect = _brute_triple(*(m.weights for m in fs))
            worst_real = max(worst_real, abs(got - expect))
    elapsed = time.perf_counter() - t0
    _verdict(
        "C03",
        set_mismatches == 0 and worst_real <= 1e-9 and elapsed < 10.0,
        f"triple_count vs brute: sets {set_mismatches} mismatches, "
        f"measures worst {worst_real:.2e}, {elapsed:.1f}s",
    )


def test_c04_even_exponent_majorant(small_table):
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    n_primes = int(small_table.primes_up_to(10_000).size)
    worst = 0.0
    grid = TorusGrid(oversample=2)
    den = fourier.majorant_denominator(4.0, 10_000, small_table, grid)
    for _ in range(100):
        signs = (rng.integers(0, 2, size=n_primes) * 2 - 1).astype(np.float64)
        ratio = fourier.majorant_ratio(signs, 4.0, 10_000, small_table, grid,
                                       den=den)
        worst = max(worst, ratio)
    elapsed = time.perf_counter() - t0
    _verdict(
        "C04",
        worst <= 1.0 + 1e-9 and elapsed < 120.0,
        f"p=4 majorant: 100 sign draws, max ratio {worst:.6f}, {elapsed:.1f}s",
    )


def test_c05_prime_measure_mass(table):
    t0 = time.perf_counter()
    masses = {}
    for b, m in [(1, 1), (1, 2), (2, 3), (1, 6)]:
        lam = measures.lambda_measure(
            measures.MeasureParams(b=b, m=m, N=1_000_000), table
        )
        masses[(b, m)] = lam.total
    elapsed = time.perf_counter() - t0
    ok = all(0.95 <= v <= 1.05 for v in masses.values()) and elapsed < 30.0
    shown = ", ".join(f"{k}={v:.4f}" for k, v in masses.items())
    _verdict("C05", ok, f"measure mass at N=1e6: {shown}, {elapsed:.1f}s")


def test_c06_rough_approximation_trend(table):
    t0 = time.perf_counter()
    sups = []
    mp = measures.MeasureParams(b=1, m=1, N=1_000_000)
    lam = measures.lambda_measure(mp, table)
    for Q in (4, 16, 64):
        res = arcs.sup_diff_scan(
            mp, lam, Q, TorusGrid(oversample=4), table,
            arcs.ArcParams(N=1_000_000, p_exponent=3.0), profile_points=256
        )
        sups.append(res.sup)
    elapsed = time.perf_counter() - t0
    decreasing = all(b < a * 1.10 for a, b in zip(sups, sups[1:]))
    shown = ", ".join(f"Q={q}:{s:.5f}" for q, s in zip((4, 16, 64), sups))
    _verdict(
        "C06",
        decreasing and elapsed < 600.0,
        f"sup|prime^ - rough^| {shown}, {elapsed:.1f}s",
    )


def test_c07_mertens_product(table):
    prod = sieve.mertens_product(100_000, 1, table)
    err = abs(prod * math.exp(np.euler_gamma) * math.log(100_000) - 1.0)
    _verdict("C07", err <= 0.05, f"mertens at 1e5: |error| {err:.4f}")


def test_c08_bohr_size_floor():
    rng = np.random.default_rng(88)
    violations = 0
    for _ in range(100):
        N = int(rng.integers(16, 10_001))
        k = int(rng.integers(1, 5))
        eps = float(rng.uniform(0.05, 0.3))
        R = rng.integers(1, N, size=k)
        B = roth.bohr_set(R, eps, N)
        if len(B) < eps**k * N:
            violations += 1
    _verdict("C08", violations == 0,
             f"|B| >= eps^k N on 100 instances, {violations} violations")


def test_c09_bohr_coefficient_defects():
    rng = np.random.default_rng(99)
    violations = 0
    worst_lin = worst_cub = 0.0
    for _ in range(100):
        N = int(rng.integers(50, 10_001))
        k = int(rng.integers(1, 5))
        eps = float(rng.uniform(0.05, 0.3))
        B = roth.bohr_set(rng.integers(1, N, size=k), eps, N)
        bt = np.fft.fft(B.beta().weights)
        br = bt[B.R % N]
        br2 = bt[(-2 * B.R) % N]
        lin = float(np.max(np.abs(1.0 - br)))
        cub = float(np.max(np.abs(1.0 - br**4 * br2**2)))
        worst_lin = max(worst_lin, lin / (16.0 * eps**2))
        worst_cub = max(worst_cub, cub / (2.0**12 * eps**2))
        if lin > 16.0 * eps**2 or cub > 2.0**12 * eps**2:
            violations += 1
    _verdict(
        "C09",
        violations == 0,
        f"defect bounds on 100 Bohr sets, {violations} violations "
        f"(worst linear {worst_lin:.2f}, cubic {worst_cub:.3f} of bound)",
    )


def test_c10_setlike_chain():
    rng = np.random.default_rng(1010)
    violations = 0
    for _ in range(100):
        N = int(rng.integers(60, 2000))
        mu_w = np.abs(rng.standard_normal(N)) / N
        a_w = np.where(rng.random(N) < 0.5, mu_w, 0.0)
        mu = Measure(N, mu_w, base=BASE_ZN)
        a = Measure(N, a_w, base=BASE_ZN)
        k = int(rng.integers(1, 4))
        eps = float(rng.uniform(0.1, 0.3))
        B = roth.bohr_set(rng.integers(1, N, size=k), eps, N)
        mu_mags = np.abs(fourier.spectrum(mu))
        rep = roth.setlike_check(a, mu, [mu_mags], B, fourier.spectrum(a),
                                 fourier.spectrum(B.beta()), W=4)
        if rep.sup_a1 > rep.chain_spectral + 1e-9:
            violations += 1
    _verdict("C10", violations == 0,
             f"sup conv chain on 100 instances, {violations} violations")


def test_c11_mz_ratio_bounded():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1111)
    grid = TorusGrid(oversample=2)
    per_n_max = {}
    for e in range(8, 15):
        N = 2**e
        worst = 0.0
        for _ in range(100):
            f = Measure(N, rng.standard_normal(N), signed=True)
            worst = max(worst, fourier.mz_ratio(f, 2.5, grid))
        per_n_max[N] = worst
    elapsed = time.perf_counter() - t0
    cap = 2.0 * per_n_max[256]
    ok = max(per_n_max.values()) <= cap and elapsed < 300.0
    shown = ", ".join(f"2^{int(math.log2(n))}:{v:.4f}" for n, v in per_n_max.items())
    _verdict("C11", ok, f"mz p=5/2 per-N max {shown}, cap {cap:.4f}, {elapsed:.1f}s")


def test_c12_restriction_ratio_stable(table):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1212)
    grid = TorusGrid(oversample=2)
    per_n_max = {}
    for e in range(10, 17):
        N = 2**e
        lam = measures.lambda_measure(
            measures.MeasureParams(b=1, m=1, N=N), table
        )
        support = int(np.count_nonzero(lam.weights))
        worst = 0.0
        for _ in range(50):
            fv = rng.standard_normal(support) + 1j * rng.standard_normal(support)
            worst = max(worst, fourier.restriction_ratio(fv, 2.5, lam, grid))
        per_n_max[N] = worst
    elapsed = time.perf_counter() - t0
    spread = max(per_n_max.values()) / min(per_n_max.values())
    ok = spread <= 1.5 and elapsed < 900.0
    shown = ", ".join(f"2^{int(math.log2(n))}:{v:.3f}" for n, v in per_n_max.items())
    _verdict(
        "C12", ok,
        f"restriction p=5/2 per-N max {shown}, spread x{spread:.3f}, "
        f"{elapsed:.1f}s",
    )


def test_c13_behrend_progression_free():
    small = roth.behrend_set(8)
    sizes = {}
    free = True
    for N in (100, 1000, 10_000):
        S = roth.behrend_set(N)
        sizes[N] = int(S.size)
        free = free and not paper.has_3ap_line(S.tolist())
    shown = ", ".join(f"N={n}:{s}" for n, s in sizes.items())
    _verdict(
        "C13",
        small.size >= 4 and free,
        f"3AP-free sets, sizes {shown}, |S(8)|={small.size}",
    )


DYADIC_PARAMS = [
    (1, 1, 2000, 3.0),
    (1, 2, 5000, 3.0),
    (2, 3, 10_000, 4.0),
    (5, 6, 1000, 6.0),
    (1, 1, 5000, 2.5),
    (3, 4, 3000, 3.5),
    (1, 3, 8000, 5.0),
    (2, 5, 4000, 4.5),
    (1, 6, 2500, 3.0),
    (4, 5, 6000, 4.0),
]


def test_c14_dyadic_reconstruction(table):
    worst = 0.0
    for b, m, N, p in DYADIC_PARAMS:
        params = measures.MeasureParams(b=b, m=m, N=N)
        lam = measures.lambda_measure(params, table)
        pieces = []
        measures.dyadic_pieces(params, lam, p, table, lambda j, psi: pieces.append(psi))
        recon = np.zeros(N)
        for piece in pieces:
            recon += piece.weights
        worst = max(worst, float(np.max(np.abs(recon - lam.weights))))
    _verdict(
        "C14", worst <= 1e-12,
        f"dyadic telescoping on {len(DYADIC_PARAMS)} parameter sets, "
        f"worst {worst:.2e}",
    )


RERUN_CONFIGS = [
    ["sieve-stats", "--N", "1000", "--Q", "4,16"],
    ["measure-build", "--N", "500", "--Q", "4", "--p", "3.0"],
    ["transform-scan", "--N", "256", "--oversample", "2"],
    ["arc-scan", "--N", "2000", "--Q", "4", "--B-override", "2",
     "--oversample", "2"],
    ["majorant", "--N", "256", "--draws", "3"],
    ["restriction", "--N", "1024", "--draws", "3"],
    ["mz-check", "--N", "512", "--draws", "3"],
    ["roth-pipeline", "--N", "300"],
    ["behrend", "--N", "100"],
    ["varnavides", "--N", "211", "--alpha", "0.5"],
]


def test_c15_reruns_are_deterministic(tmp_path):
    mismatched = []
    for i, args in enumerate(RERUN_CONFIGS):
        manifests = []
        for run in ("a", "b"):
            outdir = tmp_path / f"{i}-{run}"
            rc = cli.main(args + ["--output-dir", str(outdir)])
            assert rc == 0, args
            manifests.append(json.loads((outdir / "manifest.json").read_text()))
        ma, mb = manifests
        same_hash = ma["deterministic_hash"] == mb["deterministic_hash"]
        same_files = (
            {o["path"]: o["sha256"] for o in ma["outputs"]}
            == {o["path"]: o["sha256"] for o in mb["outputs"]}
        )
        if not (same_hash and same_files):
            mismatched.append(args[0])
    _verdict(
        "C15", not mismatched,
        f"{len(RERUN_CONFIGS)} experiments re-run, "
        f"mismatches: {mismatched or 'none'}",
    )
