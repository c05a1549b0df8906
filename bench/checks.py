"""Output checks for the benchmark's workloads, computed without primeaps.

Each check reads the files an operation wrote and returns a list of failure
messages; an empty list means the outputs are correct. The references are
independent: a boolean sieve for primality and roughness, a power-of-two
FFT convolution rounded to integers for 3AP counts, exact rationals for the
Dirichlet bound, and a parser of the binary measure format written here.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import struct
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np


def invocation_dirs(op_dir: Path) -> list[Path]:
    """Output directories of one operation, in invocation order."""
    dirs = [d for d in Path(op_dir).iterdir() if d.is_dir()]
    return sorted(dirs, key=lambda d: int(d.name.split("-", 1)[0]))


def manifest(out_dir: Path) -> dict:
    with open(Path(out_dir) / "manifest.json", encoding="utf-8") as fh:
        return json.load(fh)


def output_bytes(op_dir: Path) -> int:
    return sum(f.stat().st_size for f in Path(op_dir).rglob("*") if f.is_file())


def verify_manifest(out_dir: Path) -> list[str]:
    """Every listed output exists with the recorded sha256 and size, and no
    other file than manifest.json is left in the directory."""
    errors = []
    try:
        man = manifest(out_dir)
    except (OSError, ValueError) as exc:
        return [f"{out_dir.name}: no readable manifest ({exc})"]
    listed = set()
    for entry in man.get("outputs", []):
        path = Path(out_dir) / entry["path"]
        listed.add(entry["path"])
        try:
            data = path.read_bytes()
        except OSError:
            errors.append(f"{out_dir.name}: missing output {entry['path']}")
            continue
        if hashlib.sha256(data).hexdigest() != entry["sha256"]:
            errors.append(f"{out_dir.name}: sha256 mismatch for {entry['path']}")
        if len(data) != entry["bytes"]:
            errors.append(f"{out_dir.name}: size mismatch for {entry['path']}")
    extra = {f.name for f in Path(out_dir).iterdir()} - listed - {"manifest.json"}
    if extra:
        errors.append(f"{out_dir.name}: unlisted files {sorted(extra)}")
    return errors


# ---------------------------------------------------------------------------
# independent arithmetic

def is_prime_table(limit: int) -> np.ndarray:
    """Boolean primality for 0..limit by the sieve of Eratosthenes."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


def _self_convolution(S: np.ndarray, L: int) -> np.ndarray:
    """Exact integer self-convolution of the indicator of S within [0, L).

    Computed as a real FFT at the power of two P >= 2L - 1 and rounded. For
    0/1 inputs the float error is about log2(P) * 1e-16 * |S| (below 1e-9 at
    |S| = 1e5), so rounding recovers the integers; a residue above 0.25 is
    reported instead of being rounded away.
    """
    P = 1 << (2 * L - 1).bit_length()
    f = np.zeros(P)
    f[S] = 1.0
    F = np.fft.rfft(f)
    c = np.fft.irfft(F * F, P)[: 2 * L - 1]
    r = np.rint(c)
    if c.size and float(np.max(np.abs(c - r))) >= 0.25:
        raise ValueError("convolution is not integral")
    return r.astype(np.int64)


def line_3aps_nontrivial(S: np.ndarray) -> int:
    """Ordered (x, d), d != 0, with x, x+d, x+2d in S on the integer line."""
    if S.size == 0:
        return 0
    c = _self_convolution(S, int(S.max()) + 1)
    return int(c[2 * S].sum()) - int(S.size)


def zn_3aps_nontrivial(S: np.ndarray, N: int) -> int:
    """The same count in Z_N: the line convolution folded mod N."""
    if S.size == 0:
        return 0
    c = _self_convolution(S, N)
    folded = c[:N].copy()
    folded[: N - 1] += c[N:]
    return int(folded[(2 * S) % N].sum()) - int(S.size)


def _column(path: Path, col: int, dtype) -> np.ndarray:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # header-only files are empty sets
        return np.loadtxt(path, delimiter=",", skiprows=1, usecols=col,
                          dtype=dtype, ndmin=1)


def _json_table(path: Path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        rows = json.load(fh)["rows"]
    idx = np.fromiter((r[0] for r in rows), dtype=np.int64, count=len(rows))
    val = np.fromiter((r[1] for r in rows), dtype=np.float64, count=len(rows))
    return idx, val


def decode_measure_bin(blob: bytes) -> tuple[int, bool, int, np.ndarray]:
    """Parse the PMSR format: magic, N (uint64 LE), signed and base bytes,
    then N little-endian float64 weights."""
    if blob[:4] != b"PMSR":
        raise ValueError("bad magic")
    N, signed, base = struct.unpack("<QBB", blob[4:14])
    weights = np.frombuffer(blob, dtype="<f8", offset=14)
    if weights.size != N:
        raise ValueError(f"{weights.size} weights, header says {N}")
    return N, bool(signed), base, weights


# ---------------------------------------------------------------------------
# workloads

def check_pipeline(dirs: list[Path]) -> list[str]:
    (d,) = dirs
    man = manifest(d)
    eff = man["effective"]
    n = int(man["config"]["N"])
    b, m, N = int(eff["b"]), int(eff["m"]), int(eff["N"])
    with open(d / "report.json", encoding="utf-8") as fh:
        report = json.load(fh)
    errors = []
    primes = is_prime_table(max(n, 4 * n // m) + 1)

    A0 = _column(d / "set_A0.csv", 0, np.int64)
    if A0.size and (A0.min() < 2 or A0.max() > n or not primes[A0].all()):
        errors.append("set_A0 is not a set of primes <= n")

    ps_small = np.flatnonzero(primes[: max(int(eff["W"]), 2) + 1])
    if m != math.prod(int(p) for p in ps_small) or math.gcd(b, m) != 1:
        errors.append(f"modulus m={m}, b={b} is not the W-trick's")
    lo, hi = 2 * n // m, 4 * n // m
    if not (lo < N <= hi and primes[N] and not primes[lo + 1 : N].any()):
        errors.append(f"N={N} is not the smallest prime in (2n/m, 4n/m]")
    image = (A0[A0 % m == b] - b) // m
    image = image[(image >= 1) & (image <= N // 2)]
    A = _column(d / "set_A.csv", 0, np.int64)
    if not np.array_equal(np.sort(image), A):
        errors.append("set_A is not the W-trick image of set_A0")

    try:
        counts = {
            "source line": (line_3aps_nontrivial(A0),
                            report["source"]["line_3aps_nontrivial"]),
            "A line": (line_3aps_nontrivial(A),
                       report["counts"]["A_3aps_line_nontrivial"]),
            "A mod N": (zn_3aps_nontrivial(A, N),
                        report["counts"]["A_3aps_wrapped_nontrivial"]),
        }
    except ValueError as exc:
        return errors + [f"reference 3AP count failed: {exc}"]
    for label, (want, got) in counts.items():
        if want != got:
            errors.append(f"3AP count ({label}): reported {got}, expected {want}")

    eps = Fraction(man["config"]["eps"])
    delta = float(man["config"]["delta"])
    spec = np.loadtxt(d / "spectrum_a.csv", delimiter=",", skiprows=1, ndmin=2)
    R = spec[np.hypot(spec[:, 1], spec[:, 2]) >= delta, 0].astype(np.int64)
    B = _column(d / "bohr_members.csv", 0, np.int64)
    if B.size == 0 or B.min() < 0 or B.max() >= N or np.unique(B).size != B.size:
        errors.append("Bohr members are not distinct residues mod N")
    else:
        bound = math.floor(eps * N)  # ||x r / N|| <= eps  <=>  dist <= floor(eps N)
        for r in R.tolist():
            t = (B * r) % N
            if int(np.minimum(t, N - t).max()) > bound:
                errors.append(f"a Bohr member breaks ||x*{r}/N|| <= eps")
                break
    if B.size < eps ** int(R.size) * N:
        errors.append(f"|B| = {B.size} is below eps^k N with k = {R.size}")

    a = _column(d / "measure_a.csv", 1, np.float64)
    a1 = _column(d / "granular_a1.csv", 1, np.float64)
    mass_a, mass_a1 = math.fsum(a.tolist()), math.fsum(a1.tolist())
    if abs(mass_a1 - mass_a) > 1e-9 * abs(mass_a):
        errors.append(f"granular_a1 mass {mass_a1} != measure_a mass {mass_a}")
    # a1 = a * beta * beta averages a, so its sup cannot exceed sup a; the
    # slack covers the FFT's rounding only
    if a1.max() > a.max() * (1 + 1e-12):
        errors.append(f"sup granular_a1 {a1.max()} exceeds sup measure_a {a.max()}")
    return errors


def check_export_json(dirs: list[Path]) -> list[str]:
    (d,) = dirs
    cfg = manifest(d)["config"]
    N = int(cfg["N"])
    if (cfg["b"], cfg["m"]) != (1, 1):
        return [f"check assumes b = m = 1, got b={cfg['b']}, m={cfg['m']}"]
    errors = []
    values = np.arange(2, N + 2)  # n + 1 for n = 1..N
    primes = is_prime_table(N + 1)[values]

    idx, lam = _json_table(d / "measure_lambda.json")
    if not np.array_equal(idx, values - 1):
        errors.append("measure_lambda indices are not 1..N")
    expected = np.where(primes, np.log(values.astype(np.float64)) / N, 0.0)
    if not np.array_equal(lam, expected):
        bad = int(np.count_nonzero(lam != expected))
        errors.append(f"measure_lambda differs from log(n+1)/N at {bad} points")

    for Q in cfg["Q"]:
        rough = np.ones(N + 2, dtype=bool)
        for p in np.flatnonzero(is_prime_table(Q)).tolist():
            rough[p::p] = False
        _, w = _json_table(d / f"measure_rough_Q{Q}.json")
        if not np.array_equal(w != 0.0, rough[values]):
            errors.append(f"rough support for Q={Q} is not the Q-rough n+1")

    try:
        Nb, _, _, wb = decode_measure_bin((d / "measure_lambda.bin").read_bytes())
    except ValueError as exc:
        return errors + [f"measure_lambda.bin: {exc}"]
    if Nb != N or not np.array_equal(wb, lam):
        errors.append("measure_lambda.bin differs from the JSON weights")
    return errors


def check_torus(dirs: list[Path]) -> list[str]:
    by_cmd = {d.name.split("-", 1)[1]: d for d in dirs}
    errors = []

    man = manifest(by_cmd["transform-scan"])
    N = int(man["config"]["N"])
    flags = is_prime_table(N + 1)
    ps = np.flatnonzero(flags).astype(np.float64)
    sum_sq = math.fsum(((np.log(ps) / N) ** 2).tolist())
    l2 = man["results"]["lambda"]["l2_norm"]
    if abs(l2 * l2 - sum_sq) > 1e-9 * sum_sq:
        errors.append(f"transform-scan l2_norm^2 {l2 * l2} != sum w^2 {sum_sq}")

    man = manifest(by_cmd["arc-scan"])
    qmax = int(man["effective"]["Qmax"])
    for path in sorted(by_cmd["arc-scan"].glob("arc_scan_Q*.csv")):
        with open(path, newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                q = int(row["q"])
                gap = abs(Fraction(float(row["theta"])) - Fraction(int(row["a"]), q))
                if not 1 <= q <= qmax or gap * q * qmax > 1:
                    errors.append(f"{path.name}: theta={row['theta']} breaks "
                                  f"the Dirichlet bound with a/q={row['a']}/{q}")
                    break

    d = by_cmd["majorant"]
    man = manifest(d)
    if float(man["effective"]["p"]) != 4.0:
        errors.append("majorant check needs p = 4")
    ratios = [v["max_ratio"] for v in man["results"].values()]
    ratios += _column(d / "majorant_draws.csv", 2, np.float64).tolist()
    if max(ratios) > 1 + 1e-9:
        errors.append(f"majorant ratio {max(ratios)} exceeds 1 at p = 4")
    return errors


CHECKS = {
    "pipeline": check_pipeline,
    "export-json": check_export_json,
    "torus": check_torus,
}


def check_op(workload: str, op_dir: Path) -> list[str]:
    """All checks of one operation: manifests, then the workload's own."""
    dirs = invocation_dirs(op_dir)
    errors = [e for d in dirs for e in verify_manifest(d)]
    if errors:
        return errors
    try:
        return CHECKS[workload](dirs)
    except (OSError, KeyError, ValueError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
