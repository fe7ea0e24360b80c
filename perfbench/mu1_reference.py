"""High-precision reference values of mu_1 for the benchmark operators.

Run from the repository root:

    python3 perfbench/mu1_reference.py

and commit the rewritten ``perfbench/mu1_reference.json``. Needs mpmath.

For (-d^2/dx^2)^m discretized by ``heatgauss.assemble_form`` the operator
matrix is H = T_m / h^(2m), where T_m = Delta_m^T Delta_m is an integer banded
matrix and Delta_m is the m-fold zero-extended forward difference. mu_1 is the
least eigenvalue of T_m divided by h^(2m); it is bracketed by Sylvester
inertia counts of T_m - sigma I (banded LDL^T in mpmath arithmetic) and
bisected to well below 1e-35 relative. The Dirichlet Laplacian on (0, pi) has
the closed form mu_1 = (4/h^2) sin^2(h/2).
"""

from __future__ import annotations

import json
import os

import mpmath
import numpy as np

DIGITS = 60
BISECTIONS = 160
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "mu1_reference.json")

# (operator key, m, domain length) x interior sizes used by the workloads
POLYHARMONIC = {"beam-1": (2, 1), "polyharmonic-m3": (3, 1)}
SIZES = {
    "laplace-pi": (50, 100, 120),
    "beam-1": (50, 80, 100, 200),
    "polyharmonic-m3": (50, 80, 100),
}
# values published in ROADMAP.md, reproduced here as a cross-check
PINS = {("beam-1", 200): "490.73770558792992", ("polyharmonic-m3", 100): "5.473478051584456e4"}


def difference_stencil(n: int, m: int) -> list[list[int]]:
    """Integer matrix Delta_m, shape (n+m) x n, of the m-fold forward difference."""
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    for level in range(m):
        rows = n + level
        nxt = [[0] * n for _ in range(rows + 1)]
        for r in range(rows):
            for c in range(n):
                nxt[r][c] += a[r][c]
                nxt[r + 1][c] -= a[r][c]
        a = nxt
    return a


def banded_gram(n: int, m: int) -> dict[tuple[int, int], int]:
    """Nonzero lower-band entries (i, j), j <= i, of T_m = Delta_m^T Delta_m."""
    d = np.array(difference_stencil(n, m), dtype=object)
    t = d.T.dot(d)
    return {(i, j): int(t[i, j]) for i in range(n) for j in range(max(0, i - m), i + 1)}


def negative_pivots(band: dict, n: int, b: int, sigma) -> int:
    """Eigenvalues of T - sigma I below zero, by banded LDL^T (Sylvester)."""
    lower: dict[tuple[int, int], mpmath.mpf] = {}
    diag: list = []
    count = 0
    for i in range(n):
        for j in range(max(0, i - b), i):
            s = mpmath.mpf(band.get((i, j), 0))
            for k in range(max(0, i - b), j):
                s -= lower[(i, k)] * lower[(j, k)] * diag[k]
            lower[(i, j)] = s / diag[j]
        s = band[(i, i)] - sigma
        for k in range(max(0, i - b), i):
            s -= lower[(i, k)] ** 2 * diag[k]
        diag.append(s)
        count += s < 0
    return count


def least_eigenvalue(n: int, m: int):
    band = banded_gram(n, m)
    dense = np.zeros((n, n))
    for (i, j), v in band.items():
        dense[i, j] = dense[j, i] = v
    est = float(np.linalg.eigvalsh(dense)[0])
    lo, hi = mpmath.mpf(est) / 2, mpmath.mpf(est) * 2
    if negative_pivots(band, n, m, lo) != 0 or negative_pivots(band, n, m, hi) < 1:
        raise RuntimeError(f"bracket [{lo}, {hi}] does not isolate mu_1 (n={n}, m={m})")
    for _ in range(BISECTIONS):
        mid = (lo + hi) / 2
        if negative_pivots(band, n, m, mid) == 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def mu1(key: str, n: int):
    if key == "laplace-pi":
        h = mpmath.pi / (n + 1)
        return 4 / h**2 * mpmath.sin(h / 2) ** 2
    m, length = POLYHARMONIC[key]
    h = mpmath.mpf(length) / (n + 1)
    return least_eigenvalue(n, m) / h ** (2 * m)


def main() -> None:
    mpmath.mp.dps = DIGITS
    table = {}
    for key, sizes in SIZES.items():
        for n in sizes:
            value = mu1(key, n)
            table[f"{key}/{n}"] = mpmath.nstr(value, 40, min_fixed=-1, max_fixed=-1)
            print(f"{key} n={n}: {table[f'{key}/{n}']}")
    for (key, n), pin in PINS.items():
        rel = abs(mpmath.mpf(table[f"{key}/{n}"]) / mpmath.mpf(pin) - 1)
        if rel > 1e-15:
            raise SystemExit(f"{key} n={n}: {table[f'{key}/{n}']} disagrees with pin {pin}")
        print(f"pin {key} n={n} reproduced (rel. diff {mpmath.nstr(rel, 3)})")
    with open(OUT, "w", encoding="utf-8", newline="\n") as fh:
        json.dump({"digits": 40, "mu1": table}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
