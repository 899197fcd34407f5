"""Write the 40-digit references of the log-space integrals to phi_reference.json.

The references are computed with mpmath straight from the definitions, not
from ``wlns``:

- ``increments``: ``Phi(a, b) = int_a^b ds / (e + log(e + e^s))``, the
  damping integral of ``wlns.gronwall`` in log space, over short and long
  spans;
- ``inversions``: a 20-step chain of roots s of ``Phi(s_lo, s) = target``,
  each step starting from the double nearest the previous root;
- ``psi_tail``: ``Phi(0, log M)`` at ``log M`` = 1, 10 and e^10;
- ``claim1``: the damped criterion integral of the closed-form norms over
  dyadic interval n of the q = 6 schedule (t_inf = 1), for n = 1..40 and
  400, in the rescaled form ``int_0^1 dv / (w (e + log(e + y)))`` with
  ``w = 1 - 2^{-p m_n} v`` and ``y = 2^{m_n} (2^n / w)^{1/2}``;
- ``chains``: the exact Gronwall bound H of ``H' = Psi(H) B``, H(0) = 1,
  at every 100th row of two seeded 2001-row signals on [0, 1] (B uniform
  on [0, 2] and lognormal), from the exact prefix sums of the float pieces
  ``B_i (t_{i+1} - t_i)``: ``Phi(0, log H) = prefix``.  Each row is
  ``[kind, seed, row, prefix, H]``; ``chain_signal`` is the recipe the
  tests rebuild the signals with.

Run from the repository root:

    python3 tests/data/make_phi_reference.py          # rewrite the JSON
    python3 tests/data/make_phi_reference.py --check  # regenerate and diff

The tests read the JSON only, so they never import mpmath.
"""

import argparse
import difflib
import json
import math
import sys
from pathlib import Path

import mpmath as mp
import numpy as np

OUT = Path(__file__).with_name("phi_reference.json")
DPS = 40
DIGITS = 30  # significant digits written per reference value

# (s_lo, s_hi): benchmark-sized pieces (a target near 1e-3 from s = 0 up),
# spans from 1e-12 to a few panels, and long spans across s = 1
SPANS = [
    (0.0, 0.0037),
    (0.0037, 0.0049),
    (1.25, 1.2519),
    (3.5, 3.5044),
    (5.52, 5.5269),
    (-50.0, -49.99),
    (-3.0, -2.999999999999),
    (0.75, 0.750000001),
    (2.0, 2.000001),
    (-0.4, 0.6),
    (-5.0, 5.0),
    (0.5, 2.5),
    (1.0, 4.0),
    (-20.0, 1.0),
    (-50.0, 10.0),
    (7.0, 40.0),
    (0.0, 100.0),
    (250.0, 251.5),
    (600.0, 700.0),
    (690.0, 690.125),
]

CHAIN_START = 0.0
CHAIN_TARGETS = [
    1e-12, 3e-9, 1e-6, 5e-4, 1e-3, 0.01, 0.1, 0.5, 0.3, 0.002,
    0.7, 1e-4, 0.25, 0.05, 0.4, 0.15, 1e-9, 0.6, 0.03, 0.2,
]

TAIL_LOG_M = [1.0, 10.0, math.exp(10.0)]

CHAIN_SIGNALS = [("uniform", 1), ("lognormal", 2)]
CHAIN_ROWS = 2001
CHAIN_STRIDE = 100

CLAIM1_Q = 6.0
CLAIM1_NS = list(range(1, 41)) + [400]


def damping(s):
    return 1 / (mp.e + mp.log(mp.e + mp.exp(s)))


def phi(a, b):
    """``int_a^b damping`` split at unit steps near 0 and at decades beyond."""
    a, b = mp.mpf(a), mp.mpf(b)
    lo, hi = min(a, b), max(a, b)
    cuts = [c for c in range(-50, 11)] + [20, 50, 100, 200, 500, 1000, 2000, 5000, 10000, 20000]
    points = [lo] + [mp.mpf(c) for c in cuts if lo < c < hi] + [hi]
    value = mp.quad(damping, points)
    return value if b >= a else -value


def invert(s_lo, target):
    """The root s of ``phi(s_lo, s) = target``, by Newton from the first step."""
    s_lo, target = mp.mpf(s_lo), mp.mpf(target)
    s = s_lo + target / damping(s_lo)
    for _ in range(100):
        step = (target - phi(s_lo, s)) / damping(s)
        s += step
        if abs(step) < mp.mpf(10) ** (-DPS + 5) * max(1, abs(s)):
            return s
    raise RuntimeError(f"no convergence from {s_lo} at target {target}")


def chain_signal(kind, seed):
    """The (t, B) rows of a chain signal, a float64 array each."""
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 1.0, CHAIN_ROWS)
    if kind == "uniform":
        return t, rng.uniform(0.0, 2.0, CHAIN_ROWS)
    return t, rng.lognormal(0.0, 1.0, CHAIN_ROWS)


def chain_rows(kind, seed):
    t, b = chain_signal(kind, seed)
    pieces = (b[:-1] * np.diff(t)).tolist()
    rows = []
    for row in range(0, CHAIN_ROWS, CHAIN_STRIDE):
        prefix = mp.fsum(mp.mpf(p) for p in pieces[:row])
        rows.append([kind, seed, row, text(prefix), text(mp.exp(invert(0.0, prefix)))])
    return rows


def claim1_integral(q, n):
    p = 2 * mp.mpf(q) / (mp.mpf(q) - 3)
    m = mp.mpf(n) * n - mp.mpf(n) / 2
    shrink = mp.mpf(2) ** (-p * m)

    def integrand(v):
        w = 1 - shrink * v
        y = mp.mpf(2) ** m * mp.sqrt(mp.mpf(2) ** n / w)
        return 1 / (w * (mp.e + mp.log(mp.e + y)))

    return mp.quad(integrand, [0, 1])


def text(value):
    return mp.nstr(value, DIGITS)


def build() -> str:
    mp.mp.dps = DPS
    chain, s_lo = [], CHAIN_START
    for target in CHAIN_TARGETS:
        root = invert(s_lo, target)
        chain.append([s_lo, target, text(root)])
        s_lo = float(root)
    sections = {
        "increments": [[a, b, text(phi(a, b))] for a, b in SPANS],
        "inversions": chain,
        "psi_tail": [[log_m, text(phi(0.0, log_m))] for log_m in TAIL_LOG_M],
        "claim1": [[CLAIM1_Q, n, text(claim1_integral(CLAIM1_Q, n))] for n in CLAIM1_NS],
        "chains": [row for kind, seed in CHAIN_SIGNALS for row in chain_rows(kind, seed)],
    }
    # one row per line: [inputs..., "reference"]
    blocks = (
        f" {json.dumps(key)}: [\n" + ",\n".join(f"  {json.dumps(row)}" for row in rows) + "\n ]"
        for key, rows in sections.items()
    )
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="regenerate and diff, write nothing")
    args = parser.parse_args(argv)
    fresh = build()
    if not args.check:
        OUT.write_text(fresh)
        print(f"wrote {OUT}")
        return 0
    committed = OUT.read_text()
    if fresh == committed:
        print(f"{OUT.name} is up to date")
        return 0
    sys.stdout.writelines(
        difflib.unified_diff(
            committed.splitlines(True), fresh.splitlines(True), str(OUT), "regenerated"
        )
    )
    return 1


if __name__ == "__main__":
    sys.exit(main())
