"""Level-set energies on shrinking cylinders, and the decay recursion.

The diagnostic truncates |u| at levels 1 - 2^-k on nested parabolic
cylinders and records U_k = sup-energy + dissipation of each truncation.
For a field that stays below 1 the U_k hit exactly zero once the
threshold passes the field's maximum -- the "trivially regular" outcome.
The second half iterates the abstract recursion W_{k+1} = C^k W_k^beta
that converts a small starting energy into doubly-exponential decay, and
brackets the critical starting value.

Run:  python3 demos/level_set_energies.py [out_dir]
"""

import math
import sys
from pathlib import Path

import numpy as np

from wlns import (
    CylinderMap,
    CylinderScheme,
    Grid,
    SolverConfig,
    level_energy,
    recursive_sequence,
    run,
    taylor_green,
    threshold_scan,
)


def main(out_dir="."):
    grid = Grid(32)
    config = SolverConfig(viscosity=1.0, dt=1e-3, t_end=0.1, snapshot_every=2)
    result = run(taylor_green(grid), config)

    cmap = CylinderMap(center=(math.pi, math.pi / 2, math.pi), scale=0.2, t_end=0.1)
    table = level_energy(result, CylinderScheme(5), cmap)
    print("level-set energies of a decaying Taylor-Green vortex")
    print(f"cylinders centered at a vortex core, spatial scale {cmap.scale}\n")
    print(f"{'k':>2} {'threshold':>10} {'sup term':>12} {'diss term':>12} {'U_k':>12}")
    for i, k in enumerate(table.k):
        print(
            f"{int(k):>2} {table.threshold[i]:>10.4f} {table.sup_term[i]:>12.3e} "
            f"{table.diss_term[i]:>12.3e} {table.total[i]:>12.3e}"
        )

    zero = np.flatnonzero(table.total == 0.0)
    if zero.size:
        print(f"\nU_k is exactly zero from k = {zero[0]}: trivially regular.")

    print("\nabstract recursion W_(k+1) = C^k W_k^beta at (C, beta) = (2, 2):")
    for w0 in (0.0625, 0.5, 0.75):
        seq = recursive_sequence(2.0, 2.0, w0, 40)
        tail = "-> 0" if seq.converged else "-> infinity"
        print(f"  W0 = {w0:<7g} converged: {str(seq.converged).lower():<5} {tail}")
    bracket = threshold_scan(2.0, 2.0)
    print(
        f"critical W0 bracketed in [{bracket.lower!r}, {bracket.upper!r}] "
        f"(width {bracket.width:.1e}); the closed form is C^(-1/(beta-1)^2) = 0.5"
    )

    Path(out_dir).mkdir(parents=True, exist_ok=True)
    path = Path(out_dir) / "level_set_energies.csv"
    table.to_csv(path)
    print(f"wrote {path}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else ".")
