"""Shared test helpers.

``reference_symbols`` is the tests' one builder of full-spectrum symbols,
straight from ``np.fft.fftfreq`` and independent of ``wlns.field``; the
numpy-FFT oracles in the test modules import it from here.
``masked_step`` is the solver's RK4 step on the whole half spectrum, the
oracle for the step on the kept block.
"""

import numpy as np

from wlns.field import TWO_PI
from wlns.nse_solver import leray_project, nonlinear_term


def reference_symbols(n: int, length: float):
    """Meshed full-layout symbols of an ``n^3`` box of edge ``length``.

    Returns ``((kx, ky, kz), k_squared)``: the first-derivative symbols with
    the unpaired Nyquist mode zeroed, so the derivative of a real field
    stays real, and the unzeroed ``|k|^2`` the viscous decay factors use.
    """
    k1 = 2.0 * np.pi / length * np.fft.fftfreq(n, d=1.0 / n)
    kx, ky, kz = np.meshgrid(k1, k1, k1, indexing="ij")
    k_squared = kx**2 + ky**2 + kz**2
    zeroed = k1.copy()
    zeroed[n // 2] = 0.0
    return tuple(np.meshgrid(zeroed, zeroed, zeroed, indexing="ij")), k_squared


def masked_step(grid, modes, config):
    """One RK4 step on the whole ``(3, n, n, n//2+1)`` half spectrum.

    The mask multiplies every stage's advection term and every mode is
    carried through the stages; the solver's step on the kept block must
    match it bit for bit.
    """
    dt = config.dt
    mask = grid.dealias_mask(config.dealias_fraction)
    k = (TWO_PI / grid.length) * grid.mode_numbers.astype(np.float64)
    kh = k[: grid.n // 2 + 1]
    k_squared = k[:, None, None] ** 2 + k[None, :, None] ** 2 + kh[None, None, :] ** 2
    decay_half = np.exp(-config.viscosity * k_squared * (dt / 2.0))
    decay_full = decay_half * decay_half

    def advect(m):
        return leray_project(grid, nonlinear_term(grid, m, mask))

    a1 = advect(modes)
    a2 = advect(decay_half * (modes - 0.5 * dt * a1))
    a3 = advect(decay_half * modes - 0.5 * dt * a2)
    a4 = advect(decay_full * modes - dt * decay_half * a3)
    new = decay_full * modes - (dt / 6.0) * (decay_full * a1 + 2.0 * decay_half * (a2 + a3) + a4)
    return leray_project(grid, new)
