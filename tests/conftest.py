"""Shared test helpers.

``reference_symbols`` is the tests' one builder of full-spectrum symbols,
straight from ``np.fft.fftfreq`` and independent of ``wlns.field``; the
numpy-FFT oracles in the test modules import it from here.
"""

import numpy as np


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
