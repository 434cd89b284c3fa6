"""Independent reference implementations used only by the tests.

Everything here is deliberately naive: direct DFT sums, elementwise RK4
marching, dense matrix exponentials.  Slow but obviously correct, so the
library can be checked against them.
"""

import numpy as np


def dft_coefficients_1d(u, a):
    """Direct O(n^2) evaluation of c_k = (2a)^-1 * int u(x) e^(-i pi k (x+a) / a) dx.

    Phase is measured from the box corner x = -a.  Trapezoid quadrature on
    the periodic grid x_j = -a + 2a*j/n, which is exact for band-limited u.
    Returns coefficients in FFT index order.
    """
    u = np.asarray(u, dtype=np.complex128)
    n = u.shape[0]
    x = -a + 2.0 * a * np.arange(n) / n
    ks = np.fft.fftfreq(n, d=1.0 / n)
    out = np.empty(n, dtype=np.complex128)
    for i, k in enumerate(ks):
        out[i] = np.sum(u * np.exp(-1j * np.pi * k * (x + a) / a)) / n
    return out


def sobolev_norm_direct_1d(u, a, s):
    """Brute-force ((2a) * sum_k (1 + |k|^(2s)) |c_k|^2)^(1/2) for one component."""
    c = dft_coefficients_1d(u, a)
    ks = np.fft.fftfreq(len(u), d=1.0 / len(u))
    if s == 0:
        w = np.ones_like(ks)
    else:
        w = 1.0 + np.abs(ks) ** (2.0 * s)
    return float(np.sqrt(2.0 * a * np.sum(w * np.abs(c) ** 2)))


def rk4(rhs, y, t, n_steps):
    """Classical RK4 for dy/dt = rhs(y) over [0, t]; y is any ndarray."""
    dt = t / n_steps
    for _ in range(n_steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        k4 = rhs(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def expm_dense(M):
    """Scaling-and-squaring Taylor exponential for small dense matrices."""
    M = np.asarray(M, dtype=np.complex128)
    norm = np.linalg.norm(M, np.inf)
    s = max(0, int(np.ceil(np.log2(max(norm, 1e-16)))) + 4)
    X = M / 2**s
    E = np.eye(M.shape[0], dtype=np.complex128)
    T = np.eye(M.shape[0], dtype=np.complex128)
    for k in range(1, 30):
        T = T @ X / k
        E = E + T
    for _ in range(s):
        E = E @ E
    return E
