"""Double-well potential, homoclinic pulse, far-field data, and backgrounds.

The pulse is computed by inverting the first-integral quadrature
    z(phi) = int dphi / sqrt(2 W(phi)),
not by shooting: two substitutions remove both endpoint singularities, so
every sample is an independent root-find accurate to ~1e-12. Derivatives then
follow exactly from the chain rule through the first integral.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import count
from math import comb, factorial

import numpy as np
from numpy.polynomial import chebyshev
from scipy.interpolate import CubicHermiteSpline
from scipy.linalg import eigh, lu_factor, lu_solve
from scipy.optimize import brentq

from .core import (
    DomainError,
    Grid,
    NoHomoclinicError,
    ToleranceError,
    WellError,
    cosine_coeffs,
    mode_derivative,
    mode_matrix,
)

# Sup-norm bound on the finite-difference residual of the sampled pulse, and
# the spacing of those samples.
HOMOCLINIC_TOL = 1e-8
PULSE_SPACING = 0.05
# Tail magnitudes of phi_bar that the far-field fit reads.
FAR_FIELD_WINDOW = (1e-10, 1e-4)
# Collocation points of the background solve (h ~ 0.1 on its window) and of
# the single-pulse point spectrum.
BACKGROUND_POINTS = 512
POINT_SPECTRUM_POINTS = 1600


@dataclass(frozen=True)
class DoubleWell:
    """Tilted quartic double well W(u) = (u^2-1)^2/4 + tau*(u - u^3/3 + 2/3).

    b_minus = -1 is the zero-energy well, b_plus = +1 the deep well with
    W(b_plus) = 4*tau/3 < 0 for tau in (-1, 0).
    """

    tau: float
    b_minus: float = -1.0
    b_plus: float = 1.0

    def __post_init__(self):
        if not np.isfinite(self.tau):
            raise WellError("tau must be finite")
        if abs(self.W(self.b_minus)) > 1e-14:
            raise WellError("W(b_minus) must vanish")
        if not self.W(self.b_plus) < 0.0:
            raise WellError("wells must have unequal depth: W(b_plus) < 0 fails")
        if self.alpha_minus <= 0.0 or self.alpha_plus <= 0.0:
            raise WellError("well minima must be non-degenerate")
        if abs(self.dW(self.b_minus)) > 1e-14 or abs(self.dW(self.b_plus)) > 1e-14:
            raise WellError("b_minus, b_plus must be critical points of W")

    @property
    def alpha_minus(self):
        return self.d2W(self.b_minus)

    @property
    def alpha_plus(self):
        return self.d2W(self.b_plus)

    def W(self, u):
        u = np.asarray(u, dtype=float)
        return 0.25 * (u * u - 1.0) ** 2 + self.tau * (u - u**3 / 3.0 + 2.0 / 3.0)

    def W_bar(self, e):
        """W(b_minus + e) in a cancellation-free algebraic form."""
        e = np.asarray(e, dtype=float)
        return 0.25 * e * e * (e - 2.0) ** 2 + self.tau * e * e * (1.0 - e / 3.0)

    def dW(self, u):
        u = np.asarray(u, dtype=float)
        return (u * u - 1.0) * (u - self.tau)

    def d2W(self, u):
        u = np.asarray(u, dtype=float)
        return 3.0 * u * u - 2.0 * self.tau * u - 1.0

    def d3W(self, u):
        u = np.asarray(u, dtype=float)
        return 6.0 * u - 2.0 * self.tau

    def d4W(self, u):
        u = np.asarray(u, dtype=float)
        return 6.0 * np.ones_like(u)


def default_well(tau):
    """Standard tilted quartic; tau must lie strictly inside (-1, 0)."""
    if not -1.0 < tau < 0.0:
        raise WellError(
            f"tau = {tau:g} outside (-1, 0): equal-depth or degenerate wells "
            "admit no admissible homoclinic"
        )
    return DoubleWell(tau)


# ---------------------------------------------------------------------------
# Derivative jets: stacks of derivatives of orders 0..K along axis 0.
# ---------------------------------------------------------------------------

def _leibniz_entry(f, g, m):
    """Entry m of the Leibniz product jet of f and g: the terms
    C(m, k) f_k g_(m-k) added to zero in the order k = 0..m."""
    out = np.zeros(np.broadcast_shapes(np.shape(f[0]), np.shape(g[0])))
    for k in range(m + 1):
        out += comb(m, k) * f[k] * g[m - k]
    return out


def leibniz(f, g):
    """Jet of the product f*g by the Leibniz rule.

    A jet is the stack of derivatives of orders 0..K along axis 0; the product
    jet is as long as the shorter factor.
    """
    f, g = np.asarray(f, dtype=float), np.asarray(g, dtype=float)
    return np.array([_leibniz_entry(f, g, m)
                     for m in range(min(len(f), len(g)))])


def _horner_entries(well, j, base, y):
    """Entries m = 0, 1, ... of the jet of W^(j)(base + y), about the scalar
    base, one per `next`: entry m reads entries 0..m of y, so the later
    entries of y may be filled in between calls.

    The quartic equals its Taylor series about base,
        W^(j)(base + y) = sum_i W^(j+i)(base) y^i / i!,  i = 0..4-j,
    summed in Horner form: the top stage is the constant jet (c_top, 0, 0,
    ...), each stage below it the Leibniz product of the one above with y
    plus the next coefficient in entry 0, and each stage gains one entry per
    call. Expanding about a well keeps relative accuracy where y is tiny.
    """
    derivs = (well.W, well.dW, well.d2W, well.d3W, well.d4W)[j:]
    coeffs = [d(base) / factorial(i) for i, d in enumerate(derivs)]
    stages = [[] for _ in coeffs[1:]]  # entries of every stage but the last
    zero = np.zeros(np.shape(y[0]))
    for m in count():
        entry = zero + coeffs[-1] if m == 0 else zero
        for stage, c in zip(stages, coeffs[-2::-1]):
            stage.append(entry)
            entry = _leibniz_entry(stage, y, m)
            if m == 0:
                entry += c
        yield entry


def clenshaw(t, coef):
    """The Chebyshev series coef (degree >= 1) at t, bit for bit numpy's
    `chebval`: its Clenshaw recurrence c0, c1 <- coef[i] - c1, c0 + c1 * 2t,
    run in two work arrays that every degree reuses."""
    t = np.asarray(t, dtype=float)
    t2 = 2 * t
    c0, c1 = np.full(t.shape, coef[-2]), np.full(t.shape, coef[-1])
    for c in coef[-3::-1]:
        c0 += c1 * t2
        np.subtract(c, c1, out=c1)
        c0, c1 = c1, c0
    return c0 + c1 * t


def well_jet(well, j, f, base):
    """Jet of W^(j)(base + f) from the jet f, about the scalar base
    (`_horner_entries` run to the length of f)."""
    f = np.asarray(f, dtype=float)
    entries = _horner_entries(well, j, base, f)
    return np.array([next(entries) for _ in f])


# ---------------------------------------------------------------------------
# Homoclinic pulse.
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)
# Most lanes of one integrand call. It bounds the (lanes, panels, 64)
# temporaries, whose heap the process keeps: at 32 lanes they raised the peak
# RSS of a well set-up by ~0.2 MiB, at 16 it stays within ~0.05 MiB.
LANE_CHUNK = 16
# Iteration limit of `_brentq_lanes`: scipy's brentq default.
BRENTQ_MAXITER = 100


def _gauss_panels(fn, a, b, max_len=4.0):
    """Composite Gauss-Legendre rule on [a_i, b_i] for each lane i of a, b.

    Lane i is split into n_i = max(1, ceil((b_i - a_i)/max_len)) equal panels;
    an empty interval (b_i <= a_i) gives 0.0. Lanes with the same n_i share
    one integrand call per LANE_CHUNK lanes. Each lane gets the bits of the
    scalar rule: the same `np.linspace` edges and node formula, one 64-term
    sum per panel along the last axis, and the panel sums added in panel
    order.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float),
                               np.asarray(b, dtype=float))
    out = np.zeros(a.shape)
    live = np.flatnonzero(b > a)
    counts = np.maximum(1, np.ceil((b.flat[live] - a.flat[live]) / max_len))
    # a set, not np.unique: its sort pages in ~0.2 MiB of numpy's library
    # code that the rest of the well set-up never runs
    for n in sorted(set(counts.astype(int).tolist())):
        group = live[counts == n]
        for lanes in np.split(group, range(LANE_CHUNK, group.size, LANE_CHUNK)):
            edges = np.linspace(a.flat[lanes], b.flat[lanes], n + 1, axis=-1)
            lo, hi = edges[:, :-1, None], edges[:, 1:, None]
            t = 0.5 * (hi - lo) * _GL_NODES + 0.5 * (lo + hi)
            panels = 0.5 * (hi - lo)[..., 0] * np.sum(_GL_WEIGHTS * fn(t), axis=-1)
            total = np.zeros(lanes.size)
            for k in range(n):
                total += panels[:, k]
            out.flat[lanes] = total
    return out


def _brentq_lanes(f, xa, xb, fa, fb, xtol, rtol):
    """Roots of independent lanes by Brent's method, bit for bit scipy's brentq.

    A transcription of scipy's `brentq.c` in which every step is a masked
    array operation. fa, fb are f at the bracket ends xa, xb; f(x, lanes)
    evaluates the lanes still iterating (indices into the inputs) at x.
    """
    xpre, xcur, fpre, fcur = (np.array(v, dtype=float) for v in
                              np.broadcast_arrays(xa, xb, fa, fb))
    root = np.where(fpre == 0.0, xpre, xcur)
    lanes = np.flatnonzero((fpre != 0.0) & (fcur != 0.0))
    if np.any(np.signbit(fpre[lanes]) == np.signbit(fcur[lanes])):
        raise ToleranceError("brentq bracket: f(a) and f(b) have the same sign")
    xpre, xcur, fpre, fcur = xpre[lanes], xcur[lanes], fpre[lanes], fcur[lanes]
    xblk, fblk, spre, scur = (np.zeros(lanes.size) for _ in range(4))
    for _ in range(BRENTQ_MAXITER):
        flip = (fpre != 0.0) & (fcur != 0.0) & (np.signbit(fpre) != np.signbit(fcur))
        xblk, fblk = np.where(flip, xpre, xblk), np.where(flip, fpre, fblk)
        step = xcur - xpre
        spre, scur = np.where(flip, step, spre), np.where(flip, step, scur)
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, xcur, xblk = (np.where(swap, xcur, xpre), np.where(swap, xblk, xcur),
                            np.where(swap, xcur, xblk))
        fpre, fcur, fblk = (np.where(swap, fcur, fpre), np.where(swap, fblk, fcur),
                            np.where(swap, fcur, fblk))

        delta = (xtol + rtol * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        done = (fcur == 0.0) | (np.abs(sbis) < delta)
        root[lanes[done]] = xcur[done]
        keep = ~done
        lanes = lanes[keep]
        if lanes.size == 0:
            return root
        xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis = (
            v[keep] for v in (xpre, xcur, xblk, fpre, fcur, fblk, spre, scur,
                              delta, sbis))

        with np.errstate(divide="ignore", invalid="ignore"):
            interpolated = -fcur * (xcur - xpre) / (fcur - fpre)
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            extrapolated = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
        stry = np.where(xpre == xblk, interpolated, extrapolated)
        short = ((np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
                 & (2 * np.abs(stry)
                    < np.minimum(np.abs(spre), 3 * np.abs(sbis) - delta)))
        spre, scur = np.where(short, scur, sbis), np.where(short, stry, sbis)

        xpre, fpre = xcur, fcur
        xcur = xcur + np.where(np.abs(scur) > delta, scur,
                               np.where(sbis > 0, delta, -delta))
        fcur = f(xcur, lanes)
    raise ToleranceError(
        f"brentq did not converge in {BRENTQ_MAXITER} iterations")


class _HomoclinicInverter:
    """Batched evaluation of phi_bar(z) = phi_h(z) - b_minus at z >= 0.

    Upper branch (phi near the turning point u*): substitute phi = u* - t^2,
    which makes the integrand smooth through the simple zero of W at u*.
    Lower branch (phi near b_minus): substitute phi = b_minus + e^v, which
    turns the logarithmic tail into a bounded integrand; root-finding in v
    keeps relative accuracy uniform down to phi_bar ~ 1e-300.

    Every z is its own root-find, z_upper(t) = z or z_lower(v) = z; all of
    them run together in `_brentq_lanes` over the batched `_gauss_panels`,
    and each lane gets the bits of a scalar scipy brentq over the scalar
    panel rule.
    """

    def __init__(self, well):
        self.well = well
        self.sqrt_am = float(np.sqrt(well.alpha_minus))
        self.e_star = self._find_turning_point()
        self.u_star = well.b_minus + self.e_star
        self.e_mid = 0.5 * self.e_star
        self.t_mid = float(np.sqrt(self.e_star - self.e_mid))
        self.v_mid = float(np.log(self.e_mid))
        self.z_mid = float(self._z_upper(self.t_mid))
        if not np.isfinite(self.z_mid):
            raise ToleranceError(
                f"homoclinic inversion at tau = {well.tau:g}: z_upper(t_mid) "
                f"= {self.z_mid} at t_mid = {self.t_mid!r}"
            )

    def _find_turning_point(self):
        well = self.well
        lo, hi = well.b_minus, well.b_plus
        us = np.linspace(lo + 1e-4 * (hi - lo), hi - 1e-12, 4001)
        w = well.W(us)
        positive = np.nonzero(w > 0.0)[0]
        if positive.size == 0:
            raise NoHomoclinicError("W has no positive region right of b_minus")
        idx = positive[-1]
        if idx + 1 >= us.size:
            raise NoHomoclinicError("W never returns to zero before b_plus")
        u_star = brentq(well.W, us[idx], us[idx + 1], xtol=1e-15, rtol=1e-15)
        return float(u_star - well.b_minus)

    # integrands -----------------------------------------------------------
    def _upper_integrand(self, t):
        e = self.e_star - t * t
        w = self.well.W_bar(e)
        out = np.empty_like(t)
        small = np.abs(t) < 1e-13
        out[~small] = 2.0 * t[~small] / np.sqrt(2.0 * w[~small])
        if np.any(small):
            dws = -float(self.well.dW(self.u_star))
            out[small] = 2.0 / np.sqrt(2.0 * dws)
        return out

    def _lower_integrand(self, v):
        e = np.exp(v)
        return e / np.sqrt(2.0 * self.well.W_bar(e))

    def _z_upper(self, t_hi):
        return _gauss_panels(self._upper_integrand, 0.0, t_hi, max_len=0.25)

    def _z_lower(self, v):
        return self.z_mid + _gauss_panels(self._lower_integrand, v, self.v_mid)

    # inversion ------------------------------------------------------------
    def _misfit(self, name, x, z):
        """z_upper(t) - z (name "t") or z_lower(v) - z (name "v"), lane-wise.

        A NaN, which scipy's brentq refuses with a bare ValueError, raises
        ToleranceError with tau, z and the abscissa.
        """
        out = (self._z_upper if name == "t" else self._z_lower)(x) - z
        bad = np.flatnonzero(np.isnan(out))
        if bad.size:
            i = bad[0]
            raise ToleranceError(
                f"homoclinic inversion at tau = {self.well.tau:g}: the "
                f"quadrature for z = {float(z[i])!r} is NaN at "
                f"{name} = {float(x[i])!r} (W_bar rounds below zero there)"
            )
        return out

    def phi_bar(self, z):
        """phi_bar at every entry of the array z >= 0."""
        z = np.asarray(z, dtype=float)
        out = np.full(z.shape, self.e_star)
        upper = (z > 0.0) & (z <= self.z_mid)
        if np.any(upper):
            zu = z[upper]
            t = _brentq_lanes(
                lambda t, lanes: self._misfit("t", t, zu[lanes]),
                0.0, self.t_mid, 0.0 - zu, self.z_mid - zu,
                xtol=1e-14, rtol=8.9e-16,
            )
            out[upper] = self.e_star - t * t
        lower = z > self.z_mid
        if np.any(lower):
            zl = z[lower]
            v_lo = self.v_mid - self.sqrt_am * (zl - self.z_mid) - 2.0
            f_lo = self._misfit("v", v_lo, zl)
            # widen each bracket until z_lower(v_lo) >= z
            short = np.flatnonzero(f_lo < 0.0)
            while short.size:
                v_lo[short] -= 5.0
                f_lo[short] = self._misfit("v", v_lo[short], zl[short])
                short = short[f_lo[short] < 0.0]
            v = _brentq_lanes(
                lambda v, lanes: self._misfit("v", v, zl[lanes]),
                v_lo, self.v_mid, f_lo, self.z_mid - zl,
                xtol=1e-13, rtol=8.9e-16,
            )
            out[lower] = np.exp(v)
        return out


@dataclass(frozen=True)
class PulseProfile:
    """Homoclinic pulse phi_h with evaluators for arbitrary translates.

    `pulse_jet` evaluates a translate once for all derivative orders 0..8.
    """

    well: DoubleWell
    z: np.ndarray
    values: np.ndarray
    u_star: float
    half_width: float
    phi_max: float
    decay_rate: float
    mass_h: float
    kernel_norm: float
    _cheb: chebyshev.Chebyshev

    @property
    def peak_height(self):
        """Max of phi_bar = u_star - b_minus."""
        return self.u_star - self.well.b_minus

    def pulse_bar(self, x):
        """phi_bar(|x|), vectorized over arbitrary offsets x."""
        x = np.abs(np.asarray(x, dtype=float))
        out = np.empty_like(x)
        inside = x <= self.half_width
        if np.any(inside):
            off, scl = self._cheb.mapparms()
            out[inside] = clenshaw(off + scl * x[inside], self._cheb.coef)
        if np.any(~inside):
            out[~inside] = self.phi_max * np.exp(
                -np.sqrt(self.well.alpha_minus) * x[~inside]
            )
        return out

    def pulse_bar_deriv(self, x, order):
        """d^order/dx^order of phi_bar(x), orders 0..8 (one row of `pulse_jet`)."""
        return self.pulse_jet(x, order)[order]

    def pulse_jet(self, x, max_order):
        """Rows d^m/dx^m phi_bar(x), m = 0..max_order <= 8, via the first integral.

        Orders from 2 grow the jet of phi_bar by phi_bar^(k) =
        [W'(b_minus + phi_bar)]^(k-2), expanded about b_minus so that the tail
        keeps its relative accuracy. The offsets x may have any shape (rows of
        (n, size) offsets are n translates) and are evaluated once for every
        order: each order adds one entry to each Horner stage of W', since
        entry k of the jet depends only on the entries before it.
        """
        if max_order > 8:
            raise DomainError("pulse derivatives available for orders 0..8")
        x = np.asarray(x, dtype=float)
        well = self.well
        jet = np.empty((max_order + 1,) + x.shape)
        jet[0] = self.pulse_bar(x)
        if max_order:
            jet[1] = -np.sign(x) * np.sqrt(np.maximum(2.0 * well.W_bar(jet[0]),
                                                      0.0))
        entries = _horner_entries(well, 1, well.b_minus, jet)
        for k in range(2, max_order + 1):
            jet[k] = next(entries)
        return jet

    @cached_property
    def pair_energy(self):
        """Pair interaction energy of two translates under J, tabulated once."""
        return _tabulate_pair_energy(self)

    @cached_property
    def edge_floor(self):
        """The stable-edge floor k_s of `stable_edge_floor`, computed once."""
        return stable_edge_floor(self.well, self)[0]


@dataclass(frozen=True)
class FarFieldFit:
    phi_max: float
    decay_rate: float
    max_log_dev: float


def far_field_params(z, bar):
    """Least-squares fit of log phi_bar against -rate*z over the tail window.

    z and bar are samples of phi_bar on a half line. The window selects the
    samples with phi_bar inside FAR_FIELD_WINDOW; all of them must be
    positive.
    """
    lower, upper = FAR_FIELD_WINDOW
    z = np.asarray(z, dtype=float)
    bar = np.asarray(bar, dtype=float)
    # the window is selected in z: from the first sample below the upper
    # cutoff until the magnitude drops through the lower cutoff
    below = np.nonzero(np.abs(bar) <= upper)[0]
    if below.size == 0:
        raise DomainError("far-field fit window is empty")
    z_start = z[below[0]]
    sel = (z >= z_start) & (np.abs(bar) >= lower)
    if np.count_nonzero(sel) < 8:
        raise DomainError("far-field fit window contains too few samples")
    if np.any(bar[sel] <= 0.0):
        raise DomainError("far-field fit window contains non-positive tail values")
    zs, ls = z[sel], np.log(bar[sel])
    slope, intercept = np.polyfit(zs, ls, 1)
    resid = ls - (slope * zs + intercept)
    return FarFieldFit(
        phi_max=float(np.exp(intercept)),
        decay_rate=float(-slope),
        max_log_dev=float(np.max(np.abs(resid))),
    )


def _fd_residual(z, values, well):
    """Sup-norm of phi'' - W'(phi) using an 8th-order finite-difference stencil.

    Deliberately independent of the first-integral construction: it only sees
    the sampled values.
    """
    h = z[1] - z[0]
    c = np.array([-1.0 / 560, 8.0 / 315, -1.0 / 5, 8.0 / 5, -205.0 / 72,
                  8.0 / 5, -1.0 / 5, 8.0 / 315, -1.0 / 560])
    w = len(c) // 2
    second = np.zeros(len(values) - 2 * w)
    for i, ci in enumerate(c):
        second += ci * values[i : i + len(second)]
    second /= h * h
    interior = values[w:-w]
    return float(np.max(np.abs(second - well.dW(interior))))


def _freeze(*arrays):
    """Make arrays read-only: an in-place write to them raises ValueError."""
    for a in arrays:
        a.setflags(write=False)


def solve_homoclinic(well, half_width=None, cheb_degree=220):
    """Construct the homoclinic pulse of u'' = W'(u) by quadrature inversion.

    Centered so that phi'(0) = 0, phi(0) = u*, and sampled every
    PULSE_SPACING. Raises ToleranceError when the finite-difference residual
    on the sampled window exceeds HOMOCLINIC_TOL, and when the inversion
    meets a NaN quadrature (some tilts, see README).
    """
    inv = _HomoclinicInverter(well)
    sqrt_am = inv.sqrt_am
    if half_width is None:
        half_width = max(20.0 / sqrt_am, 24.0)

    cheb = chebyshev.Chebyshev.interpolate(
        inv.phi_bar, cheb_degree, domain=[0.0, half_width]
    )
    check = np.linspace(0.0, half_width, 173)
    cheb_err = float(np.max(np.abs(cheb(check) - inv.phi_bar(check))))
    if cheb_err > 1e-11:
        raise ToleranceError(
            f"pulse interpolant error {cheb_err:.2e} exceeds 1e-11; "
            "raise cheb_degree"
        )

    # provisional profile for the tail fit
    z_half = np.arange(0.0, half_width + 0.5 * PULSE_SPACING, PULSE_SPACING)
    bar_half = cheb(z_half)
    fit = far_field_params(z_half, bar_half)
    phi_max = fit.phi_max

    z = np.concatenate([-z_half[:0:-1], z_half])
    bar = np.concatenate([bar_half[:0:-1], bar_half])
    values = well.b_minus + bar

    mass_core = float(cheb.integ()(half_width) - cheb.integ()(0.0))
    mass_h = 2.0 * (mass_core + phi_max * np.exp(-sqrt_am * half_width) / sqrt_am)

    dsq = lambda t: 2.0 * well.W_bar(cheb(t))
    kin_core = float(_gauss_panels(dsq, 0.0, half_width, max_len=0.5))
    kin_tail = (
        0.5 * sqrt_am * phi_max**2 * np.exp(-2.0 * sqrt_am * half_width)
    )
    kernel_norm = float(np.sqrt(2.0 * (kin_core + kin_tail)))

    residual = _fd_residual(z, values, well)
    if residual > HOMOCLINIC_TOL:
        raise ToleranceError(
            f"homoclinic residual {residual:.2e} exceeds tol "
            f"{HOMOCLINIC_TOL:.2e}"
        )

    # a pulse is shared by every Laboratory of its well: freeze its samples
    _freeze(z, values, cheb.coef)

    return PulseProfile(
        well=well,
        z=z,
        values=values,
        u_star=inv.u_star,
        half_width=float(half_width),
        phi_max=phi_max,
        decay_rate=fit.decay_rate,
        mass_h=mass_h,
        kernel_norm=kernel_norm,
        _cheb=cheb,
    )


# ---------------------------------------------------------------------------
# Pair interaction energy of two pulse translates.
# ---------------------------------------------------------------------------

# Quadrature node spacing, which is also the gap step of the table.
PAIR_STEP = 1.0 / 16.0
# The quadrature runs this far beyond both pulse centres; past it the
# integrand is below e^{-4 r * 12} of its plateau value.
PAIR_MARGIN = 12.0
# Last tabulated gap. Up to 16 the pulse interpolant keeps ~1e-7 relative
# accuracy in the tail that the overlap samples, and E(g) e^{2rg} - A g is
# within ~1e-5 of its limit B; further out the interpolant's absolute error
# (~1e-11) would dominate the tail, so the asymptote takes over.
PAIR_TABLE_MAX = 16.0


@dataclass(frozen=True)
class PairEnergy:
    """Interaction energy E(g) of two pulse translates a gap g apart under J.

        E(g) = 1/2 int [W'(b_- + a) + W'(b_- + b) - W'(b_- + a + b)]^2 dz

    over the line, a = phi_bar(z), b = phi_bar(z - g). The pulse is an exact
    zero of the energy density, so E is quadratic in the tail overlap and
    decays at twice the tail rate r = sqrt(alpha_minus):

        E(g) e^{2rg} - A g -> B,   A = W'''(b_-)^2 phi_max^4 / 2.

    H(g) = E(g) e^{2rg} is tabulated at gaps 0, PAIR_STEP, ..., table_max and
    interpolated by a cubic Hermite spline through H and H'. Beyond table_max,
    H = A g + B, with B read off the last table entry so that E is continuous.
    """

    rate: float
    slope: float
    offset: float
    table_max: float
    scaled: CubicHermiteSpline

    def __call__(self, g, order=0):
        """d^order E / dg^order at gaps g >= 0, for orders 0..2."""
        g = np.asarray(g, dtype=float)
        inside = g <= self.table_max
        g_table = np.minimum(g, self.table_max)
        asymptote = (self.slope * g + self.offset, self.slope, 0.0)
        total = 0.0
        for k in range(order + 1):
            h_k = np.where(inside, self.scaled(g_table, k), asymptote[k])
            total = total + comb(order, k) * (-2.0 * self.rate) ** (order - k) * h_k
        return total * np.exp(-2.0 * self.rate * g)


def _tabulate_pair_energy(pulse):
    """Trapezoid quadrature of E and E' at every table gap (about 10 ms).

    Nodes z_k = k * PAIR_STEP and gaps g_j = j * PAIR_STEP share one lattice,
    so both translates are read from one sample of phi_bar and phi_bar'. The
    bracket of E is factored exactly for the quartic well,
        W'(b_-+a) + W'(b_-+b) - W'(b_-+a+b) = -a b (W'''(b_-) + W''''(b_-) (a+b)/2),
    which keeps relative accuracy where the overlap a b is tiny.
    """
    well = pulse.well
    rate = float(np.sqrt(well.alpha_minus))
    c3 = float(well.d3W(well.b_minus))
    c4 = 0.5 * float(well.d4W(well.b_minus))
    h = PAIR_STEP
    m = int(round(PAIR_TABLE_MAX / h))
    pad = int(round(PAIR_MARGIN / h))
    origin = pad + m  # index of z = 0 in the sample
    x = h * np.arange(-origin, origin + 1)
    bar = pulse.pulse_bar(x)
    dbar = pulse.pulse_bar_deriv(x, 1)
    k = np.arange(-pad, m + pad + 1) + origin
    a = bar[k]
    energy = np.empty(m + 1)
    denergy = np.empty(m + 1)
    # one gap at a time keeps the transient memory to a few node vectors
    for j in range(m + 1):
        b, db = bar[k - j], dbar[k - j]
        q = c3 + c4 * (a + b)
        bracket = a * b * q
        energy[j] = 0.5 * h * np.sum(bracket**2)
        # d/dg acts on b = phi_bar(z - g) only
        denergy[j] = -h * np.sum(bracket * a * (q + c4 * b) * db)
    gaps = h * np.arange(m + 1)
    weight = np.exp(2.0 * rate * gaps)
    scaled = CubicHermiteSpline(
        gaps, energy * weight, (denergy + 2.0 * rate * energy) * weight
    )
    slope = 0.5 * c3**2 * pulse.phi_max**4
    table_max = float(gaps[-1])
    return PairEnergy(
        rate=rate,
        slope=slope,
        offset=float(scaled(table_max)) - slope * table_max,
        table_max=table_max,
        scaled=scaled,
    )


# ---------------------------------------------------------------------------
# Background solutions L^j B_j = 1.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BackgroundProfile:
    """Solution of L^j B_j = 1 orthogonal to the kernel of L.

    B_j is even, so it is computed in the even sector (cosine basis on the
    half-window [0, window]); the odd kernel phi_h' is excluded by parity,
    which realizes the kernel-orthogonal solve exactly. `lattice_jet`
    evaluates a translate once for all derivative orders on a uniform grid,
    from one `lattice_table`.
    """

    window: float
    z: np.ndarray
    values: np.ndarray
    b_inf: float
    mass_bar: float
    residual_norm: float
    _coeffs: np.ndarray

    @property
    def _kappa(self):
        return np.arange(len(self._coeffs)) * np.pi / self.window

    def lattice_table(self, spacing):
        """(spacing, cos, sin) of kappa_k * i * spacing, i = 0..ceil(W/spacing) + 2.

        The part of every translate on a uniform lattice that does not depend
        on the translate; `lattice_jet` reads it.
        """
        steps = spacing * np.arange(int(np.ceil(self.window / spacing)) + 3)
        phase = np.outer(steps, self._kappa)
        return spacing, np.cos(phase), np.sin(phase, out=phase)

    def lattice_jet(self, table, nodes, p, max_order):
        """Rows d^m B_bar_j, m = 0..max_order, at lattice offsets nodes*h - p.

        `table` is `lattice_table(h)`; nodes are integer lattice indices. With
        j0 = floor(p/h) and f = p - j0*h an offset is i*h - f, i = node - j0,
        and angle addition splits
            cos k(i h - f) = cos(k i h) cos(k f) + sin(k i h) sin(k f),
            sin k(i h - f) = sin(k i h) cos(k f) - cos(k i h) sin(k f),
        so a translate costs the trig values of f and two matrix-vector
        products per order. Negative i read row |i| (cos even, sin odd). Zero
        beyond the window, tested on the offsets nodes*h - p.
        """
        spacing, cos_t, sin_t = table
        nodes = np.asarray(nodes)
        j0 = np.floor(p / spacing)
        f = p - j0 * spacing
        i = nodes - int(j0)
        inside = np.abs(nodes * spacing - p) < self.window
        out = np.zeros((max_order + 1,) + i.shape)
        if not np.any(inside):
            return out
        sgn = np.sign(i[inside])
        rows = np.abs(i[inside])
        lo, top = rows.min(), rows.max() + 1
        rows -= lo
        kap = self._kappa
        cf = self._coeffs * np.cos(kap * f)
        sf = self._coeffs * np.sin(kap * f)
        for order in range(max_order + 1):
            scale = (-1.0) ** ((order + 1) // 2) * kap**order
            if order % 2 == 0:
                u = cos_t[lo:top] @ (scale * cf)
                v = sin_t[lo:top] @ (scale * sf)
                out[order, inside] = u[rows] + sgn * v[rows]
            else:
                u = sin_t[lo:top] @ (scale * cf)
                v = cos_t[lo:top] @ (scale * sf)
                out[order, inside] = sgn * u[rows] - v[rows]
        return out


def _refined_solve(a, lu_piv, rhs):
    """LU solve with one step of iterative refinement."""
    x = lu_solve(lu_piv, rhs)
    x += lu_solve(lu_piv, rhs - a @ x)
    return x


def solve_background(well, profile):
    """(B_1, B_2): the solutions of L B_1 = 1 and L^2 B_2 = 1 on a window 2x
    the pulse window, via the even sector.

    One LU of L serves both, since L B_2 = B_1; it is dropped on return. The
    resolution of BACKGROUND_POINTS (h ~ 0.1) is deliberately moderate: B_j
    varies on the O(1) pulse scale, and a finer grid only inflates the
    round-off of the composed residual L^2 B_2 - 1 through the operator norm.
    """
    window = 2.0 * profile.half_width
    grid = Grid(window, BACKGROUND_POINTS, h_max=0.2)
    q = well.d2W(well.b_minus + profile.pulse_bar(grid.nodes))
    lmat = (mode_derivative(cosine_coeffs(np.eye(BACKGROUND_POINTS)),
                            grid.wavenumbers, 2) - np.diag(q))
    lu_piv = lu_factor(lmat)
    b1 = _refined_solve(lmat, lu_piv, np.ones(BACKGROUND_POINTS))
    b2 = _refined_solve(lmat, lu_piv, b1)
    return _background(1, b1, lmat, grid), _background(2, b2, lmat, grid)


def _background(j, b, lmat, grid):
    """The BackgroundProfile of the solution b of L^j B_j = 1, with the
    residual of the composed operator L^j B_j - 1 on the core half of the
    window."""
    z, window = grid.nodes, grid.length
    comp = b.copy()
    for _ in range(j):
        comp = lmat @ comp
    resid_vec = comp - 1.0
    core = z <= 0.5 * window
    w = grid.quad_weights
    residual_norm = float(np.sqrt(2.0 * np.sum(w[core] * resid_vec[core] ** 2)))
    if not np.isfinite(b).all() or np.max(np.abs(b)) > 1e6:
        raise ToleranceError("background solve is near-singular")

    far = z >= 0.9 * window
    b_inf = float(np.mean(b[far]))
    bar = b - b_inf
    mass_bar = 2.0 * float(np.sum(w * bar))

    coeffs = cosine_coeffs(bar)
    keep = np.max(np.nonzero(np.abs(coeffs) > 1e-15 * np.max(np.abs(coeffs)))[0])
    coeffs = coeffs[: keep + 1]
    _freeze(z, b, coeffs)

    return BackgroundProfile(
        window=window,
        z=z,
        values=b,
        b_inf=b_inf,
        mass_bar=mass_bar,
        residual_norm=residual_norm,
        _coeffs=coeffs,
    )


def single_pulse_point_spectrum(well, profile):
    """Discrete eigenvalues of L = d^2/dz^2 - W''(phi_h) above -alpha_minus.

    Solved on the symmetric window [-2*half_width, 2*half_width] in the
    cosine modes of that window, where L is -diag(kappa^2) - Q^T diag(q) Q.
    The potential q is even about the window centre, where mode k has parity
    (-1)^k, so the even and odd modes decouple into two blocks of half the
    size. Each block is solved only above -alpha_minus + 1e-3 alpha_minus,
    by LAPACK's MRRR driver `syevr` on that interval: the few eigenvalues
    there, after the same tridiagonal reduction as a full solve. Returns
    them sorted descending.
    """
    window = 2.0 * profile.half_width
    grid = Grid(2.0 * window, POINT_SPECTRUM_POINTS, h_max=0.2)
    q = well.d2W(well.b_minus + profile.pulse_bar(grid.nodes - window))
    kappa2 = grid.wavenumbers**2
    edge = -well.alpha_minus
    above = (edge + 1e-3 * abs(edge), np.inf)
    evals = []
    for parity in (0, 1):
        block = mode_matrix(grid, -q, start=parity, step=2)
        block[np.diag_indices_from(block)] -= kappa2[parity::2]
        evals.append(eigh(block, eigvals_only=True, overwrite_a=True,
                          check_finite=False, driver="evr",
                          subset_by_value=above))
    return np.sort(np.concatenate(evals))[::-1]


def stable_edge_floor(well, profile):
    """min over the nonzero single-pulse spectrum of lambda^2, vs alpha_minus^2.

    This is the squared distance of the nonzero spectrum of L from zero: the
    translation eigenvalue at zero (|lambda| <= 1e-4) is excluded, every
    other discrete eigenvalue and the essential-spectrum edge -alpha_minus
    compete.
    """
    point = single_pulse_point_spectrum(well, profile)
    nonzero = point[np.abs(point) > 1e-4]
    candidates = [well.alpha_minus**2]
    candidates.extend(nonzero**2)
    return float(min(candidates)), point
