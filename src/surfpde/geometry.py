"""Closed level sets and cut-point location on grid segments.

A level set is the zero set of a smooth function phi with phi < 0 inside
(phi = 0 counts as inside).  Outward unit normals come from grad phi.  The
same class holds surfaces, on (..., 3) points, and the plane curves of
`curve1d`, on (..., 2) points.  Cuts are located by one root step,
`_batch_illinois` (safeguarded Illinois regula falsi on many segments at
once), used both by the grid scan of `discretization` and by the
single-segment `find_cut`.  It stops once the crossing is bracketed to
`BISECT_TOL` of the segment, at the point that bisection returns.

A surface may carry a certified gradient bound, `grad_bound(lo, hi)` >=
max |grad phi| over each axis-aligned box [lo, hi].  The catalog surfaces
take theirs from their closed-form gradients; `discretize` uses it to skip
the grid blocks that phi cannot change sign in.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BracketingError, DegenerateGradientError

FD_STEP = 1e-6  # central-difference step of the gradient fallback
BISECT_TOL = 1e-12  # final root bracket width, as a fraction of the segment


def _fd_gradient(phi, pts):
    """Central-difference gradient fallback for user surfaces without one."""
    pts = np.asarray(pts, dtype=float)
    out = np.empty(pts.shape)
    for ax in range(pts.shape[-1]):
        e = np.zeros(pts.shape[-1])
        e[ax] = FD_STEP
        out[..., ax] = (phi(pts + e) - phi(pts - e)) / (2.0 * FD_STEP)
    return out


class LevelSetSurface:
    """Implicit closed surface {phi = 0}, negative inside.

    Parameters
    ----------
    kind : str
        Catalog tag ("sphere", "ellipsoid", "cassini_oval") or "user".
    phi : callable
        Vectorized level-set evaluator, shape (..., 3) -> (...).
    grad : callable, optional
        Vectorized gradient, shape (..., 3) -> (..., 3).  When omitted a
        central-difference fallback with step `FD_STEP` is used.
    params : dict, optional
        Shape parameters, kept for serialization round trips.
    c0 : float
        Lower bound on |grad phi| near the surface; normals below it raise.
    grad_bound : callable, optional
        Vectorized certified bound, (lo, hi) of shape (..., 3) -> (...):
        at least max |grad phi| over each box [lo, hi].  `discretize`
        evaluates phi only where a block of the grid may hold a sign
        change by this bound, the narrow band of its one scan.  None (the
        default) means no bound: the band is the whole grid, so
        `discretize` evaluates phi at every grid node, which takes time
        like the (N+1)^3 nodes; its memory stays the O(N^2) per-cut arrays
        plus one group of block layers, as with a bound.  A bound that is
        too small loses cuts without an error; one far above |grad phi|
        near the surface widens the band that `discretize` evaluates.
    """

    def __init__(self, kind, phi, grad=None, params=None, c0=1e-8,
                 grad_bound=None):
        self.kind = kind
        self.params = dict(params or {})
        self.c0 = float(c0)
        self.grad_bound = grad_bound
        self._phi = phi
        self._grad = grad

    def phi(self, pts):
        """phi at `pts`, one value per point: shape pts.shape[:-1].
        Raises ValueError naming both shapes if phi returns another."""
        pts = np.asarray(pts, dtype=float)
        f = self._phi(pts)
        if np.shape(f) != pts.shape[:-1]:
            raise ValueError(f"phi must return one value per point, shape "
                             f"{pts.shape[:-1]} for points of shape "
                             f"{pts.shape}, got shape {np.shape(f)}")
        return f

    def gradient(self, pts):
        pts = np.asarray(pts, dtype=float)
        if self._grad is not None:
            return self._grad(pts)
        return _fd_gradient(self._phi, pts)

    def unit_normal(self, pts):
        """Outward unit normal grad phi / |grad phi|.

        Raises DegenerateGradientError if any |grad phi| < c0.
        """
        g = np.atleast_2d(self.gradient(pts))
        mag = np.linalg.norm(g, axis=-1)
        if np.any(mag < self.c0):
            i = int(np.argmin(mag))
            raise DegenerateGradientError(
                f"|grad phi| = {mag.ravel()[i]:.3e} < c0 = {self.c0:.3e} "
                f"on {self.kind} surface")
        n = g / mag[..., None]
        return n.reshape(np.shape(pts))

    def __repr__(self):
        ps = ", ".join(f"{k}={v:g}" for k, v in self.params.items())
        return f"LevelSetSurface({self.kind}{', ' + ps if ps else ''})"


def _square_max(lo, hi):
    """max of x^2 over [lo, hi], per coordinate."""
    return np.maximum(lo * lo, hi * hi)


def _square_min(lo, hi):
    """min of x^2 over [lo, hi], per coordinate."""
    return np.where(lo * hi > 0.0, np.minimum(lo * lo, hi * hi), 0.0)


def sphere(radius=1.0):
    r2 = radius * radius

    def phi(p):
        return p[..., 0] ** 2 + p[..., 1] ** 2 + p[..., 2] ** 2 - r2

    def grad(p):
        return 2.0 * p

    def grad_bound(lo, hi):
        # |grad phi| = 2 |p|
        return 2.0 * np.sqrt(_square_max(lo, hi).sum(axis=-1))

    # |grad phi| = 2r on the surface
    return LevelSetSurface("sphere", phi, grad, {"radius": radius}, c0=radius,
                           grad_bound=grad_bound)


def ellipsoid(a=1.0, b=0.8, c=0.65):
    inv = np.array([1.0 / a ** 2, 1.0 / b ** 2, 1.0 / c ** 2])

    def phi(p):
        return (p ** 2 * inv).sum(axis=-1) - 1.0

    def grad(p):
        return 2.0 * p * inv

    def grad_bound(lo, hi):
        return 2.0 * np.sqrt((_square_max(lo, hi) * inv ** 2).sum(axis=-1))

    c0 = 1.0 / max(a, b, c)  # |grad phi| >= 2/max axis on the surface
    return LevelSetSurface("ellipsoid", phi, grad, {"a": a, "b": b, "c": c},
                           c0=c0, grad_bound=grad_bound)


def cassini_oval(a=0.65, b=0.715):
    """Surface of revolution (x^2+y^2+z^2+a^2)^2 - 4a^2(x^2+y^2) = b^4.

    Nonconvex (dimpled at the poles) for a < b < a*sqrt(2).
    """
    a2, b4 = a * a, b ** 4

    def phi(p):
        s = (p ** 2).sum(axis=-1)
        rho2 = p[..., 0] ** 2 + p[..., 1] ** 2
        return (s + a2) ** 2 - 4.0 * a2 * rho2 - b4

    def grad(p):
        s = (p ** 2).sum(axis=-1)
        g = np.empty(np.shape(p))
        g[..., 0] = 4.0 * p[..., 0] * (s - a2)
        g[..., 1] = 4.0 * p[..., 1] * (s - a2)
        g[..., 2] = 4.0 * p[..., 2] * (s + a2)
        return g

    def grad_bound(lo, hi):
        # |grad phi|^2 = 16 (rho^2 (s - a^2)^2 + z^2 (s + a^2)^2), each
        # factor bounded over the box on its own
        top = _square_max(lo, hi)
        rho2 = top[..., 0] + top[..., 1]
        s_max = rho2 + top[..., 2]
        s_min = _square_min(lo, hi).sum(axis=-1)
        w = np.maximum(s_max - a2, a2 - s_min)
        return 4.0 * np.sqrt(rho2 * w ** 2 + top[..., 2] * (s_max + a2) ** 2)

    # conservative: measured min |grad phi| over the surface is ~0.6 for the
    # default shape; anything below 0.05 indicates real degeneracy
    return LevelSetSurface("cassini_oval", phi, grad, {"a": a, "b": b},
                           c0=0.05, grad_bound=grad_bound)


def from_callables(phi, grad=None, c0=1e-8, params=None):
    """Wrap user-supplied callables as a surface (negative-inside convention).

    The surface has no gradient bound, so `discretize` evaluates phi at
    every grid node, in groups of block layers, and holds the O(N^2)
    per-cut arrays plus one group; a `LevelSetSurface` built directly may
    carry one (`grad_bound`), and then only the narrow band is evaluated.
    `discretize` evaluates phi on two threads at once, and grad may be
    called the same way, so neither may change state shared between
    calls.
    """
    return LevelSetSurface("user", phi, grad, params, c0=c0)


SURFACE_CATALOG = {
    "sphere": sphere,
    "ellipsoid": ellipsoid,
    "cassini_oval": cassini_oval,
}


def make_surface(name, **params):
    if name not in SURFACE_CATALOG:
        raise ValueError(
            f"unknown surface {name!r}; catalog: {sorted(SURFACE_CATALOG)}")
    return SURFACE_CATALOG[name](**params)


def _batch_illinois(surface, p_in, p_out, f_in, f_out, axis, tol):
    """Cut points on many segments at once along one axis, by safeguarded
    Illinois regula falsi (Dowell and Jarratt, BIT 11 (1971)).

    Segment k runs from p_in[k] (phi = f_in[k] <= 0) to p_out[k]
    (phi = f_out[k] > 0); only the `axis` coordinate moves, so the frozen
    coordinates of every cut are those of the endpoints exactly.  Each
    segment keeps a bracket [lo, hi] of the parameter t in [0, 1] with
    phi(lo) <= 0 < phi(hi), both ends on the lattice of 2^s cells,
    s = ceil(log2(1/tol)), that s bisections would halve the segment into.
    A step takes the secant point, with the phi of an end kept twice in a
    row halved; after three steps in a row that did not halve the bracket
    it takes the midpoint instead.  (After two, the midpoint would displace
    the first halved step, the one that crosses the root.)  The point is
    rounded to the lattice and held strictly inside the bracket.  So every
    fourth step at the latest halves the bracket, and a segment takes at
    most 4 s steps (160 at tol = 1e-12; about 5 on the catalog surfaces).
    A segment stops when its bracket is one cell, at that cell's midpoint.
    phi = 0 counts as inside, as in bisection, so where the computed sign
    of phi changes once on the lattice, this is the point that s
    bisections return, bit for bit; stopping at an exact zero instead
    would move the cuts whose rounded phi vanishes on a lattice point.
    Only the segments still open are evaluated again, and each one's
    steps depend on its own values alone, so a batch gives the same cuts
    as its parts located one after another.
    """
    cells = 2.0 ** max(1, math.ceil(math.log2(1.0 / tol)))
    cell = 1.0 / cells
    m = p_in.shape[0]
    out = p_in.copy()
    delta = p_out[:, axis] - p_in[:, axis]
    t_out = np.zeros(m)
    live = np.arange(m)
    lo, hi = np.zeros(m), np.ones(m)
    f_lo = np.asarray(f_in, dtype=float)
    f_hi = np.asarray(f_out, dtype=float)
    kept = np.zeros(m, dtype=np.int8)   # end kept by the last step, +-1
    slow = np.zeros(m, dtype=np.int8)   # steps in a row that did not halve
    while live.size:
        width = hi - lo
        t = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        t = np.where((slow >= 3) | np.isnan(t), 0.5 * (lo + hi), t)
        t = np.clip(np.rint(t * cells) * cell, lo + cell, hi - cell)
        q = p_in[live]
        q[:, axis] = p_in[live, axis] + t * delta[live]
        f = surface.phi(q)
        neg = f <= 0.0
        # Illinois: the end kept twice in a row has its phi halved
        side = np.where(neg, 1, -1).astype(np.int8)
        again = kept == side
        f_hi = np.where(neg & again, 0.5 * f_hi, f_hi)
        f_lo = np.where(~neg & again, 0.5 * f_lo, f_lo)
        lo, f_lo = np.where(neg, t, lo), np.where(neg, f, f_lo)
        hi, f_hi = np.where(neg, hi, t), np.where(neg, f_hi, f)
        kept = side
        slow = np.where(hi - lo > 0.5 * width, slow + 1, 0).astype(np.int8)
        done = hi - lo <= cell
        if done.any():
            t_out[live[done]] = 0.5 * (lo + hi)[done]
            go = ~done
            live, lo, hi, f_lo, f_hi, kept, slow = (
                a[go] for a in (live, lo, hi, f_lo, f_hi, kept, slow))
    out[:, axis] = p_in[:, axis] + t_out * delta
    return out


def find_cut(surface, p_in, p_out, tol=BISECT_TOL):
    """Locate the surface crossing on an axis-aligned grid segment.

    p_in must satisfy phi <= 0 and p_out phi >= 0 (not both zero), and the
    endpoints must differ in exactly one coordinate.  An endpoint with
    phi = 0 is returned as it is; otherwise `_batch_illinois` locates the
    crossing on this one segment to within `tol` of its length.
    """
    p_in = np.asarray(p_in, dtype=float)
    p_out = np.asarray(p_out, dtype=float)
    moving = np.nonzero(p_out - p_in)[0]
    if len(moving) != 1:
        raise ValueError("segment endpoints must differ in exactly one coordinate")
    axis = int(moving[0])

    f_in = float(surface.phi(p_in))
    f_out = float(surface.phi(p_out))
    if f_in > 0.0 or f_out < 0.0 or (f_in == 0.0 and f_out == 0.0):
        raise BracketingError(
            f"segment does not bracket the surface: phi(p_in)={f_in:.3e}, "
            f"phi(p_out)={f_out:.3e}")
    if f_in == 0.0:
        return p_in.copy()
    if f_out == 0.0:
        return p_out.copy()
    return _batch_illinois(surface, p_in[None], p_out[None], [f_in], [f_out],
                           axis, tol)[0]
