"""Sparse solves, the bordered mean-zero system, and eigenvalue helpers.

Everything here wraps scipy.sparse machinery behind the small set of
operations the solvers need: a reusable LU factorization with iterative
refinement, the mean-constrained (bordered) solve used by the surface
Poisson problem, shift-invert eigenvalues, dense resolvent entry reports,
and `BiCGSTAB`, the Jacobi-scaled Krylov iteration that solves each
implicit diffusion step from a guess without factoring.  Every
factorization is ordered by geometric nested dissection of the unknowns'
coordinates (`dissection_order`), so each entry point that factors takes
`points`, the (n, d) positions of the matrix's unknowns.  `_in_pair` is
the package's one way to use the second core: it runs one callable on a
worker thread that it starts and joins, and one on the calling thread;
the ordering, `discretization` and `operators` use it.  SuperLU factors
on the calling thread in single precision, which the answer does not
need beyond its O(h^2) truncation error, and one loop refines every
solve in double against the float64 matrix to double roundoff; a matrix
whose refinement stalls is refactored once in double (see
`Factorization`).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SingularMatrixError, SolverAbortError

# reciprocal condition 1 / (||B|| |B^-1 1|) below which a pinned matrix B
# counts as numerically singular
_SINGULAR_PIVOT_RTOL = 1e-10
# nested-dissection parts of at most this many unknowns are not split
_ND_LEAF = 8
# dissection levels 0 to 39 that the int64 base-3 path has room for, most
# significant digit first: its largest value 2 * 3**39 is below 2**63, and
# parts are down to _ND_LEAF by level 39 for any n <= 8 * 2**40
_ND_LEVELS = 40
_SOLVE_RTOL = 1e-10           # Factorization.solve residual bound, relative
_MAX_PASSES = 30              # residuals per refinement, at most, as LAPACK
                              # DSGESV's ITERMAX
_ROUNDOFF = 4 * np.finfo(float).eps  # where refinement stops: a computed
                              # residual floors at about eps
_BORDERED_RTOL = 1e-9         # bordered_solve residual bound, relative
_EIG_RESIDUAL_TOL = 1e-8      # smallest_eigenvalues eigenpair residual bound
_DENSE_EIG_LIMIT = 1200       # smallest_eigenvalues solves densely up to it
_DENSE_INVERSE_LIMIT = 9000   # largest matrix resolvent_entry_report inverts
_KRYLOV_RTOL = 1e-14          # BiCGSTAB residual bound, relative (see there)
_KRYLOV_MAXITER = 500         # BiCGSTAB iterations per solve, at most


def assemble_csr(rows, cols, vals, shape):
    """COO triplets -> CSR; duplicate entries are summed."""
    return sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()


def _in_pair(first, second):
    """(first(), second()) for two zero-argument callables: `second` runs
    on a worker thread of its own while this thread calls `first`.  The
    worker is joined before this returns or raises, and the first's
    exception wins."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        later = pool.submit(second)
        return first(), later.result()


def _split_parts(cols, rank, ei, ej, path, nodes, sizes, level):
    """One nested-dissection level over the parts of `nodes` (each part
    contiguous, of the given `sizes`, each above _ND_LEAF).  Adds each
    unknown's digit at `level` to `path` and returns the nodes and sizes of
    the halves, separators left out.  Edges (ei, ej) of other parts or of
    finished unknowns are ignored, so they need not be filtered out."""
    n = path.size
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    pid = np.repeat(np.arange(sizes.size), sizes)
    extent = np.empty((len(cols), sizes.size))
    for axis, x in enumerate(cols):
        x = x.take(nodes)
        extent[axis] = np.maximum.reduceat(x, starts) - np.minimum.reduceat(
            x, starts)
    widest = np.argmax(extent, axis=0)
    nodes = nodes[np.argsort(pid * n + rank[widest[pid], nodes])]
    half = sizes // 2
    right = np.arange(nodes.size) - starts[pid] >= half[pid]
    # 2 * part + (1 if right half); -2 elsewhere, which xors to 1 with no
    # label, so an edge is cut exactly when it joins the halves of a part
    label = np.full(n, -2, dtype=ei.dtype)
    label[nodes] = 2 * pid + right
    li = label[ei]
    cut = (li ^ label[ej]) == 1
    sep = np.zeros(n, dtype=bool)
    sep[np.where(li[cut] & 1, ej[cut], ei[cut])] = True
    path[nodes] += np.where(sep[nodes], 2, right) * 3 ** (_ND_LEVELS - 1
                                                          - level)
    keep = ~sep[nodes]
    left_sizes = half - np.bincount(pid[~keep], minlength=sizes.size)
    return (nodes[keep],
            np.column_stack([left_sizes, sizes - half]).ravel())


def _dissect(cols, rank, ei, ej, path, nodes, sizes, level):
    """Split the parts of `nodes` from `level` down until every part has at
    most _ND_LEAF unknowns (see `_split_parts`)."""
    while True:
        split = sizes > _ND_LEAF
        nodes = nodes[np.repeat(split, sizes)]
        sizes = sizes[split]
        if not sizes.size:
            return
        nodes, sizes = _split_parts(cols, rank, ei, ej, path, nodes, sizes,
                                    level)
        level += 1


def _edges(mat):
    """Each edge of A^T + A once, as index arrays (i, j) with i < j."""
    n = mat.shape[0]
    coo = sp.coo_matrix(mat)
    lo, hi = np.minimum(coo.row, coo.col), np.maximum(coo.row, coo.col)
    off = lo < hi
    graph = sp.csr_matrix((np.ones(int(off.sum()), dtype=np.int8),
                           (lo[off], hi[off])), shape=(n, n))
    return (np.repeat(np.arange(n, dtype=graph.indices.dtype),
                      np.diff(graph.indptr)), graph.indices)


def _ranks(cols):
    """Rank of each unknown along each axis (row of `cols`), ties by
    index."""
    rank = np.empty(cols.shape, dtype=np.int64)
    for axis, x in enumerate(cols):
        rank[axis, np.argsort(x, kind="stable")] = np.arange(x.size)
    return rank


def dissection_order(points, mat):
    """Nested-dissection elimination order of the unknowns of `mat`.

    Level by level, every part with more than _ND_LEAF unknowns is split at
    the median of its widest coordinate; the separator is the set of
    left-half unknowns with an edge of A^T + A into the right half.  On
    unknowns sampling a surface it has O(sqrt(n)) of them (George 1973;
    Lipton, Rose and Tarjan 1979).  Returns the post-order of the tree:
    left subtree, right subtree, then the separator, with ties by index.

    A worker thread ranks the unknowns along each axis while the calling
    thread collects the edges, and the root level is split on the calling
    thread.  The two halves it leaves share no unknown and no edge, so the
    left subtree is split on the calling thread while the worker splits
    the right one.  The order does not depend on the threads.
    """
    n = mat.shape[0]
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] != n or pts.shape[1] < 1:
        raise ValueError(f"points must have shape ({n}, d), got {pts.shape}")
    if not np.isfinite(pts).all():
        bad = int(np.flatnonzero(~np.isfinite(pts).all(axis=1))[0])
        raise ValueError(f"points must be finite; row {bad} is {pts[bad]}")
    if n <= _ND_LEAF:
        return np.arange(n)
    cols = np.ascontiguousarray(pts.T)    # one row per coordinate
    # base-3 path in the tree (0 left, 1 right, 2 separator), the digit of
    # level l worth 3**(_ND_LEVELS - 1 - l), so sorting it gives the
    # post-order
    path = np.zeros(n, dtype=np.int64)
    (ei, ej), rank = _in_pair(partial(_edges, mat), partial(_ranks, cols))
    nodes, sizes = _split_parts(cols, rank, ei, ej, path, np.arange(n),
                                np.array([n]), 0)
    side = np.full(n, -1, dtype=np.int8)   # 0 left half, 1 right half
    side[nodes] = np.repeat([0, 1], sizes)
    si, sj = side[ei], side[ej]
    ends = (0, sizes[0], nodes.size)
    halves = []
    for s in (0, 1):
        inner = (si == s) & (sj == s)
        halves.append(partial(_dissect, cols, rank, ei[inner], ej[inner],
                              path, nodes[ends[s]:ends[s + 1]],
                              sizes[s:s + 1], 1))
    # each half writes only its own unknowns' entries of `path`
    _in_pair(*halves)
    return np.argsort(path, kind="stable")


def _inf_norm(mat):
    return float(np.abs(mat).sum(axis=1).max()) if mat.nnz else 0.0


class Factorization:
    """Sparse LU factorization in single precision, refined in double.

    A is permuted symmetrically by `dissection_order(points, A)` once, and
    SuperLU factors the permuted A, rounded to float32, in that order,
    preferring diagonal pivots (SymmetricMode, partial pivoting kept).  On
    the pinned N = 320 Poisson matrix this fills 15.5, where minimum degree
    on A^T + A fills 20.6-23.4.  The float32 factor holds the same
    nonzeros as a float64 one in about two thirds of the memory.
    `_lu` is the SuperLU object of the live factor, `_mat` the permuted
    float64 A, and `precision` the dtype of the live factor.  The matrix
    given to SuperLU rounds only `_mat`'s values and shares its index
    arrays, so the float32 factorization holds one float64 A and its
    float32 values.  A matrix handed over in a one-element list is taken
    out of it, and its last reference goes once `_mat` exists, before
    SuperLU starts (a matrix passed directly stays alive through the call,
    because the call's arguments hold it).

    solve() permutes the right-hand side into the factor's ordering on
    entry and x out of it on exit, and refines in between in double
    against `_mat` (Buttari et al., ACM TOMS 34(4), 2008).  One loop
    serves either factor: from the unrefined solve it refines while the
    max-norm residual at least halves, until it is within _ROUNDOFF
    (||A||_inf ||x||_inf + ||b||_inf), where a computed residual floors,
    or _MAX_PASSES residuals were formed, and keeps the best iterate,
    accepted when its residual is within _SOLVE_RTOL of that scale.
    Stopping at _SOLVE_RTOL itself is not enough: `bordered_solve`'s own
    residual check amplifies the backward error.  When the float32
    factor's iterate fails the bound, or x is not finite, A is refactored
    once in float64, as LAPACK's DSGESV falls back, and the same loop runs
    on that factor from then on; it raises if its iterate fails too.  A
    float32 factorization that fails falls back the same way.
    `refinements` counts the double-precision residuals formed over all
    solves, as BiCGSTAB counts its products.
    """

    def __init__(self, mat, points):
        if isinstance(mat, list):   # handed over: see the class docstring
            mat = mat.pop()
        mat = sp.csc_matrix(mat)
        if mat.shape[0] != mat.shape[1]:
            raise ValueError(f"matrix must be square, got {mat.shape}")
        self._norm = _inf_norm(mat)
        self._perm = dissection_order(points, mat)
        self._mat = mat[self._perm][:, self._perm]
        # sorted in place, so the rounded copy that shares these indices is
        # canonical and splu does not sort them under `_mat`'s values
        self._mat.sort_indices()
        del mat
        self.refinements = 0
        try:
            self._lu = self._factor(np.float32)
            self.precision = np.dtype(np.float32)
        except SingularMatrixError:
            self._refactor()

    @property
    def shape(self):
        return self._mat.shape

    def _factor(self, dtype):
        """SuperLU factor of the permuted A, rounded to `dtype`.  Only the
        values are rounded: the index arrays are `_mat`'s own."""
        mat = self._mat
        rounded = sp.csc_matrix((mat.data.astype(dtype, copy=False),
                                 mat.indices, mat.indptr), shape=mat.shape)
        try:
            return spla.splu(rounded, permc_spec="NATURAL",
                             options={"SymmetricMode": True})
        except RuntimeError as exc:
            raise SingularMatrixError(
                f"sparse LU factorization failed on "
                f"{mat.shape[0]}x{mat.shape[1]} matrix: {exc}") from exc

    def _refactor(self):
        """Make the float64 factor of A the live one."""
        self._lu = self._factor(np.float64)
        self.precision = np.dtype(np.float64)

    def _lu_solve(self, rhs):
        """One unrefined solve with the live factor, in its ordering.  The
        right-hand side is scaled by a power of two near its max norm,
        which is exact, so that a residual far below 1 does not underflow
        in float32."""
        scale = np.ldexp(1.0, np.frexp(_amax(rhs))[1])
        return self._lu.solve((rhs / scale).astype(self.precision,
                                                 copy=False)) * scale

    def _residual(self, rhs, x):
        """b - A x, its max norm, and ||A||_inf ||x||_inf + ||b||_inf."""
        self.refinements += 1
        r = rhs - self._mat @ x
        scale = max(self._norm * _amax(x) + _amax(rhs), 1e-300)
        return r, _amax(r), scale

    def _refine(self, rhs):
        """x refined on the live factor (see the class): the best iterate,
        its residual's max norm and the scale of that residual."""
        x, best = self._lu_solve(rhs), None
        for _ in range(_MAX_PASSES):
            r, resid, scale = self._residual(rhs, x)
            if best is not None and not resid <= 0.5 * best[1]:
                break
            best = x, resid, scale
            if not _ROUNDOFF * scale < resid < np.inf:
                break
            x = x + self._lu_solve(r)
        return best

    def solve(self, rhs):
        rhs = np.asarray(rhs, dtype=float)[self._perm]
        x, resid, scale = self._refine(rhs)
        if not resid <= _SOLVE_RTOL * scale and self.precision == np.float32:
            self._refactor()
            x, resid, scale = self._refine(rhs)
        if not resid <= _SOLVE_RTOL * scale:
            raise SingularMatrixError(
                f"solve residual {resid:.3e} exceeds {_SOLVE_RTOL:.1e} x "
                f"scale {scale:.3e} on the float64 factor (matrix "
                f"numerically singular)")
        out = np.empty_like(x)
        out[self._perm] = x
        return out


def _amax(vec):
    """||vec||_inf without a temporary; nan if vec holds one."""
    return max(vec.max(initial=0.0), -vec.min(initial=0.0))


def _dot(a, b):
    # numpy's own loop, not BLAS: a threaded BLAS ddot between sparse
    # products can take milliseconds, and this sum does not depend on the
    # BLAS thread count
    return np.einsum("i,i->", a, b)


class BiCGSTAB:
    """Bi-CGSTAB (van der Vorst 1992) on a Jacobi-scaled sparse matrix.

    The rows of A are scaled once to a unit diagonal, D^-1 A.  solve(b, x0)
    iterates on D^-1 A x = D^-1 b from the guess x0 until the updated
    residual passes the backward-error test of Factorization.solve on the
    scaled system, ||r||_inf <= _KRYLOV_RTOL (||D^-1 A||_inf ||x||_inf +
    ||D^-1 b||_inf), and returns x only when the true residual passes it
    too; otherwise it restarts from the true residual, as it does after a
    breakdown.  It raises SolverAbortError naming the true residual when
    that is not finite or still fails after _KRYLOV_MAXITER iterations.

    The guess x0 is the first iterate and is overwritten (a copy is made
    only when it is not a float array), so pass a copy to keep it.  Each
    instance counts its work over all its solves: `products`, the sparse
    matrix-vector products, and `restarts`, the restarts from the true
    residual.
    """

    def __init__(self, mat):
        mat = sp.csr_matrix(mat)
        self._diag = mat.diagonal()
        self._mat = sp.csr_matrix(sp.diags(1.0 / self._diag) @ mat)
        self._norm = _inf_norm(self._mat)
        self.products = 0
        self.restarts = 0

    def solve(self, rhs, x0):
        mat = self._mat
        rhs = np.asarray(rhs, dtype=float) / self._diag
        x = np.asarray(x0, dtype=float)
        b_norm = _amax(rhs)

        def converged(r):
            return _amax(r) <= _KRYLOV_RTOL * (self._norm * _amax(x) + b_norm)

        its = 0
        while True:
            r = rhs - mat @ x
            self.products += 1
            if converged(r):
                return x
            if its >= _KRYLOV_MAXITER or not np.isfinite(_amax(r)):
                raise SolverAbortError(
                    f"Bi-CGSTAB residual {_amax(r):.3e} exceeds "
                    f"{_KRYLOV_RTOL:.0e} x (||A|| ||x|| + ||b||) = "
                    f"{self._norm * _amax(x) + b_norm:.3e} after {its} "
                    f"iterations")
            if its:
                self.restarts += 1
            shadow, p = r.copy(), r.copy()
            rho = _dot(shadow, r)
            try:
                with np.errstate(divide="raise", invalid="raise"):
                    while its < _KRYLOV_MAXITER:
                        its += 1
                        v = mat @ p
                        self.products += 1
                        alpha = rho / _dot(shadow, v)
                        x += alpha * p
                        r -= alpha * v
                        if converged(r):
                            break
                        t = mat @ r
                        self.products += 1
                        omega = _dot(t, r) / _dot(t, t)
                        x += omega * r
                        r -= omega * t
                        if converged(r):
                            break
                        rho, rho_old = _dot(shadow, r), rho
                        beta = rho / rho_old * alpha / omega
                        p = r + beta * (p - omega * v)
            except FloatingPointError:
                pass  # a breakdown: restart from the true residual


def bordered_solve(mat, rhs, points):
    """Solve [[A, 1], [1^T, 0]] (u, beta) = (f, 0) for A with A 1 = 0.

    No border is built: B = A + d e_j e_j^T pins the largest diagonal entry
    d = |a_jj|, keeps A's pattern and has B 1 = d e_j, so B factors in the
    nested-dissection order of `points`, the unknowns' (n, d) positions.
    B is the one CSC copy made of A: d is added to its stored (j, j) entry
    in place, as A + d e_j e_j^T would add it (an entry that cancels is
    dropped, as that sum drops it), and the caller's matrix is not
    written.  The copy is handed to `Factorization` in a list, so no
    unpermuted B outlives the permuted `_mat` into SuperLU.
    One refined solve of B on [f, 1] gives v and z (single-precision
    factor, double-precision answer: see `Factorization`); u = v - beta z
    with beta = v_j / z_j solves A u + beta 1 = f and is shifted to
    sum(u) = 0.  The residual check below takes A u as B u - d u_j e_j
    through the factor's `_mat` and `_perm`; it amplifies B's backward
    error by up to |z|, which is why `Factorization.solve` refines to
    roundoff and not just to its own bound.  When A's null space is not the
    constant vector B is singular, and the condition bound ||B|| |z| or the
    residual check raises."""
    # rebinding `mat` frees a temporary A here, once B exists
    mat = sp.csc_matrix(mat, dtype=float, copy=True)
    n = mat.shape[0]
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (n,):
        raise ValueError(f"rhs must have shape ({n},), got {rhs.shape}")
    mat.sum_duplicates()
    j = int(np.argmax(np.abs(mat.diagonal())))
    d = abs(mat[j, j])
    col = slice(mat.indptr[j], mat.indptr[j + 1])
    mat.data[col][mat.indices[col] == j] += d
    mat.eliminate_zeros()
    mat = [mat]   # handed over, so B dies once permuted (see Factorization)
    fac = Factorization(mat, points)
    v, z = fac.solve(np.column_stack([rhs, np.ones(n)])).T
    if not fac._norm * np.abs(z).max() * _SINGULAR_PIVOT_RTOL <= 1.0:
        raise SingularMatrixError(
            f"pinned matrix is numerically singular (|B^-1 1| = "
            f"{np.abs(z).max():.3e}); null space is probably not the "
            f"constant vector")
    beta = float(v[j] / z[j])
    u = v - beta * z
    u -= u.mean()
    au = np.empty(n)
    au[fac._perm] = fac._mat @ u[fac._perm]
    au[j] -= d * u[j]
    resid = np.abs(au + beta - rhs).max()
    scale = max(np.abs(rhs).max(), np.abs(u).max(), 1.0)
    if not resid <= _BORDERED_RTOL * scale * max(1.0, abs(beta)):
        raise SingularMatrixError(
            f"bordered solve residual {resid:.3e} too large; null space is "
            f"probably not the constant vector")
    return u, beta


def smallest_eigenvalues(mat, count, points, sigma):
    """Eigenvalues of smallest magnitude, sorted by |lambda|.

    Uses shift-invert ARPACK around `sigma`, which must not be an
    eigenvalue.  The shifted matrix is factored in the nested-dissection
    order of `points`, the unknowns' (n, d) positions, and each ARPACK
    product is a refined `Factorization.solve`: the bare single-precision
    solve is too rough for the eigenpair residual check.  Falls back to a dense solve for small matrices or
    when count is too close to the dimension.  Intended for real
    nonpositive spectra, where any sigma > 0 preserves the by-magnitude
    ordering.
    """
    mat = sp.csc_matrix(mat)
    n = mat.shape[0]
    if count < 1 or count > n:
        raise ValueError(f"count must be in [1, {n}], got {count}")

    if n <= _DENSE_EIG_LIMIT or count > n - 2:
        vals = np.linalg.eigvals(mat.toarray())
        order = np.argsort(np.abs(vals), kind="stable")
        return vals[order][:count]

    sigma = float(sigma)
    fac = Factorization(mat - sigma * sp.identity(n, format="csc"), points)
    op = spla.LinearOperator((n, n), matvec=fac.solve, dtype=float)
    v0 = np.ones(n) / np.sqrt(n)  # fixed start vector for determinism
    evals, evecs = spla.eigs(op, k=count, which="LM", v0=v0)
    evals = 1.0 / evals + sigma
    # residual check against the original matrix
    res = np.linalg.norm(mat @ evecs - evecs * evals, axis=0)
    scale = np.maximum(np.abs(evals), 1.0)
    if np.any(res / scale > _EIG_RESIDUAL_TOL):
        raise SingularMatrixError(
            f"eigensolver residual {res.max():.3e} exceeds "
            f"{_EIG_RESIDUAL_TOL:.1e}")
    order = np.argsort(np.abs(evals), kind="stable")
    return evals[order]


def resolvent_entry_report(mat_reduced, sigmas, h):
    """Entrywise study of (I - k A)^{-1} for k = sigma h^2.

    Returns a list of dicts with keys sigma, min_entry, max_rowsum_dev,
    invertible.  Dense inversion, so mat_reduced must be modest in size.
    """
    a = sp.csr_matrix(mat_reduced)
    n = a.shape[0]
    if n > _DENSE_INVERSE_LIMIT:
        raise ValueError(f"resolvent report needs a dense inverse; "
                         f"n={n} exceeds limit {_DENSE_INVERSE_LIMIT}")
    dense = a.toarray()
    eye = np.eye(n)
    out = []
    for sigma in sigmas:
        k = float(sigma) * h * h
        try:
            inv = np.linalg.inv(eye - k * dense)
            ok = bool(np.isfinite(inv).all())
        except np.linalg.LinAlgError:
            ok = False
        out.append({
            "sigma": float(sigma),
            "min_entry": float(inv.min()) if ok else np.nan,
            "max_rowsum_dev": (float(np.abs(inv.sum(axis=1) - 1.0).max())
                               if ok else np.nan),
            "invertible": ok,
        })
    return out
