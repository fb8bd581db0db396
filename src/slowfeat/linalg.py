"""Dense symmetric linear algebra under the slow-feature pipeline.

All routines operate on float64 numpy arrays.  Matrices passed to the
eigensolvers must be square, finite and symmetric.  ``sequence_moments``
is the one moment routine: it takes one ``(n, length, dim)`` array of
minisequences and gives their mean, covariance and derivative
covariance as the Gram products ``z.T @ z / count`` that numpy
returns, exactly symmetric: numpy computes an array's transpose times
that array as one BLAS ``syrk``, which fills one triangle and copies
it into the other, and its loop without BLAS sums the same products in
the same order for entries (i, j) and (j, i).  ``merge_moments``
combines the moments of disjoint sets into those of their union by the
pairwise update of Chan, Golub and LeVeque (1979), in place on
unnormalized sums, so a large set is taken in chunks with one chunk in
memory at a time, and the cells of a region pool the same way.
``pca_fit``, the one PCA fit for rows and minisequences alike, merges
its rows' moments in chunks of ``CHUNK`` by the same two routines.

The generalized solver follows the whitening route: eigendecompose the
constraint matrix, drop near-null directions relative to its largest
eigenvalue, and solve an ordinary symmetric problem in the whitened
coordinates.  Eigenvalues always come back in ascending order, so the
slowest directions sit first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateCovariance,
    EmptyTrainingSet,
    InvalidDimension,
    InvalidMatrix,
    NotPSD,
)

# Constraint-matrix directions below this fraction of the largest
# eigenvalue are treated as null space and discarded.
REL_CUTOFF = 1e-8

# Rows or minisequences per chunk wherever a large set is reduced to
# moments (here and in sfa training), and cuboids per featurize batch.
CHUNK = 1024

# Allowed relative asymmetry / negativity before an input is rejected.
_SYMMETRY_RTOL = 1e-10
_PSD_RTOL = 1e-8
_PSD_ATOL = 1e-12


@dataclass(frozen=True)
class EigenResult:
    """Eigenvalues in ascending order with eigenvectors as matching columns.

    ``eigenvectors[:, j]`` belongs to ``eigenvalues[j]``.  For the
    generalized problem the columns are normalized against the
    constraint matrix rather than the identity.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class PcaModel:
    """Mean vector plus an orthonormal ``(out_dim, in_dim)`` projection.

    Rows of ``projection`` are the leading principal directions in
    decreasing order of explained variance.
    """

    mean: np.ndarray
    projection: np.ndarray
    explained_eigenvalues: np.ndarray

    @property
    def in_dim(self) -> int:
        return self.projection.shape[1]

    @property
    def out_dim(self) -> int:
        return self.projection.shape[0]

    def transform(self, x: np.ndarray) -> np.ndarray:
        """Center and project ``x`` (a vector or rows of vectors)."""
        return (np.asarray(x, dtype=float) - self.mean) @ self.projection.T


def _symmetrize(m: np.ndarray) -> np.ndarray:
    # (m + m.T) / 2 is exactly symmetric in IEEE arithmetic because
    # addition commutes entrywise.
    return (m + m.T) / 2.0


def _check_square_sym(m, name: str = "matrix") -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidMatrix(f"{name} must be square, got shape {m.shape}")
    if m.size == 0:
        raise InvalidMatrix(f"{name} is empty")
    if not np.all(np.isfinite(m)):
        raise InvalidMatrix(f"{name} has non-finite entries")
    scale = max(float(np.abs(m).max()), 1.0)
    if float(np.abs(m - m.T).max()) > _SYMMETRY_RTOL * scale:
        raise InvalidMatrix(f"{name} is not symmetric")
    return m


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive.

    Ties resolve to the lowest row index, which argmax already gives.
    """
    rows = np.abs(vectors).argmax(axis=0)
    picked = vectors[rows, np.arange(vectors.shape[1])]
    signs = np.where(picked < 0.0, -1.0, 1.0)
    return vectors * signs


def sym_eig(m) -> EigenResult:
    """Eigendecompose a symmetric matrix.

    Parameters
    ----------
    m : array_like
        Square symmetric matrix (relative asymmetry up to 1e-10 is
        tolerated and symmetrized away).

    Returns
    -------
    EigenResult
        Eigenvalues ascending, orthonormal eigenvector columns, each
        column's largest-magnitude entry positive.

    Raises
    ------
    InvalidMatrix
        If ``m`` is not square, finite and symmetric.
    """
    m = _symmetrize(_check_square_sym(m))
    values, vectors = np.linalg.eigh(m)
    return EigenResult(values, _fix_signs(vectors))


def gen_eig_sym(a, b) -> EigenResult:
    """Solve the generalized symmetric problem ``a W = b W diag(lam)``.

    Works by whitening: eigendecompose ``b = U D U^T``, discard
    directions with ``d_i < REL_CUTOFF * max(d)``, form
    ``S = U_kept D_kept^{-1/2}``, solve the symmetrized ``S^T a S =
    V L V^T`` with ``np.linalg.eigh`` and map the vectors back as
    ``W = S V``, each column signed like ``sym_eig``'s (flipping a
    column of V flips that column of W exactly).  ``a`` may be
    indefinite; ``b`` must be positive semidefinite.

    Returns
    -------
    EigenResult
        Eigenvalues ascending.  Each returned column ``w`` satisfies
        ``w^T b w = 1``; the number of pairs equals the retained rank
        of ``b``.

    Raises
    ------
    InvalidMatrix
        Non-symmetric input or mismatched shapes.
    NotPSD
        ``b`` has an eigenvalue negative beyond tolerance.
    DegenerateCovariance
        ``b`` is numerically zero: no eigenvalue is positive.
    """
    a = _check_square_sym(a, "a")
    b = _check_square_sym(b, "b")
    if a.shape != b.shape:
        raise InvalidMatrix(f"shape mismatch: a is {a.shape}, b is {b.shape}")

    d, u = np.linalg.eigh(_symmetrize(b))
    d_max = float(d.max())
    if float(d.min()) < -(_PSD_RTOL * max(d_max, 0.0) + _PSD_ATOL):
        raise NotPSD(f"constraint matrix has eigenvalue {d.min():.3e}")
    if d_max <= 0.0:
        raise DegenerateCovariance("constraint matrix is numerically zero")

    # d_max itself passes the cutoff, so at least one direction is kept
    kept = d >= REL_CUTOFF * d_max
    s = u[:, kept] / np.sqrt(d[kept])

    values, vectors = np.linalg.eigh(_symmetrize(s.T @ a @ s))
    return EigenResult(values, _fix_signs(s @ vectors))


def pca_fit(data, out_dim: int) -> PcaModel:
    """Fit PCA on every row of ``data``.

    Parameters
    ----------
    data : array_like, shape (n, in_dim) or (n, length, in_dim)
        Rows, or minisequences whose rows are all taken; at least two.
        Minisequences that are not an array, such as
        ``cuboid.LazyCuboids`` windows, are read only by slices.
    out_dim : int
        Number of leading principal directions to keep,
        ``1 <= out_dim <= in_dim``.

    Returns
    -------
    PcaModel
        ``projection`` rows are orthonormal, ordered by decreasing
        eigenvalue of the sample covariance (denominator ``n - 1`` for
        ``n`` rows).  The moments of each ``CHUNK`` leading entries,
        each row a minisequence of one vector, are merged by
        ``merge_moments``, so one chunk's rows are held at a time.
    """
    data = _float_array_or_set(data)
    if len(data.shape) not in (2, 3):
        raise InvalidMatrix(f"data must be 2-D or 3-D, got {data.shape}")
    in_dim = data.shape[-1]
    n = math.prod(data.shape[:-1])
    if n < 2:
        raise EmptyTrainingSet(f"pca_fit needs at least 2 samples, got {n}")
    if not 1 <= out_dim <= in_dim:
        raise InvalidDimension(
            f"out_dim must be in [1, {in_dim}], got {out_dim}")
    mean, b, _, n, _ = merge_moments(
        sequence_moments(data[i:i + CHUNK].reshape(-1, 1, in_dim))
        for i in range(0, len(data), CHUNK))
    res = sym_eig(b * (n / (n - 1)))
    # sym_eig sorts ascending; take the top out_dim, largest first.
    idx = np.arange(in_dim - 1, in_dim - 1 - out_dim, -1)
    return PcaModel(
        mean=mean,
        projection=res.eigenvectors[:, idx].T.copy(),
        explained_eigenvalues=res.eigenvalues[idx].copy(),
    )


def _float_array_or_set(data):
    """``data`` as a float array, unless it is not an array but has a
    3-D ``shape``: such a set of minisequences passes through, to be
    read only by ``len``, ``shape`` and indexing."""
    if not isinstance(data, np.ndarray) and len(
            getattr(data, "shape", ())) == 3:
        return data
    return np.asarray(data, dtype=float)


def as_minisequences(minisequences):
    """Minisequences as one ``(n, length, dim)`` float array.

    Minisequences of different lengths or dimensions do not form one
    array and are rejected, as is anything that is not 3-D.  A set
    that is not an array but has a 3-D ``shape``, such as
    ``cuboid.LazyCuboids`` windows, is returned as it is: ``sfa`` and
    ``pca_fit`` read it only by ``len``, ``shape`` and indexing, each
    index giving a float array, so it is never held whole.
    """
    try:
        x = _float_array_or_set(minisequences)
    except ValueError:
        raise InvalidDimension(
            "minisequences must form one (n, length, dim) float array"
        ) from None
    if 0 in x.shape:
        raise EmptyTrainingSet("no minisequences given")
    if len(x.shape) != 3:
        raise InvalidDimension(
            f"minisequences must be (n, length, dim), got shape {x.shape}")
    return x


def sequence_moments(minisequences):
    """Mean plus second-moment matrices of equal-length minisequences.

    ``minisequences`` is one ``(n, length, dim)`` array.  Returns
    ``(mean, b, a, count_b, count_a)`` where ``mean`` is taken over all
    ``count_b = n * length`` rows, ``b`` is the mean outer product of
    the centered rows, and ``a`` is the mean outer product of the
    ``count_a = n * (length - 1)`` forward differences inside each
    minisequence (unit time step; ``a`` is zero when length is 1).
    Both matrices are Gram products, exactly symmetric as they come
    from numpy (see the module docstring).  Moments of disjoint sets,
    such as the chunks of one set, combine with ``merge_moments``.
    """
    x = as_minisequences(minisequences)
    if not np.all(np.isfinite(x)):
        raise InvalidMatrix("minisequence has non-finite entries")
    n, length, dim = x.shape
    rows = x.reshape(-1, dim)
    mean = rows.mean(axis=0)
    count_b = n * length
    z = rows - mean
    b = z.T @ z / count_b
    del z

    dz = np.diff(x, axis=1).reshape(-1, dim)
    count_a = n * (length - 1)
    if count_a:
        a = dz.T @ dz / count_a
    else:
        a = np.zeros((dim, dim))
    return mean, b, a, count_b, count_a


def merge_moments(parts):
    """Moments of the union of disjoint sets of minisequences.

    ``parts`` yields one ``sequence_moments`` result per set, such as
    one per chunk of a training set or one per cell of a region; it may
    be a generator, and only the running total and the current part are
    held.  The result reads like ``sequence_moments`` of the union.

    Each part is merged by the pairwise update of Chan, Golub and
    LeVeque (1979), in place on unnormalized sums: counts add, means
    combine weighted by their row counts, the scatters ``count_b * b``
    add plus ``n1 * n2 / n`` times the outer product of the offset
    between the two means, and the difference scatters ``count_a * a``
    add, which weights each ``a`` by its difference count.  The sums
    are normalized once at the end, and stay exactly symmetric.
    """
    count_b = count_a = 0
    for mean, b, a, n_b, n_a in parts:
        if count_b == 0:
            total_mean = np.array(mean, dtype=float)
            scatter_b, scatter_a = b * n_b, a * n_a
            work = np.empty_like(scatter_b)
            count_b, count_a = n_b, n_a
            continue
        n = count_b + n_b
        offset = mean - total_mean
        scatter_b += np.multiply(b, n_b, out=work)
        # the offset scaled on both sides keeps its outer product
        # exactly symmetric
        offset_scaled = offset * np.sqrt(count_b * n_b / n)
        scatter_b += np.outer(offset_scaled, offset_scaled, out=work)
        scatter_a += np.multiply(a, n_a, out=work)
        total_mean += offset * (n_b / n)
        count_b, count_a = n, count_a + n_a
    if count_b == 0:
        raise EmptyTrainingSet("no moments to merge")
    scatter_b /= count_b
    if count_a:
        scatter_a /= count_a
    return total_mean, scatter_b, scatter_a, count_b, count_a
