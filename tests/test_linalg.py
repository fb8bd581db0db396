import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slowfeat import linalg, sfa
from slowfeat.errors import (
    DegenerateCovariance,
    EmptyTrainingSet,
    InvalidDimension,
    InvalidMatrix,
    NotPSD,
)

import oracles

EIG_ATOL = 1e-8
RESIDUAL_RTOL = 1e-7

DIM = st.integers(min_value=2, max_value=8)
SEED = st.integers(min_value=0, max_value=10_000)


def random_symmetric(rng, n, scale=1.0):
    m = rng.normal(size=(n, n)) * scale
    return (m + m.T) / 2.0


def random_spd(rng, n):
    m = rng.normal(size=(n, n))
    return m @ m.T + 0.1 * np.eye(n)


# ---------------------------------------------------------------------------
# the Jacobi oracle itself, cross-checked on analytic 2x2 cases


def test_oracle_jacobi_diagonal_matrix():
    vals, vecs = oracles.jacobi_eig(np.diag([5.0, 2.0]))
    assert np.allclose(vals, [2.0, 5.0], atol=0)
    assert np.allclose(np.abs(vecs), np.eye(2)[:, ::-1], atol=0)


def test_oracle_jacobi_analytic_offdiagonal():
    # [[0, 1], [1, 0]] has eigenpairs (-1, (1,-1)/sqrt2) and (1, (1,1)/sqrt2)
    vals, vecs = oracles.jacobi_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(vals, [-1.0, 1.0], atol=1e-14)
    r = 1.0 / np.sqrt(2.0)
    assert np.allclose(np.abs(vecs[:, 0]), [r, r], atol=1e-14)
    assert np.allclose(np.abs(vecs[:, 1]), [r, r], atol=1e-14)


def test_oracle_jacobi_analytic_general_2x2():
    # [[2, 1], [1, 2]]: eigenvalues 1 and 3
    vals, _ = oracles.jacobi_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(vals, [1.0, 3.0], atol=1e-14)


# ---------------------------------------------------------------------------
# sym_eig


def test_sym_eig_diagonal():
    res = linalg.sym_eig(np.diag([3.0, -1.0, 2.0]))
    assert np.allclose(res.eigenvalues, [-1.0, 2.0, 3.0], atol=0)


def test_sym_eig_matches_jacobi_oracle_on_random_8x8():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = random_symmetric(rng, 8, scale=3.0)
        res = linalg.sym_eig(m)
        ref_vals, _ = oracles.jacobi_eig(m)
        assert np.max(np.abs(res.eigenvalues - ref_vals)) < EIG_ATOL


@settings(max_examples=60, deadline=None)
@given(DIM, SEED)
def test_sym_eig_invariants(n, seed):
    rng = np.random.default_rng(seed)
    m = random_symmetric(rng, n, scale=2.0)
    res = linalg.sym_eig(m)
    lam, v = res.eigenvalues, res.eigenvectors
    # ascending order
    assert np.all(np.diff(lam) >= 0)
    # residual against the original matrix
    scale = max(np.abs(m).max(), 1e-30)
    assert np.max(np.abs(m @ v - v * lam)) < 1e-8 * scale
    # orthonormal columns
    assert np.max(np.abs(v.T @ v - np.eye(n))) < 1e-10
    # sign convention: largest-magnitude entry of each column positive
    for j in range(n):
        assert v[np.abs(v[:, j]).argmax(), j] > 0


def test_sym_eig_rejects_asymmetric():
    with pytest.raises(InvalidMatrix):
        linalg.sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_sym_eig_rejects_nonsquare_and_nonfinite():
    with pytest.raises(InvalidMatrix):
        linalg.sym_eig(np.zeros((2, 3)))
    with pytest.raises(InvalidMatrix, match="empty"):
        linalg.sym_eig(np.zeros((0, 0)))
    with pytest.raises(InvalidMatrix):
        linalg.sym_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# gen_eig_sym


def test_gen_eig_diagonal_hand_case():
    # a = diag(2, 1), b = diag(1, 4): eigenvalues of b^-1 a are 2 and 0.25
    a = np.diag([2.0, 1.0])
    b = np.diag([1.0, 4.0])
    res = linalg.gen_eig_sym(a, b)
    assert np.allclose(res.eigenvalues, [0.25, 2.0], atol=1e-12)
    # generalized normalization w^T b w = 1: vectors (0, 1/2) and (1, 0)
    assert np.allclose(np.abs(res.eigenvectors[:, 0]), [0.0, 0.5], atol=1e-12)
    assert np.allclose(np.abs(res.eigenvectors[:, 1]), [1.0, 0.0], atol=1e-12)


def test_gen_eig_identity_constraint_reduces_to_sym_eig():
    rng = np.random.default_rng(3)
    m = random_symmetric(rng, 5)
    res = linalg.gen_eig_sym(m, np.eye(5))
    ref = linalg.sym_eig(m)
    assert np.allclose(res.eigenvalues, ref.eigenvalues, atol=1e-10)


@settings(max_examples=60, deadline=None)
@given(DIM, SEED)
def test_gen_eig_invariants_on_spd_pairs(n, seed):
    rng = np.random.default_rng(seed)
    a = random_symmetric(rng, n)
    b = random_spd(rng, n)
    res = linalg.gen_eig_sym(a, b)
    lam, w = res.eigenvalues, res.eigenvectors
    assert np.all(np.diff(lam) >= 0)
    # residual of the pencil
    bound = RESIDUAL_RTOL * (np.abs(a).max() + np.abs(b).max())
    assert np.max(np.abs(a @ w - (b @ w) * lam)) < bound
    # b-orthonormal columns
    gram = w.T @ b @ w
    assert np.max(np.abs(gram - np.eye(w.shape[1]))) < 1e-8


@settings(max_examples=40, deadline=None)
@given(DIM, SEED)
def test_gen_eig_matches_brute_force_inverse(n, seed):
    rng = np.random.default_rng(seed)
    a = random_symmetric(rng, n)
    b = random_spd(rng, n)
    res = linalg.gen_eig_sym(a, b)
    ref = oracles.brute_force_gen_eig_values(a, b)
    assert np.max(np.abs(res.eigenvalues - ref)) < EIG_ATOL


@pytest.mark.parametrize("seed", range(12))
def test_gen_eig_matches_the_sym_eig_route_byte_for_byte(seed):
    # full-rank and rank-deficient constraints, up to a desk-scale D
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 120))
    a = random_symmetric(rng, n)
    factor = rng.normal(size=(n, n if seed % 2 else n // 2 + 1))
    b = factor @ factor.T
    res = linalg.gen_eig_sym(a, b)
    values, vectors = oracles.sym_eig_route_gen_eig(a, b)
    assert res.eigenvalues.tobytes() == values.tobytes()
    assert res.eigenvectors.tobytes() == vectors.tobytes()


def test_gen_eig_rank_truncation():
    # b has rank 1, so only one eigenpair survives
    b = np.array([[1.0, 0.0], [0.0, 0.0]])
    a = np.diag([3.0, 7.0])
    res = linalg.gen_eig_sym(a, b)
    assert res.eigenvalues.shape == (1,)
    assert np.allclose(res.eigenvalues, [3.0], atol=1e-12)


def test_gen_eig_rejects_not_psd():
    with pytest.raises(NotPSD):
        linalg.gen_eig_sym(np.eye(2), np.diag([1.0, -1.0]))


def test_gen_eig_rejects_zero_constraint():
    with pytest.raises(DegenerateCovariance):
        linalg.gen_eig_sym(np.eye(2), np.zeros((2, 2)))


def test_gen_eig_rejects_shape_mismatch():
    with pytest.raises(InvalidMatrix):
        linalg.gen_eig_sym(np.eye(2), np.eye(3))


# ---------------------------------------------------------------------------
# pca_fit


def test_pca_line_in_the_plane():
    # points on y = 2x: first direction (1, 2)/sqrt(5), second eigenvalue 0
    t = np.linspace(-1.0, 1.0, 9)
    data = np.stack([t, 2.0 * t], axis=1)
    model = linalg.pca_fit(data, 2)
    direction = np.array([1.0, 2.0]) / np.sqrt(5.0)
    assert np.allclose(np.abs(model.projection[0]), direction, atol=1e-12)
    assert abs(model.explained_eigenvalues[1]) < 1e-12


def test_pca_explained_matches_jacobi_oracle():
    rng = np.random.default_rng(11)
    data = rng.normal(size=(40, 5)) @ np.diag([3.0, 2.0, 1.0, 0.5, 0.1])
    model = linalg.pca_fit(data, 5)
    centered = data - data.mean(axis=0)
    cov = centered.T @ centered / (len(data) - 1)
    ref_vals, _ = oracles.jacobi_eig(cov)
    assert np.allclose(model.explained_eigenvalues, ref_vals[::-1], atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=6), SEED)
def test_pca_full_rank_preserves_total_variance(n, seed):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(30, n))
    model = linalg.pca_fit(data, n)
    total = np.var(data, axis=0, ddof=1).sum()
    assert abs(model.explained_eigenvalues.sum() - total) < 1e-8 * max(total, 1.0)
    # orthonormal projection rows
    gram = model.projection @ model.projection.T
    assert np.max(np.abs(gram - np.eye(n))) < 1e-10


def test_pca_transform_centers_data():
    rng = np.random.default_rng(0)
    data = rng.normal(size=(50, 4)) + 7.0
    model = linalg.pca_fit(data, 2)
    out = model.transform(data)
    assert out.shape == (50, 2)
    assert np.max(np.abs(out.mean(axis=0))) < 1e-10


@pytest.mark.parametrize("seed", range(8))
def test_pca_matches_the_centered_copy_oracle(seed):
    rng = np.random.default_rng(seed)
    n, dim = int(rng.integers(2, 60)), int(rng.integers(1, 9))
    data = rng.normal(size=(n, dim)) * rng.uniform(0.1, 5.0, size=dim) \
        + rng.normal(scale=10.0, size=dim)
    out_dim = int(rng.integers(1, dim + 1))
    model = linalg.pca_fit(data, out_dim)
    mean, projection, explained = oracles.centered_pca(data, out_dim)
    assert np.abs(model.mean - mean).max() <= 1e-12 * np.abs(mean).max()
    assert np.abs(model.explained_eigenvalues - explained).max() \
        <= 1e-12 * explained.max()
    assert np.abs(model.projection - projection).max() <= 1e-12


def test_pca_rejects_bad_out_dim():
    data = np.zeros((10, 3))
    with pytest.raises(InvalidDimension):
        linalg.pca_fit(data, 4)
    with pytest.raises(InvalidDimension):
        linalg.pca_fit(data, 0)


def test_pca_rejects_too_few_samples():
    with pytest.raises(EmptyTrainingSet):
        linalg.pca_fit(np.zeros((1, 3)), 1)


@pytest.mark.parametrize("chunk", [1, 3, linalg.CHUNK])
def test_pca_of_minisequences_is_pca_of_their_rows(chunk, monkeypatch):
    # the rows of (n, length, dim) minisequences, in chunks of any size
    rng = np.random.default_rng(chunk)
    data = rng.normal(size=(7, 4, 5)) * [3.0, 2.0, 1.0, 0.5, 0.1] + 4.0
    rows = linalg.pca_fit(data.reshape(-1, 5), 3)
    monkeypatch.setattr(linalg, "CHUNK", chunk)
    model = linalg.pca_fit(data, 3)
    assert np.abs(model.mean - rows.mean).max() \
        <= 1e-12 * np.abs(rows.mean).max()
    assert np.abs(model.explained_eigenvalues
                  - rows.explained_eigenvalues).max() \
        <= 1e-12 * rows.explained_eigenvalues.max()
    assert np.abs(model.projection - rows.projection).max() <= 1e-12


@pytest.mark.parametrize("shape", [(6,), (2, 3, 4, 5)])
def test_pca_rejects_data_that_is_not_rows_or_minisequences(shape):
    with pytest.raises(InvalidMatrix):
        linalg.pca_fit(np.ones(shape), 1)


# ---------------------------------------------------------------------------
# sequence_moments


def accumulate(seqs):
    """(b, a, count_b, count_a) of equal-length minisequences."""
    _, b, a, count_b, count_a = linalg.sequence_moments(seqs)
    return b, a, count_b, count_a


def test_accumulate_hand_case():
    # two 1-D minisequences [0, 2] and [0, -2]:
    # global mean 0, B = mean of squares = 2, A = mean of {4, 4} = 4
    b, a, count_b, count_a = accumulate(
        [np.array([[0.0], [2.0]]), np.array([[0.0], [-2.0]])])
    assert np.allclose(b, [[2.0]], atol=0)
    assert np.allclose(a, [[4.0]], atol=0)
    assert count_b == 4
    assert count_a == 2


def test_accumulate_exact_symmetry_and_psd():
    rng = np.random.default_rng(5)
    b, a, _, _ = accumulate(rng.normal(size=(7, rng.integers(2, 9), 6)))
    assert np.abs(b - b.T).max() == 0.0
    assert np.abs(a - a.T).max() == 0.0
    assert np.linalg.eigvalsh(b).min() > -1e-10
    assert np.linalg.eigvalsh(a).min() > -1e-10


@pytest.mark.parametrize("shape", [(linalg.CHUNK, 4, 230), (1, 5, 1325)])
def test_moments_are_exactly_symmetric_at_training_shapes(shape):
    # a desk training chunk (CHUNK minisequences of 4 rows of the 230-d
    # expansion) and a few rows of the paper tier's 1,325-d expansion:
    # numpy's Gram products come back exactly symmetric, unsymmetrized
    rng = np.random.default_rng(11)
    _, b, a, _, _ = linalg.sequence_moments(rng.normal(size=shape))
    assert np.array_equal(b, b.T)
    assert np.array_equal(a, a.T)


def test_accumulate_constant_minisequence_gives_zero_a():
    seq = np.ones((5, 3)) * 2.5
    b, a, count_b, count_a = accumulate([seq])
    assert np.abs(a).max() == 0.0
    assert np.abs(b).max() < 1e-28
    assert count_b == 5
    assert count_a == 4


def test_accumulate_boundaries_not_crossed():
    # one long sequence vs the same data split in two: B identical,
    # A loses exactly the difference across the split point
    rng = np.random.default_rng(9)
    data = rng.normal(size=(10, 3))
    b1, _, _, na1 = accumulate([data])
    b2, a2, _, na2 = accumulate(data.reshape(2, 5, 3))
    assert np.allclose(b1, b2, atol=1e-15)
    assert na1 == 9 and na2 == 8
    assert np.allclose(a2, oracles.loop_moments([data[:5], data[5:]])[2],
                       atol=1e-15)


@settings(max_examples=40, deadline=None)
@given(SEED, st.integers(min_value=1, max_value=5))
def test_accumulate_matches_loop_oracle(seed, n_seqs):
    rng = np.random.default_rng(seed)
    seqs = rng.normal(size=(n_seqs, int(rng.integers(1, 7)), 3))
    b, a, count_b, count_a = accumulate(seqs)
    _, rb, ra, rn, rna = oracles.loop_moments(seqs)
    assert count_b == rn
    assert count_a == rna
    assert np.max(np.abs(b - rb)) < 1e-10
    assert np.max(np.abs(a - ra)) < 1e-10


def test_accumulate_rejects_empty():
    with pytest.raises(EmptyTrainingSet):
        linalg.sequence_moments(np.zeros((0, 4, 3)))
    with pytest.raises(EmptyTrainingSet):
        linalg.sequence_moments([])


def test_accumulate_rejects_mixed_dims():
    with pytest.raises(InvalidDimension):
        sfa.fit_usfa([np.zeros((3, 2)), np.zeros((3, 4))], pca_dim=1, k=1)
    with pytest.raises(InvalidDimension):
        linalg.sequence_moments([np.zeros((3, 2)), np.zeros((3, 4))])


def test_moments_reject_ragged_minisequences():
    # minisequences of different lengths do not form one array
    ragged = [np.zeros((3, 2)), np.zeros((4, 2))]
    with pytest.raises(InvalidDimension):
        linalg.sequence_moments(ragged)
    for fit in (lambda m: sfa.fit_usfa(m, pca_dim=1, k=1),
                lambda m: sfa.fit_ssfa(m, [0, 0], pca_dim=1, k_per_class=1),
                lambda m: sfa.fit_dsfa(m, [0, 1], pca_dim=1, k_per_class=1),
                lambda m: sfa.fit_sdsfa(m, [0, 1], [0, 0], (1, 1), pca_dim=1,
                                        k_per_class=1)):
        with pytest.raises(InvalidDimension):
            fit(ragged)
    # nor does a flat (n, dim) stack of rows
    with pytest.raises(InvalidDimension):
        linalg.sequence_moments(np.zeros((5, 3)))


def test_moments_reject_non_finite_rows():
    minis = np.zeros((2, 2, 2))
    minis[1, 0, 1] = np.nan
    with pytest.raises(InvalidMatrix):
        linalg.sequence_moments(minis)


# ---------------------------------------------------------------------------
# merge_moments


def relative(got, expected):
    return np.abs(got - expected).max() / max(np.abs(expected).max(), 1e-300)


@settings(max_examples=40, deadline=None)
@given(SEED, st.integers(min_value=1, max_value=6))
def test_merged_splits_match_moments_of_the_whole(seed, n_parts):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_parts, 40))
    length = int(rng.integers(1, 6))
    minis = rng.normal(size=(n, length, 4)) * [1.0, 3.0, 0.2, 8.0] \
        + rng.normal(scale=5.0, size=4)
    # uneven splits: n_parts non-empty slices at random cut points
    cuts = np.sort(rng.choice(np.arange(1, n), size=n_parts - 1,
                              replace=False)) if n_parts > 1 else []
    parts = np.split(minis, cuts)
    mean, b, a, count_b, count_a = linalg.merge_moments(
        linalg.sequence_moments(p) for p in parts)
    r_mean, r_b, r_a, r_count_b, r_count_a = linalg.sequence_moments(minis)
    assert (count_b, count_a) == (r_count_b, r_count_a)
    assert relative(mean, r_mean) <= 1e-12
    assert relative(b, r_b) <= 1e-12
    if length > 1:
        assert relative(a, r_a) <= 1e-12
    else:
        assert not a.any()
    assert np.array_equal(b, b.T) and np.array_equal(a, a.T)


def test_merge_does_not_change_its_parts():
    rng = np.random.default_rng(3)
    parts = [linalg.sequence_moments(rng.normal(size=(5, 3, 2)) + i)
             for i in range(3)]
    copies = [tuple(np.copy(v) for v in p) for p in parts]
    linalg.merge_moments(parts)
    for p, c in zip(parts, copies):
        assert all(np.array_equal(u, v) for u, v in zip(p, c))


def test_merge_of_nothing_is_empty():
    with pytest.raises(EmptyTrainingSet):
        linalg.merge_moments([])
