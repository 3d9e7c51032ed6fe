"""BSRBlocks: round-trips, refactor pinning, and layout validation.

The index-only BSR layout is the single block representation — every test
here pins it against the representation it replaced:

* each nonzero's (row, col) rebuilds from the layout, and ``dense_block``
  tiles hold every CSR value bit for bit, over the nasty shapes (ragged
  edges, empty matrix, single occupied block, the non-canonical suite
  matrices 2257/2259 at the paper's b=7);
* the ``block_of_nnz``-derived exponent statistics and ``quantize`` match
  the old ``reduceat``-over-block-grouped-data formulas bit for bit
  (including the subnormal/EXP_ZERO corner);
* ``from_bsr`` lazily re-derives the legacy grouping arrays identically.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.formats import ieee
from repro.formats.refloat import ReFloatSpec, quantize_values
from repro.sparse import BlockedMatrix, BSRBlocks
from repro.sparse.gallery import build_matrix, laplacian_2d


def random_float_array(rng, n, exp_range=(-20, 20), include_zero=False):
    """Random finite doubles with a controlled exponent spread."""
    vals = rng.standard_normal(n) * np.exp2(rng.uniform(*exp_range, n))
    if include_zero and n > 2:
        vals[rng.integers(0, n, max(1, n // 10))] = 0.0
    return vals


def _random_sparse(rng, n_rows, n_cols, density):
    nnz = max(1, int(n_rows * n_cols * density))
    rows = rng.integers(0, n_rows, nnz)
    cols = rng.integers(0, n_cols, nnz)
    vals = random_float_array(rng, nnz)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n_rows, n_cols))


def _cases():
    rng = np.random.default_rng(20240807)
    yield "ragged-square", BlockedMatrix(_random_sparse(rng, 29, 29, 0.1), b=2)
    yield "ragged-rect", BlockedMatrix(_random_sparse(rng, 24, 17, 0.15), b=3)
    yield "laplacian", BlockedMatrix(laplacian_2d(7), b=3)
    yield "empty", BlockedMatrix(sp.csr_matrix((16, 16)), b=2)
    single = sp.csr_matrix((np.array([1.5, -2.25, 3.0]),
                            (np.array([9, 10, 11]), np.array([8, 9, 10]))),
                           shape=(32, 32))
    yield "single-block", BlockedMatrix(single, b=3)
    sub = _random_sparse(rng, 40, 40, 0.1)
    sub.data[::3] = np.ldexp(sub.data[::3], -1070)   # subnormal values
    sub.eliminate_zeros()
    yield "subnormal", BlockedMatrix(sub, b=2)
    yield "suite-2257", BlockedMatrix(build_matrix(2257, "test"), b=7)
    yield "suite-2259", BlockedMatrix(build_matrix(2259, "test"), b=7)


CASES = dict(_cases())


@pytest.fixture(params=sorted(CASES), scope="module")
def bm(request):
    return CASES[request.param]


# ----------------------------------------------------------------------
# Legacy reduceat-based references (the pre-BSR formulas, verbatim).


def _ref_cover_bases(bm, e):
    exps = ieee.decompose(bm.A.data)[1]
    mx = np.maximum.reduceat(exps[bm.order], bm.group_starts).astype(np.int64)
    hi = (1 << (e - 1)) - 1 if e > 0 else 0
    return (mx - hi).astype(np.int32)


def _ref_block_eb(bm):
    exps = ieee.decompose(bm.A.data)[1]
    sums = np.add.reduceat(exps[bm.order].astype(np.float64),
                           bm.group_starts)
    return np.floor(sums / bm.block_nnz + 0.5).astype(np.int32)


def _ref_exponent_range(bm):
    exps = ieee.decompose(bm.A.data)[1]
    grouped = exps[bm.order]
    mx = np.maximum.reduceat(grouped, bm.group_starts).astype(np.int64)
    mn = np.minimum.reduceat(grouped, bm.group_starts).astype(np.int64)
    return (mx - mn).astype(np.int32)


def _ref_per_nnz_eb(bm, e, policy):
    bases = (_ref_block_eb(bm) if policy == "mean"
             else _ref_cover_bases(bm, e))
    per = np.empty(bm.nnz, dtype=np.int32)
    per[bm.order] = np.repeat(bases, bm.block_nnz)
    return per


# ----------------------------------------------------------------------


def _csr_coords(A):
    rows = np.repeat(np.arange(A.shape[0], dtype=np.int64), np.diff(A.indptr))
    return rows, A.indices.astype(np.int64)


class TestRoundTrip:
    def test_csr_bsr_csr_bit_identical(self, bm):
        # Block row/col x 2^b plus the in-block offset rebuilds every
        # nonzero's position in the canonical CSR pattern.
        bsr, size = bm.bsr, bm.block_size
        rows, cols = _csr_coords(bm.A)
        g = bsr.block_of_nnz
        np.testing.assert_array_equal(
            bsr.block_rows[g] * size + (rows & (size - 1)), rows)
        np.testing.assert_array_equal(
            bsr.indices.astype(np.int64)[g] * size + (cols & (size - 1)), cols)
        bsr.check_matches(bm.A)

    def test_csr_data_gather_bit_identical(self, bm):
        # Every occupied block's tile holds its nonzeros at their in-block
        # cells, bit for bit.
        size = bm.block_size
        rows, cols = _csr_coords(bm.A)
        g = bm.bsr.block_of_nnz
        got = np.full(bm.nnz, np.nan)
        for k, (bi, bj) in enumerate(zip(*bm.block_coords())):
            tile = bm.dense_block(int(bi), int(bj))
            sel = g == k
            got[sel] = tile[rows[sel] & (size - 1), cols[sel] & (size - 1)]
        np.testing.assert_array_equal(got.view(np.uint64),
                                      bm.A.data.view(np.uint64))

    def test_tensor_accounts_every_nonzero(self, bm):
        bsr = bm.bsr
        assert bsr.block_of_nnz.shape == (bm.nnz,)
        assert bsr.block_of_nnz.dtype == bm.A.indices.dtype
        assert int(bsr.block_nnz.sum()) == bm.nnz
        assert bm.n_blocks == 0 or int(bsr.block_nnz.min()) > 0
        np.testing.assert_array_equal(bsr.block_nnz, bm.block_nnz)

    def test_block_addressing_matches_block_keys(self, bm):
        bsr = bm.bsr
        nbc = bm.block_grid[1]
        keys = bsr.block_rows * nbc + bsr.indices.astype(np.int64)
        np.testing.assert_array_equal(keys, bm.block_keys)


class TestRefactorPinning:
    def test_cover_bases_match_reduceat(self, bm):
        for e in (0, 3, 5):
            np.testing.assert_array_equal(bm.exponent_bases(e, "cover"),
                                          _ref_cover_bases(bm, e))

    def test_block_eb_matches_reduceat(self, bm):
        np.testing.assert_array_equal(bm.block_eb, _ref_block_eb(bm))

    def test_exponent_range_matches_reduceat(self, bm):
        np.testing.assert_array_equal(bm.block_exponent_range,
                                      _ref_exponent_range(bm))

    def test_per_nnz_eb_matches_double_permutation(self, bm):
        for policy in ("cover", "mean"):
            np.testing.assert_array_equal(bm.per_nnz_eb(3, policy),
                                          _ref_per_nnz_eb(bm, 3, policy))

    def test_quantize_bit_identical_to_reference(self, bm):
        spec = ReFloatSpec(b=bm.b, e=3, f=3, ev=3, fv=8)
        Q = bm.quantize(spec)
        qdata, _ = quantize_values(bm.A.data, spec.e, spec.f,
                                   eb=_ref_per_nnz_eb(bm, spec.e,
                                                      spec.eb_policy),
                                   rounding=spec.rounding,
                                   underflow=spec.underflow)
        np.testing.assert_array_equal(Q.data, qdata)
        np.testing.assert_array_equal(Q.indices, bm.A.indices)
        np.testing.assert_array_equal(Q.indptr, bm.A.indptr)

    def test_dense_block_matches_scipy_slice(self, bm):
        size = bm.block_size
        bi_all, bj_all = bm.block_coords()
        probe = list(zip(bi_all[:8], bj_all[:8]))
        # Also probe an unoccupied block when the grid has room.
        occupied = set(zip(bi_all.tolist(), bj_all.tolist()))
        for bi in range(bm.block_grid[0]):
            for bj in range(bm.block_grid[1]):
                if (bi, bj) not in occupied:
                    probe.append((bi, bj))
                    break
            else:
                continue
            break
        for bi, bj in probe:
            ref = np.zeros((size, size))
            chunk = bm.A[bi * size:(bi + 1) * size,
                         bj * size:(bj + 1) * size].toarray()
            ref[:chunk.shape[0], :chunk.shape[1]] = chunk
            np.testing.assert_array_equal(bm.dense_block(int(bi), int(bj)),
                                          ref)

    def test_dense_block_bounds(self, bm):
        with pytest.raises(IndexError, match="outside grid"):
            bm.dense_block(bm.block_grid[0], 0)


class TestFromBsr:
    def test_grouping_arrays_rederive_identically(self, bm):
        back = BlockedMatrix.from_bsr(bm.A, bm.bsr)
        np.testing.assert_array_equal(back.order, bm.order)
        np.testing.assert_array_equal(back.group_starts, bm.group_starts)
        np.testing.assert_array_equal(back.block_keys, bm.block_keys)
        np.testing.assert_array_equal(back.block_nnz, bm.block_nnz)
        assert back.b == bm.b and back.block_grid == bm.block_grid

    def test_statistics_identical_through_from_bsr(self, bm):
        back = BlockedMatrix.from_bsr(bm.A, bm.bsr)
        np.testing.assert_array_equal(back.block_eb, bm.block_eb)
        np.testing.assert_array_equal(back.exponent_bases(3, "cover"),
                                      bm.exponent_bases(3, "cover"))
        spec = ReFloatSpec(b=bm.b, e=3, f=3, ev=3, fv=8)
        np.testing.assert_array_equal(back.quantize(spec).data,
                                      bm.quantize(spec).data)

    def test_shape_and_nnz_mismatch_rejected(self, bm):
        if bm.nnz == 0:
            pytest.skip("needs nonzeros")
        wrong = sp.csr_matrix((bm.shape[0] + bm.block_size, bm.shape[1]))
        with pytest.raises(ValueError, match="shape"):
            BlockedMatrix.from_bsr(wrong, bm.bsr)
        truncated = bm.A[:, :].copy()
        truncated.data[0] = 0.0
        truncated.eliminate_zeros()
        with pytest.raises(ValueError, match="nonzeros"):
            BlockedMatrix.from_bsr(truncated, bm.bsr)


class TestLayoutValidation:
    def test_structural_checks(self):
        bm = CASES["laplacian"]
        bsr = bm.bsr
        args = dict(b=bsr.b, shape=bsr.shape, indptr=bsr.indptr,
                    indices=bsr.indices, block_of_nnz=bsr.block_of_nnz)
        BSRBlocks(**args)  # the genuine layout validates
        with pytest.raises(ValueError, match="1-D integer"):
            BSRBlocks(**{**args,
                         "block_of_nnz": bsr.block_of_nnz.astype(np.float64)})
        with pytest.raises(ValueError, match="1-D integer"):
            BSRBlocks(**{**args, "block_of_nnz": bsr.block_of_nnz[:, None]})
        with pytest.raises(ValueError, match="indptr must have"):
            BSRBlocks(**{**args, "indptr": bsr.indptr[:-1]})
        bad_ptr = bsr.indptr.copy()
        bad_ptr[-1] += 1
        with pytest.raises(ValueError, match="indptr must run"):
            BSRBlocks(**{**args, "indptr": bad_ptr})
        with pytest.raises(ValueError, match="block columns must lie"):
            BSRBlocks(**{**args, "indices": bsr.indices + bsr.block_grid[1]})
        with pytest.raises(ValueError, match="strictly ascending"):
            BSRBlocks(**{**args, "indices": bsr.indices[::-1].copy()})
        with pytest.raises(ValueError, match="block_of_nnz entries must lie"):
            BSRBlocks(**{**args,
                         "block_of_nnz": bsr.block_of_nnz + bsr.n_blocks})
        with pytest.raises(ValueError, match="block_of_nnz entries must lie"):
            BSRBlocks(**{**args, "block_of_nnz": bsr.block_of_nnz - 1})

    def test_check_matches_rejects_swapped_blocks(self):
        bm = CASES["laplacian"]
        bsr = bm.bsr
        bsr.check_matches(bm.A)   # genuine layout passes
        g = bsr.block_of_nnz
        j = int(np.flatnonzero(g != g[0])[0])
        swapped = g.copy()
        swapped[[0, j]] = g[[j, 0]]
        # In range and every block still occupied: only the per-nonzero
        # block check can tell.
        tampered = BSRBlocks(bsr.b, bsr.shape, bsr.indptr, bsr.indices,
                             swapped)
        with pytest.raises(ValueError, match="wrong block"):
            tampered.check_matches(bm.A)

    def test_check_matches_rejects_another_matrix(self):
        bm = CASES["laplacian"]
        with pytest.raises(ValueError, match="layout is for"):
            bm.bsr.check_matches(CASES["ragged-square"].A)
        fewer = bm.A.copy()
        fewer.data[0] = 0.0
        fewer.eliminate_zeros()
        with pytest.raises(ValueError, match="layout is for"):
            bm.bsr.check_matches(fewer)

    def test_check_matches_rejects_an_empty_block(self):
        bm = CASES["single-block"]           # one block, at (1, 1)
        bsr = bm.bsr
        padded = BSRBlocks(bsr.b, bsr.shape, np.array([0, 0, 2, 2, 2]),
                           np.array([1, 2]), bsr.block_of_nnz)
        with pytest.raises(ValueError, match="no nonzero"):
            padded.check_matches(bm.A)
