import dataclasses
import math
import time
import tracemalloc
import types

import numpy as np
import pytest
import scipy.sparse as sp

import gapsgd as G
from gapsgd.harness import SyntheticParams, build_spec, generate_synthetic
from gapsgd.problem import _cut, _gather_rows, soft_threshold
from gapsgd.solvers import (_CHUNK_ENTRIES, _columns, _compact, _one_pass_bound, _plan,
                            _resolve, _spectral_bound, inner_budget, step_gradient)

from conftest import (epoch_rows, hand_lasso, inert_screening, make_instance, spy_decided,
                      tuned_eta, wide_index)

# _RHO = inf keeps every working design sparse, _RHO = 0 makes each one dense
STORAGES = (math.inf, 0.0)


def _form(rows):
    """The storage a step's rows come from: "sparse" for the gathered entries
    (cols, vals, rp), "dense" for a (b, p) array of the dense twin."""
    if isinstance(rows, np.ndarray) and rows.ndim == 2:
        return "dense"
    assert type(rows) is tuple and len(rows) == 3
    return "sparse"


# -------------------------------------------------------------- inner budget

def test_inner_budget_matches_scaled_formula():
    assert inner_budget(100, 3, 10) == 30
    assert inner_budget(100, 10, 10) == 100
    assert inner_budget(7, 3, 10) == 3      # ceil(2.1)
    assert inner_budget(10, 0, 10) == 1     # floored at one


# -------------------------------------------------------------- determinism

def test_same_seed_gives_bitwise_identical_runs(lasso_spec):
    cfg = G.SolverConfig(seed=42, gap_tol=1e-6, max_outer=15,
                         eta=tuned_eta(lasso_spec), keep_iterates=True)
    a = G.adsgd_solve(lasso_spec, cfg)
    b = G.adsgd_solve(lasso_spec, cfg)
    assert np.array_equal(a.x_final, b.x_final)
    assert [r.gap for r in a.trace] == [r.gap for r in b.trace]
    assert [r.objective for r in a.trace] == [r.objective for r in b.trace]
    assert all(np.array_equal(u, v) for u, v in zip(a.iterates, b.iterates))


def test_different_seeds_differ(lasso_spec):
    cfg = G.SolverConfig(seed=1, max_outer=5, eta=tuned_eta(lasso_spec))
    a = G.adsgd_solve(lasso_spec, cfg)
    b = G.adsgd_solve(lasso_spec, dataclasses.replace(cfg, seed=2))
    assert not np.array_equal(a.x_final, b.x_final)


# ------------------------------------------------------ variance reduction

def test_vr_gradient_equals_snapshot_gradient_at_snapshot():
    spec = make_instance(seed=3, n=40, d=30, q=6)
    rng = np.random.default_rng(0)
    xt = rng.normal(size=30)
    mu = G.full_gradient(spec, xt)
    for batch in ([0], [5, 7], list(range(40))):
        out = G.vr_gradient(spec, xt, xt, mu, batch, 2)
        np.testing.assert_allclose(out, mu[spec.partition.groups[2]],
                                   rtol=0, atol=1e-15)


def test_vr_gradient_exhaustive_average_is_unbiased():
    spec = make_instance(seed=4, n=45, d=24, q=4, mu_p=0.05)
    rng = np.random.default_rng(1)
    x, xt = rng.normal(size=24), rng.normal(size=24)
    mu = G.full_gradient(spec, xt)
    full = G.full_gradient(spec, x)
    for blk in range(4):
        avg = np.mean([G.vr_gradient(spec, x, xt, mu, [i], blk)
                       for i in range(45)], axis=0)
        np.testing.assert_allclose(avg, full[spec.partition.groups[blk]],
                                   rtol=0, atol=1e-12)


@pytest.mark.parametrize("rho", STORAGES, ids=["sparse", "dense"])
@pytest.mark.parametrize("model", ["lasso", "logistic"])
def test_a_step_on_a_cut_design_is_unbiased_for_a_snapshot_off_it(monkeypatch, model, rho):
    """A screen may drop a block on which the row's point, the next epoch's
    snapshot, is nonzero. The epoch then runs on a working design W without
    that block, from the snapshot's columns in W, with the derivatives and
    smooth gradient of the whole snapshot. Averaged over every singleton
    batch, the engine's step (_plan and step_gradient) on each block of W is
    the exact smooth gradient at x, x being zero off W, under mu_p > 0 and
    on both storages."""
    monkeypatch.setattr(G.solvers, "_RHO", rho)
    spec = make_instance(seed=4, n=45, d=24, q=4, mu_p=0.05, model=model)
    ds, rng = spec.dataset, np.random.default_rng(1)
    work = _compact(spec, np.array([0, 2, 3]))
    f = work.features
    assert (work.dense is None) == (rho == math.inf)
    x = np.zeros(ds.d)
    x[f] = rng.normal(size=f.size)
    xt = rng.normal(size=ds.d)
    assert np.all(xt[spec.partition.groups[1]] != 0.0)  # the dropped block
    g = spec.loss.deriv(ds.A @ xt, ds.y)
    mu = G.problem.smooth_gradient(spec, xt, g)[f]
    full = G.full_gradient(spec, x)[f]
    for ib in range(work.blocks.size):
        total = 0.0
        for i in range(ds.n):
            (args, lo, hi), = _plan(work, ds.y, g, 1, np.array([[i]]), np.array([ib]))
            total = total + step_gradient(spec.loss, x[f], *args, lo, hi, mu, xt[f],
                                          spec.mu_p)
        want = full[lo:hi]
        assert np.linalg.norm(total / ds.n - want) <= 1e-12 * np.linalg.norm(want)


def test_public_gradients_run_the_kernel_of_the_design_storage(monkeypatch):
    """partial_gradient and vr_gradient each make one call of step_gradient,
    on the rows of the storage the engine would run on the uncompacted
    design: its gathered entries, or its dense twin's rows."""
    spec = make_instance(seed=4, n=45, d=24, q=4, mu_p=0.05)
    x, xt = np.ones(24), np.zeros(24)
    mu = G.full_gradient(spec, xt)
    calls, kernel = [], G.solvers.step_gradient
    monkeypatch.setattr(G.solvers, "step_gradient",
                        lambda *a: calls.append(_form(a[2])) or kernel(*a))
    for rho, form in zip(STORAGES, ("sparse", "dense")):
        monkeypatch.setattr(G.solvers, "_RHO", rho)
        calls.clear()
        G.partial_gradient(spec, x, [0, 3], 1)
        G.vr_gradient(spec, x, xt, mu, [5], 2)
        assert calls == [form, form]


@pytest.mark.parametrize("sparsity, storage", [(0.03, "sparse"), (0.5, "dense")])
def test_a_public_gradient_is_the_engines_step_bit_for_bit(monkeypatch, sparsity, storage):
    """On each step of mrbcd's second epoch, vr_gradient at the step's point,
    on its batch and block, with the epoch's snapshot (the first epoch's
    iterate) and that snapshot's full gradient, gives the bytes of the
    engine's kernel call, on the sparse storage and on the dense one."""
    spec = make_instance(seed=21, n=40, d=60, q=6, sparsity=sparsity, mu_p=0.01)
    m, steps, calls = 25, [], []
    plan, kernel = G.solvers._plan, G.solvers.step_gradient

    def spied_plan(work, y, g_snap, c, batches, ibs):
        steps.extend((work.features, b, ib) for b, ib in zip(batches, ibs))
        return plan(work, y, g_snap, c, batches, ibs)

    def spied_kernel(loss, x, rows, *rest):
        out = kernel(loss, x, rows, *rest)
        calls.append((_form(rows), x.copy(), out.copy()))
        return out

    monkeypatch.setattr(G.solvers, "_plan", spied_plan)
    monkeypatch.setattr(G.solvers, "step_gradient", spied_kernel)
    rep = G.mrbcd_solve(spec, G.SolverConfig(seed=2, m=m, max_outer=2, gap_tol=1e-14,
                                             eta=tuned_eta(spec), keep_iterates=True))
    monkeypatch.undo()
    assert len(rep.iterates) == 3 and len(steps) == len(calls) == 2 * m
    x_tilde = rep.iterates[1]
    mu = G.full_gradient(spec, x_tilde)
    for (features, batch, block), (form, x_w, want) in zip(steps[m:], calls[m:]):
        assert form == storage
        x = np.zeros(spec.dataset.d)
        x[features] = x_w
        got = G.vr_gradient(spec, x, x_tilde, mu, batch, block)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("arg", ["x", "x_tilde", "mu_tilde"])
def test_public_gradients_reject_a_non_finite_point(lasso_spec, arg, bad):
    """partial_gradient and vr_gradient reject a non-finite x, x_tilde or
    mu_tilde with ValueError instead of returning a NaN gradient."""
    d = lasso_spec.dataset.d
    args = {"x": np.ones(d), "x_tilde": np.zeros(d), "mu_tilde": np.zeros(d)}
    args[arg][3] = bad
    with pytest.raises(ValueError, match=f"{arg} must be finite"):
        G.vr_gradient(lasso_spec, args["x"], args["x_tilde"], args["mu_tilde"], [0, 1], 0)
    if arg == "x":
        with pytest.raises(ValueError, match="x must be finite"):
            G.partial_gradient(lasso_spec, args["x"], [0, 1], 0)


def test_vr_gradient_shape_check():
    spec = make_instance(seed=5, n=20, d=10, q=2)
    with pytest.raises(ValueError):
        G.vr_gradient(spec, np.zeros(10), np.zeros(10), np.zeros(3), [0], 0)


# ---------------------------------------------------- compacted design

def _layout_instance():
    """A 12 x 15 design with empty rows (2, 7) and a row (5) only in blocks 1 and 3."""
    rng = np.random.default_rng(21)
    a = rng.normal(size=(12, 15)) * (rng.random(size=(12, 15)) < 0.5)
    a[[2, 7]] = 0.0
    a[5] = 0.0
    a[5, [4, 10]] = [1.5, -2.0]
    spec = G.ProblemSpec(dataset=G.Dataset(a, np.zeros(12)),
                         partition=G.BlockPartition.contiguous(15, 5),
                         loss=G.LOSSES["squared"], reg=G.REGULARIZERS["l1"], lam=1.0)
    full = G.ActiveSet(blocks=np.arange(5), features=np.arange(15),
                       partition=spec.partition)
    return spec, a, full


def test_chained_compactions_give_the_csr_column_selection():
    """Each cut of a chain of shrinking block sets, made from the dataset's
    column index, holds scipy's A[:, features] arrays entry for entry, in
    the stored index type, and the block ids it was given."""
    spec, _, full = _layout_instance()
    index = spec.dataset.A.indices.dtype
    for kept in ([0, 1, 2, 4], [0, 2, 4], [2]):
        active = full.keep(kept)
        work = _compact(spec, active.blocks)
        want = spec.dataset.A[:, active.features]
        cols, vals = work.entries
        assert work.blocks is active.blocks and cols.dtype == work.indptr.dtype == index
        assert np.array_equal(work.features, active.features)
        assert np.array_equal(work.indptr, want.indptr)
        assert np.array_equal(cols, want.indices) and np.array_equal(vals, want.data)


def test_a_sparse_working_design_is_plain_csr_along_a_chain_of_cuts():
    """A working design holds two entry arrays, columns in the stored index
    type, int32 here, and float64 values, 12 bytes per stored entry. Over
    every block of the contiguous partition they are the dataset's CSR
    arrays themselves, and each cut of a chain of shrinking block sets,
    each cut from the dataset's column index, holds the indptr, columns and
    values of A[:, features]."""
    rng = np.random.default_rng(17)
    a = rng.normal(size=(40, 60)) * (rng.random(size=(40, 60)) < 0.1)
    a[[3, 30]] = 0.0  # empty rows
    spec = G.ProblemSpec(dataset=G.Dataset(a, np.zeros(40)),
                         partition=G.BlockPartition.contiguous(60, 12),
                         loss=G.LOSSES["squared"], reg=G.REGULARIZERS["l1"], lam=1.0)
    blocks = np.arange(12)
    work = _compact(spec, blocks)
    a = spec.dataset.A
    assert work.indptr is a.indptr and work.entries[0] is a.indices and work.entries[1] is a.data
    while True:
        want = spec.dataset.A[:, work.features]
        assert len(work.entries) == 2
        cols, vals = work.entries
        assert cols.dtype == np.int32 and vals.dtype == np.float64
        assert cols.nbytes + vals.nbytes == 12 * want.nnz
        assert work.indptr.dtype == np.int32 and np.array_equal(work.indptr, want.indptr)
        assert np.array_equal(cols, want.indices) and np.array_equal(vals, want.data)
        if blocks.size == 1:
            break
        blocks = np.sort(rng.permutation(blocks)[:int(rng.integers(1, blocks.size))])
        work = _compact(spec, blocks)
        assert work.blocks is blocks


def _same_partition(got, want):
    assert (got.d, got.q) == (want.d, want.q)
    assert all(np.array_equal(g, w) for g, w in zip(got.groups, want.groups))
    for name in ("order", "sizes", "offsets", "block_of"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and np.array_equal(g, w), name
    assert len(got.classes) == len(want.classes)
    for (g_ids, g_idx, g_run), (w_ids, w_idx, w_run) in zip(got.classes, want.classes):
        assert np.array_equal(g_ids, w_ids) and np.array_equal(g_idx, w_idx)
        assert g_run == w_run


def test_compacted_layout_is_the_partition_of_the_surviving_columns():
    """Block ib of a cut's layout is block active.blocks[ib], its columns
    being consecutive and holding that block's features in order; with every
    block of a contiguous partition active the layout is the partition
    itself, and a scattered one is numbered block by block."""
    spec, _, full = _layout_instance()
    contiguous = spec.partition
    work = _compact(spec, full.blocks)
    assert work.layout is contiguous
    assert _compact(spec, np.arange(5)).layout is contiguous
    assert np.array_equal(work.features, np.arange(15))
    perm = np.random.default_rng(8).permutation(15)
    part = G.BlockPartition([np.sort(g) for g in np.split(perm, [4, 5, 8, 13])])
    spec = dataclasses.replace(spec, partition=part)
    full = G.ActiveSet(blocks=np.arange(5), features=np.arange(15),
                       partition=part)
    work = _compact(spec, full.blocks)
    _same_partition(work.layout, G.BlockPartition(
        np.split(np.arange(15), np.cumsum(part.sizes)[:-1])))
    assert np.array_equal(work.features, part.order)
    for kept in ([0, 1, 3, 4], [1, 3, 4], [1, 4], [4]):
        active = full.keep(kept)
        work = _compact(spec, active.blocks)
        sizes = part.sizes[active.blocks]
        _same_partition(work.layout, G.BlockPartition(
            np.split(np.arange(active.n_features), np.cumsum(sizes)[:-1])))
        for ib, j in enumerate(active.blocks):
            assert np.array_equal(work.features[work.layout.groups[ib]], part.groups[j])


def test_chained_cuts_keep_the_columns_block_by_block():
    """Along a chain of cuts of shrinking block sets of scattered partitions,
    whose groups come in any order, each cut from the dataset's column
    index, working block ib is a contiguous range of columns holding the
    features of block active.blocks[ib], and the cut keeps the stored entries
    of those features, every row's in CSR order, under their column numbers."""
    rng = np.random.default_rng(40)
    a = rng.normal(size=(9, 30)) * (rng.random(size=(9, 30)) < 0.4)
    csr = G.Dataset(a, np.zeros(9)).A
    rows = np.repeat(np.arange(9), np.diff(csr.indptr))
    for _ in range(10):
        q = int(rng.integers(2, 12))
        labels = np.concatenate([np.arange(q), rng.integers(0, q, size=30 - q)])
        part = G.BlockPartition([np.flatnonzero(labels == j) for j in rng.permutation(q)])
        spec = G.ProblemSpec(dataset=G.Dataset(a, np.zeros(9)), partition=part,
                             loss=G.LOSSES["squared"], reg=G.REGULARIZERS["l1"], lam=1.0)
        active = G.ActiveSet(blocks=np.arange(q), features=np.arange(30), partition=part)
        work = _compact(spec, active.blocks)
        while True:
            groups = work.layout.groups
            assert len(groups) == active.n_blocks
            for ib, j in enumerate(active.blocks):
                assert np.array_equal(groups[ib], np.arange(groups[ib][0],
                                                            groups[ib][-1] + 1))
                assert np.array_equal(work.features[groups[ib]], part.groups[j])
            col_of = np.full(30, -1)
            col_of[work.features] = np.arange(work.features.size)
            cols = col_of[csr.indices]
            kept_entries = cols >= 0
            counts = np.bincount(rows[kept_entries], minlength=9)
            assert np.array_equal(work.indptr, np.concatenate(([0], np.cumsum(counts))))
            assert np.array_equal(work.entries[0], cols[kept_entries])
            assert np.array_equal(work.entries[1], csr.data[kept_entries])
            if active.n_blocks == 1:
                break
            kept = np.sort(rng.permutation(active.blocks)[:int(rng.integers(
                1, active.n_blocks))])
            active = active.keep(kept)
            work = _compact(spec, active.blocks)


def test_gather_rows_matches_csr_row_indexing():
    """A gather of (c, b) batches is scipy's A[batch] for each batch in turn,
    on the full and on a compacted design, with repeated, empty and emptied rows."""
    spec, _, full = _layout_instance()
    full_work = _compact(spec, full.blocks)
    active = full.keep([0, 2, 4])
    batches = np.array([[5, 2, 0, 5], [11, 7, 0, 0], [2, 7, 2, 7], [5, 5, 3, 1]])
    for work, features in ((full_work, full.features),
                           (_compact(spec, active.blocks), active.features)):
        design = spec.dataset.A[:, features]
        for c in (1, 4):
            cols, vals, rp = _gather_rows(work.indptr, work.entries, batches[:c])
            assert cols.dtype == rp.dtype == work.indptr.dtype == spec.dataset.A.indices.dtype
            assert rp.size == 4 * c + 1
            for t, batch in enumerate(batches[:c]):
                want = design[batch]
                ptr = rp[4 * t:4 * t + 5]
                s, e = ptr[0], ptr[-1]
                assert np.array_equal(cols[s:e], want.indices)
                assert np.array_equal(vals[s:e], want.data)
                assert np.array_equal(ptr - s, want.indptr)
            assert rp[0] == 0 and rp[-1] == cols.size == vals.size
        one = _gather_rows(work.indptr, work.entries, batches[0])
        for got, ref in zip(one, _gather_rows(work.indptr, work.entries, batches[:1])):
            assert np.array_equal(got, ref)


def test_gather_rows_on_compacted_design_matches_full_gather():
    spec, a, full = _layout_instance()
    # cut twice, each time from the dataset's column index
    full_work = _compact(spec, full.blocks)
    for kept in ([0, 1, 2, 4], [0, 2, 4]):
        active = full.keep(kept)
        work = _compact(spec, active.blocks)
    dense = np.zeros((12, active.n_features))
    cols, vals = work.entries
    dense[np.repeat(np.arange(12), np.diff(work.indptr)), cols] = vals
    assert np.array_equal(dense, a[:, active.features])
    assert [g.tolist() for g in work.layout.groups] == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
    assert work.layout.offsets.tolist() == [0, 3, 6, 9]

    batch = np.array([5, 2, 0, 5, 11, 7, 0])  # repeated, empty and emptied rows
    want_cols, want_vals, want_rows = [], [], []
    for pos, i in enumerate(batch):
        nz = np.flatnonzero(a[i])
        want_cols += nz.tolist()
        want_vals += a[i, nz].tolist()
        want_rows += [pos] * nz.size
    cols, vals, rp = _gather_rows(full_work.indptr, full_work.entries, batch)
    assert np.array_equal(cols, want_cols) and np.array_equal(vals, want_vals)
    assert np.array_equal(_row_ids(rp), want_rows)

    in_active = np.isin(cols, active.features)
    ccols, cvals, crp = _gather_rows(work.indptr, work.entries, batch)
    assert np.array_equal(ccols, np.searchsorted(active.features, cols[in_active]))
    assert np.array_equal(cvals, vals[in_active])
    assert np.array_equal(_row_ids(crp), _row_ids(rp)[in_active])


@pytest.mark.parametrize("layout", ["contiguous", "uneven", "scattered"])
@pytest.mark.parametrize("seed", range(4))
def test_every_cut_is_scipys_column_selection_to_the_bit(layout, seed):
    """For random block subsets, every working design equals scipy's
    A[:, work.features] to the bit: the same row pointers, the same columns
    and the same value bytes, in the stored index type, on designs with
    empty rows, an empty column and a stored 0.0 and -0.0. Its features are
    the blocks' groups in block order, and its layout their sizes. A cut of
    those features as they stand, not rising on a scattered partition, as
    the group-L2 Gram slices pass each size class's, is scipy's selection
    with each row's entries sorted by position."""
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(8, 40)), int(rng.integers(12, 90))
    a = rng.normal(size=(n, d)) * (rng.random(size=(n, d)) < rng.uniform(0.05, 0.6))
    a[rng.integers(0, n, size=2)] = 0.0
    a[:, rng.integers(0, d)] = 0.0
    q = int(rng.integers(2, min(d, 12) + 1))
    if layout == "scattered":
        labels = np.concatenate([np.arange(q), rng.integers(0, q, size=d - q)])
        part = G.BlockPartition([np.flatnonzero(labels == j) for j in rng.permutation(q)])
    elif layout == "uneven":
        part = G.BlockPartition.from_sizes(np.diff(np.concatenate(
            ([0], np.sort(rng.choice(np.arange(1, d), size=q - 1, replace=False)), [d]))))
    else:
        part = G.BlockPartition.contiguous(d, q)
    coo = sp.coo_matrix(a)
    free = np.flatnonzero(a.ravel() == 0.0)[:2]  # two unstored cells, stored as zeros
    stored = sp.coo_matrix((np.concatenate([coo.data, [0.0, -0.0]]),
                            (np.concatenate([coo.row, free // d]),
                             np.concatenate([coo.col, free % d]))), shape=(n, d))
    spec = G.ProblemSpec(dataset=G.Dataset(stored, np.zeros(n)), partition=part,
                         loss=G.LOSSES["squared"], reg=G.REGULARIZERS["l1"], lam=1.0)
    assert np.signbit(spec.dataset.A.data[spec.dataset.A.data == 0.0]).sum() == 1
    subsets = [np.arange(q), np.array([q - 1]), np.array([0])]
    subsets += [np.flatnonzero(rng.random(q) < rng.uniform(0.2, 0.9)) for _ in range(12)]
    falls = False
    for blocks in subsets:
        if blocks.size == 0:
            continue
        work = _compact(spec, blocks)
        want = spec.dataset.A[:, work.features]
        cols, vals = work.entries
        assert np.array_equal(work.features,
                              np.concatenate([part.groups[j] for j in blocks]))
        assert np.array_equal(work.layout.sizes, part.sizes[blocks])
        assert work.indptr.dtype == cols.dtype == spec.dataset.A.indices.dtype
        assert np.array_equal(work.indptr, want.indptr)
        assert np.array_equal(cols, want.indices)
        assert vals.dtype == np.float64 and vals.tobytes() == want.data.tobytes()
        falls |= _is_scipys_sorted_selection(spec.dataset, work.features)
    for _, idx, _ in part.classes:  # the order the group-L2 Gram slices pass
        falls |= _is_scipys_sorted_selection(spec.dataset, idx.ravel())
    assert falls == (layout == "scattered")


def _is_scipys_sorted_selection(ds, ids):
    """Assert that _cut(ds, ids) is scipy's A[:, ids].sorted_indices() to the
    bit, in the stored index type; return whether ids ever fall."""
    want = ds.A[:, ids].sorted_indices()
    indptr, cols, vals = _cut(ds, ids)
    assert indptr.dtype == cols.dtype == ds.A.indices.dtype
    assert np.array_equal(indptr, want.indptr) and np.array_equal(cols, want.indices)
    assert vals.dtype == np.float64 and vals.tobytes() == want.data.tobytes()
    return bool(np.any(np.diff(ids) < 0))


def test_a_cut_allocates_its_kept_entries_not_the_datasets():
    """On a wide sparse design, 200 x 200,000 at 0.2% (80,000 stored
    entries) in blocks of 20, a cut of three blocks from the dataset's column
    index, built before tracing starts, peaks (tracemalloc) at under 64 bytes
    per kept entry and row, far below one byte per stored entry of the
    dataset, and holds scipy's A[:, features]."""
    n, d, q = 200, 200_000, 10_000
    rng = np.random.default_rng(3)
    a = sp.random(n, d, density=2e-3, format="csr", random_state=rng)
    spec = G.ProblemSpec(dataset=G.Dataset(a, np.zeros(n)),
                         partition=G.BlockPartition.contiguous(d, q),
                         loss=G.LOSSES["squared"], reg=G.REGULARIZERS["l1"], lam=1.0)
    _compact(spec, np.array([0, 1]))  # builds the column index
    blocks = np.array([7, 5000, q - 1])
    tracemalloc.start()
    try:
        work = _compact(spec, blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = work.entries[0].size
    assert kept > 0 and peak < 64 * (kept + n) < spec.dataset.A.nnz
    want = spec.dataset.A[:, work.features]
    assert np.array_equal(work.indptr, want.indptr)
    assert np.array_equal(work.entries[0], want.indices)
    assert np.array_equal(work.entries[1], want.data)


def test_only_the_solvers_that_cut_build_the_column_index(monkeypatch):
    """On a fresh Dataset an mrbcd or a proxsvrg solve, which runs every
    epoch on every block and never refines, leaves no ("columns",) memo
    entry. An adsgd solve builds it once, as A.tocsc()'s arrays, read-only,
    and a second adsgd solve on that dataset reuses the same object."""
    builds, build = [], G.problem._column_index
    monkeypatch.setattr(G.problem, "_column_index",
                        lambda a: builds.append(None) or build(a))
    spec = make_instance(seed=1, n=60, d=80, q=10, sparsity=0.3)
    memo = spec.dataset._memo
    for solver in ("mrbcd", "proxsvrg"):
        G.solve(spec, G.SolverConfig(solver=solver, seed=0, max_outer=3))
        assert ("columns",) not in memo and builds == []
    cfg = G.SolverConfig(solver="adsgd", seed=0, gap_tol=1e-6, max_outer=40,
                         eta=tuned_eta(spec, 1.0))
    rep = G.solve(spec, cfg)
    assert min(r.working_blocks for r in epoch_rows(rep)) < spec.partition.q
    index = memo[("columns",)]
    csc = spec.dataset.A.tocsc()
    for got, want in zip(index, (csc.indptr, csc.indices, csc.data), strict=True):
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert not got.flags.writeable
    assert index[1].dtype == np.int32  # 12 bytes per stored entry
    G.solve(spec, dataclasses.replace(cfg, seed=1))
    assert memo[("columns",)] is index and len(builds) == 1


def _row_ids(rp):
    """Each gathered entry's row within its batch, from the row pointers rp."""
    return np.repeat(np.arange(rp.size - 1), np.diff(rp))


# ------------------------------------------------------------ step kernel

def _kernel_instance(layout):
    """A 12 x 15 design with an empty row (3) and a row (5) inside block 0 only."""
    rng = np.random.default_rng(31)
    part = {"contiguous": G.BlockPartition.contiguous(15, 5),
            "uneven": G.BlockPartition.contiguous(15, 4),
            "scattered": G.BlockPartition([np.arange(j, 15, 4) for j in range(4)])}[layout]
    a = rng.normal(size=(12, 15)) * (rng.random(size=(12, 15)) < 0.4)
    a[3] = 0.0
    a[5] = 0.0
    a[5, part.groups[0][:2]] = [0.5, -1.5]
    spec = G.ProblemSpec(dataset=G.Dataset(a, rng.normal(size=12)), partition=part,
                         loss=G.LOSSES["squared"], reg=G.REGULARIZERS["l1"], lam=1.0)
    return spec, a, rng


def _own(entries, ptr):
    """A step's (cols, vals, row pointers) cut out of its chunk's arrays."""
    s, e = ptr[0], ptr[-1]
    return entries[0][s:e], entries[1][s:e], ptr - s


def _steps(plan):
    """The steps of a sparse _plan as a list of (entries, y_t, g_t, lo, hi),
    each step's entries with row pointers of its own."""
    return [(_own(rows[:2], rows[2]), y_t, g_t, lo, hi)
            for (rows, y_t, g_t), lo, hi in plan]


def _grads(loss, x, work, y, g_ref, c, batches, ibs, mu, x_ref, mu_p=0.0):
    """The gradient of each step of one chunk, from _plan and step_gradient,
    called positionally as the engine calls them. A zero snapshot (g_ref, mu
    and x_ref all zero) is partial_gradient's."""
    return [step_gradient(loss, x, *args, lo, hi, mu, x_ref, mu_p)
            for args, lo, hi in _plan(work, y, g_ref, c, batches, ibs)]


@pytest.mark.parametrize("layout", ["contiguous", "uneven", "scattered"])
def test_step_gradient_matches_dense_reference(monkeypatch, layout):
    """Both kernels, each on its storage, give the block and full-vector
    gradients of the dense formula."""
    spec, a, rng = _kernel_instance(layout)
    ds, part, loss = spec.dataset, spec.partition, spec.loss
    full = G.ActiveSet.full(spec)
    kept = full.keep([0, 2, 3])
    # the iterate is zero on screened features, as in the engine
    x = np.where(np.isin(np.arange(15), kept.features), rng.normal(size=15), 0.0)
    g_snap, mu, x_snap = rng.normal(size=12), rng.normal(size=15), rng.normal(size=15)
    g_zero, zero = np.zeros(12), np.zeros(15)
    works = []
    for rho in STORAGES:
        monkeypatch.setattr(G.solvers, "_RHO", rho)
        works += [_compact(spec, full.blocks), _compact(spec, kept.blocks)]
        assert all((w.dense is None) == (rho == math.inf) for w in works[-2:])
    for work in works:
        wfeat = work.features
        blocks = work.blocks
        for batch in (np.array([4, 4, 0, 11, 5, 4]), np.array([3]), np.array([5, 3]),
                      np.arange(12)):
            # the last is a full batch, every row in order, as the engine takes it
            rows = a[batch]
            # a zero snapshot, without and with the perturbation, then a real one
            for g_ref, mu_c, x_ref, mu_p in ((g_zero, zero, zero, 0.0),
                                             (g_zero, zero, zero, 0.3),
                                             (g_snap, mu, x_snap, 0.3)):
                deriv = loss.deriv(rows @ x, ds.y[batch]) - g_ref[batch]
                want = rows.T @ deriv / batch.size + mu_c + 2.0 * mu_p * (x - x_ref)
                kw = dict(mu=mu_c[wfeat], x_ref=x_ref[wfeat], mu_p=mu_p)
                got, = _grads(loss, x[wfeat], work, ds.y, g_ref, 1, batch[None, :], None,
                              **kw)
                assert got.dtype == np.float64
                np.testing.assert_allclose(got, want[wfeat], rtol=0, atol=1e-12)
                # one chunk of steps, one per block, all on the same batch
                chunk = _grads(loss, x[wfeat], work, ds.y, g_ref, blocks.size,
                               np.broadcast_to(batch, (blocks.size, batch.size)),
                               np.arange(blocks.size), **kw)
                for j, got in zip(blocks, chunk, strict=True):
                    assert got.dtype == np.float64
                    np.testing.assert_allclose(got, want[part.groups[j]], rtol=0,
                                               atol=1e-12)


def test_step_gradient_sums_nothing_as_float_zeros(monkeypatch):
    """A batch with no entries in the block, or no entries at all, gives float64
    zeros on either storage."""
    spec, _, _ = _kernel_instance("scattered")
    y, x = spec.dataset.y, np.ones(15)
    for rho in STORAGES:
        monkeypatch.setattr(G.solvers, "_RHO", rho)
        work = _compact(spec, np.arange(spec.partition.q))
        for batch, ib in ((np.array([5, 5]), 1), (np.array([3]), 0),
                          (np.array([3]), None)):
            ibs = None if ib is None else np.array([ib])
            zero = np.zeros(15)
            got, = _grads(spec.loss, x, work, y, np.zeros(12), 1, batch[None, :], ibs,
                          zero, zero)
            assert got.dtype == np.float64 and not got.any()
            mu = np.full(15, 0.25)
            got, = _grads(spec.loss, x, work, y, np.zeros(12), 1, batch[None, :], ibs,
                          mu=mu, x_ref=x, mu_p=0.1)
            assert np.all(got == 0.25)


def _same_entries(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


def _same_view(a, b):
    """Whether a and b are views of the same memory, shape and strides."""
    return a.__array_interface__ == b.__array_interface__


@pytest.mark.parametrize("layout", ["contiguous", "scattered"])
def test_plan_of_a_chunk_matches_its_steps_planned_alone(monkeypatch, layout):
    """On the sparse storage, a chunk's steps hold the entries, in the same
    order, that planning each step by itself gives, and one step's plan is a
    per-step gather; a block step, like a full-vector step, passes as its
    rows the chunk's own cols and vals and a view of its row pointers, and
    updates its block's columns or all of them. A full batch, every row in
    order as the engine passes it, is gathered like any other and holds the
    design's own entries, y and g_snap."""
    monkeypatch.setattr(G.solvers, "_RHO", math.inf)  # the sparse storage
    spec, _, rng = _kernel_instance(layout)
    y, g_snap = spec.dataset.y, rng.normal(size=12)
    work = _compact(spec, np.arange(spec.partition.q))
    every_row = np.broadcast_to(np.arange(12), (7, 12))
    for w in (work, _compact(spec, np.array([0, 2, 3]))):
        q_k = w.blocks.size
        offsets = w.layout.offsets
        batches = rng.integers(0, 12, size=(7, 4))
        batches[2] = 3  # a step of empty rows
        ibs = rng.integers(0, q_k, size=7)
        for chunk_batches, chunk_ibs in ((batches, ibs), (batches, None), (every_row, ibs),
                                         (every_row, None)):
            raw = list(_plan(w, y, g_snap, 7, chunk_batches, chunk_ibs))
            steps = _steps(raw)
            assert len(steps) == 7
            chunk = raw[0][0][0][:2]
            chunk_rp = raw[0][0][0][2].base  # the chunk's row pointers
            _same_entries((*chunk, chunk_rp), _gather_rows(w.indptr, w.entries,
                                                           chunk_batches))
            for t, (entries, y_t, g_t, lo, hi) in enumerate(steps):
                one = chunk_batches[t:t + 1]
                alone, = _steps(_plan(w, y, g_snap, 1, one, None if chunk_ibs is None
                                      else chunk_ibs[t:t + 1]))
                assert (lo, hi) == alone[3:]
                _same_entries(entries, alone[0])
                assert np.array_equal(y_t, alone[1]) and np.array_equal(g_t, alone[2])
            for t, (entries, y_t, g_t, lo, hi) in enumerate(steps):
                batch = chunk_batches[t]
                _same_entries(entries, _gather_rows(w.indptr, w.entries, batch))
                # block and full-vector steps alike pass the chunk's own entries,
                # and a view of its row pointers
                args, b = raw[t][0], batch.size
                assert len(args) == 3 and _form(args[0]) == "sparse"
                rows = args[0]
                assert rows[0] is chunk[0] and rows[1] is chunk[1]
                assert _same_view(rows[2], chunk_rp[t * b:(t + 1) * b + 1])
                if chunk_ibs is None:
                    assert (lo, hi) == (0, w.features.size)
                else:
                    ib = chunk_ibs[t]
                    assert (lo, hi) == (offsets[ib], offsets[ib + 1])
            if chunk_batches is every_row:
                for entries, y_t, g_t, _, _ in steps:
                    _same_entries(entries, (*w.entries, w.indptr))
                    assert np.array_equal(y_t, y) and np.array_equal(g_t, g_snap)


@pytest.mark.parametrize("layout", ["contiguous", "scattered"])
def test_all_rows_gather_is_the_gather_of_every_row(layout):
    """The engine's full batch, every row in order for each of c steps, gathers
    the working design's entries c times over, its row pointers being indptr's
    shifted by the entries of the steps before."""
    spec, _, _ = _kernel_instance(layout)
    work = _compact(spec, np.arange(spec.partition.q))
    for w in (work, _compact(spec, np.array([1, 3]))):
        nnz = w.entries[0].size
        for c in (1, 3):
            cols, vals, rp = _gather_rows(
                w.indptr, w.entries, np.broadcast_to(np.arange(12), (c, 12)))
            assert np.array_equal(rp[::12], np.arange(c + 1) * nnz)
            want = np.concatenate([[0]] + [w.indptr[1:] + k * nnz for k in range(c)])
            assert rp.dtype == w.indptr.dtype and np.array_equal(rp, want)
            for got, ref in zip((cols, vals), w.entries):
                assert got.dtype == ref.dtype and np.array_equal(got, np.tile(ref, c))


def test_a_gather_past_its_index_types_range_runs_in_intp(monkeypatch):
    """A sampled batch repeats rows, so a chunk may gather more entries than
    its design stores. Where their count passes the index type's range, the
    chunk is gathered in intp, with the same entries; at the range's end it
    stays in the design's type. Both give a step the same bytes. The range is
    made small here (np.iinfo patched for int32), as a real one would take
    2**31 gathered entries."""
    spec, _, _ = _kernel_instance("scattered")
    work = _compact(spec, np.array([0, 2, 3]))
    batch = np.array([[4, 4, 0, 11, 5, 4]])
    want = _gather_rows(work.indptr, work.entries, batch)
    total = int(want[2][-1])
    assert work.indptr.dtype == want[0].dtype == want[2].dtype == np.int32 and total > 1
    iinfo, top = np.iinfo, [total]
    monkeypatch.setattr(np, "iinfo", lambda t: types.SimpleNamespace(max=top[0])
                        if np.dtype(t) == np.int32 else iinfo(t))
    x, g = np.linspace(-1.0, 1.0, work.features.size), np.zeros(12)
    zero = np.zeros(work.features.size)
    steps = []
    for top[0], index in ((total, np.int32), (total - 1, np.intp)):
        got = _gather_rows(work.indptr, work.entries, batch)
        assert got[0].dtype == got[2].dtype == index
        for a, b in zip(got, want, strict=True):
            assert np.array_equal(a, b)
        steps.append(step_gradient(spec.loss, x, got, spec.dataset.y[batch[0]], g[batch[0]],
                                   0, work.features.size, zero, zero, 0.0).tobytes())
    assert steps[0] == steps[1]


def test_a_64_bit_design_keeps_its_index_type_in_every_working_design():
    """A stored CSR with int64 index arrays, as one past 2**31 entries keeps:
    its working design over every block is its own arrays, a cut and a
    gather are int64 too, and adsgd and the reference solve to the bytes of
    the same design stored with int32 indices."""
    spec = make_instance(seed=6, n=50, d=60, q=6)
    wspec = wide_index(spec)
    a = wspec.dataset.A
    assert a.indices.dtype == a.indptr.dtype == np.int64
    full = _compact(wspec, np.arange(6))
    assert full.indptr is a.indptr and full.entries[0] is a.indices
    cut = _compact(wspec, np.array([1, 4]))
    assert cut.indptr.dtype == cut.entries[0].dtype == np.int64
    cols, _, rp = _gather_rows(cut.indptr, cut.entries, np.array([[3, 3, 0]]))
    assert cols.dtype == rp.dtype == np.int64
    cfg = G.SolverConfig(seed=1, gap_tol=1e-8, max_outer=60, eta=tuned_eta(spec))
    for solve in (G.adsgd_solve, lambda s, _: G.reference_solve(s, tol=1e-8)):
        narrow, broad = solve(spec, cfg), solve(wspec, cfg)
        assert narrow.converged and broad.converged
        assert narrow.x_final.tobytes() == broad.x_final.tobytes()
        assert [r.gap for r in narrow.trace] == [r.gap for r in broad.trace]


def _signed_zero_instance(layout):
    """_kernel_instance with an empty column, and one stored explicit 0.0 and
    one stored -0.0 in other columns: returns (spec, the empty column)."""
    spec, a, _ = _kernel_instance(layout)
    part = spec.partition
    empty = part.groups[1][1]
    a[:, empty] = 0.0
    coo = sp.coo_matrix(a)
    row, col = np.flatnonzero(a[:, part.groups[0][0]] == 0.0)[0], part.groups[0][0]
    row2, col2 = np.flatnonzero(a[:, part.groups[1][0]] == 0.0)[0], part.groups[1][0]
    stored = sp.coo_matrix((np.concatenate([coo.data, [0.0, -0.0]]),
                            (np.concatenate([coo.row, [row, row2]]),
                             np.concatenate([coo.col, [col, col2]]))), shape=a.shape)
    ds = G.Dataset(stored, spec.dataset.y)
    zeros = ds.A.data == 0.0
    assert zeros.sum() == 2 and np.signbit(ds.A.data[zeros]).sum() == 1
    return dataclasses.replace(spec, dataset=ds), empty


def _placed_columns(ds, support):
    """ds.A[:, support] as a column-major array, each stored value placed as it
    is stored, a stored -0.0 included (toarray adds it to +0.0)."""
    coo = ds.A[:, support].tocoo()
    out = np.zeros((ds.n, support.size), order="F")
    out[coo.row, coo.col] = coo.data
    return out


@pytest.mark.parametrize("layout", ["contiguous", "uneven", "scattered"])
def test_refinement_columns_are_the_design_columns_bit_for_bit(layout):
    """_columns takes a support's columns of a working design, gathered from
    the dataset's column index or, where an epoch built the design's dense
    twin, copied from it, with the bytes of the stored values placed in
    column-major order, equal to scipy's column slice ds.A[:, S], and
    F-contiguous: on the dataset's working design and on a cut, for an L1 support
    of scattered coordinates that holds a column with no stored entry and the
    stored 0.0 and -0.0, a group-L2 support of whole blocks, one column, and
    the empty column alone, each taken by its working-column ids, in the
    design's block-major order. The index gather builds no twin."""
    spec, empty = _signed_zero_instance(layout)
    ds, part = spec.dataset, spec.partition
    signed = np.flatnonzero(np.bincount(ds.A.indices[ds.A.data == 0.0], minlength=ds.d))
    for twin in (False, True):
        work = _compact(spec, np.arange(part.q))
        for w in (work, _compact(spec, np.array([0, 1, part.q - 1]))):
            if twin:
                assert w.dense is not None  # as the epoch's _plan reads it
            feats = np.sort(w.features)
            supports = (np.union1d(feats[::3], np.concatenate([[empty], signed])),
                        np.sort(np.concatenate([part.groups[b] for b in w.blocks[::-2]])),
                        feats[-1:], np.array([empty]))
            for support in supports:
                ids = np.flatnonzero(np.isin(w.features, support))
                assert ids.size == support.size  # w holds every feature of support
                got = _columns(ds, w, ids)
                want = _placed_columns(ds, w.features[ids])
                assert got.flags.f_contiguous and got.shape == want.shape
                assert got.dtype == want.dtype
                assert got.tobytes(order="A") == want.tobytes(order="A")
                assert np.array_equal(got, ds.A[:, w.features[ids]].toarray())
            assert ("dense" in vars(w)) == twin


def test_a_refinement_allocates_nothing_of_the_datasets_width():
    """A refinement runs on its model's columns alone: on a wide sparse
    Lasso, 200 x 400,000 with blocks of 40, and a working design of three
    blocks whose columns are dense, with the dataset's column index built
    before tracing starts, _refine_support allocates at its peak
    (tracemalloc) less than 48 bytes per stored entry of the model's
    columns, 4,800 entries in a (200, 24) array of 38 KB (about 175 KB,
    against 389 KB when it scanned every entry of its working design, and
    3.6 MB when it took the d-length point), and returns the point, on the
    working columns, that a refinement on the whole design gives."""
    n, d, q = 200, 400_000, 10_000
    rng = np.random.default_rng(0)
    part = G.BlockPartition.contiguous(d, q)
    blocks = np.array([3, 4000, q - 1])
    feats = np.flatnonzero(np.isin(part.block_of, blocks))
    dense = sp.csr_matrix((rng.normal(size=n * feats.size),
                           (np.repeat(np.arange(n), feats.size), np.tile(feats, n))),
                          shape=(n, d))
    a = sp.random(n, d, density=5e-4, format="csr", random_state=rng) + dense
    x = np.zeros(d)
    x[feats[::5]] = rng.normal(size=feats[::5].size)
    spec = G.ProblemSpec(dataset=G.Dataset(a, a @ x + 0.01 * rng.normal(size=n)),
                         partition=part, loss=G.LOSSES["squared"], reg=G.REGULARIZERS["l1"],
                         lam=1e-4)
    work = _compact(spec, blocks)  # builds the column index
    v = 1.05 * x[work.features]
    entries = spec.dataset.A[:, work.features[np.flatnonzero(v)]].nnz
    assert entries == 4800
    tracemalloc.start()
    try:
        w = G.solvers._refine_support(spec, work, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w is not None and peak < 48 * entries
    assert _on(spec, work, w).tobytes() == _refine(spec, 1.05 * x).tobytes()


def test_the_references_refinement_builds_no_dense_twin():
    """The reference refines on the dataset's working design over every block,
    on which no epoch ran: _refined_certificate gathers its columns from the
    column index and leaves the twin unbuilt, though the design is dense enough
    to have one, and returns what it returns on a design whose twin is built."""
    spec = REFINE_CASES["l1-squared"]()
    x = G.reference_solve(spec, tol=1e-8).x_final
    work = _whole(spec)
    x_r, ev = _certificate(spec, x, work)
    assert "dense" not in vars(work)
    twinned = _whole(spec)
    assert twinned.dense is not None
    x_t, ev_t = _certificate(spec, x, twinned)
    assert x_r.tobytes() == x_t.tobytes() and (ev[0], ev[3]) == (ev_t[0], ev_t[3])


# The bincount planner and kernel that the compiled CSR loops replaced, kept
# here as the oracle whose bytes every sparse step must reproduce.

def _bincount_gather(indptr, entries, batch):
    rows, b = batch.ravel(), batch.shape[-1]
    first = indptr[rows]
    lens = indptr[rows + 1] - first
    ends = np.cumsum(lens)
    idx = np.repeat(first - (ends - lens), lens) + np.arange(ends[-1])
    row_id = np.tile(np.arange(b), rows.size // b).repeat(lens)
    starts = np.concatenate(([0], ends[b - 1::b]))
    return entries[0].take(idx), entries[1].take(idx), row_id, starts


def _bincount_steps(loss, x, work, y, g_snap, batches, ibs, mu, x_ref, mu_p):
    cols, vals, row_id, starts = _bincount_gather(work.indptr, work.entries, batches)
    layout, out = work.layout, []
    for t, batch in enumerate(batches):
        s, e = starts[t], starts[t + 1]
        c, v, r = cols[s:e], vals[s:e], row_id[s:e]
        if ibs is None:
            lo, hi, pos, bv, br = 0, work.features.size, c, v, r
        else:
            lo, hi = layout.offsets[ibs[t]], layout.offsets[ibs[t] + 1]
            m = layout.block_of[c] == ibs[t]
            pos, bv, br = c[m] - lo, v[m], r[m]  # each column's place in its block
        b = batch.size
        gb = loss.deriv(np.bincount(r, weights=v * x[c], minlength=b), y[batch])
        coef = (gb - g_snap[batch]) / b
        grad = np.bincount(pos, weights=bv * coef[br], minlength=hi - lo).astype(np.float64)
        grad += mu[lo:hi]
        if mu_p > 0:
            grad += 2.0 * mu_p * (x[lo:hi] - x_ref[lo:hi])
        out.append(grad)
    return out


@pytest.mark.parametrize("seed", range(12))
def test_compiled_sparse_steps_give_the_bincount_kernels_bytes(monkeypatch, seed):
    """On random sparse designs, stored sparse at any density (_RHO = inf),
    _plan and step_gradient give, step by step, the bytes of the bincount
    planner and kernel they replaced: on contiguous and scattered partitions,
    on the full design and on cuts that empty rows, for repeated rows, full
    batches and steps whose block holds none of the batch's entries, with and
    without mu_p, for both losses. Each block step gives the bytes of the
    full-vector step of its batch on its block's columns."""
    monkeypatch.setattr(G.solvers, "_RHO", math.inf)
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(6, 30)), int(rng.integers(8, 60))
    a = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4, size=(n, d))
    a *= rng.random(size=(n, d)) < rng.uniform(0.05, 0.5)
    a[rng.integers(0, n, size=2)] = 0.0  # rows with no entries at all
    q = int(rng.integers(2, min(d, 8) + 1))
    if seed % 2:  # scattered: every q-th feature of a shuffled order, sorted
        perm = rng.permutation(d)
        part = G.BlockPartition([np.sort(perm[j::q]) for j in range(q)])
    else:
        part = G.BlockPartition.contiguous(d, q)
    model = "logistic" if seed % 3 == 0 else "squared"
    y = (rng.random(n) < 0.5) * 1.0 if model == "logistic" else rng.normal(size=n)
    spec = G.ProblemSpec(dataset=G.Dataset(a, y), partition=part, loss=G.LOSSES[model],
                         reg=G.REGULARIZERS["l1"], lam=1.0)
    work = _compact(spec, np.arange(q))
    kept = np.sort(rng.choice(q, size=int(rng.integers(1, q)), replace=False))
    checked = 0
    for w in (work, _compact(spec, kept)):
        p = w.features.size
        x, mu, x_ref = (rng.normal(size=p) for _ in range(3))
        g_snap = rng.normal(size=n)
        for mu_p in (0.0, 0.25):
            for c, b in ((9, 4), (5, 1), (3, n)):
                batches = rng.integers(0, n, size=(c, b))
                batches[0] = batches[0, 0]  # one row, repeated
                if b == n:
                    batches = np.broadcast_to(np.arange(n), (c, n))  # full batches
                grads = {}
                for ibs in (rng.integers(0, w.blocks.size, size=c), None):
                    want = _bincount_steps(spec.loss, x, w, y, g_snap, batches, ibs, mu,
                                           x_ref, mu_p)
                    got = [step_gradient(spec.loss, x, *args, lo, hi, mu, x_ref, mu_p)
                           for args, lo, hi in _plan(w, y, g_snap, c, batches, ibs)]
                    assert len(got) == c
                    for g, ref in zip(got, want):
                        assert g.dtype == np.float64 and g.tobytes() == ref.tobytes()
                    grads[ibs is None] = ibs, got
                    checked += c
                (ibs, blocks), (_, full) = grads[False], grads[True]
                for ib, g, f in zip(ibs, blocks, full, strict=True):
                    lo, hi = w.layout.offsets[ib], w.layout.offsets[ib + 1]
                    assert g.tobytes() == f[lo:hi].tobytes()
        # a block with no entries in the batch: a step over empty rows
        empty = np.flatnonzero(np.diff(w.indptr) == 0)
        batch = np.full((1, 3), empty[0])
        for ib in range(w.blocks.size):
            (args, lo, hi), = _plan(w, y, g_snap, 1, batch, np.array([ib]))
            got = step_gradient(spec.loss, x, *args, lo, hi, mu, x_ref, 0.0)
            assert got.tobytes() == (mu[lo:hi] + 0.0).tobytes()
    assert checked == 2 * 2 * 2 * (9 + 5 + 3)


def test_the_compiled_loops_see_only_checked_batches(monkeypatch):
    """partial_gradient and vr_gradient reject a negative or out-of-range
    batch, an out-of-range block and an x of the wrong length with ValueError
    before any compiled loop runs, since those loops check no bounds; int32,
    uint8 and intp batches give the same bytes."""
    spec = make_instance(seed=4, n=45, d=24, q=4, sparsity=0.1)
    x, xt = np.linspace(-1.0, 1.0, 24), np.zeros(24)
    mu = G.full_gradient(spec, xt)
    calls = []
    for module, name in ((G.problem, "csr_row_index"), (G.solvers, "csr_matvec"),
                         (G.solvers, "csc_matvec")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, name=name, real=real: calls.append(name) or real(*a))
    monkeypatch.setattr(G.solvers, "_RHO", math.inf)  # the sparse storage
    public = (lambda xv, batch, block: G.partial_gradient(spec, xv, batch, block),
              lambda xv, batch, block: G.vr_gradient(spec, xv, xt, mu, batch, block))
    for grad in public:
        for xv, batch, block in ((x, [-1], 0), (x, [3, 45], 1), (x, [0, 2 ** 40], 2),
                                 (x, np.array([-3], np.int32), 0), (x, [0], 4),
                                 (x, [0], -1), (x[:20], [0], 0), (x, [0.0], 0)):
            with pytest.raises(ValueError):
                grad(xv, batch, block)
        assert calls == []
        outs = {grad(x, np.array([7, 0, 44, 7], dtype=t), 1).tobytes()
                for t in (np.int32, np.uint8, np.intp)}
        assert len(outs) == 1
        assert calls == ["csr_row_index", "csr_matvec", "csc_matvec"] * 3
        calls.clear()


# ----------------------------------------------------------- dense storage

def _two_density_instance():
    """A 10 x 100 design in 20 blocks of 5: block 0 full, block 1 empty and
    blocks 2-19 one entry each, 68 entries over 1,000 cells."""
    a = np.zeros((10, 100))
    a[:, :5] = np.arange(1.0, 51.0).reshape(10, 5)
    a[np.arange(18) % 10, 10 + 5 * np.arange(18)] = -1.5
    spec = G.ProblemSpec(dataset=G.Dataset(a, np.ones(10)),
                         partition=G.BlockPartition.contiguous(100, 20),
                         loss=G.LOSSES["squared"], reg=G.REGULARIZERS["l1"], lam=1.0)
    return spec, a


def test_storage_follows_each_cut_density(monkeypatch):
    """A working design has a dense twin exactly when it stores at least
    _RHO * n * p entries, judged design by design over a chain of cuts, and
    the twin is A[:, features] in the working column order."""
    monkeypatch.setattr(G.solvers, "_RHO", 0.1)  # the chain's densities straddle it
    spec, a = _two_density_instance()
    chain = [(_compact(spec, np.arange(20)), False)]  # 68 / 1000
    for kept, dense in (([0, 1, 2, 3], True),   # 52 / 200
                        ([0, 1], True),         # 50 / 100
                        ([1, 2, 3], False),     # 2 / 150
                        ([1], False)):          # 0 / 50, a subset of a dense cut's
        chain.append((_compact(spec, np.array(kept)), dense))
    for w, dense in chain:
        assert (w.dense is not None) == dense
        if dense:
            assert w.dense.dtype == np.float64 and w.dense.flags.c_contiguous
            assert np.array_equal(w.dense, a[:, w.features])
    # the boundary: 50 entries over 100 cells
    for rho, dense in ((0.5, True), (np.nextafter(0.5, 1.0), False)):
        monkeypatch.setattr(G.solvers, "_RHO", rho)
        assert (_compact(spec, np.array([0, 1])).dense is not None) == dense
    # a scattered partition's dense twin follows its block-by-block numbering
    spec, a, _ = _kernel_instance("scattered")
    monkeypatch.setattr(G.solvers, "_RHO", 0.0)
    work = _compact(spec, np.arange(4))
    for w in (work, _compact(spec, np.array([1, 3]))):
        assert np.array_equal(w.dense, a[:, w.features])


def test_the_density_boundary_picks_the_rows_plan_gathers(monkeypatch):
    """At the module's _RHO, a design of exactly _RHO * n * p stored entries
    gets a dense twin and one with an entry fewer does not, and _plan yields
    dense rows exactly where the twin exists: each step's rows of the twin,
    as a (b, p) array, with the y, snapshot derivatives and columns lo:hi the
    sparse plan of the same design gives, and a gradient equal to the sparse
    one's to rounding."""
    n, p, q = 10, 20, 4
    at = G.solvers._RHO * n * p
    assert at == int(at) > 1
    rng = np.random.default_rng(8)
    cells = rng.permutation(n * p)
    y, g_snap = rng.normal(size=n), rng.normal(size=n)
    x, mu, x_ref = (rng.normal(size=p) for _ in range(3))
    batches = rng.integers(0, n, size=(5, 3))
    ibs = rng.integers(0, q, size=5)
    for stored, dense in ((int(at), True), (int(at) - 1, False)):
        a = np.zeros(n * p)
        a[cells[:stored]] = rng.uniform(0.5, 1.5, size=stored)
        a = a.reshape(n, p)
        spec = G.ProblemSpec(dataset=G.Dataset(a, y),
                             partition=G.BlockPartition.contiguous(p, q),
                             loss=G.LOSSES["squared"], reg=G.REGULARIZERS["l1"], lam=1.0)
        work = _compact(spec, np.arange(q))
        assert spec.dataset.A.nnz == stored and (work.dense is not None) == dense
        monkeypatch.setattr(G.solvers, "_RHO", math.inf)
        sparse = _compact(spec, np.arange(q))
        assert sparse.dense is None
        monkeypatch.undo()
        for step_ibs in (ibs, None):
            steps = list(_plan(work, y, g_snap, 5, batches, step_ibs))
            want = list(_plan(sparse, y, g_snap, 5, batches, step_ibs))
            for batch, (args, lo, hi), (w_args, w_lo, w_hi) in zip(batches, steps, want,
                                                                    strict=True):
                assert _form(args[0]) == ("dense" if dense else "sparse")
                if dense:
                    assert args[0].shape == (3, p)
                    assert args[0].tobytes() == a[batch].tobytes()
                assert (lo, hi) == (w_lo, w_hi)
                assert all(np.array_equal(u, v) for u, v in zip(args[1:], w_args[1:]))
                got = step_gradient(spec.loss, x, *args, lo, hi, mu, x_ref, 0.1)
                ref = step_gradient(spec.loss, x, *w_args, lo, hi, mu, x_ref, 0.1)
                np.testing.assert_allclose(got, ref, rtol=1e-13, atol=1e-13)


def _storage_instance(case):
    model = dict(model="logistic", reg="group_l2", n=90) if case == "logistic-group" else {}
    spec = make_instance(**{**dict(seed=11, n=60, d=40, q=8, support=4, ratio=0.5,
                                   mu_p=0.05 * (case == "mu-p")), **model})
    if case == "scattered":
        part = G.BlockPartition([np.arange(j, 40, 8) for j in range(8)])
        spec = dataclasses.replace(spec, partition=part)
    return spec


@pytest.mark.parametrize("case", ["lasso", "logistic-group", "scattered", "mu-p",
                                  "full-batch"])
@pytest.mark.parametrize("solver", ["adsgd", "mrbcd", "proxsvrg"])
def test_dense_and_sparse_storage_solve_alike(monkeypatch, case, solver):
    """The same seed draws the same rows and blocks on both storages, so the
    two solves screen, pick working sets and stop alike; their gaps differ
    only by the rounding of another summation order."""
    spec = _storage_instance(case)
    cfg = G.SolverConfig(solver=solver, seed=5, eta=tuned_eta(spec), gap_tol=1e-6,
                         max_outer=40, batch_size=spec.dataset.n if case == "full-batch"
                         else None)
    reps = []
    for rho in STORAGES:
        monkeypatch.setattr(G.solvers, "_RHO", rho)
        reps.append(G.solve(spec, cfg))
    sparse, dense = reps
    assert dense.outer_iters == sparse.outer_iters
    assert dense.coord_updates == sparse.coord_updates
    assert [h.tolist() for h in dense.active_history] == [
        h.tolist() for h in sparse.active_history]
    assert [r.working_blocks for r in dense.trace] == [r.working_blocks
                                                       for r in sparse.trace]
    assert [r.restart for r in dense.trace] == [r.restart for r in sparse.trace]
    # an optimal refined point's gap sits at the rounding of its objective, so
    # a refined row's gaps may instead differ by a few ulps of P
    for d_row, s_row in zip(dense.trace, sparse.trace):
        ulps = 8.0 * np.finfo(float).eps * abs(s_row.objective)
        assert d_row.gap == pytest.approx(
            s_row.gap, rel=1e-9, abs=ulps if s_row.restart == "refined" else 0.0)


def test_dense_storage_reruns_bit_for_bit(monkeypatch):
    """step_gradient's BLAS products on dense rows must not depend on where
    the arrays lie: on copies of its inputs at every 8-byte offset within 64
    bytes it gives the same bits, and so does a whole dense solve run twice
    with the heap moved in between."""
    rng = np.random.default_rng(4)
    loss = G.LOSSES["logistic"]
    for b, p, lo, hi in ((10, 40, 8, 12), (7, 333, 0, 333), (1, 9, 4, 5), (33, 130, 17, 99)):
        x_b, x = rng.normal(size=(b, p)), rng.normal(size=p)
        y, g, mu = rng.integers(0, 2, size=b) * 1.0, rng.normal(size=b), rng.normal(size=p)
        outs = set()
        for off in range(0, 64, 8):
            buf = np.empty(8 * (b * p + p) + 128, dtype=np.uint8)
            base = -buf.ctypes.data % 64 + off
            xb_at = np.frombuffer(buf, np.float64, b * p, base).reshape(b, p)
            x_at = np.frombuffer(buf, np.float64, p, base + 8 * b * p + 8 * (off // 8 % 3))
            xb_at[...], x_at[...] = x_b, x
            outs.add(step_gradient(loss, x_at, xb_at, y, g, lo, hi, mu, x, 0.1).tobytes())
        assert len(outs) == 1
    monkeypatch.setattr(G.solvers, "_RHO", 0.0)
    spec = _storage_instance("logistic-group")
    cfg = G.SolverConfig(seed=2, eta=tuned_eta(spec), gap_tol=1e-9, max_outer=15,
                         keep_iterates=True)
    first = G.solve(spec, cfg)
    ballast = [np.ones(k) for k in (3, 17, 1001, 4099)]  # noqa: F841 (moves the heap)
    second = G.solve(spec, cfg)
    assert [r.gap for r in first.trace] == [r.gap for r in second.trace]
    assert all(np.array_equal(u, v) for u, v in zip(first.iterates, second.iterates,
                                                    strict=True))


# ------------------------------------------------------------- epoch plan

@pytest.mark.parametrize("n", [3, 1000, 2 ** 31 + 5])
@pytest.mark.parametrize("b", [1, 10])
@pytest.mark.parametrize("q_k", [1, 50])
def test_one_draw_per_chunk_takes_the_per_step_stream(n, b, q_k):
    """The engine draws a chunk of steps with one integers call over bounds
    tiled step by step. That must give the values that a batch draw and a
    block draw per step give, and leave the generator in the same state, or
    every iterate moves. The rows-only and blocks-only draws are tiled too."""
    for seed in range(4):
        for rows, blocks in ((True, True), (True, False), (False, True)):
            per_step = np.random.Generator(np.random.Philox(seed))
            chunked = np.random.Generator(np.random.Philox(seed))
            want = []
            for _ in range(9):
                if rows:
                    want += per_step.integers(0, n, size=b).tolist()
                if blocks:
                    want.append(int(per_step.integers(0, q_k)))
            bounds = [n] * (b if rows else 0) + [q_k] * blocks
            assert chunked.integers(0, np.tile(bounds, 9)).tolist() == want
            assert chunked.integers(0, 2 ** 62) == per_step.integers(0, 2 ** 62)


class _CountingGenerator(np.random.Generator):
    """Records the number of values each integers call draws."""

    draws = []

    def integers(self, *args, **kwargs):
        out = super().integers(*args, **kwargs)
        self.draws.append(np.size(out))
        return out


@pytest.mark.parametrize("solver, batch_size, m", [("mrbcd", 10, 40), ("mrbcd", 10, 700),
                                                   ("proxsvrg", 10, 700),
                                                   ("mrbcd", 30, 700)])
def test_epoch_draws_once_per_chunk_and_never_past_its_steps(monkeypatch, solver,
                                                             batch_size, m):
    """One integers call per chunk, chunks sized by the entry cap and cut at m_k
    (m = 40 fits one chunk); a full batch (30 rows) draws only blocks. Both
    storages size their chunks alike, so they draw alike."""
    spec = make_instance(seed=6, n=30, d=20, q=6, support=3, ratio=0.6)
    monkeypatch.setattr(np.random, "Generator", _CountingGenerator)
    a = spec.dataset.A
    per_step = a.nnz if batch_size == 30 else batch_size * np.diff(a.indptr).max()
    chunk = max(1, _CHUNK_ENTRIES // per_step)
    drawn = (batch_size if batch_size < 30 else 0) + (solver == "mrbcd")
    want = [drawn * min(chunk, m - done) for done in range(0, m, chunk)] * 3
    for rho in STORAGES:
        monkeypatch.setattr(G.solvers, "_RHO", rho)
        monkeypatch.setattr(_CountingGenerator, "draws", [])
        rep = G.solve(spec, G.SolverConfig(solver=solver, seed=7, m=m, max_outer=3,
                                           batch_size=batch_size, gap_tol=1e-12,
                                           eta=tuned_eta(spec)))
        assert rep.outer_iters == 3
        assert _CountingGenerator.draws == want


@pytest.mark.parametrize("solver", ["adsgd", "mrbcd", "proxsvrg"])
@pytest.mark.parametrize("batch_size", [10, 30])
def test_every_inner_step_calls_the_kernel_and_the_prox_once(monkeypatch, solver,
                                                             batch_size):
    """Each inner step makes one positional call of step_gradient, on rows of
    its design's storage, and one block_prox call, and each row's inner_steps
    counts the steps of the epoch that produced it: at most inner_budget(m,
    |W|, q) on W, every one of them for the solvers that never screen, and 0
    on a row no epoch produced. A full-vector step updates every working
    column."""
    spec = _scattered_lasso() if solver in ("mrbcd", "proxsvrg") else make_instance(
        seed=6, n=30, d=20, q=6, support=3, ratio=0.6)
    prox = type(spec.reg).block_prox

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            if key != "prox":
                assert not kwargs
            counts[key or _form(args[2])] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(G.solvers, "step_gradient", counted(None, G.solvers.step_gradient))
    monkeypatch.setattr(type(spec.reg), "block_prox", counted("prox", prox))
    m, q = 45, spec.partition.q
    for rho, kernel in zip(STORAGES, ("sparse", "dense")):
        monkeypatch.setattr(G.solvers, "_RHO", rho)
        counts = {"sparse": 0, "dense": 0, "prox": 0}
        rep = G.solve(spec, G.SolverConfig(solver=solver, seed=3, m=m, max_outer=6,
                                           batch_size=batch_size, gap_tol=1e-12,
                                           eta=tuned_eta(spec)))
        widths = [r.working_blocks for r in rep.trace[1:]]
        steps = [r.inner_steps for r in rep.trace[1:]]
        budgets = [inner_budget(m, w, q) if w else 0 for w in widths]
        assert rep.trace[0].inner_steps == 0 and sum(steps) > 0
        assert counts == {"sparse": 0, "dense": 0, kernel: sum(steps), "prox": sum(steps)}
        assert all(0 < s <= b or s == b == 0 for s, b in zip(steps, budgets))
        if solver in ("mrbcd", "proxsvrg"):
            assert widths == [q] * rep.outer_iters and steps == budgets
        if solver == "proxsvrg":
            assert rep.coord_updates == sum(steps) * spec.dataset.d


def test_an_outside_wrapper_sees_every_phase_of_every_epoch(monkeypatch):
    """Wrapping the engine's phases through module attributes, as
    benchmarks/tracer.py wraps its layers, sees each epoch as one _epoch call,
    on the working design the next trace row counts, with its one _restart
    inside it unless the slot's refined point decided its row; a screening
    solve certifies each row but a decided one, screens before each epoch,
    and cuts one design for its first epoch and one more for each epoch whose
    blocks differ from the last epoch's, none for the starting row or for a
    safe set of its own. Only a screen that drops blocks builds an
    ActiveSet: the engine cuts its designs by block ids."""
    calls = []

    def spied(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((name, args))
            return fn(*args, **kwargs)
        return wrapper

    for name in ("_epoch", "_restart", "_certify", "_compact"):
        monkeypatch.setattr(G.solvers, name, spied(name, getattr(G.solvers, name)))
    decided = spy_decided(monkeypatch)
    monkeypatch.setattr(G.ActiveSet, "keep", spied("keep", G.ActiveSet.keep))
    screen = spied("screen", G.duality.screen)
    for module in (G.duality, G.solvers):  # every module that holds the function
        monkeypatch.setattr(module, "screen", screen)
    spec = make_instance(seed=1, n=60, d=80, q=10, sparsity=0.03)
    for solver in ("adsgd", "mrbcd"):
        calls.clear()
        decided.clear()
        rep = G.solve(spec, G.SolverConfig(solver=solver, seed=1, gap_tol=1e-6,
                                           max_outer=40, eta=tuned_eta(spec, 1.0)))
        names = [name for name, _ in calls]
        epochs = [args[1] for name, args in calls if name == "_epoch"]
        rows = rep.trace[1:]
        restarted = [slot is None for slot in decided]
        assert len(epochs) == rep.outer_iters == len(restarted)
        assert names.count("_restart") == sum(restarted)
        assert [work.blocks.size for work in epochs] == [r.working_blocks for r in rows]
        assert [names[i + 1] == "_restart" for i, name in enumerate(names)
                if name == "_epoch"] == restarted
        compacts = names.count("_compact")
        drops = [b.active_blocks < a.active_blocks for a, b in zip(rep.trace, rep.trace[1:])]
        assert names.count("keep") == sum(drops)
        if solver == "mrbcd":
            assert names.count("_certify") == names.count("screen") == 0
            assert compacts == 1 and {r.working_blocks for r in rows} == {spec.partition.q}
            continue
        assert names.count("_certify") == len(rep.trace) - restarted.count(False)
        assert True in restarted and False in restarted  # one epoch of each kind
        assert names.count("screen") == rep.outer_iters
        phases = ["_certify"]
        for ran in restarted:
            phases += ["screen", "_epoch"] + ["_restart", "_certify"] * ran
        assert [name for name in names
                if name in ("_certify", "screen", "_epoch", "_restart")] == phases
        changes = sum(not np.array_equal(a.blocks, b.blocks)
                      for a, b in zip(epochs, epochs[1:]))
        assert compacts == 1 + changes and changes > 0
        assert rows[-1].active_blocks < spec.partition.q


def _scattered_lasso():
    spec = make_instance(seed=6, n=30, d=20, q=5, support=3, ratio=0.6)
    part = G.BlockPartition([np.arange(j, 20, 5) for j in range(5)])
    return dataclasses.replace(spec, partition=part)


@pytest.mark.parametrize("q", [30, 300])
@pytest.mark.parametrize("batch_size", [None, 1])
def test_solvers_finish_when_a_step_gathers_nothing(q, batch_size):
    """On a 2%-dense design many sampled blocks, and after compaction whole
    sampled rows, hold no entries; every solver must still step."""
    data = generate_synthetic(SyntheticParams(n=200, d=300, sparsity=0.02,
                                              noise=0.01, seed=0))
    for solver, mu_p in (("adsgd", 0.0), ("mrbcd", 0.0), ("proxsvrg", 0.0),
                         ("adsgd", 0.05)):
        spec = build_spec(data, model="lasso", q=q, mu_p=mu_p)
        rep = G.solve(spec, G.SolverConfig(solver=solver, seed=0, max_outer=3,
                                           batch_size=batch_size))
        assert rep.outer_iters == 3
        assert np.all(np.isfinite(rep.x_final)) and np.isfinite(rep.gap)


# ------------------------------------------------------------------- adsgd

def test_adsgd_converges_to_oracle_equicorrelation_set():
    spec = make_instance(seed=5, n=100, d=200)
    oracle = G.reference_solve(spec, tol=1e-12)
    rep = G.adsgd_solve(spec, G.SolverConfig(seed=5, gap_tol=1e-6, max_outer=200,
                                             eta=tuned_eta(spec)))
    assert rep.converged
    eq = set(G.equicorrelation_set(spec, oracle.dual).tolist())
    assert set(rep.active_history[-1].tolist()) == eq
    assert np.max(np.abs(rep.x_final - oracle.x_final)) < 1e-4


def test_adsgd_screened_coordinates_are_exact_zeros():
    spec = make_instance(seed=6, n=80, d=120)
    rep = G.adsgd_solve(spec, G.SolverConfig(seed=6, gap_tol=1e-6, max_outer=120,
                                             eta=tuned_eta(spec)))
    removed = sorted(set(range(spec.partition.q)) - set(rep.active_history[-1].tolist()))
    assert removed, "expected screening activity on this instance"
    for j in removed:
        assert np.all(rep.x_final[spec.partition.groups[j]] == 0.0)


def test_trace_counts_monotone_and_final_row_contract():
    spec = make_instance(seed=7, n=60, d=90)
    rep = G.adsgd_solve(spec, G.SolverConfig(seed=7, gap_tol=1e-6, max_outer=100,
                                             eta=tuned_eta(spec)))
    blocks = [r.active_blocks for r in rep.trace]
    feats = [r.active_features for r in rep.trace]
    assert blocks == sorted(blocks, reverse=True)
    assert feats == sorted(feats, reverse=True)
    assert rep.converged and rep.trace[-1].gap <= 1e-6
    times = [r.elapsed_s for r in rep.trace]
    assert times == sorted(times)


def test_adsgd_certificates_hold_on_the_tall_benchmark_instance():
    """The benchmark's lasso-tall instance at its step size, 8 solver seeds:
    a converged solve lies within gap_tol of the optimum. A radius of
    sqrt(2 T gap) with a gap scaled over the surviving blocks only certified
    points 0.24 and 0.40 above it here (seeds 4 and 6)."""
    data = generate_synthetic(SyntheticParams(n=2000, d=40, sparsity=1.0, seed=3))
    spec = build_spec(data, model="lasso", lambda_ratio=0.5, q=10)
    p_star = G.primal_objective(spec, G.reference_solve(spec, tol=1e-10).x_final)
    eta = tuned_eta(spec)
    for seed in range(8):
        rep = G.adsgd_solve(spec, G.SolverConfig(seed=seed, gap_tol=1e-6,
                                                 max_outer=300, eta=eta))
        assert rep.converged, seed
        assert G.primal_objective(spec, rep.x_final) - p_star <= 1e-6, seed


def _record_working_sets(monkeypatch):
    """Wrap the engine's working-set choice; returns the list of (the nonzero
    blocks of the row's point, safe blocks, working blocks, scaled
    correlations) of every call, in call order."""
    calls, choose = [], G.solvers._working_blocks

    def recorded(spec, active, blocks, dp):
        out = choose(spec, active, blocks, dp)
        calls.append((blocks.copy(), active.blocks.copy(), out, dp.correlations))
        return out

    monkeypatch.setattr(G.solvers, "_working_blocks", recorded)
    return calls


@pytest.mark.parametrize("full_batch", [False, True], ids=["adsgd", "adsgd-full-batch"])
def test_working_set_holds_every_block_where_x_hat_is_nonzero(monkeypatch, full_batch):
    """Each epoch runs on safe blocks only, on every block where x_hat is
    nonzero, those of low correlation included, and updates nothing else:
    the next iterate is zero off it. The working set is chosen once per
    epoch, so not for a last refined row that ran none."""
    spec = make_instance(seed=47, n=100, d=200, q=10, ratio=0.2)
    calls = _record_working_sets(monkeypatch)
    batch = spec.dataset.n if full_batch else None
    rep = G.solve(spec, G.SolverConfig(solver="adsgd", seed=0, gap_tol=1e-6,
                                       max_outer=200, eta=tuned_eta(spec),
                                       batch_size=batch, keep_iterates=True))
    assert rep.converged and len(calls) == len(epoch_rows(rep))
    block_of, low = spec.partition.block_of, 0
    for k, (nonzero, safe, wb, corr) in enumerate(calls):
        assert np.array_equal(nonzero, np.unique(block_of[np.flatnonzero(rep.iterates[k])]))
        assert set(nonzero.tolist()) <= set(wb.tolist()) <= set(safe.tolist())
        assert set(block_of[np.flatnonzero(rep.iterates[k + 1])].tolist()) <= set(wb.tolist())
        assert rep.trace[k + 1].working_blocks == wb.size
        low += np.count_nonzero(corr[nonzero] < 0.7 * spec.lam)
    assert low > 0 and any(wb.size < safe.size for _, safe, wb, _ in calls)


def test_a_wrong_screen_cannot_certify(monkeypatch):
    """A screen forced to drop support block 4 as well leaves the run
    uncertified: the gap scales the dual over every block, so it stays above
    the suboptimality of the best point without that block."""
    spec = make_instance(seed=40, n=100, d=200, q=10)
    oracle = G.reference_solve(spec, tol=1e-12)
    assert np.any(oracle.x_final[spec.partition.groups[4]] != 0.0)
    real = G.solvers.screen

    def wrong(spec, dp, r, active, bounds):
        out = real(spec, dp, r, active, bounds)
        return out.keep(out.blocks[out.blocks != 4])

    monkeypatch.setattr(G.solvers, "screen", wrong)
    rep = G.adsgd_solve(spec, G.SolverConfig(seed=0, gap_tol=1e-6, max_outer=40,
                                             eta=tuned_eta(spec)))
    assert 4 not in rep.active_history[-1]
    assert not rep.converged
    assert rep.gap >= G.primal_objective(spec, rep.x_final) - oracle.objective > 1e-6


def test_a_working_set_missing_a_support_block_still_certifies(monkeypatch):
    """At x = 0 block 3 of this instance correlates below 0.7 lam after
    scaling, so the first working set leaves it out although the optimum is
    nonzero on it; it joins a later one, and the run ends on a full-problem
    certificate."""
    spec = make_instance(seed=40, n=100, d=200, q=10)
    oracle = G.reference_solve(spec, tol=1e-12)
    calls = _record_working_sets(monkeypatch)
    rep = G.adsgd_solve(spec, G.SolverConfig(seed=0, gap_tol=1e-6, max_outer=200,
                                             eta=tuned_eta(spec)))
    group = spec.partition.groups[3]
    assert 3 not in calls[0][2] and np.any(oracle.x_final[group] != 0.0)
    assert rep.converged and rep.gap <= 1e-6
    assert np.any(rep.x_final[group] != 0.0)
    assert G.primal_objective(spec, rep.x_final) - oracle.objective <= 1e-6


@pytest.mark.parametrize("full_batch", [False, True], ids=["adsgd", "adsgd-full-batch"])
@pytest.mark.parametrize("build", [
    lambda: make_instance(seed=42, n=80, d=160, ratio=0.3),
    lambda: make_instance(seed=43, n=120, d=60, q=12, model="logistic", reg="group_l2"),
    lambda: make_instance(seed=44, n=90, d=120, mu_p=0.01),
    lambda: make_instance(seed=45, n=300, d=30, q=6, sparsity=1.0, scale=0.3),
], ids=["l1", "logistic-group", "mu-p", "tall"])
def test_a_converged_report_certifies_the_full_problem(build, full_batch):
    """report.dual is feasible for the full problem: rebuilt from its theta
    (and kappa), every block's correlation is at most lam. P(x_final) -
    D(report.dual) gives the reported gap bit for bit, it is at most gap_tol
    and at least the true suboptimality. The dual point is x_final's own, a
    returned refined point's included, so that is also x_final's
    re-evaluated gap."""
    spec = build()
    batch = spec.dataset.n if full_batch else None
    rep = G.solve(spec, G.SolverConfig(solver="adsgd", seed=1, gap_tol=1e-6,
                                       max_outer=400, eta=tuned_eta(spec),
                                       batch_size=batch))
    assert rep.converged
    x, ds = rep.x_final, spec.dataset
    corr = ds.A.T @ rep.dual.theta
    if rep.dual.kappa is not None:
        corr = corr + rep.dual.kappa
    worst = G.problem.blockwise_dual_norms(corr, spec.partition, spec.reg).max() / ds.n
    assert worst <= spec.lam * (1.0 + 1e-12)
    assert G.duality.duality_gap(spec, x, rep.dual) == rep.gap <= 1e-6
    p_star = G.reference_solve(spec, tol=1e-12).objective
    assert rep.gap >= G.primal_objective(spec, x) - p_star - 1e-12
    _, _, _, own = G.solvers.evaluate(spec, x, ds.A @ x)
    assert own == rep.gap


@pytest.mark.parametrize("solver", ["adsgd", "mrbcd", "proxsvrg"])
@pytest.mark.parametrize("batch_size", [10, 30])
@pytest.mark.parametrize("inject", [None, "tie", "nan-average", "nan-last"])
def test_each_epoch_restarts_from_the_candidate_with_the_smaller_gap(
        monkeypatch, solver, batch_size, inject):
    """After the starting evaluation every epoch evaluates exactly two
    candidates on the full problem, its average and then its last inner
    iterate, unless the slot's refined point already decides its row
    (_epoch), where it evaluates neither; a refinement evaluates its point
    through the same evaluate, once per refinement that finds a point, apart
    from these. The next row is the candidate with the smaller gap; a tie
    keeps the average, and a nan gap, injected on either candidate of an
    epoch that is not decided, never wins. The row's gap is that
    evaluation's. A row whose candidate's model has a refined point of lower
    objective holds that point with its own gap instead, as a decided row
    does, and a last row without an epoch, where the screen after such a row
    leaves exactly its point's nonzero blocks, holds the same point. Only
    the screening solvers refine or decide, and a refinement may find no
    point. adsgd decides every epoch of these runs, so under an injection an
    infinite rounding margin keeps the check from deciding
    any, and each injected gap reaches _restart. batch_size 30 is the full
    batch."""
    spec = make_instance(seed=6, n=30, d=20, q=6, support=3, ratio=0.6)
    if inject is not None:
        monkeypatch.setattr(G.solvers, "_rounding", lambda spec, *values: math.inf)
    decided = spy_decided(monkeypatch)
    calls, evaluate = [], G.solvers.evaluate
    certs, certify = [], G.solvers._refined_certificate
    refining, refined_calls = [False], []

    def spied(*args):
        obj, g, dp, gap = evaluate(*args)
        if refining[0]:  # a refined point's evaluation, neither counted nor injected
            refined_calls.append(args[1].copy())
            return obj, g, dp, gap
        k = len(calls)  # 0 starts the solve, odd k is an average, even k a last iterate
        if k and inject == "tie" and k % 2 == 0:
            gap = calls[-1][2]
        elif k and inject == f"nan-{('last', 'average')[k % 2]}":
            gap = np.float64(np.nan)
        calls.append((args[1].copy(), obj, gap))
        return obj, g, dp, gap

    def spied_certificate(spec, work, v):
        refining[0] = True
        try:
            out = certify(spec, work, v)
        finally:
            refining[0] = False
        certs.append((G.solvers._model(spec, work.features, v)[0], out))
        return out

    monkeypatch.setattr(G.solvers, "evaluate", spied)
    monkeypatch.setattr(G.solvers, "_refined_certificate", spied_certificate)
    rep = G.solve(spec, G.SolverConfig(solver=solver, seed=3, m=45, max_outer=6,
                                       batch_size=batch_size, gap_tol=1e-12,
                                       eta=tuned_eta(spec), keep_iterates=True))
    assert rep.outer_iters == 6 or rep.trace[-1].restart == "refined"
    rows = epoch_rows(rep)
    assert all(r.working_blocks for r in rows) and len(decided) == len(rows)
    restarted = decided.count(None)
    assert len(calls) == 1 + 2 * restarted
    assert rep.trace[0].restart == "start" and rep.trace[0].gap == calls[0][2]
    assert (restarted < len(rows)) == (solver == "adsgd" and inject is None)
    if solver in ("mrbcd", "proxsvrg"):
        assert certs == []
    found = [c for c in certs if c[1] is not None]
    assert len(refined_calls) == len(found)
    assert all(np.array_equal(x_r, c[1][0]) for x_r, c in zip(refined_calls, found))
    labels, pairs = [], iter(range(1, len(calls), 2))
    for k, (row, slot) in enumerate(zip(rows, decided)):
        if slot is not None:  # the slot's refined point, with its own evaluation
            x_r, (obj_r, _, _, gap_r) = slot[1]
            assert row.restart == "refined" and np.array_equal(rep.iterates[k + 1], x_r)
            assert (row.objective, row.gap) == (obj_r, gap_r)
            assert any(c[1] is slot[1] for c in found)
            continue
        i = next(pairs)
        (x_avg, obj_avg, gap_avg), (x_last, obj_last, gap_last) = calls[i:i + 2]
        chosen = "last" if np.isfinite(gap_last) and not gap_avg <= gap_last else "average"
        x, obj, gap = {"average": (x_avg, obj_avg, gap_avg),
                       "last": (x_last, obj_last, gap_last)}[chosen]
        assert gap == min(g for g in (gap_avg, gap_last) if np.isfinite(g))
        if row.restart != "refined":
            assert row.restart == chosen and np.array_equal(rep.iterates[k + 1], x)
            assert row.gap == gap
        else:  # the refined point of the candidate's model, with its own evaluation
            model, (x_r, (obj_r, _, _, gap_r)) = next(
                c for c in found if np.array_equal(c[1][0], rep.iterates[k + 1]))
            assert model == _key(spec, x) and obj_r < obj
            assert (row.objective, row.gap) == (obj_r, gap_r)
        labels.append(chosen)
    if len(rows) < rep.outer_iters:  # the refined point of the row before, kept
        before, last = rep.trace[-2:]
        assert np.array_equal(rep.x_final, rep.iterates[-2]) and before.restart == "refined"
        assert (last.objective, last.gap) == (before.objective, before.gap)
        assert last.gap <= 1e-12
        assert np.array_equal(np.unique(spec.partition.block_of[np.flatnonzero(rep.x_final)]),
                              rep.active_history[-1])
        assert last.restart == "refined" and last.identified and rep.converged
    assert np.array_equal(rep.x_final, rep.iterates[-1])
    if inject == "nan-average":
        assert set(labels) == {"last"}
    elif inject is not None:
        assert set(labels) == {"average"}


def _radius(spec, row, dp):
    """The radius of the screen after the trace row, dp being its dual point:
    safe_radius of the row's gap padded by its rounding bound."""
    padded = G.duality._padded_gap(spec, (row.objective, None, dp, row.gap))
    return G.safe_radius(spec, padded)


def test_trace_records_the_screening_radius_and_the_working_set(monkeypatch):
    """Every row after the first has the radius of the screen after the
    previous row: safe_radius of the previous row's gap, that of its own
    point, padded by its rounding bound. Its working blocks lie within its
    safe blocks, and the starting row has none, nor has a last row that
    returns the refined point its screen settled."""
    spec = make_instance(seed=7, n=60, d=90)
    calls = _spy_refinements(monkeypatch)
    screens = _spy_screens(monkeypatch)
    rep = G.adsgd_solve(spec, G.SolverConfig(seed=7, gap_tol=1e-6, max_outer=100,
                                             eta=tuned_eta(spec), keep_iterates=True))
    assert rep.converged and calls
    first = rep.trace[0]
    assert (first.radius, first.working_blocks) == (math.inf, 0)
    assert len(screens) == len(rep.trace) - 1
    for k, (prev, row) in enumerate(zip(rep.trace, rep.trace[1:])):
        assert row.radius == screens[k][1] == _radius(spec, prev, screens[k][0])
        if k < len(epoch_rows(rep)):
            assert 0 < row.working_blocks <= row.active_blocks
        else:
            assert row.working_blocks == 0 and row.restart == "refined"
    assert any(r.working_blocks < r.active_blocks for r in rep.trace[1:])


def test_not_converged_run_is_flagged(monkeypatch):
    """A solve cut off by max_outer = 2, with the refinement gate shut, ends
    uncertified."""
    monkeypatch.setattr(G.solvers, "_REFINE_COST", 0.0)
    spec = make_instance(seed=8, n=60, d=90)
    rep = G.adsgd_solve(spec, G.SolverConfig(seed=8, gap_tol=1e-12, max_outer=2))
    assert not rep.converged and rep.trace[-1].gap > 1e-12
    assert rep.outer_iters == 2


def test_adsgd_returns_zero_above_lambda_max():
    spec = hand_lasso()  # lam = lambda_max = 1
    spec = dataclasses.replace(spec, lam=1.0 + 1e-12)
    rep = G.adsgd_solve(spec, G.SolverConfig(seed=0, batch_size=2))
    assert np.all(rep.x_final == 0.0)
    assert rep.converged and rep.outer_iters <= 1


@pytest.mark.parametrize("case", ["lasso", "logistic-group"])
def test_lambda_max_holds_with_the_perturbation(case):
    """lambda_max takes the gradient at x = 0, where the perturbation
    mu_p ||x||^2 is centred, so it stays exact with mu_p > 0: just above it
    the reference and adsgd return exactly 0, and at 0.9 of it a nonzero
    point, each with a certified gap."""
    spec = (make_instance(seed=9, n=50, d=60, mu_p=0.05) if case == "lasso"
            else make_instance(seed=12, n=80, d=40, q=8, model="logistic",
                               reg="group_l2", mu_p=0.05))
    lmax = G.lambda_max(spec)
    for ratio, zero in ((1 + 1e-9, True), (0.9, False)):
        at = dataclasses.replace(spec, lam=lmax * ratio)
        for rep in (G.reference_solve(at, tol=1e-10),
                    G.adsgd_solve(at, G.SolverConfig(seed=0))):
            assert rep.converged
            assert (not rep.x_final.any()) == zero


# ------------------------------------------------------------------- mrbcd

def test_mrbcd_is_adsgd_without_screening_bit_for_bit(monkeypatch):
    """adsgd whose screens keep every block, whose working sets are the safe
    set and which refines no model takes mrbcd's steps, bit for bit."""
    inert_screening(monkeypatch)
    spec = make_instance(seed=11, n=60, d=90)
    cfg = G.SolverConfig(seed=3, gap_tol=1e-6, max_outer=10, m=80,
                         eta=tuned_eta(spec), keep_iterates=True)
    a = G.adsgd_solve(spec, cfg)
    b = G.mrbcd_solve(spec, cfg)
    assert all(np.array_equal(u, v) for u, v in zip(a.iterates, b.iterates))
    assert np.array_equal(a.x_final, b.x_final)
    assert [r.gap for r in a.trace] == [r.gap for r in b.trace]


def test_mrbcd_active_blocks_stay_at_q():
    spec = make_instance(seed=12, n=50, d=60, q=6)
    rep = G.mrbcd_solve(spec, G.SolverConfig(seed=1, max_outer=8, eta=tuned_eta(spec)))
    assert all(r.active_blocks == 6 for r in rep.trace)


# ---------------------------------------------------------------- proxsvrg

def _full_gap(spec, x):
    return G.solvers.evaluate(spec, x, spec.dataset.A @ x)[3]


def _restarted(spec, avg, last):
    """(x, label) of a replayed epoch's next iterate: the candidate with the
    smaller full-problem gap, a tie keeping the average."""
    gap_avg, gap_last = _full_gap(spec, avg), _full_gap(spec, last)
    assert abs(gap_avg - gap_last) > 1e-9 * gap_avg  # replay rounding cannot flip it
    return (last, "last") if gap_last < gap_avg else (avg, "average")


def test_proxsvrg_full_batch_is_deterministic_prox_gradient():
    spec = make_instance(seed=13, n=25, d=16, q=4)
    n = spec.dataset.n
    eta = tuned_eta(spec)
    cfg = G.SolverConfig(solver="proxsvrg", seed=0, eta=eta, m=5, batch_size=n,
                         max_outer=1, gap_tol=1e-14)
    rep = G.proxsvrg_solve(spec, cfg)
    x = np.zeros(16)
    acc = np.zeros(16)
    for _ in range(5):
        x = soft_threshold(x - eta * G.full_gradient(spec, x), eta * spec.lam)
        acc += x
    want, label = _restarted(spec, acc / 5, x)
    assert rep.trace[1].restart == label
    np.testing.assert_allclose(rep.x_final, want, rtol=0, atol=1e-12)


def test_all_solvers_match_oracle_on_one_instance():
    spec = make_instance(seed=14, n=90, d=140)
    oracle = G.reference_solve(spec, tol=1e-12)
    eta = tuned_eta(spec)
    n = spec.dataset.n
    configs = {
        "adsgd": G.SolverConfig(solver="adsgd", seed=2, eta=eta, gap_tol=1e-6,
                                max_outer=200),
        "adsgd, full batch": G.SolverConfig(solver="adsgd", seed=2, eta=eta,
                                            gap_tol=1e-6, max_outer=200, batch_size=n),
        "mrbcd": G.SolverConfig(solver="mrbcd", seed=2, eta=eta, gap_tol=1e-6,
                                max_outer=200),
        "proxsvrg": G.SolverConfig(solver="proxsvrg", seed=2, eta=eta,
                                   gap_tol=1e-6, max_outer=200),
    }
    for name, cfg in configs.items():
        rep = G.solve(spec, cfg)
        assert rep.converged, name
        err = np.max(np.abs(rep.x_final - oracle.x_final))
        assert err < 1e-4, f"{name}: {err}"


# --------------------------------------------------------------- reference

def test_reference_orthonormal_design_matches_soft_threshold():
    from gapsgd.harness import SyntheticParams, build_spec, generate_synthetic

    data = generate_synthetic(SyntheticParams(n=80, d=40, noise=0.0, seed=21,
                                              support_size=6, orthonormal=True))
    spec = build_spec(data, model="lasso", lambda_ratio=0.25, q=10)
    rep = G.reference_solve(spec, tol=1e-10)
    a = np.asarray(spec.dataset.A.todense())
    closed = soft_threshold(a.T @ spec.dataset.y / spec.dataset.n, spec.lam)
    np.testing.assert_allclose(rep.x_final, closed, rtol=0, atol=1e-8)


def test_reference_support_stable_across_tolerances():
    spec = make_instance(seed=15, n=70, d=100)
    s8 = G.reference_solve(spec, tol=1e-8).support
    s10 = G.reference_solve(spec, tol=1e-10).support
    np.testing.assert_array_equal(s8, s10)


def test_reference_iteration_cap_raises_with_best_gap():
    spec = make_instance(seed=16, n=60, d=90)
    with pytest.raises(G.ConvergenceError) as exc:
        G.reference_solve(spec, tol=1e-12, max_iter=2)
    assert exc.value.best_gap is not None and exc.value.best_gap > 0


def test_reference_rejects_bad_tol():
    with pytest.raises(ValueError):
        G.reference_solve(hand_lasso(), tol=0.0)


@pytest.mark.parametrize("max_iter", [2.5, -1, True, np.float64(3.0)])
def test_reference_rejects_a_cap_that_is_not_a_count(monkeypatch, max_iter):
    """max_iter is a nonnegative Python or numpy integer, not a bool, checked
    before the first evaluation; a numpy integer runs as its value."""
    evaluated = []
    monkeypatch.setattr(G.solvers, "evaluate", lambda *args: evaluated.append(1))
    with pytest.raises(ValueError, match="max_iter must be a nonnegative integer"):
        G.reference_solve(hand_lasso(), max_iter=max_iter)
    assert evaluated == []


def test_reference_takes_a_numpy_integer_cap():
    spec = make_instance(seed=16, n=60, d=90)
    assert G.reference_solve(spec, max_iter=np.int64(3000)).converged
    with pytest.raises(G.ConvergenceError, match="within 3 iterations"):
        G.reference_solve(spec, tol=1e-12, max_iter=np.int64(3))


# ------------------------------------------------------------ error paths

def test_divergence_error_names_iteration():
    spec = make_instance(seed=17, n=40, d=30)
    with pytest.raises(G.DivergenceError) as exc:
        G.adsgd_solve(spec, G.SolverConfig(seed=0, eta=1e9, max_outer=50))
    assert exc.value.iteration is not None
    assert "iteration" in str(exc.value)


@pytest.mark.parametrize("seed,certifies", [(10, False), (12, False), (15, False),
                                            (16, False), (11, True)])
def test_a_runaway_objective_is_divergence_while_it_is_finite(monkeypatch, seed, certifies):
    """At eta = 1/L_spec, batch 1, with the refinement gate shut, adsgd's
    objective on these instances grows row on row, to 1e131-1e174 by outer
    iteration 60 with every value finite. Once a row passes _RUNAWAY times
    P(0) the solve raises DivergenceError naming that row, instead of
    returning converged=False at max_outer; on seed 11 the same step
    certifies, and no row comes near the bound. (With the gate open, an
    adopted refined point rescues the runaway solves.)"""
    monkeypatch.setattr(G.solvers, "_REFINE_COST", 0.0)
    spec = make_instance(seed, n=60, d=80, q=10)
    cfg = G.SolverConfig(solver="adsgd", eta=1.0 / _spectral_bound(spec), batch_size=1,
                         m=60, max_outer=60, seed=0)
    if certifies:
        report = G.solve(spec, cfg)
        assert report.converged
        assert max(r.objective for r in report.trace) < 2 * report.trace[0].objective
        return
    with pytest.raises(G.DivergenceError, match=r"^objective ran away to .*, over 1e\+06 "
                       r"times P\(0\), at outer iteration \d+$") as exc:
        G.solve(spec, cfg)
    assert 1 <= exc.value.iteration < cfg.max_outer


def test_invalid_configs_rejected(lasso_spec):
    bad = [
        G.SolverConfig(eta=0.0),
        G.SolverConfig(eta=-1.0),
        G.SolverConfig(batch_size=0),
        G.SolverConfig(batch_size=10 ** 6),
        G.SolverConfig(gap_tol=0.0),
        G.SolverConfig(max_outer=0),
        G.SolverConfig(m=0),
        G.SolverConfig(eta=math.nan),
        G.SolverConfig(eta=math.inf),
        G.SolverConfig(gap_tol=math.nan),
        G.SolverConfig(gap_tol=math.inf),
        # counts are integers: none is rounded
        G.SolverConfig(max_outer=2.5),
        G.SolverConfig(batch_size=2.5),
        G.SolverConfig(m=7.9),
        G.SolverConfig(seed=1.5),
        G.SolverConfig(m=np.float64(8.0)),
        # a bool is not a count: none runs as 1
        G.SolverConfig(m=True),
        G.SolverConfig(batch_size=True),
        G.SolverConfig(max_outer=True),
        G.SolverConfig(seed=True),
        # nor is it a step size or a tolerance: none runs as 1.0, numpy's neither
        G.SolverConfig(eta=True),
        G.SolverConfig(gap_tol=True),
        G.SolverConfig(eta=np.True_),
        G.SolverConfig(gap_tol=np.True_),
        # keep_iterates is a bool, not a truthy value
        G.SolverConfig(keep_iterates="no"),
        G.SolverConfig(keep_iterates=1),
    ]
    for cfg in bad:
        with pytest.raises(ValueError):
            G.adsgd_solve(lasso_spec, cfg)
    for solver in ("nope", None, 3):
        with pytest.raises(ValueError, match=r"unknown solver .*adsgd.*reference"):
            G.solve(lasso_spec, G.SolverConfig(solver=solver))
    for tol in (0.0, math.nan, math.inf, True, np.True_):
        with pytest.raises(ValueError):
            G.reference_solve(lasso_spec, tol=tol)
    for tol in (True, np.True_):  # the reference's tolerance is gap_tol
        with pytest.raises(ValueError):
            G.solve(lasso_spec, G.SolverConfig(solver="reference", gap_tol=tol))


# ------------------------------------------------------------- resolution

def test_resolve_defaults(lasso_spec):
    consts = G.lipschitz_constants(lasso_spec)
    eta, m, batch = _resolve(lasso_spec, G.SolverConfig())
    assert eta == pytest.approx(1.0 / (16 * consts.L))
    assert m == lasso_spec.dataset.n
    assert batch == 10


def test_solver_config_holds_only_the_settings_a_solve_reads():
    """The removed theory preset and its strong convexity constant are not
    fields: passing either is a TypeError, not a setting that is ignored."""
    assert [f.name for f in dataclasses.fields(G.SolverConfig)] == [
        "solver", "eta", "m", "batch_size", "max_outer", "gap_tol", "seed",
        "keep_iterates"]
    for removed in ({"theory_mode": True}, {"mu_strong": 0.5}, {"mu_strong": -1.0}):
        with pytest.raises(TypeError, match="unexpected keyword"):
            G.SolverConfig(**removed)


def test_smoothness_bounds_are_computed_only_for_the_defaults_that_read_them(
        monkeypatch, lasso_spec):
    """An explicit eta leaves no default that needs lipschitz_constants, so no
    solve computes it; a default eta does, once per solve."""
    calls = []
    lipschitz = G.solvers.lipschitz_constants
    monkeypatch.setattr(G.solvers, "lipschitz_constants",
                        lambda spec: calls.append(1) or lipschitz(spec))
    for solver in ("adsgd", "mrbcd", "proxsvrg"):
        G.solve(lasso_spec, G.SolverConfig(solver=solver, eta=0.01, max_outer=1))
    assert calls == []
    for solver in ("adsgd", "mrbcd", "proxsvrg"):
        G.solve(lasso_spec, G.SolverConfig(solver=solver, max_outer=1))
    assert calls == [1, 1, 1]


@pytest.mark.parametrize("stored", ["none", "explicit zeros"])
@pytest.mark.parametrize("solver", ["adsgd", "mrbcd", "proxsvrg"])
def test_an_all_zero_design_is_rejected_with_an_explicit_eta(stored, solver):
    """A design with no nonzero entry still raises DegenerateProblemError from
    every engine solve when no default computes the smoothness bounds."""
    a = sp.csr_matrix((3, 4)) if stored == "none" else sp.csr_matrix(
        (np.zeros(3), ([0, 1, 2], [0, 3, 1])), shape=(3, 4))
    ds = G.Dataset(a, np.array([1.0, -1.0, 0.5]))
    assert ds.A.nnz == (0 if stored == "none" else 3)
    spec = G.ProblemSpec(dataset=ds, partition=G.BlockPartition.contiguous(4, 2),
                         loss=G.LOSSES["squared"], reg=G.REGULARIZERS["l1"], lam=1.0)
    with pytest.raises(G.DegenerateProblemError):
        G.solve(spec, G.SolverConfig(solver=solver, eta=0.1))


# ---------------------------------------------------- group and perturbed

def test_group_penalty_end_to_end():
    spec = make_instance(seed=19, n=80, d=60, q=12, ratio=0.4, reg="group_l2",
                         support=6, placement="prefix")
    oracle = G.reference_solve(spec, tol=1e-11)
    rep = G.adsgd_solve(spec, G.SolverConfig(seed=3, gap_tol=1e-8, max_outer=400,
                                             eta=tuned_eta(spec)))
    assert rep.converged
    assert np.max(np.abs(rep.x_final - oracle.x_final)) < 1e-4
    removed = set(range(12)) - set(rep.active_history[-1].tolist())
    for j in removed:
        assert np.max(np.abs(oracle.x_final[spec.partition.groups[j]]),
                      initial=0.0) <= 1e-9


def test_only_screening_solves_compute_column_bounds(monkeypatch):
    spec = make_instance(seed=6, n=40, d=20, q=5, support=3, ratio=0.6,
                         model="logistic", reg="group_l2")
    real = G.solvers.column_bounds

    def refuse(_spec):
        raise AssertionError("column_bounds called by a solve that never screens")

    monkeypatch.setattr(G.solvers, "column_bounds", refuse)
    for solver in ("reference", "mrbcd", "proxsvrg"):
        cfg = G.SolverConfig(solver=solver, seed=1, m=40, max_outer=5,
                             eta=tuned_eta(spec))
        assert np.isfinite(G.solve(spec, cfg).gap)
    calls = []
    monkeypatch.setattr(G.solvers, "column_bounds", lambda s: calls.append(s) or real(s))
    rep = G.adsgd_solve(spec, G.SolverConfig(seed=1, m=40, max_outer=10,
                                             eta=tuned_eta(spec)))
    assert len(rep.active_history[-1]) < spec.partition.q  # it did screen
    assert len(calls) == 1


@pytest.mark.parametrize("solver, layer", [("adsgd", "column_bounds"),
                                           ("reference", "_one_pass_bound")])
def test_a_solve_clock_holds_its_set_up(monkeypatch, solver, layer):
    """wall_time and every row's elapsed_s count from the call into the
    solver, so a set-up step made 50 ms slower shows in both."""
    spec = make_instance(seed=6, n=40, d=20, q=5, support=3, ratio=0.6)
    real = getattr(G.solvers, layer)

    def slow(*args):
        time.sleep(0.05)
        return real(*args)

    monkeypatch.setattr(G.solvers, layer, slow)
    rep = G.solve(spec, G.SolverConfig(solver=solver, seed=1, max_outer=5,
                                       eta=tuned_eta(spec)))
    assert rep.trace[0].elapsed_s >= 0.05
    assert rep.wall_time >= rep.trace[-1].elapsed_s


def test_perturbed_problem_end_to_end():
    spec = make_instance(seed=20, n=60, d=90, model="logistic", ratio=0.3,
                         mu_p=1e-3)
    oracle = G.reference_solve(spec, tol=1e-11)
    assert oracle.gap <= 1e-11
    rep = G.adsgd_solve(spec, G.SolverConfig(seed=1, gap_tol=1e-8, max_outer=300,
                                             eta=tuned_eta(spec)))
    assert rep.converged
    assert np.max(np.abs(rep.x_final - oracle.x_final)) < 1e-4


def test_all_solvers_converge_with_conservative_step():
    # default eta = 1/(16L) < 1/(4L); a generous inner budget keeps the outer
    # count under the 200-iteration cap at this step size
    spec = make_instance(seed=30, n=60, d=40, q=10, support=4, sparsity=0.6)
    n = spec.dataset.n
    for name, kw in [("adsgd", {}), ("mrbcd", {}), ("adsgd", dict(batch_size=n)),
                     ("proxsvrg", {})]:
        rep = G.solve(spec, G.SolverConfig(solver=name, seed=1, gap_tol=1e-6,
                                           max_outer=200, m=12 * n, **kw))
        assert rep.converged and rep.outer_iters <= 200, name


def _power_sigma(mat, iters, tol):
    """The power iteration _spectral_bound ran on scipy's operator before it
    ran on the Dataset products, kept as the oracle of its bits: one mat @ v
    an iteration, plus the first, and one product with the transposed view.
    Returns (sigma, the iterations run)."""
    k = mat.shape[1]
    v = np.full(k, 1.0 / math.sqrt(k))
    u = mat @ v
    mat_t = mat.T
    sigma = 0.0
    for it in range(1, iters + 1):
        w = mat_t @ u
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return 0.0, it
        v = w / nw
        u = mat @ v
        new_sigma = float(np.linalg.norm(u))
        if abs(new_sigma - sigma) <= tol * max(new_sigma, 1.0):
            return new_sigma, it
        sigma = new_sigma
    return sigma, iters


def _oracle_bound(spec):
    """_spectral_bound's formula on the oracle's sigma, and its iterations."""
    sigma, ran = _power_sigma(spec.dataset.A, 60, 1e-9)
    base = spec.loss.curvature * sigma ** 2 / spec.dataset.n
    return max(base, 1e-12) + 2.0 * spec.mu_p, ran


def _empty_rows_and_columns_spec():
    dense = np.random.default_rng(4).standard_normal((12, 9))
    dense[[0, 5]] = 0.0  # empty rows, the first among them
    dense[:, [2, 8]] = 0.0  # empty columns, the last among them
    return build_spec(G.Dataset(dense, np.random.default_rng(4).standard_normal(12)),
                      model="lasso", lambda_ratio=0.5, q=3)


def _int64_spec(monkeypatch):
    """A stored CSR that keeps 64-bit indices, as one past 2**31 entries does."""
    spec = make_instance(seed=8, n=150, d=300, q=10)
    wide = sp.csr_matrix(spec.dataset.A)
    wide.indices, wide.indptr = wide.indices.astype(np.int64), wide.indptr.astype(np.int64)
    monkeypatch.setattr(spec.dataset, "A", wide)
    return spec


SPECTRAL_CASES = {
    "sparse": lambda mp: make_instance(seed=3, n=150, d=300, q=10),
    "mu-p": lambda mp: make_instance(seed=8, n=150, d=300, q=10, mu_p=0.05),
    "logistic-group-mu-p": lambda mp: make_instance(seed=5, n=60, d=40, model="logistic",
                                                    reg="group_l2", mu_p=1e-3),
    "int64": _int64_spec,
    "empty-rows-and-columns": lambda mp: _empty_rows_and_columns_spec(),
    # the start vector lies in A's null space: A'u vanishes at once
    "null-start": lambda mp: build_spec(G.Dataset(np.array([[1.0, -1.0], [2.0, -2.0]]),
                                                  np.array([1.0, 0.0])),
                                        model="lasso", lambda_ratio=0.5, q=2),
}


@pytest.mark.parametrize("case", sorted(SPECTRAL_CASES))
def test_spectral_bound_reuses_its_forward_product(monkeypatch, case):
    """_spectral_bound runs the oracle's iteration on Dataset.matvec and
    rmatvec, to the same bits: one A v an iteration, plus the first, and one
    A'u an iteration."""
    spec = SPECTRAL_CASES[case](monkeypatch)
    want, ran = _oracle_bound(spec)
    # the sparse designs run to the cap of 60 iterations, the others stop at
    # the tolerance, or at once where A'u vanishes
    capped = case in ("sparse", "mu-p", "int64")
    assert (ran == 60) == capped and (ran == 1) == (case == "null-start")
    counts = {"forward": 0, "transposed": 0}
    matvec, rmatvec = G.Dataset.matvec, G.Dataset.rmatvec

    def counted(key, fn):
        def wrapper(self, v):
            counts[key] += 1
            return fn(self, v)
        return wrapper

    monkeypatch.setattr(G.Dataset, "matvec", counted("forward", matvec))
    monkeypatch.setattr(G.Dataset, "rmatvec", counted("transposed", rmatvec))
    assert _spectral_bound(spec).hex() == want.hex()
    assert counts == {"forward": ran + (case != "null-start"), "transposed": ran}


def test_spectral_bound_builds_no_transposed_matrix(monkeypatch):
    """No transposed matrix and no scipy product: the design's transpose,
    matmul and dot all refuse, and the bound keeps the oracle's bits."""
    spec = make_instance(seed=3, n=150, d=300, q=10)
    want, _ = _oracle_bound(spec)

    def refuse(*args, **kwargs):
        raise AssertionError("the power iteration used scipy's operator")

    for name in ("transpose", "__matmul__", "dot"):
        monkeypatch.setattr(type(spec.dataset.A), name, refuse)
    assert _spectral_bound(spec).hex() == want.hex()


def test_spectral_bound_dominates_average_hessian():
    spec = make_instance(seed=21, n=40, d=30)
    a = np.asarray(spec.dataset.A.todense())
    lf = np.linalg.norm(a, 2) ** 2 / spec.dataset.n
    assert _spectral_bound(spec) >= 0.99 * lf
    assert _spectral_bound(spec) <= G.lipschitz_constants(spec).T * 1.01


# Two group-L2 solves at a step of 1/L_spec, batch 1 and epochs of m = 60
# steps: (spec, config, whether it certifies). The logistic one stops
# certifying: its first epoch, on one working block, ends at its first model
# check, after 3 of its 6 steps, its safe set never shrinks, and its gap
# drifts to about 1 by its 60th row (a step four times the tuned one is too
# long for it). On the Lasso one a screen drops a block where the row's point
# is nonzero, and it certifies in 11 rows. Each decides one epoch by its
# slot's refined point.
def _long_step_runs():
    runs = []
    for seed, model in ((49, "logistic"), (80, "lasso")):
        spec = make_instance(seed=seed, n=60, d=80, q=10, model=model, reg="group_l2")
        runs.append((spec, G.SolverConfig(seed=seed, gap_tol=1e-6, max_outer=60, m=60,
                                          batch_size=1, eta=tuned_eta(spec, 1.0),
                                          keep_iterates=True), model == "lasso"))
    return runs


def _pin_long_step_run(spec, rep, certifies):
    """The outcome _long_step_runs states for each of its two solves; the
    screen after row k leaves row k + 1's safe set."""
    block_of, safe = spec.partition.block_of, rep.active_history
    dropped_nonzero = any(np.isin(block_of[np.flatnonzero(x)], np.setdiff1d(a, b)).any()
                          for x, a, b in zip(rep.iterates, safe, safe[1:]))
    if certifies:
        assert rep.converged and rep.outer_iters == 11 and dropped_nonzero
        assert rep.active_history[-1].size < spec.partition.q
    else:
        assert not rep.converged and rep.outer_iters == 60 and not dropped_nonzero
        first = rep.trace[1]
        assert (first.working_blocks, first.inner_steps) == (1, 3)
        assert inner_budget(60, 1, spec.partition.q) == 6
        assert all(safe.size == spec.partition.q for safe in rep.active_history)
        assert min(r.gap for r in rep.trace[2:]) > 0.01 and rep.trace[-1].gap > 0.1


def test_screening_solve_forms_one_transposed_product_per_evaluation(monkeypatch):
    """adsgd forms A'g once per evaluation and nowhere else: an evaluation
    starts the solve, each epoch evaluates two candidates unless the slot's
    refined point decided its row (one epoch of each solve here), and each
    support refinement that finds a point evaluates it; mrbcd refines and
    decides nothing. On both of
    _long_step_runs' solves: on the one that certifies, a screen drops a
    block where the row's point x_hat is nonzero before the solve stops, and
    the next epoch takes the row's own evaluation as its snapshot, with no
    product of its own; the other runs to its cap of rows."""
    counts = dict.fromkeys(["products", "evaluations", "refinements"], 0)
    rmatvec, evaluate = G.Dataset.rmatvec, G.solvers.evaluate
    refine = G.solvers._refine_support

    def counted_rmatvec(self, v):
        counts["products"] += 1
        return rmatvec(self, v)

    def counted_evaluate(*args):
        counts["evaluations"] += 1
        return evaluate(*args)

    def counted_refine(*args):
        out = refine(*args)
        counts["refinements"] += out is not None
        return out

    monkeypatch.setattr(G.Dataset, "rmatvec", counted_rmatvec)
    monkeypatch.setattr(G.solvers, "evaluate", counted_evaluate)
    monkeypatch.setattr(G.solvers, "_refine_support", counted_refine)
    decided = spy_decided(monkeypatch)
    runs = _long_step_runs()
    for spec, cfg, certifies in runs:
        counts.update(products=0, evaluations=0, refinements=0)
        decided.clear()
        rep = G.adsgd_solve(spec, cfg)
        _pin_long_step_run(spec, rep, certifies)
        assert counts["refinements"] > 0
        epochs = len(epoch_rows(rep))
        assert all(r.working_blocks > 0 for r in epoch_rows(rep)) and len(decided) == epochs
        restarted = decided.count(None)
        assert restarted == epochs - 1
        assert counts["products"] == counts["evaluations"] == (1 + 2 * restarted
                                                               + counts["refinements"])
    spec, cfg, _ = runs[0]  # mrbcd runs away on the Lasso at this step
    counts.update(products=0, evaluations=0, refinements=0)
    decided.clear()
    rep = G.mrbcd_solve(spec, dataclasses.replace(cfg, solver="mrbcd"))
    assert counts == {"products": 1 + 2 * rep.outer_iters,
                      "evaluations": 1 + 2 * rep.outer_iters, "refinements": 0}
    assert decided == [None] * rep.outer_iters


def _count_reference_work(monkeypatch, spec):
    """Wrap what reference_solve calls; the returned dict counts the calls.

    forward counts the calls of Dataset.matvec (A x), matvecs the A x formed
    on a working design (_matvec), products the calls of Dataset.rmatvec
    (A'g), step_gradients the smooth gradients formed at a momentum point,
    prox_points the prox points tried and refinements the support
    refinements that returned a point.
    """
    counts = dict.fromkeys(["forward", "matvecs", "products", "evaluations",
                            "step_gradients", "prox_points", "refinements"], 0)
    rmatvec, smooth_gradient = G.Dataset.rmatvec, G.solvers.smooth_gradient
    evaluate, refine = G.solvers.evaluate, G.solvers._refine_support
    forward, prox = G.Dataset.matvec, type(spec.reg).block_prox

    def counted(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    def counted_refine(*args):
        out = refine(*args)
        counts["refinements"] += out is not None
        return out

    monkeypatch.setattr(G.Dataset, "matvec", counted("forward", forward))
    monkeypatch.setattr(type(spec.reg), "block_prox", counted("prox_points", prox))
    monkeypatch.setattr(G.Dataset, "rmatvec", counted("products", rmatvec))
    monkeypatch.setattr(G.solvers, "smooth_gradient",
                        counted("step_gradients", smooth_gradient))
    monkeypatch.setattr(G.solvers, "evaluate", counted("evaluations", evaluate))
    monkeypatch.setattr(G.solvers, "_matvec", counted("matvecs", G.solvers._matvec))
    monkeypatch.setattr(G.solvers, "_refine_support", counted_refine)
    return counts


def test_reference_solve_reuses_the_evaluated_gradient(monkeypatch):
    """On the squared loss every step takes its smooth gradient from the
    evaluations: a step from the iterate itself (the first step, the step
    after a momentum restart, and the step after either of those, where t = 1
    makes beta = 0 and y the iterate) the evaluation's, and a step from an
    extrapolated point y = x + beta (x - x_prev) that combination of the
    last two evaluations' gradients. So the solve forms one A'g per
    evaluation and no other. A x is formed with the design once per prox
    point tried, never at an extrapolated point. A refinement that returns a
    point forms one more A x, on the dataset's working design, and one more
    A'g, in one more evaluation."""
    spec = make_instance(seed=3, n=150, d=300, q=10)
    counts = _count_reference_work(monkeypatch, spec)
    rep = G.reference_solve(spec, tol=1e-10)
    assert rep.converged and rep.outer_iters == 46
    assert counts["step_gradients"] == 0
    assert counts["refinements"] == 1
    assert counts["evaluations"] == rep.outer_iters + 1 + counts["refinements"]
    assert counts["products"] == counts["evaluations"]
    assert counts["forward"] == counts["prox_points"] == 46
    assert counts["matvecs"] == counts["refinements"]


@pytest.mark.parametrize("build, outer, extrapolated", [
    (lambda: make_instance(seed=6, n=80, d=60, model="logistic"), 41, 29),
    (lambda: make_instance(seed=5, n=60, d=40, model="logistic", reg="group_l2"), 40, 28),
])
def test_a_logistic_reference_step_from_an_extrapolated_point_forms_its_own_gradient(
        monkeypatch, build, outer, extrapolated):
    """f' is not affine on the logistic loss, so each step from an extrapolated
    point forms its smooth gradient there, one A'g on A y, which is never the
    evaluated iterate's; a step from the iterate takes the evaluation's."""
    spec = build()
    counts = _count_reference_work(monkeypatch, spec)
    points, evaluate = [], G.solvers.evaluate
    spied = G.solvers.smooth_gradient

    def at_y(spec, x, g):
        assert not np.array_equal(x, points[-1])
        return spied(spec, x, g)

    monkeypatch.setattr(G.solvers, "evaluate",
                        lambda spec, x, z: points.append(x) or evaluate(spec, x, z))
    monkeypatch.setattr(G.solvers, "smooth_gradient", at_y)
    rep = G.reference_solve(spec, tol=1e-10)
    assert rep.converged and rep.outer_iters == outer
    assert counts["step_gradients"] == extrapolated < rep.outer_iters
    assert counts["evaluations"] == rep.outer_iters + 1 + counts["refinements"]
    assert counts["products"] == counts["evaluations"] + counts["step_gradients"]
    assert counts["forward"] == counts["prox_points"] >= rep.outer_iters
    assert counts["matvecs"] == counts["refinements"]


def test_the_momentum_points_gradient_is_the_combination_of_the_evaluated_ones():
    """On the squared loss, with and without mu_p, the smooth gradient at
    y = x + beta (x - x_prev) that the reference takes from its last two
    evaluations lies within rounding of the one formed at y."""
    for mu_p in (0.0, 0.05):
        spec = make_instance(seed=7, n=70, d=50, mu_p=mu_p)
        rng = np.random.default_rng(7)
        x_prev, x = rng.standard_normal((2, 50))
        for beta in (0.1, 0.5, 0.97):
            g, g_prev = G.full_gradient(spec, x), G.full_gradient(spec, x_prev)
            want = G.full_gradient(spec, x + beta * (x - x_prev))
            np.testing.assert_allclose(g + beta * (g - g_prev), want, rtol=0,
                                       atol=1e-13 * np.abs(want).max())


def _svd_bound(spec):
    """c * sigma_max(A)^2 / n + 2 mu_p, from a dense SVD."""
    sigma = np.linalg.svd(spec.dataset.A.toarray(), compute_uv=False)[0]
    return spec.loss.curvature * sigma ** 2 / spec.dataset.n + 2.0 * spec.mu_p


@pytest.mark.parametrize("kw", [
    dict(n=30, d=20, sparsity=1.0),                       # dense
    dict(n=80, d=120, sparsity=0.05),                     # sparse
    dict(n=400, d=12, q=4, sparsity=1.0),                 # tall
    dict(n=15, d=300, sparsity=0.3),                      # wide
    dict(n=60, d=90, mu_p=0.05),
    dict(n=60, d=50, model="logistic", reg="group_l2", q=5, mu_p=1e-3),
])
def test_one_pass_bound_lies_below_the_smoothness_constant(kw):
    spec = make_instance(seed=4, **kw)
    start, want = _one_pass_bound(spec), _svd_bound(spec)
    ds = spec.dataset
    assert start <= want * (1.0 + 1e-12)
    assert start * min(ds.n, ds.d) >= want * (1.0 - 1e-12)


def test_one_pass_bound_applies_each_specs_curvature_and_shift_to_one_memo():
    """Specs of other losses and mu_p on one Dataset, in turn and twice over,
    each get the bits of a computation on a copy of the design."""
    spec = make_instance(seed=4, n=60, d=50, model="logistic")
    cases = [dataclasses.replace(spec, loss=G.LOSSES[loss], mu_p=mu_p)
             for loss, mu_p in (("logistic", 0.0), ("squared", 0.0), ("logistic", 0.02))]
    ds = spec.dataset
    want = [_one_pass_bound(dataclasses.replace(case, dataset=G.Dataset(ds.A, ds.y)))
            for case in cases]
    assert len(set(want)) == len(want)
    assert [_one_pass_bound(case) for case in cases + cases] == want + want


@pytest.mark.parametrize("build", [
    lambda: make_instance(seed=3, n=150, d=300, q=10),
    lambda: dataclasses.replace(  # group-L2 on a scattered partition
        make_instance(seed=5, n=60, d=40, model="logistic", reg="group_l2"),
        partition=G.BlockPartition([np.arange(j, 40, 8) for j in range(8)])),
    lambda: make_instance(seed=6, n=80, d=60, model="logistic"),
    lambda: make_instance(seed=7, n=70, d=50, mu_p=0.02),
])
def test_reference_certifies_without_a_power_iteration(monkeypatch, build):
    spec = build()

    def refuse(*args, **kwargs):
        raise AssertionError("the reference solve ran a power iteration")

    monkeypatch.setattr(G.solvers, "_spectral_bound", refuse)
    rep = G.reference_solve(spec, tol=1e-10)
    assert rep.converged and rep.gap <= 1e-10


def test_reference_doubles_up_from_a_start_d_times_too_low(monkeypatch):
    """Equal rows a: sigma_max(A)^2 = n ||a||^2, while each row has norm
    ||a|| and column j norm sqrt(n) |a_j|. With every |a_j| equal and n >= d
    the one-pass bound is d times too low. The doublings cost at most
    ceil(log2 d) + 1 prox points, one A x each, over the whole solve, and no
    A'g: on the squared loss each A'g is an evaluation's. The refinement
    forms its one A x on the dataset's working design."""
    n, d = 60, 40
    rng = np.random.default_rng(0)
    row = np.where(rng.random(d) < 0.5, -0.7, 0.7)
    ds = G.Dataset(np.tile(row, (n, 1)), rng.standard_normal(n))
    spec = build_spec(ds, model="lasso", lambda_ratio=0.3, q=8)
    assert _one_pass_bound(spec) * d == pytest.approx(_svd_bound(spec), rel=1e-12)
    counts = _count_reference_work(monkeypatch, spec)
    rep = G.reference_solve(spec, tol=1e-10)
    assert rep.converged and rep.gap <= 1e-10
    doublings = counts["prox_points"] - rep.outer_iters
    assert 1 <= doublings <= math.ceil(math.log2(d)) + 1
    assert counts["forward"] == rep.outer_iters + doublings
    assert counts["step_gradients"] == 0
    assert counts["products"] == counts["evaluations"]
    assert counts["matvecs"] == counts["refinements"]


# --------------------------------------------------------- support refinement

def _whole(spec):
    """The dataset's working design, over every block, as the reference's
    refinement takes it."""
    return _compact(spec, np.arange(spec.partition.q))


def _on(spec, work, v):
    """The d-length point that is v on the working design work's columns and
    zero off them; work None, as the starting row hands it to _certify,
    stands for every feature in the partition's block order."""
    x = np.zeros(spec.dataset.d)
    x[spec.partition.order if work is None else work.features] = v
    return x


def _refine(spec, x, work=None):
    """_refine_support of the point x, handed on the columns of work, the
    dataset's working design by default: the refined point scattered back to
    the d features, or None."""
    work = _whole(spec) if work is None else work
    w = G.solvers._refine_support(spec, work, x[work.features])
    return None if w is None else _on(spec, work, w)


def _certificate(spec, x, work=None):
    """_refined_certificate of the point x, handed on the columns of work, the
    dataset's working design by default."""
    work = _whole(spec) if work is None else work
    return G.solvers._refined_certificate(spec, work, x[work.features])


def _key(spec, x):
    """_model's key of the point x, taken on the dataset's working design, whose
    columns list every feature in partition.order."""
    order = spec.partition.order
    return G.solvers._model(spec, order, x[order])[0]


def test_the_group_model_is_the_unique_and_tile_construction():
    """_group_model's support, block numbers and within-block pair mask are
    those np.unique, a flatnonzero per block and np.tile gave, on a scattered
    partition of mixed block sizes whose nonzero blocks interleave, for
    several nonzero patterns, a lone nonzero coordinate and -0.0 included."""
    sizes = [3, 5, 2, 7, 4, 6, 1, 2]
    order = np.random.default_rng(7).permutation(sum(sizes))
    part = G.BlockPartition([np.sort(g) for g in np.split(order, np.cumsum(sizes)[:-1])])
    rng = np.random.default_rng(8)
    for trial in range(20):
        x = np.where(rng.random(part.d) < 0.3, rng.normal(size=part.d), 0.0)
        if trial == 0:
            x[:] = 0.0
            x[part.groups[3][2]] = -0.0
            x[part.groups[5][0]] = 1.0
        support, bid, same = G.solvers._group_model(part, x)
        nonzero = np.zeros(part.q, dtype=bool)
        nonzero[part.block_of[x != 0.0]] = True
        assert np.array_equal(support, np.flatnonzero(nonzero[part.block_of]))
        if support.size == 0:
            assert bid.size == 0 and same.shape == (0, 0)
            continue
        _, old_bid = np.unique(part.block_of[support], return_inverse=True)
        members = [np.flatnonzero(old_bid == b) for b in range(old_bid.max() + 1)]
        pi = np.concatenate([np.repeat(m, m.size) for m in members])
        pj = np.concatenate([np.tile(m, m.size) for m in members])
        old_same = np.zeros((support.size, support.size), dtype=bool)
        old_same[pi, pj] = True
        assert bid.dtype == np.intp and np.array_equal(bid, old_bid)
        assert same.dtype == bool and np.array_equal(same, old_same)
        assert same.sum() == pi.size  # no pair twice


def _key_spec(reg, layout):
    """A 30 x 40 instance on a contiguous, scattered or uneven partition of 8
    blocks, at half its lambda_max."""
    d, q = 40, 8
    part = {"contiguous": G.BlockPartition.contiguous(d, q),
            "scattered": G.BlockPartition([np.arange(j, d, q) for j in range(q)]),
            "uneven": G.BlockPartition.from_sizes([3, 7, 5, 2, 9, 4, 6, 4])}[layout]
    spec = dataclasses.replace(make_instance(seed=9, n=30, d=d, q=q, reg=reg), partition=part)
    return dataclasses.replace(spec, lam=0.5 * G.lambda_max(spec))


KEY_LAYOUTS = ["contiguous", "scattered", "uneven"]


@pytest.mark.parametrize("layout", KEY_LAYOUTS)
@pytest.mark.parametrize("reg", ["l1", "group_l2"])
def test_a_models_key_is_its_d_length_model_on_any_design_that_holds_it(reg, layout):
    """_model's keys of two points, each taken on a working design that holds
    its nonzeros, are equal exactly where the points' d-length models,
    np.sign(x) for L1 and x != 0 for group-L2, have equal bytes; a point has
    one key on two different designs; the blocks are
    np.unique(block_of[flatnonzero(x)]) and k the refinement's unknowns.
    Random points with exact zeros and zero blocks, against the same point
    scaled, with a sign flipped, a nonzero zeroed or a zero made nonzero."""
    spec = _key_spec(reg, layout)
    part, rng = spec.partition, np.random.default_rng(11)

    def old(x):
        return (np.sign(x) if reg == "l1" else x != 0.0).tobytes()

    def model(x, held):  # on a design of held's blocks and two more drawn
        work = _compact(spec, np.union1d(held, rng.choice(part.q, size=2)))
        assert np.count_nonzero(x[work.features]) == np.count_nonzero(x)
        return G.solvers._model(spec, work.features, x[work.features])

    equal = []
    for trial in range(80):
        held = np.flatnonzero(rng.random(part.q) < 0.5)
        inside = np.flatnonzero(np.isin(part.block_of, held))
        x = np.zeros(part.d)
        x[inside] = np.where(rng.random(inside.size) < 0.6, rng.normal(size=inside.size), 0.0)
        nz, zero = np.flatnonzero(x), np.setdiff1d(inside, np.flatnonzero(x))
        y = x.copy()
        if trial % 4 == 1:
            y *= rng.uniform(0.5, 2.0)
        elif trial % 4 == 2 and nz.size:
            y[rng.choice(nz)] *= -1.0
        elif trial % 4 == 3 and nz.size:
            y[rng.choice(nz)] = 0.0
        elif trial % 4 == 0 and zero.size:
            y[rng.choice(zero)] = rng.normal()
        key, k, blocks = model(x, held)
        assert model(x, held)[0] == key
        equal.append(key == model(y, held)[0])
        assert equal[-1] == (old(x) == old(y))
        assert np.array_equal(blocks, np.unique(part.block_of[np.flatnonzero(x)]))
        assert k == _unknowns(spec, x)
    assert True in equal and False in equal


@pytest.mark.parametrize("layout", KEY_LAYOUTS)
def test_no_l1_point_of_a_screening_solve_holds_a_negative_zero(monkeypatch, layout):
    """A model's key counts a -0.0 as a zero, as the d-length signs did not,
    so the two agree only where no point holds one. No L1 point adsgd forms
    does: the clip prox writes +0.0 (soft_threshold), the running sum and
    its average add and divide +0.0, and a refinement keeps only
    coordinates of x's signs. Checked on every inner iterate, every
    candidate and row point, and every refined point, at a sampled and at
    the full batch."""
    spec = _key_spec("l1", layout)
    points, refined = [], []
    evaluate, objective, step, refine = (G.solvers.evaluate, G.solvers.primal_objective,
                                         G.solvers.step_gradient, G.solvers._refine_support)

    def spied_refine(*args):
        out = refine(*args)
        if out is not None:
            refined.append(out)
        return out

    monkeypatch.setattr(G.solvers, "evaluate",
                        lambda spec, x, z: points.append(x.copy()) or evaluate(spec, x, z))
    monkeypatch.setattr(G.solvers, "primal_objective",
                        lambda spec, x, z: points.append(x.copy()) or objective(spec, x, z))
    monkeypatch.setattr(G.solvers, "step_gradient",
                        lambda loss, x, *args: points.append(x.copy()) or step(loss, x, *args))
    monkeypatch.setattr(G.solvers, "_refine_support", spied_refine)
    for batch in (None, spec.dataset.n):
        rep = G.adsgd_solve(spec, G.SolverConfig(seed=2, gap_tol=1e-10, max_outer=300,
                                                 eta=tuned_eta(spec), batch_size=batch))
        assert rep.converged
    assert refined and not any(np.signbit(x[x == 0.0]).any() for x in points + refined)


REFINE_CASES = {
    "l1-squared": lambda: make_instance(seed=51, n=60, d=90, q=10),
    "l1-logistic": lambda: make_instance(seed=52, n=120, d=60, q=10, model="logistic"),
    "group-squared": lambda: make_instance(seed=53, n=60, d=80, q=10, reg="group_l2"),
    "group-logistic": lambda: make_instance(seed=54, n=120, d=60, q=12, model="logistic",
                                            reg="group_l2"),
    "group-mu-p": lambda: make_instance(seed=55, n=60, d=80, q=10, reg="group_l2",
                                        mu_p=0.01),
}


@pytest.mark.parametrize("case", sorted(REFINE_CASES))
def test_refinement_lands_on_the_optimum_from_a_point_of_its_model(case):
    """From a point 5% off the optimum on its model, the refinement returns
    the reference optimum (tol 1e-12) to 1e-10, with a full gap below 1e-12,
    and _refined_certificate certifies that point."""
    spec = REFINE_CASES[case]()
    x_star = G.reference_solve(spec, tol=1e-12).x_final
    rng = np.random.default_rng(0)
    x = x_star * (1.0 + 0.05 * rng.uniform(-1.0, 1.0, size=x_star.size))
    x_r = _refine(spec, x)
    assert x_r is not None
    cert = _certificate(spec, x)
    assert cert is not None and np.array_equal(cert[0], x_r)
    assert np.array_equal(x_r != 0.0, x_star != 0.0)
    assert np.max(np.abs(x_r - x_star)) <= 1e-10
    assert _full_gap(spec, x_r) <= 1e-12


def _off_model(spec, x_star, how):
    x = x_star.copy()
    if how == "sign-change":  # the largest coordinate's sign flipped
        j = np.argmax(np.abs(x))
        x[j] = -x[j]
    elif how == "collapsing-block":  # a block that is zero at the optimum made nonzero
        part = spec.partition
        j = next(j for j in range(part.q) if not np.any(x[part.groups[j]]))
        x[part.groups[j]] = 0.01
    elif how == "nan":
        x[np.flatnonzero(x)[0]] = np.nan
    elif how == "overflow":  # block norms past the float range
        x *= 1e200
    return x


@pytest.mark.parametrize("case, how", [
    ("l1-squared", "nan"), ("l1-logistic", "overflow"),
    ("group-squared", "collapsing-block"), ("group-logistic", "collapsing-block"),
    ("group-mu-p", "collapsing-block"), ("group-logistic", "nan"),
    ("group-squared", "overflow"), ("group-logistic", "overflow"),
])
def test_refinement_off_the_model_returns_none_without_raising(case, how):
    """Warnings are errors here, so no overflow or invalid operation escapes."""
    spec = REFINE_CASES[case]()
    x = _off_model(spec, G.reference_solve(spec, tol=1e-12).x_final, how)
    assert _refine(spec, x) is None
    assert _refine(spec, np.zeros(spec.dataset.d)) is None


def _l1_model_residual(spec, w):
    """Largest entry of the L1 stationarity system on w's support, with w's signs."""
    ds, s = spec.dataset, np.flatnonzero(w)
    g = ds.A[:, s].T @ spec.loss.deriv(ds.A @ w, ds.y) / ds.n
    return float(np.max(np.abs(g + 2.0 * spec.mu_p * w[s] + spec.lam * np.sign(w[s]))))


@pytest.mark.parametrize("case", ["l1-squared", "l1-logistic"])
def test_a_sign_change_prunes_to_a_stationary_point_of_a_smaller_model(case):
    """From the optimum with its largest coordinate's sign flipped, the
    refinement returns None, or a finite point whose support lies in x's,
    with x's signs there, whose stationarity residual on that model is at
    most the gate _REFINE_TOL * lam. Warnings are errors here, so no overflow
    or invalid operation escapes."""
    spec = REFINE_CASES[case]()
    x = _off_model(spec, G.reference_solve(spec, tol=1e-12).x_final, "sign-change")
    x_r = _refine(spec, x)
    if x_r is not None:
        s = np.flatnonzero(x_r)
        assert np.all(np.isfinite(x_r))
        assert set(s.tolist()) <= set(np.flatnonzero(x).tolist())
        assert np.array_equal(np.sign(x_r[s]), np.sign(x[s]))
        assert _l1_model_residual(spec, x_r) <= G.solvers._REFINE_TOL * spec.lam


@pytest.mark.parametrize("case", ["l1-squared", "l1-logistic"])
def test_refinement_prunes_tiny_coordinates_whose_signs_flip(monkeypatch, case):
    """x_star plus three coordinates of about 1e-9 off its support, each of
    the sign a prox step gives (against the correlation there): the solution
    on that model flips them, since the correlation stays below lam. The
    refinement drops them and solves again within its one budget of
    _REFINE_STEPS Newton steps, returning x_star's support and x_star to
    1e-10, with a full gap below 1e-12, and _refined_certificate certifies
    that point. The Lasso's two rounds take 3 steps, the logistic case's 9.
    On the Lasso the budget is pinned: 3 steps return that point, while 1 or
    2 leave signs flipped or the last round unconverged, and return None."""
    spec = REFINE_CASES[case]()
    x_star = G.reference_solve(spec, tol=1e-12).x_final
    ds = spec.dataset
    corr = ds.A.T @ spec.loss.deriv(ds.A @ x_star, ds.y) / ds.n
    extra = np.random.default_rng(0).choice(np.flatnonzero(x_star == 0.0), 3, replace=False)
    x = x_star.copy()
    x[extra] = -np.sign(corr[extra]) * np.array([1e-9, 2e-9, 3e-9])
    x_r = _refine(spec, x)
    assert x_r is not None
    assert np.array_equal(x_r != 0.0, x_star != 0.0)
    assert np.max(np.abs(x_r - x_star)) <= 1e-10
    assert _full_gap(spec, x_r) <= 1e-12
    cert = _certificate(spec, x)
    assert cert is not None and np.array_equal(cert[0], x_r)
    if spec.loss.name == "squared":
        monkeypatch.setattr(G.solvers, "_REFINE_STEPS", 3)
        assert np.array_equal(_refine(spec, x), x_r)
        for steps in (1, 2):
            monkeypatch.setattr(G.solvers, "_REFINE_STEPS", steps)
            assert _refine(spec, x) is None


@pytest.mark.parametrize("case", ["l1-squared", "l1-logistic", "group-logistic"])
def test_a_stalled_newton_path_returns_none(monkeypatch, case):
    """With a budget of no Newton step, the refinement of a point 5% off the
    optimum evaluates only that point, on the Lasso too, whose linear system
    one step would solve. Its residual misses the gate _REFINE_TOL * lam, so
    the refinement returns None rather than its best point."""
    spec = REFINE_CASES[case]()
    x_star = G.reference_solve(spec, tol=1e-12).x_final
    x = x_star * (1.0 + 0.05 * np.random.default_rng(0).uniform(-1.0, 1.0, x_star.size))
    monkeypatch.setattr(G.solvers, "_REFINE_STEPS", 0)
    assert _refine(spec, x) is None


@pytest.mark.parametrize("case", sorted(REFINE_CASES))
def test_reference_trace_ends_on_its_one_stop_row(case):
    """The reference solver logs every 50th iteration and then one stop row,
    built after its support refinement: the rows' outer_iter strictly
    increase, and the last row holds the report's iteration, objective and
    gap, labelled "refined" where the refined point is returned (every L1
    case here) and "last" otherwise."""
    spec = REFINE_CASES[case]()
    rep = G.reference_solve(spec, tol=1e-12)
    iters = [r.outer_iter for r in rep.trace]
    assert all(a < b for a, b in zip(iters, iters[1:]))
    last = rep.trace[-1]
    assert (last.outer_iter, last.objective, last.gap) == (rep.outer_iters, rep.objective,
                                                          rep.gap)
    assert last.restart == ("refined" if spec.reg.name == "l1" else "last")


def _spy_refinements(monkeypatch):
    """Record every call of the engine's support refinement: (x, its model,
    the refined point or None), both points scattered to the d features from
    the working columns the refinement takes and returns them on."""
    calls, refine = [], G.solvers._refine_support

    def spied(spec, work, v):
        x0 = _on(spec, work, v)
        out = refine(spec, work, v)
        calls.append((x0, _key(spec, x0), None if out is None else _on(spec, work, out)))
        return out

    monkeypatch.setattr(G.solvers, "_refine_support", spied)
    return calls


def _spy_epochs(monkeypatch, calls):
    """Record every epoch as the span of refinements it made: (len(calls) at
    its start, len(calls) at its end), calls being _spy_refinements'
    record."""
    spans, epoch = [], G.solvers._epoch

    def spied(*args):
        first = len(calls)
        out = epoch(*args)
        spans.append((first, len(calls)))
        return out

    monkeypatch.setattr(G.solvers, "_epoch", spied)
    return spans


def _refinement_sites(rep, calls, spans):
    """(k, in_epoch) for each refinement in calls of a screening solve: one
    made at an epoch's model check ran in the epoch that produced row k; any
    other ran at row k, the row of the last epoch that ended before it, or
    row 0 before any epoch. Every epoch takes a step, so the rows with
    inner_steps are the epochs' rows, in order."""
    rows = [0] + [r.outer_iter for r in rep.trace if r.inner_steps]
    assert len(rows) == len(spans) + 1
    sites = []
    for i in range(len(calls)):
        epoch = next((j for j, (a, b) in enumerate(spans) if a <= i < b), None)
        if epoch is not None:
            sites.append((rows[epoch + 1], True))
        else:
            sites.append((rows[sum(b <= i for _, b in spans)], False))
    return sites


def _spy_screens(monkeypatch):
    """Record every screen: (its centre, its radius)."""
    screens, screen = [], G.solvers.screen

    def spied(spec, dp, r, active, bounds):
        screens.append((dp, r))
        return screen(spec, dp, r, active, bounds)

    monkeypatch.setattr(G.solvers, "screen", spied)
    return screens


SCREENED_RUNS = {
    "lasso": lambda: make_instance(seed=56, n=100, d=200, q=10),
    "logistic-group": lambda: make_instance(seed=57, n=200, d=100, q=10, model="logistic",
                                            reg="group_l2", support=3),
    "mu-p": lambda: make_instance(seed=58, n=100, d=150, q=10, mu_p=0.01),
}


@pytest.mark.parametrize("case", sorted(SCREENED_RUNS))
def test_refined_certificates_bound_the_suboptimality_and_hold_the_dual_optimum(
        monkeypatch, case):
    """Along adsgd runs that refine, every row's gap is at least its
    objective's distance to P*. Each screen is centred at the dual point of
    its row's point and sized by the safe radius of that point's gap, the
    row's own, padded by its rounding bound. Each sphere holds the dual
    optimum: ||u - u_o|| <= r + r_o,
    u_o being the oracle's dual point. Some rows hold a refined point, and
    screen with its dual point, before the safe set matches its blocks. The
    solve returns the refined point, labelled "refined"."""
    spec = SCREENED_RUNS[case]()
    oracle = G.reference_solve(spec, tol=1e-12)
    r_o = G.safe_radius(spec, oracle.gap)
    calls = _spy_refinements(monkeypatch)
    screens = _spy_screens(monkeypatch)
    rep = G.adsgd_solve(spec, G.SolverConfig(seed=2, gap_tol=1e-10, max_outer=300,
                                             eta=tuned_eta(spec), keep_iterates=True))
    assert rep.converged and calls and rep.trace[-1].restart == "refined"
    # some rows screened from a refined point before its model was identified
    assert any(r.restart == "refined" and not r.identified for r in rep.trace[:-1])
    for row in rep.trace:
        assert row.gap >= row.objective - oracle.objective - 1e-13
    u_o = _stacked(oracle.dual)
    assert len(screens) == rep.outer_iters
    # each screen follows its row
    for row, (dp, r) in zip(rep.trace, screens):
        assert row.gap == row.objective - G.duality._dual_value(spec, dp)
        assert r == _radius(spec, row, dp)
        assert np.linalg.norm(_stacked(dp) - u_o) <= r + r_o


@pytest.mark.parametrize("case", ["lasso", "logistic-group"])
def test_every_block_the_safe_sphere_must_drop_is_gone_by_its_row(case):
    """The paper's identification claim, row by row (mu_p = 0). Row k ran
    within the safe set left by a screen of radius r_k = trace[k].radius
    around a dual point u with ||u - u*|| <= r_k, and the oracle's dual
    point u_o lies within r_o = safe_radius(oracle gap) of u*. A block's
    scaled correlation moves at most b_g r / n over a distance r (b_g from
    column_bounds), so each block g off the oracle's support with
    c_o,g + b_g (r_o + 2 r_k) / n < lam (1 - 1e-12), c_o the oracle dual's
    correlations, is dropped by that screen and absent from
    active_history[k]; no block of the oracle's support is ever dropped
    (row 0 ran before any screen). At
    lam / lam_max 0.5 and 0.25, solver seeds 0-1, some rows predict drops."""
    spec0 = SCREENED_RUNS[case]()
    predicted = 0
    for ratio in (0.5, 0.25):
        spec = dataclasses.replace(spec0, lam=ratio * G.lambda_max(spec0))
        oracle = G.reference_solve(spec, tol=1e-12)
        support = np.unique(spec.partition.block_of[np.flatnonzero(oracle.x_final)])
        slack = G.column_bounds(spec) * G.safe_radius(spec, oracle.gap) / spec.dataset.n
        reach = 2.0 * G.column_bounds(spec) / spec.dataset.n
        off = np.setdiff1d(np.arange(spec.partition.q), support)
        for seed in range(2):
            rep = G.adsgd_solve(spec, G.SolverConfig(seed=seed, gap_tol=1e-10, max_outer=300,
                                                     eta=tuned_eta(spec)))
            assert rep.converged
            for row, safe in zip(rep.trace[1:], rep.active_history[1:]):
                assert np.isin(support, safe).all()
                bound = oracle.dual.correlations + slack + reach * row.radius
                must = off[bound[off] < spec.lam * (1.0 - 1e-12)]
                assert not np.isin(must, safe).any()
                predicted += must.size
    assert predicted > 0


def test_a_wide_sparse_lasso_stops_within_an_epoch_of_its_first_optimal_iterate():
    """On this wide sparse Lasso x_hat comes within gap_tol of P* epochs
    before the safe set holds just its nonzero blocks. The refined point of
    its model takes its place and screens meanwhile, so the model is
    identified soon after and adsgd stops at most one outer iteration after
    its first gap_tol-optimal iterate."""
    spec = make_instance(seed=0, n=150, d=600, sparsity=0.05, q=20, support=8)
    p_star = G.reference_solve(spec, tol=1e-12).objective
    eta = tuned_eta(spec)
    for seed in range(3):
        rep = G.adsgd_solve(spec, G.SolverConfig(seed=seed, gap_tol=1e-6, max_outer=300,
                                                 eta=eta, keep_iterates=True))
        first = next(k for k, x in enumerate(rep.iterates)
                     if G.primal_objective(spec, x) - p_star <= 1e-6)
        assert rep.converged and rep.outer_iters <= first + 1


def test_a_high_dimensional_lasso_certifies_through_its_refined_point():
    """200 samples, 4000 features at 1% density, q = 400 blocks of 10. x_hat's
    own gap stays far above gap_tol within max_outer = 100 here, since an
    epoch of ceil(m |W| / q) steps is short once few blocks are at work. The
    refined point of x_hat's model sizes each screen with its own objective,
    so the safe set comes down to that model and the refined point
    certifies itself within the cap, for every seed, with a gap that bounds
    its suboptimality."""
    spec = make_instance(seed=0, n=200, d=4000, sparsity=0.01, q=400, support=10)
    p_star = G.reference_solve(spec, tol=1e-12).objective
    eta = tuned_eta(spec)
    for seed in range(3):
        rep = G.adsgd_solve(spec, G.SolverConfig(seed=seed, eta=eta, max_outer=100))
        assert rep.converged and rep.trace[-1].restart == "refined"
        assert G.primal_objective(spec, rep.x_final) - p_star <= rep.gap <= 1e-6


def test_identified_s_is_the_elapsed_time_of_the_first_identified_row():
    """SolveReport.identified_s reads the trace like identified_at: the
    elapsed_s of the first identified row, None where no row is."""
    spec = SCREENED_RUNS["lasso"]()
    rep = G.adsgd_solve(spec, G.SolverConfig(seed=2, eta=tuned_eta(spec)))
    first = next(r for r in rep.trace if r.identified)
    assert (rep.identified_at, rep.identified_s) == (first.outer_iter, first.elapsed_s)
    assert 0.0 < rep.identified_s <= rep.wall_time
    rep = G.mrbcd_solve(spec, G.SolverConfig(seed=2, eta=tuned_eta(spec), max_outer=3))
    assert rep.identified_at is None and rep.identified_s is None


def test_a_tall_dense_lasso_stops_on_its_refined_identified_model(monkeypatch):
    """On a tall dense Lasso, x_hat keeps coordinates of about 1e-9 that are
    zero at the optimum, and the solution on its model flips their signs.
    The refinement drops them, so every refinement adsgd starts finds a
    point, and every solve that refines stops on a refined row of an
    identified model. Each report's dual point certifies its x_final: P -
    D is report.gap bit for bit."""
    data = generate_synthetic(SyntheticParams(n=2000, d=40, sparsity=1.0, seed=3))
    spec = build_spec(data, model="lasso", lambda_ratio=0.5, q=10)
    refine, found = G.solvers._refine_support, []

    def spied(spec, x, *args):
        out = refine(spec, x, *args)
        found.append(out is not None)
        return out

    monkeypatch.setattr(G.solvers, "_refine_support", spied)
    eta, refinements = tuned_eta(spec), 0
    for seed in range(8):
        del found[:]
        rep = G.adsgd_solve(spec, G.SolverConfig(seed=seed, gap_tol=1e-6, max_outer=300,
                                                 eta=eta))
        assert rep.converged and all(found)
        stop = rep.trace[-1]
        assert (stop.restart == "refined" and stop.identified) == bool(found)
        assert G.primal_objective(spec, rep.x_final) \
            - G.duality._dual_value(spec, rep.dual) == rep.gap
        refinements += len(found)
    assert refinements >= 6


def test_a_refined_point_stops_the_solve_only_once_the_safe_set_is_its_model(monkeypatch):
    """A refined point x_r that certifies itself stops the solve only where
    the safe set holds exactly x_r's nonzero blocks. Here the epoch that
    produces row 3 ends on an iterate of a new model, with a coordinate in
    block 3, off the optimum's support, which the refinement prunes. Row 3
    holds x_r, whose own gap is below gap_tol, but x_r's blocks
    [0, 1, 5, 6, 9] are not the safe set, which still holds all ten blocks,
    so the solve goes on. The screen after row 3, sized by x_r's gap, leaves
    exactly x_r's blocks, and the solve returns x_r as row 4, with no epoch
    in between, on x_r's own gap, which bounds its suboptimality."""
    spec = make_instance(ratio=0.5, seed=206, n=150, d=250, sparsity=0.5, support=9)
    calls = _spy_refinements(monkeypatch)
    rep = G.adsgd_solve(spec, G.SolverConfig(seed=206, eta=tuned_eta(spec), gap_tol=1e-6,
                                             batch_size=10, keep_iterates=True))

    def blocks(x):
        return np.unique(spec.partition.block_of[np.flatnonzero(x)]).tolist()

    x, _, x_r = calls[-1]
    assert blocks(x) == [0, 1, 3, 5, 6, 9] and blocks(x_r) == [0, 1, 5, 6, 9]
    row = rep.trace[3]
    assert (row.restart, row.identified) == ("refined", False)
    assert np.array_equal(rep.iterates[3], x_r) and row.gap <= 1e-6
    assert rep.active_history[3].tolist() == list(range(10))
    last = rep.trace[-1]
    assert rep.converged and rep.outer_iters == 4 and len(epoch_rows(rep)) == 3
    assert (last.restart, last.working_blocks, last.identified) == ("refined", 0, True)
    assert np.array_equal(rep.x_final, x_r) and rep.gap == row.gap
    assert G.primal_objective(spec, x_r) - G.duality._dual_value(spec, rep.dual) \
        == rep.gap <= 1e-6
    assert G.primal_objective(spec, x_r) - G.reference_solve(spec, tol=1e-12).objective \
        <= rep.gap
    assert rep.active_history[-1].tolist() == blocks(x_r)


def test_a_tall_dense_lasso_returns_its_refined_point_on_the_screen_it_sizes(monkeypatch):
    """On the tall dense Lasso, row 1 refines x_hat's model, and the screen
    it sizes leaves exactly the refined point's blocks. The solve then
    returns that point as its last row, with no epoch or compaction after
    that screen: one _epoch call fewer than the trace rows
    after the first. The final safe set is the refined point's blocks and
    the oracle's equicorrelation set, and report.gap bounds the
    suboptimality."""
    data = generate_synthetic(SyntheticParams(n=2000, d=40, sparsity=1.0, seed=3))
    spec = build_spec(data, model="lasso", lambda_ratio=0.5, q=10)
    oracle = G.reference_solve(spec, tol=1e-12)
    equi = G.equicorrelation_set(spec, oracle.dual).tolist()
    names = []
    for name in ("_epoch", "_compact", "screen"):
        fn = getattr(G.solvers, name)
        monkeypatch.setattr(G.solvers, name,
                            lambda *args, _name=name, _fn=fn: names.append(_name) or _fn(*args))
    eta = tuned_eta(spec)
    for seed in range(4):
        names.clear()
        rep = G.adsgd_solve(spec, G.SolverConfig(seed=seed, gap_tol=1e-6, max_outer=300,
                                                 eta=eta))
        last = rep.trace[-1]
        assert rep.converged and (last.working_blocks, last.restart) == (0, "refined")
        assert last.identified
        assert names.count("_epoch") == len(rep.trace) - 2
        assert names[-1] == "screen"
        blocks = np.unique(spec.partition.block_of[np.flatnonzero(rep.x_final)]).tolist()
        assert rep.active_history[-1].tolist() == blocks == equi
        assert G.primal_objective(spec, rep.x_final) - oracle.objective <= rep.gap <= 1e-6


def _spy_row_points(monkeypatch):
    """Record every point _certify is given: each row's own point, before the
    row may take its refined point instead, scattered to the d features from
    the working columns _certify takes it on."""
    points, certify = [], G.solvers._certify

    def spied(spec, v, evaluation, gap_tol, model, slot, work):
        points.append(_on(spec, work, v))
        return certify(spec, v, evaluation, gap_tol, model, slot, work)

    monkeypatch.setattr(G.solvers, "_certify", spied)
    return points


def _row_points(spec, points, decided):
    """(point, model) of what each row's epoch handed it, row 0 being the
    start: the point _certify was given (_spy_row_points) and its model, or,
    for a row its slot's refined point decided (spy_decided), None and the
    slot's model, which both of its epoch's candidates held. A last row
    straight after a screen has none."""
    points = iter(points)
    out = [next(points)]
    out += [next(points) if slot is None else None for slot in decided]
    assert next(points, None) is None
    slots = [None] + decided
    return [(x, _key(spec, x) if slot is None else slot[0])
            for x, slot in zip(out, slots)]


def test_a_model_is_refined_on_the_row_where_it_first_appears(monkeypatch):
    """The model of the point each epoch hands its row changes at every row
    of this Lasso solve, and each model is refined once, on the first row or
    model check that finds it settled. The models of rows 1 and 2 settle at
    a check of the epoch that produced each, and each row takes that refined
    point: the slot's point decides both rows, so neither epoch evaluates
    its candidates nor certifies its row. No other model is refined: in the
    epoch that produced row 2, on
    five working blocks, x_cur passes through models that hold at fewer than
    three checks in a row before row 2's model holds at the checks after
    steps 10, 15 and 20 of its 50. That model's refinement finds a point, so
    the epoch ends at step 20. Row 2 holds that point before its model is
    identified, and its screen leaves exactly the point's blocks, which row
    3 returns."""
    spec = SCREENED_RUNS["lasso"]()
    calls = _spy_refinements(monkeypatch)
    spans = _spy_epochs(monkeypatch, calls)
    points = _spy_row_points(monkeypatch)
    decided = spy_decided(monkeypatch)
    rep = G.adsgd_solve(spec, G.SolverConfig(seed=2, gap_tol=1e-10, max_outer=300,
                                             eta=tuned_eta(spec), keep_iterates=True))
    models = [m for _, m in _row_points(spec, points, decided)]
    assert rep.converged and rep.outer_iters == 3 and len(models) == 3
    assert len(points) == 1 and all(slot is not None for slot in decided)
    assert all(a != b for a, b in zip(models, models[1:]))
    assert _refinement_sites(rep, calls, spans) == [(1, True), (2, True)]
    refined = [m for _, m, _ in calls]
    assert all(x_r is not None for _, _, x_r in calls) and refined == models[1:]
    assert all(np.array_equal(x, calls[i][2]) for x, i in zip(rep.iterates[1:], (0, 1, 1)))
    row = rep.trace[2]
    budget = inner_budget(spec.dataset.n, row.working_blocks, spec.partition.q)
    assert (row.working_blocks, row.inner_steps, budget) == (5, 20, 50)
    assert [r.restart for r in rep.trace] == ["start", "refined", "refined", "refined"]
    assert not rep.trace[2].identified and rep.trace[3].working_blocks == 0
    assert np.array_equal(rep.x_final, calls[-1][2])


def test_a_model_whose_refinement_found_no_point_is_offered_again_at_its_next_row(
        monkeypatch):
    """The slot holds only found points, so a model whose refinement found no
    point is offered again at its next row. Here the first try, at x_hat's
    gap g, finds no point: _certify keeps x_hat and returns the slot it was
    given, the same object. At gap g / 5 the same model is refined again,
    finds a point of lower objective, and the row takes it. At g / 20 the
    slot holds that model's point, so no refinement runs and the row takes
    the slot's point. On this logistic group-L2 instance at lam = 0.25
    lam_max, a point 5% off the optimum stands for x_hat."""
    spec = make_instance(seed=22, n=200, d=100, q=10, model="logistic", reg="group_l2",
                         support=3, ratio=0.25)
    x = 1.05 * G.reference_solve(spec, tol=1e-12).x_final
    evaluation = G.solvers.evaluate(spec, x, spec.dataset.A @ x)
    work = _whole(spec)
    gap, model = evaluation[3], G.solvers._model(spec, work.features, x[work.features])
    want = _certificate(spec, x, work)
    assert want[1][0] < evaluation[0]
    calls, refine = [], G.solvers._refine_support

    def spied(spec, work, v):  # the first try finds no point
        calls.append(v.copy())
        return refine(spec, work, v) if len(calls) > 1 else None

    monkeypatch.setattr(G.solvers, "_refine_support", spied)
    v = x[work.features]
    empty = (None, None)
    kept, slot = G.solvers._certify(spec, v, evaluation, 1e-12, model, empty, work)
    assert len(calls) == 1 and kept is None and slot is empty
    kept, slot = G.solvers._certify(spec, v, (*evaluation[:3], gap / 5.0), 1e-12, model,
                                    slot, work)
    assert len(calls) == 2 and slot[0] == _key(spec, x) and kept is slot[1]
    assert kept[0].tobytes() == want[0].tobytes() and kept[1][0] == want[1][0]
    out = G.solvers._certify(spec, v, (*evaluation[:3], gap / 20.0), 1e-12, model, slot,
                             work)
    assert len(calls) == 2 and out[0] is kept and out[1] is slot


def test_rows_and_model_checks_refine_through_one_slot_rule(monkeypatch):
    """Every refinement of a screening solve, at a row (_certify) or at an
    epoch's model check (_epoch), is made by _into_slot, and both sites make
    some over the screened runs, at the default m and at an m whose epochs
    end before a third check. _into_slot returns the slot it is given, the
    same object and with no refinement, where that slot holds the model's key
    or the model fails the cost gate, and otherwise a new slot of the model's
    key and its refinement."""
    inside, sites = [False], []
    into, certificate = G.solvers._into_slot, G.solvers._refined_certificate
    epoch, in_epoch = G.solvers._epoch, [False]

    def spied_into(*args):
        inside[0] = True
        try:
            return into(*args)
        finally:
            inside[0] = False

    def spied_certificate(*args):
        assert inside[0]
        sites.append(in_epoch[0])
        return certificate(*args)

    def spied_epoch(*args):
        in_epoch[0] = True
        try:
            return epoch(*args)
        finally:
            in_epoch[0] = False

    monkeypatch.setattr(G.solvers, "_into_slot", spied_into)
    monkeypatch.setattr(G.solvers, "_refined_certificate", spied_certificate)
    monkeypatch.setattr(G.solvers, "_epoch", spied_epoch)
    for case in sorted(SCREENED_RUNS):
        spec = SCREENED_RUNS[case]()
        for m in (None, 10):  # at m = 10 an epoch is too short for a third check
            assert G.adsgd_solve(spec, G.SolverConfig(seed=2, gap_tol=1e-10, max_outer=300,
                                                      m=m, eta=tuned_eta(spec))).converged
    assert True in sites and False in sites
    monkeypatch.undo()

    spec = SCREENED_RUNS["lasso"]()
    x = 1.05 * G.reference_solve(spec, tol=1e-12).x_final
    work = _whole(spec)
    v = x[work.features]
    model = G.solvers._model(spec, work.features, v)
    slot = G.solvers._into_slot(spec, (None, None), model, work, v)
    assert slot[0] == model[0] and slot[1][0].tobytes() == _certificate(spec, x)[0].tobytes()
    assert G.solvers._into_slot(spec, slot, model, work, v) is slot
    monkeypatch.setattr(G.solvers, "_REFINE_COST", 0.0)
    empty = (None, None)
    assert G.solvers._into_slot(spec, empty, model, work, v) is empty


def _failing_solve(monkeypatch, fails):
    """Make np.linalg.solve raise LinAlgError on the calls i (counted from 1)
    where fails(i) holds; returns the list of every call's i."""
    calls, solve = [], np.linalg.solve

    def spied(*args):
        calls.append(len(calls) + 1)
        if fails(calls[-1]):
            raise np.linalg.LinAlgError("singular matrix")
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", spied)
    return calls


def test_a_singular_newton_system_ends_the_refinement_on_its_best_point(monkeypatch):
    """Where a Newton step's system is singular, the refinement stops there
    and returns the point that step started from if its residual reaches
    _REFINE_TOL * lam, else None. Here a logistic L1 refinement from a point
    1% off the optimum takes 3 steps: a singular system at the first step
    leaves the starting point, which is refused, and one at the last step
    leaves the point of the first 2 steps, which a cap of 2 steps returns
    too."""
    spec = REFINE_CASES["l1-logistic"]()
    x_star = G.reference_solve(spec, tol=1e-12).x_final
    x = x_star * (1.0 + 0.01 * np.random.default_rng(0).uniform(-1.0, 1.0, size=x_star.size))
    calls = _failing_solve(monkeypatch, lambda i: False)
    x_r = _refine(spec, x)
    assert x_r is not None and len(calls) == 3
    monkeypatch.setattr(G.solvers, "_REFINE_STEPS", 2)
    capped = _refine(spec, x)
    monkeypatch.setattr(G.solvers, "_REFINE_STEPS", 10)
    assert capped is not None and not np.array_equal(capped, x_r)
    calls = _failing_solve(monkeypatch, lambda i: i == 3)
    assert np.array_equal(_refine(spec, x), capped)
    assert len(calls) == 3
    calls = _failing_solve(monkeypatch, lambda i: i == 1)
    assert _refine(spec, x) is None and calls == [1]


@pytest.mark.parametrize("case", sorted(SCREENED_RUNS))
def test_a_screening_solve_certifies_through_singular_newton_systems(monkeypatch, case):
    """With every third Newton system of the solve singular, some refinements
    end early or find no point, and adsgd still ends on a full-problem
    certificate: report.dual is feasible, and P(x_final) - D(report.dual) is
    the reported gap, at most gap_tol and at least the suboptimality."""
    spec = SCREENED_RUNS[case]()
    p_star = G.reference_solve(spec, tol=1e-12).objective
    calls = _failing_solve(monkeypatch, lambda i: i % 3 == 1)
    rep = G.adsgd_solve(spec, G.SolverConfig(seed=2, gap_tol=1e-10, max_outer=300,
                                             eta=tuned_eta(spec)))
    assert rep.converged and len(calls) >= 2
    corr = spec.dataset.A.T @ rep.dual.theta
    if rep.dual.kappa is not None:
        corr = corr + rep.dual.kappa
    worst = G.problem.blockwise_dual_norms(corr, spec.partition, spec.reg).max()
    assert worst / spec.dataset.n <= spec.lam * (1.0 + 1e-12)
    assert G.duality.duality_gap(spec, rep.x_final, rep.dual) == rep.gap <= 1e-10
    assert G.primal_objective(spec, rep.x_final) - p_star <= rep.gap + 1e-13


def _stacked(dp):
    return dp.theta if dp.kappa is None else np.concatenate([dp.theta, dp.kappa])


@pytest.mark.parametrize("case", sorted(SCREENED_RUNS))
def test_a_refinement_on_a_wrong_support_can_neither_certify_nor_evict(monkeypatch, case):
    """A refinement that answers with its point minus the support block of
    largest norm gives a point and a dual point far from the optimum. A row
    may take that point where its objective is lower, but with its own gap,
    so no row certifies with it, no support block of the optimum is
    screened, and the solve still ends on a true certificate, never
    returning the wrong point."""
    spec = SCREENED_RUNS[case]()
    oracle = G.reference_solve(spec, tol=1e-12)
    part = spec.partition
    refine = G.solvers._refine_support

    def wrong(spec, work, v):
        out = refine(spec, work, v)
        if out is None:
            return None
        x = _on(spec, work, out)
        norms = [np.linalg.norm(x[g]) for g in part.groups]
        x[part.groups[int(np.argmax(norms))]] = 0.0
        return x[work.features]

    monkeypatch.setattr(G.solvers, "_refine_support", wrong)
    rep = G.adsgd_solve(spec, G.SolverConfig(seed=2, gap_tol=1e-10, max_outer=300,
                                             eta=tuned_eta(spec)))
    support = set(part.block_of[np.flatnonzero(oracle.x_final)].tolist())
    assert support <= set(rep.active_history[-1].tolist())
    assert not any(r.restart == "refined" and r.gap <= 1e-10 for r in rep.trace)
    assert rep.trace[-1].restart != "refined"
    for row in rep.trace:
        assert row.gap >= row.objective - oracle.objective - 1e-13
    assert rep.converged
    assert G.primal_objective(spec, rep.x_final) - oracle.objective <= 1e-10


@pytest.mark.parametrize("off", [False, True], ids=["refined", "off-model"])
@pytest.mark.parametrize("case", sorted(SCREENED_RUNS))
def test_a_screening_row_is_one_point_with_its_own_evaluation(monkeypatch, case, off):
    """Each row of a screening solve is one point with its own evaluation.
    (a) Its objective and gap are that point's P and P - D of its dual
    point, both recomputed from scratch, and the screen after it is centred
    at that dual point, as report.dual is for the last row. (b) A row takes
    the refined point x_r in its slot exactly where the slot holds the
    refinement of the row's own point's model, that point's gap is above
    gap_tol, and P(x_r), recomputed, is the lower; on a row the slot's
    point decided, without evaluating its epoch's candidates, each of those
    candidates, evaluated here, meets all three, so _certify would have
    taken x_r over either. (c) The next epoch is
    given the row's point and that point's own evaluation as its snapshot,
    its derivatives and its dual point's smooth gradient, also where the
    screen dropped a block on which the point is nonzero, and runs on
    columns inside the safe set that screen left; so an epoch after a
    refined row starts from x_r. With a refinement that
    answers 1.5 times its point, some rows refuse the slot's point, whose
    objective is the higher."""
    spec = SCREENED_RUNS[case]()
    ds, block_of, tol = spec.dataset, spec.partition.block_of, 1e-10
    if off:
        refine = G.solvers._refine_support
        monkeypatch.setattr(G.solvers, "_refine_support",
                            lambda spec, work, v: (None if (r := refine(spec, work, v)) is None
                                                   else 1.5 * r))
    screens = _spy_screens(monkeypatch)
    certified, certify = [], G.solvers._certify

    def spied_certify(spec, v, evaluation, gap_tol, model, slot, work):
        out = certify(spec, v, evaluation, gap_tol, model, slot, work)
        certified.append((_on(spec, work, v), evaluation[3], out[1]))
        return out

    epochs, epoch = [], G.solvers._epoch
    # the decision's objectives, the only solvers.primal_objective calls
    checked, objective = [], G.solvers.primal_objective

    def spied_epoch(spec, work, x_hat, evaluation, *args):
        _, g, dp, _ = evaluation
        first = len(checked)
        out = epoch(spec, work, x_hat, evaluation, *args)
        epochs.append((x_hat.copy(), g.copy(), dp.gradient.copy(), work.features,
                       checked[first:]))
        return out

    monkeypatch.setattr(G.solvers, "_certify", spied_certify)
    monkeypatch.setattr(G.solvers, "_epoch", spied_epoch)
    monkeypatch.setattr(G.solvers, "primal_objective",
                        lambda spec, x, z: checked.append(x.copy()) or objective(spec, x, z))
    decided = spy_decided(monkeypatch)
    rep = G.adsgd_solve(spec, G.SolverConfig(seed=2, gap_tol=tol, max_outer=300,
                                             eta=tuned_eta(spec), keep_iterates=True))
    assert rep.converged
    # (a)
    centres = [dp for dp, _ in screens] + [rep.dual]
    assert len(centres) == len(rep.trace)
    for x, row, centre in zip(rep.iterates, rep.trace, centres):
        dp = G.duality.dual_point(spec, spec.loss.deriv(ds.A @ x, ds.y), x=x)
        assert row.objective == G.primal_objective(spec, x)
        assert row.gap == G.primal_objective(spec, x) - G.duality._dual_value(spec, dp)
        assert np.array_equal(centre.theta, dp.theta)
    # (b)
    refused, certs = 0, iter(certified)
    for k, row in enumerate(rep.trace):
        slot = decided[k - 1] if 0 < k <= len(decided) else None
        if slot is not None:
            x_r = slot[1][0]
            assert row.restart == "refined" and np.array_equal(rep.iterates[k], x_r)
            candidates = epochs[k - 1][4]
            assert len(candidates) == 2
            for x in candidates:
                assert slot[0] == _key(spec, x)
                assert G.solvers.evaluate(spec, x, ds.A @ x)[3] > tol
                assert G.primal_objective(spec, x_r) < G.primal_objective(spec, x)
            continue
        if k > len(decided):  # a last row straight after a screen certifies nothing
            continue
        x, gap, slot = next(certs)
        ref = slot[1] if slot[0] == _key(spec, x) else None
        takes = (gap > tol and ref is not None
                 and G.primal_objective(spec, ref[0]) < G.primal_objective(spec, x))
        assert (row.restart == "refined") == takes
        assert np.array_equal(rep.iterates[k], ref[0] if takes else x)
        refused += gap > tol and ref is not None and not takes
    assert next(certs, None) is None and (refused > 0) == off
    # (c)
    rows = epoch_rows(rep)
    assert len(epochs) == len(rows) and all(r.working_blocks for r in rows)
    for (x, g, mu, features, _), row in zip(epochs, rows):
        k = row.outer_iter - 1
        assert np.array_equal(x, rep.iterates[k])
        assert np.array_equal(g, spec.loss.deriv(ds.A @ x, ds.y))
        assert np.array_equal(mu, G.problem.smooth_gradient(spec, x, g))
        assert np.isin(block_of[features], rep.active_history[k + 1]).all()
    assert off or any(rep.trace[row.outer_iter - 1].restart == "refined" for row in rows)


def _scattered(spec):
    """spec on the partition whose block j holds the features j, j + q, ..."""
    d, q = spec.dataset.d, spec.partition.q
    return dataclasses.replace(spec, partition=G.BlockPartition(
        [np.arange(j, d, q) for j in range(q)]))


# (instance, partition, full batch); each runs at three lam / lam_max ratios
DECIDED_GRID = {
    "l1": (dict(seed=56, n=100, d=200, q=10), False, False),
    "group-l2": (dict(seed=57, n=200, d=100, q=10, model="logistic", reg="group_l2",
                      support=3), False, False),
    "mu-p": (dict(seed=58, n=100, d=150, q=10, mu_p=0.01), False, False),
    "group-l2-mu-p": (dict(seed=59, n=150, d=100, q=10, model="logistic", reg="group_l2",
                           support=3, mu_p=0.01), False, False),
    "full-batch": (dict(seed=56, n=100, d=200, q=10), False, True),
    "l1-scattered": (dict(seed=60, n=100, d=200, q=10), True, False),
    "group-l2-scattered": (dict(seed=57, n=200, d=100, q=10, model="logistic",
                                reg="group_l2", support=3), True, False),
}


def _same_solve(a, b):
    """Every trace field but elapsed_s, every iterate, the safe sets and the
    report's dual point and counts hold the same bits in a and b."""
    def fields(r):
        return [np.float64(v).tobytes() if isinstance(v, float) else v
                for k, v in dataclasses.asdict(r).items() if k != "elapsed_s"]
    assert [fields(r) for r in a.trace] == [fields(r) for r in b.trace]
    assert [x.tobytes() for x in a.iterates] == [x.tobytes() for x in b.iterates]
    assert [s.tobytes() for s in a.active_history] == [s.tobytes() for s in b.active_history]
    assert a.x_final.tobytes() == b.x_final.tobytes()
    for name in ("theta", "kappa", "gradient", "correlations"):
        u, v = getattr(a.dual, name), getattr(b.dual, name)
        assert (u is None and v is None) or u.tobytes() == v.tobytes(), name
    assert (a.dual.value, a.dual.scale_used) == (b.dual.value, b.dual.scale_used)
    assert (a.converged, a.outer_iters, a.coord_updates, a.gap, a.objective) == (
        b.converged, b.outer_iters, b.coord_updates, b.gap, b.objective)


@pytest.mark.parametrize("case", sorted(DECIDED_GRID))
def test_a_decided_row_is_the_row_the_full_restart_gives(monkeypatch, case):
    """The slot's refined point decides a row (_epoch) only where the full
    restart and _certify would give that row the same point: adsgd with the
    check shipped and with an infinite rounding margin, under which the
    check decides nothing and every epoch evaluates both
    candidates, gives the same bits, at lam / lam_max 0.5, 0.25 and 0.1, on
    L1 and group-L2, with mu_p > 0, a full batch and scattered partitions;
    some rows of each case are decided."""
    kw, scattered, full_batch = DECIDED_GRID[case]
    decided, rows = spy_decided(monkeypatch), 0
    for ratio in (0.5, 0.25, 0.1):
        spec = make_instance(ratio=ratio, **kw)
        if scattered:
            spec = _scattered(spec)
        cfg = G.SolverConfig(seed=2, gap_tol=1e-10, max_outer=300, eta=tuned_eta(spec),
                             batch_size=spec.dataset.n if full_batch else None,
                             keep_iterates=True)
        with monkeypatch.context() as patched:
            patched.setattr(G.solvers, "_rounding", lambda spec, *values: math.inf)
            full = G.adsgd_solve(spec, cfg)
        assert full.converged and all(slot is None for slot in decided)
        decided.clear()
        _same_solve(G.adsgd_solve(spec, cfg), full)
        rows += sum(slot is not None for slot in decided)
        decided.clear()
    assert rows > 0


def test_a_row_within_the_margin_or_not_finite_runs_the_full_restart(monkeypatch):
    """The check decides a row only where both candidates' objectives P are
    finite and exceed P(x_r) by more than gap_tol plus the rounding margin
    _rounding(P, P, P(x_r)). An epoch of 50 steps from 1.05 x* on this Lasso instance,
    with the refinement gate shut so that it refines nothing of its own,
    gives two candidates of x*'s model, and the slot holds the refinement
    x_r of that model. With gap_tol a margin below the most it may be, the
    epoch returns x_r and its evaluation, labelled "refined", and _restart
    does not run. With gap_tol half a margin above that, where the smaller
    objective still exceeds P(x_r) + gap_tol but by less than the margin,
    and with either candidate's objective made nan or inf in the check, the
    epoch runs the full restart and returns its bits."""
    spec = SCREENED_RUNS["lasso"]()
    x0 = 1.05 * G.reference_solve(spec, tol=1e-12).x_final
    work = _compact(spec, np.arange(spec.partition.q))
    evaluation = G.solvers.evaluate(spec, x0, spec.dataset.A @ x0)
    model = _key(spec, x0)
    x_r, ev_r = _certificate(spec, x0, work)
    monkeypatch.setattr(G.solvers, "_REFINE_COST", 0.0)
    restarts, restart = [], G.solvers._restart
    monkeypatch.setattr(G.solvers, "_restart",
                        lambda spec, *cands: restarts.append(cands) or restart(spec, *cands))

    def epoch(gap_tol):
        restarts.clear()
        rng = np.random.Generator(np.random.Philox(0))
        return G.solvers._epoch(spec, work, x0, evaluation, 50, rng, tuned_eta(spec), 10,
                                True, (model, (x_r, ev_r)), gap_tol)

    full = epoch(1.0)  # P(x_r) + 1 tops both candidates
    (cands,) = restarts
    assert full[2] in ("average", "last") and full[4] == 50
    assert all(_key(spec, x) == model for x, _ in cands)
    objs = [G.primal_objective(spec, x) for x, _ in cands]
    margin = G.duality._rounding(spec, min(objs), min(objs), ev_r[0])
    most = min(obj - G.duality._rounding(spec, obj, obj, ev_r[0]) for obj in objs) - ev_r[0]
    assert most > 1e3 * margin

    def same(out):
        assert len(restarts) == 1 and out[2] == full[2] and out[0].tobytes() == full[0].tobytes()
        assert (out[1][0], out[1][3]) == (full[1][0], full[1][3])

    out = epoch(most - margin)
    assert restarts == [] and out[2] == "refined" and out[0] is x_r and out[1] is ev_r
    within = most + 0.5 * margin
    assert min(objs) > ev_r[0] + within
    same(epoch(within))
    objective = G.solvers.primal_objective
    for which in (0, 1):
        for bad in (math.nan, math.inf):
            calls = []

            def spied(spec, x, z):
                calls.append(None)
                return bad if len(calls) == which + 1 else objective(spec, x, z)

            monkeypatch.setattr(G.solvers, "primal_objective", spied)
            same(epoch(most - margin))
            monkeypatch.setattr(G.solvers, "primal_objective", objective)


@pytest.mark.parametrize("gate, shift, match", [
    ("open", math.inf, "non-finite"), ("shut", math.inf, "non-finite"),
    ("shut", 1e4, "ran away")])
def test_a_non_finite_or_runaway_row_still_diverges(monkeypatch, gate, shift, match):
    """The candidates' A x, shifted once a refinement has found a point (the
    gate open, where the slot's point decides row 1 of the unshifted solve)
    or from the first epoch on (the gate shut, where the slot never holds a
    point): shifted by inf, their objectives are not finite, so the check
    falls back to the full restart and row 1 raises DivergenceError; shifted
    by 1e4, row 1 runs away past _RUNAWAY times P(0) and raises too."""
    spec = SCREENED_RUNS["lasso"]()
    cfg = G.SolverConfig(seed=2, gap_tol=1e-10, max_outer=300, eta=tuned_eta(spec))
    if gate == "shut":
        monkeypatch.setattr(G.solvers, "_REFINE_COST", 0.0)
    decided = spy_decided(monkeypatch)
    G.adsgd_solve(spec, cfg)
    assert (decided[0] is not None) == (gate == "open")
    state = {"found": gate == "shut", "refining": False}
    matvec, certificate = G.solvers._matvec, G.solvers._refined_certificate

    def spied_certificate(*args):
        state["refining"] = True
        try:
            out = certificate(*args)
        finally:
            state["refining"] = False
        state["found"] |= out is not None
        return out

    def shifted(work, v):
        z = matvec(work, v)
        return z + shift if state["found"] and not state["refining"] else z

    monkeypatch.setattr(G.solvers, "_refined_certificate", spied_certificate)
    monkeypatch.setattr(G.solvers, "_matvec", shifted)
    with pytest.raises(G.DivergenceError, match=f"{match} .*at outer iteration 1$") as exc:
        G.adsgd_solve(spec, cfg)
    assert exc.value.iteration == 1


def test_no_solve_writes_a_row_point_in_place(monkeypatch):
    """A row that takes its refined point x_r holds the slot's own array, not
    a copy, and the next epoch starts from it: so nothing may write a row's
    point in place. Every x_r a refinement returns, and every point an epoch
    starts from, keeps its bytes to the end of the solve, and the iterates
    report.iterates keeps are those bytes, on solves that take refined rows:
    the screened runs, which certify, and _long_step_runs' two, one of which
    screens a block where the row's point is nonzero and certifies, while
    the other runs to its cap of rows."""
    refined, starts = [], []
    certificate, epoch = G.solvers._refined_certificate, G.solvers._epoch

    def spied_certificate(spec, work, v):
        out = certificate(spec, work, v)
        if out is not None:
            refined.append((out[0], out[0].tobytes()))
        return out

    def spied_epoch(spec, work, x_hat, *args):
        starts.append((x_hat, x_hat.tobytes()))
        return epoch(spec, work, x_hat, *args)

    monkeypatch.setattr(G.solvers, "_refined_certificate", spied_certificate)
    monkeypatch.setattr(G.solvers, "_epoch", spied_epoch)
    # (spec, config, certifies): None for the screened runs, which all certify
    runs = [(spec, G.SolverConfig(seed=2, gap_tol=1e-10, max_outer=300, eta=tuned_eta(spec),
                                  keep_iterates=True), None)
            for spec in (SCREENED_RUNS[case]() for case in sorted(SCREENED_RUNS))]
    taken = 0
    for spec, cfg, certifies in runs + _long_step_runs():
        refined.clear()
        starts.clear()
        rep = G.adsgd_solve(spec, cfg)
        if certifies is None:
            assert rep.converged
        else:
            _pin_long_step_run(spec, rep, certifies)
        assert all(x.tobytes() == b for x, b in refined + starts)
        points = {b for _, b in refined}
        for x, row in zip(rep.iterates, rep.trace):
            taken += row.restart == "refined"
            assert row.restart != "refined" or x.tobytes() in points
        for (x, b), row in zip(starts, epoch_rows(rep)):
            assert rep.iterates[row.outer_iter - 1].tobytes() == b
    assert taken > 0


@pytest.mark.parametrize("full_batch", [False, True], ids=["adsgd", "adsgd-full-batch"])
@pytest.mark.parametrize("case", sorted(SCREENED_RUNS))
def test_screening_solves_refine_each_identified_model_once(monkeypatch, full_batch, case):
    """A screening solve refines a model (signs for L1, nonzero pattern for
    group-L2) on the first row or model check that finds it settled, where
    it is nonzero and within the cost bound, whether or not the model is
    identified yet, and keeps the refinement in its slot while the model
    holds (these runs never come back to an earlier model). A check refines
    x_cur's model, never the model of the row that opened its epoch. A model
    is refined at most once per solve, at a row or at a check, whether or
    not that refinement found a point, so no gap is kept for a try; every
    row whose own point brings a new such model is refined, there or at a
    check of the epoch that produced it, unless it stops on that
    point's own gap. The safe set need not hold just the row's nonzero blocks
    yet, but a row is identified only where it does, and, where the row keeps
    its own point, where that point's model is the previous row's; only an
    identified row stops on a refined point. A row the slot's refined point
    decided brings the slot's model, which its epoch's candidates held, and
    is held to the same rules."""
    spec = SCREENED_RUNS[case]()
    calls = _spy_refinements(monkeypatch)
    spans = _spy_epochs(monkeypatch, calls)
    points = _spy_row_points(monkeypatch)
    decided = spy_decided(monkeypatch)
    batch = spec.dataset.n if full_batch else None
    rep = G.solve(spec, G.SolverConfig(solver="adsgd", seed=2, gap_tol=1e-10,
                                       max_outer=300, eta=tuned_eta(spec),
                                       batch_size=batch, keep_iterates=True))
    assert rep.converged and calls and any(x_r is not None for _, _, x_r in calls)

    def model(x):
        return _key(spec, x)

    own = _row_points(spec, points, decided)
    refined, tries = set(), set()
    for (x, m, _), (k, in_epoch) in zip(calls, _refinement_sites(rep, calls, spans)):
        assert np.any(x) and _within_refinement_cost(spec, _unknowns(spec, x))
        # once per solve, and never the model of row k - 1
        assert m not in tries and k > 0 and model(rep.iterates[k - 1]) != m
        assert in_epoch or np.array_equal(x, own[k][0])
        tries.add(m)
        refined.add((k, m))
    for k, (x, m) in enumerate(own[1:], 1):
        row = rep.trace[k]
        if x is None:  # decided: the slot's model, refined by then
            assert m in tries and row.restart == "refined"
            assert m == model(rep.iterates[k - 1]) or (k, m) in refined
        elif (m != model(rep.iterates[k - 1]) and np.any(x)
                and _within_refinement_cost(spec, _unknowns(spec, x))):
            assert (k, m) in refined or (k == rep.outer_iters and row.restart != "refined"
                                         and row.gap <= 1e-10)
    block_of = spec.partition.block_of
    for k, row in enumerate(rep.trace):
        x = rep.iterates[k]
        held = np.array_equal(np.unique(block_of[np.flatnonzero(x)]), rep.active_history[k])
        if row.restart == "refined":  # the row's point is a refined one
            assert row.identified == held
        else:
            assert row.identified == (k > 0 and model(x) == model(rep.iterates[k - 1])
                                      and held)
    last = rep.trace[-1]
    assert last.identified or last.restart != "refined"


def _chunk_steps(spec, work, batch_size):
    """The steps of one chunk of an epoch on work: _CHUNK_ENTRIES over the
    entries a step may gather."""
    entries = (batch_size * np.diff(work.indptr).max() if batch_size < spec.dataset.n
               else work.entries[0].size)
    return max(1, G.solvers._CHUNK_ENTRIES // entries)


def test_an_epoch_ends_at_its_first_refinement_that_finds_a_point(monkeypatch):
    """(a) A screening solve's epoch ends before its inner_budget exactly at
    the first model check whose refinement returns a point, whether or not
    that point certifies: every refinement of an epoch but its last found
    none, and its last found one exactly where the epoch ended early. With
    every refinement answering off the optimum, as in
    test_a_refinement_on_a_wrong_support_can_neither_certify_nor_evict, none
    certifies, yet epochs still end there. (b) Where every refinement
    returns None, every epoch takes every budgeted step. (c) mrbcd and
    proxsvrg take every budgeted step and refine nothing. (d) Every epoch
    draws its rows and blocks chunk by chunk, its chunks cut only at the
    entry cap and at the budget, never at a check. One that ends early draws
    the chunks up to the one holding its last step, then, its generator
    restored, the steps it took in that chunk again. L1 and group-L2, for a
    sampled and a full batch."""
    results, certificate = [], G.solvers._refined_certificate

    def spied(spec, work, v):
        out = certificate(spec, work, v)
        results.append(out)
        return out

    monkeypatch.setattr(G.solvers, "_refined_certificate", spied)
    spans = _spy_epochs(monkeypatch, results)
    monkeypatch.setattr(np.random, "Generator", _CountingGenerator)
    drawn, chunks = [], []
    epoch = G.solvers._epoch

    def counted(spec, work, *args):
        first = len(_CountingGenerator.draws)
        out = epoch(spec, work, *args)
        drawn.append(_CountingGenerator.draws[first:])
        chunks.append(_chunk_steps(spec, work, args[5]))
        return out

    monkeypatch.setattr(G.solvers, "_epoch", counted)

    def run(spec, **fields):
        del results[:], spans[:], drawn[:], chunks[:]
        monkeypatch.setattr(_CountingGenerator, "draws", [])
        cfg = G.SolverConfig(**{**dict(seed=2, gap_tol=1e-10, max_outer=300,
                                       eta=tuned_eta(spec)), **fields})
        rep = G.solve(spec, cfg)
        rows = [r for r in rep.trace if r.inner_steps]
        assert len(rows) == len(spans) == len(drawn)
        budgets = [inner_budget(cfg.m or spec.dataset.n, r.working_blocks, spec.partition.q)
                   for r in rows]
        return rep, rows, budgets

    def each_epoch(spec):
        """Run adsgd on spec for a sampled and a full batch, and yield, for
        each of its epochs: its row, budget, span of refinements, chunk size,
        and the number of steps each of its draws covers."""
        n = spec.dataset.n
        for batch in (10, n):
            rep, rows, budgets = run(spec, solver="adsgd", batch_size=batch)
            assert rep.converged
            per_step = (batch if batch < n else 0) + 1
            for row, budget, span, draws, chunk in zip(rows, budgets, spans, drawn, chunks):
                assert [size % per_step for size in draws] == [0] * len(draws)
                yield row, budget, span, chunk, [size // per_step for size in draws]

    refine = G.solvers._refine_support

    def wrong(spec, work, v):
        out, groups = refine(spec, work, v), spec.partition.groups
        if out is None:
            return None
        x = _on(spec, work, out)
        x[groups[int(np.argmax([np.linalg.norm(x[g]) for g in groups]))]] = 0.0
        return x[work.features]

    for refinement in (refine, wrong):
        monkeypatch.setattr(G.solvers, "_refine_support", refinement)
        early = certified = 0
        for case in sorted(SCREENED_RUNS):
            for row, budget, (a, b), chunk, sizes in each_epoch(SCREENED_RUNS[case]()):
                found = [i for i in range(a, b) if results[i] is not None]
                certified += sum(results[i][1][3] <= 1e-10 for i in found)
                # (a)
                assert found == ([b - 1] if row.inner_steps < budget else [])
                # (d)
                planned = [min(chunk, budget - done) for done in range(0, budget, chunk)]
                last = (row.inner_steps - 1) // chunk
                assert sizes == (planned if row.inner_steps == budget else
                                 planned[:last + 1] + [row.inner_steps - last * chunk])
                early += row.inner_steps < budget
        assert early >= 4 and (certified > 0) == (refinement is refine)

    # (b)
    monkeypatch.setattr(G.solvers, "_refine_support", lambda *args: None)
    tried = 0
    for case in sorted(SCREENED_RUNS):
        for row, budget, (a, b), _, _ in each_epoch(SCREENED_RUNS[case]()):
            assert row.inner_steps == budget
            assert all(results[i] is None for i in range(a, b))
            tried += b - a
    assert tried > 0  # checks refined, and found nothing
    monkeypatch.setattr(G.solvers, "_refine_support", refine)

    # (c)
    for solver in ("mrbcd", "proxsvrg"):
        for case in sorted(SCREENED_RUNS):
            rep, rows, budgets = run(SCREENED_RUNS[case](), solver=solver, max_outer=8)
            assert results == [] and [r.inner_steps for r in rows] == budgets
            assert len(rows) == rep.outer_iters


def _spy_epoch_steps(monkeypatch):
    """Record each epoch of a solve: (|W|, the features of its working
    columns, its budget, x_cur before each of its steps, (steps done, x) of
    each refinement made inside it), x_cur and x on the working columns."""
    epochs, current = [], []
    epoch, step, certificate = (G.solvers._epoch, G.solvers.step_gradient,
                                G.solvers._refined_certificate)

    def spied_epoch(spec, work, x_hat, evaluation, steps, *args):
        epochs.append((work.blocks.size, work.features, steps, [], []))
        current.append(epochs[-1])
        try:
            return epoch(spec, work, x_hat, evaluation, steps, *args)
        finally:
            current.pop()

    def spied_step(loss, x, *args):
        if current:
            current[-1][3].append(x.copy())
        return step(loss, x, *args)

    def spied_certificate(spec, work, v):
        if current:
            current[-1][4].append((len(current[-1][3]), v.copy()))
        return certificate(spec, work, v)

    monkeypatch.setattr(G.solvers, "_epoch", spied_epoch)
    monkeypatch.setattr(G.solvers, "step_gradient", spied_step)
    monkeypatch.setattr(G.solvers, "_refined_certificate", spied_certificate)
    return epochs


@pytest.mark.parametrize("case", sorted(SCREENED_RUNS))
def test_an_epoch_refines_only_a_model_held_at_its_last_three_checks(monkeypatch, case):
    """An epoch checks x_cur's model after every |W| steps but the last, the
    start point being the first check. Every refinement made inside an epoch
    runs after t steps, t a multiple of |W| below the epoch's budget, on the
    model x_cur held at the checks after t - 2|W|, t - |W| and t steps, and
    at the first check where it had held three times: the check after
    t - 3|W| steps, where there is one, found another model. For a sampled
    and a full batch."""
    spec = SCREENED_RUNS[case]()
    epochs = _spy_epoch_steps(monkeypatch)
    refined = 0
    for batch in (None, spec.dataset.n):
        del epochs[:]
        rep = G.adsgd_solve(spec, G.SolverConfig(seed=2, gap_tol=1e-10, max_outer=300,
                                                 eta=tuned_eta(spec), batch_size=batch))
        assert rep.converged
        for width, features, steps, xs, refinements in epochs:
            def key(v):
                return G.solvers._model(spec, features, v)[0]

            for t, x in refinements:
                model = key(x)
                assert t % width == 0 and 2 * width <= t < steps
                assert key(xs[t - width]) == model
                assert key(xs[t - 2 * width]) == model
                assert t < 3 * width or key(xs[t - 3 * width]) != model
                refined += 1
    assert refined > 0


@pytest.mark.parametrize("case", sorted(SCREENED_RUNS))
def test_an_epoch_that_ends_inside_a_chunk_leaves_the_per_step_stream(monkeypatch, case):
    """Checks do not cut chunks, so an epoch may end at a check inside one.
    It then restores its generator and draws again the steps it took in that
    chunk, which leaves the stream where step-by-step draws of its steps
    would: the generator's next draw after the epoch is that of a per-step
    drawer started where the epoch started. adsgd returns the same bits at
    _CHUNK_ENTRIES = 1 (one step a chunk, which no check falls inside), the
    default and 2**22 (one chunk an epoch), for a sampled and a full batch,
    and some of its epochs end inside a chunk."""
    spec = SCREENED_RUNS[case]()
    n = spec.dataset.n
    epoch, inside = G.solvers._epoch, []

    def drawer(state):
        rng = np.random.Generator(np.random.Philox())
        rng.bit_generator.state = state
        return rng

    def spied(spec, work, x_hat, evaluation, steps, rng, eta, batch_size, *args):
        start = rng.bit_generator.state
        out = epoch(spec, work, x_hat, evaluation, steps, rng, eta, batch_size, *args)
        taken = out[4]
        if taken % _chunk_steps(spec, work, batch_size) and taken < steps:
            per_step = drawer(start)
            for _ in range(taken):
                if batch_size < n:
                    per_step.integers(0, n, size=batch_size)
                per_step.integers(0, work.blocks.size)
            after = drawer(rng.bit_generator.state)
            inside.append(after.integers(0, 2 ** 62) == per_step.integers(0, 2 ** 62))
        return out

    monkeypatch.setattr(G.solvers, "_epoch", spied)
    for batch in (None, n):
        cfg = G.SolverConfig(seed=2, gap_tol=1e-10, max_outer=300, eta=tuned_eta(spec),
                             batch_size=batch, keep_iterates=True)
        runs = []
        for entries in (1, _CHUNK_ENTRIES, 2 ** 22):
            monkeypatch.setattr(G.solvers, "_CHUNK_ENTRIES", entries)
            rep = G.adsgd_solve(spec, cfg)
            runs.append((rep.coord_updates, [r.gap for r in rep.trace],
                         [r.inner_steps for r in rep.trace],
                         [x.tobytes() for x in rep.iterates]))
        assert rep.converged and runs[0] == runs[1] == runs[2]
    assert inside and all(inside)


def _unknowns(spec, x):
    """The unknowns of x's refinement: its nonzeros for L1, for group-L2 the
    features of the blocks where it is nonzero."""
    if spec.reg.name == "l1":
        return np.count_nonzero(x)
    part = spec.partition
    return int(part.sizes[np.unique(part.block_of[np.flatnonzero(x)])].sum())


def _within_refinement_cost(spec, k):
    n, nnz = spec.dataset.n, spec.dataset.A.nnz
    return k <= n and n * k * k <= G.solvers._REFINE_COST * nnz


@pytest.mark.parametrize("case", sorted(SCREENED_RUNS))
def test_a_model_past_the_refinement_cost_is_never_refined(monkeypatch, case):
    """adsgd refines only models of k <= n unknowns with n k^2 at most
    _REFINE_COST times the design's stored entries. With that bound at 0 it
    refines none, certifies on its iterates' own dual points and still
    converges."""
    spec = SCREENED_RUNS[case]()
    cfg = G.SolverConfig(seed=2, gap_tol=1e-10, max_outer=300, eta=tuned_eta(spec))
    calls = _spy_refinements(monkeypatch)
    G.adsgd_solve(spec, cfg)
    assert calls and all(_within_refinement_cost(spec, _unknowns(spec, x))
                         for x, _, _ in calls)
    calls.clear()
    monkeypatch.setattr(G.solvers, "_REFINE_COST", 0.0)
    rep = G.adsgd_solve(spec, cfg)
    assert rep.converged and calls == []
    assert not any(r.restart == "refined" for r in rep.trace)


def test_a_refinement_fixes_the_signs_of_an_l1_model_and_the_pattern_of_a_group_model():
    x = np.array([0.0, 1.5, -2.0, 0.0, 3.0, 0.5])
    flipped = x * np.array([1, 1, -1, 1, 1, 1])
    l1 = make_instance(seed=1, n=20, d=6, q=3, support=2)
    group = make_instance(seed=1, n=20, d=6, q=3, support=2, reg="group_l2")
    assert _key(l1, x) != _key(l1, flipped)
    assert _key(group, x) == _key(group, flipped)
    assert _key(group, x) != _key(group, x[::-1])


@pytest.mark.parametrize("solver", ["mrbcd", "proxsvrg"])
def test_solvers_that_never_screen_never_refine(monkeypatch, solver):
    spec = SCREENED_RUNS["logistic-group"]()
    calls = _spy_refinements(monkeypatch)
    rep = G.solve(spec, G.SolverConfig(solver=solver, seed=2, gap_tol=1e-10,
                                       max_outer=300, eta=tuned_eta(spec)))
    assert rep.converged and calls == []
    assert not any(r.restart == "refined" for r in rep.trace)


# ------------------------------------------------------- products on a design

PRODUCT_CASES = {
    "scattered": lambda: dataclasses.replace(
        make_instance(seed=61, n=80, d=60, q=6, support=4),
        partition=G.BlockPartition([np.arange(j, 60, 6) for j in range(6)])),
    "mu-p": lambda: make_instance(seed=62, n=80, d=120, q=10, mu_p=0.01),
    "low-lam": lambda: make_instance(seed=63, n=80, d=120, q=10, ratio=0.25),
    "logistic-group": lambda: make_instance(seed=49, n=60, d=80, q=10, model="logistic",
                                            reg="group_l2"),
}


@pytest.mark.parametrize("rho", STORAGES, ids=["sparse", "dense"])
@pytest.mark.parametrize("case", sorted(PRODUCT_CASES))
def test_every_product_has_the_full_designs_bytes(monkeypatch, case, rho):
    """Each A x a solve forms runs on a working design that holds x's
    support, never on the whole dataset; a point nonzero off that design
    would lose terms and could certify a wrong gap. So every z that
    evaluate is given must have the bytes of ds.A @ x, every refinement
    (_refined_certificate) gets its point on its design's columns, and the
    row point _certify takes on its design's columns, scattered back to the
    d features, has the objective of the row's evaluation to the bit, so the
    design held every nonzero of it: for adsgd, mrbcd and proxsvrg at
    a sampled and at the full batch, and for the reference, on a scattered
    partition, under mu_p > 0, at 0.25 lam_max and on a group-L2 instance
    whose screens drop blocks where x_hat is nonzero, on both storages. A solve
    that passes a row the design of an earlier epoch than the one that
    produced its point fails here."""
    monkeypatch.setattr(G.solvers, "_RHO", rho)
    spec = PRODUCT_CASES[case]()
    ds = spec.dataset
    checked = {"evaluate": 0, "refinement": 0, "row": 0}
    evaluate, certificate = G.solvers.evaluate, G.solvers._refined_certificate
    certify = G.solvers._certify

    def spied_evaluate(spec, x, z):
        assert z.tobytes() == (ds.A @ x).tobytes()
        checked["evaluate"] += 1
        return evaluate(spec, x, z)

    def spied_certificate(spec, work, v):
        assert v.shape == work.features.shape
        checked["refinement"] += 1
        return certificate(spec, work, v)

    def spied_certify(spec, v, evaluation, gap_tol, model, slot, work):
        assert G.primal_objective(spec, _on(spec, work, v)) == evaluation[0]
        checked["row"] += 1
        return certify(spec, v, evaluation, gap_tol, model, slot, work)

    monkeypatch.setattr(G.solvers, "evaluate", spied_evaluate)
    monkeypatch.setattr(G.solvers, "_refined_certificate", spied_certificate)
    monkeypatch.setattr(G.solvers, "_certify", spied_certify)
    # the logistic group-L2 step that makes a screen drop a nonzero block
    block_eta = tuned_eta(spec, 1.0 if case == "logistic-group" else 4.0)
    for solver, eta in (("adsgd", block_eta), ("mrbcd", block_eta),
                        ("proxsvrg", tuned_eta(spec, 16.0))):
        for batch_size in (1, 10, ds.n):
            G.solve(spec, G.SolverConfig(solver=solver, seed=49, gap_tol=1e-10, max_outer=40,
                                         m=ds.n, batch_size=batch_size, eta=eta))
    rep = G.reference_solve(spec, tol=1e-10)
    assert rep.converged
    assert checked["evaluate"] > 0 and checked["refinement"] > 0 and checked["row"] > 0


class _Tripwire(sp.csr_matrix):
    """A CSR design that refuses every product with a vector or matrix and every slice."""

    def _matmul_vector(self, other):
        raise AssertionError("a product with the whole design")

    def _matmul_multivector(self, other):
        raise AssertionError("a product with the whole design")

    def __getitem__(self, key):
        raise AssertionError("a slice of the whole design")


@pytest.mark.parametrize("case", sorted(SCREENED_RUNS))
def test_a_warm_adsgd_solve_forms_no_product_or_slice_of_the_design(monkeypatch, case):
    """Once a dataset's column bounds are memoised, an adsgd solve with an
    explicit eta multiplies and slices only working designs: it forms no A x,
    through scipy's operator or through Dataset.matvec, which calls the
    compiled loop on ds.A's arrays past _Tripwire, and no column slice of
    ds.A; its refinements certify, and its A'g goes through Dataset.rmatvec.
    It returns the bits of the cold solve."""
    spec = SCREENED_RUNS[case]()
    cfg = G.SolverConfig(seed=2, gap_tol=1e-10, max_outer=300, eta=tuned_eta(spec))
    cold = G.adsgd_solve(spec, cfg)
    ds, calls, rmatvec = spec.dataset, [], G.Dataset.rmatvec

    def refuse(self, x):
        raise AssertionError("a product with the whole design")

    monkeypatch.setattr(ds, "A", _Tripwire(ds.A))
    monkeypatch.setattr(G.Dataset, "matvec", refuse)
    monkeypatch.setattr(G.Dataset, "rmatvec",
                        lambda self, v: calls.append(v.size) or rmatvec(self, v))
    warm = G.adsgd_solve(spec, cfg)
    assert warm.converged and warm.trace[-1].restart == "refined" and calls
    assert np.array_equal(warm.x_final, cold.x_final)
    assert [r.gap for r in warm.trace] == [r.gap for r in cold.trace]
