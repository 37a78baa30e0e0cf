"""The vectorised analysis pipeline against its per-element reference loops.

Every output must be exactly equal to the reference in ``analysis_oracles``
— same values and same dtypes — on random patterns and on the edge cases
(n = 1, n below the block size, empty columns, disconnected graphs, masked
searches with unreachable vertices, irregular boundaries, float32 blocks,
both block layouts), and over all 16 analogue families end to end.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.solver as solver_mod
import repro.core.strategy as strategy_mod
from repro import PanguLU
from repro.core.blocking import BlockMatrix, block_partition
from repro.core.dag import TaskDAG, build_dag
from repro.core.strategy import IrregularBlocking
from repro.ordering import (
    StructurallySingularError,
    bfs_levels,
    mc64,
    nested_dissection,
    pseudo_peripheral_vertex,
    rcm,
)
from repro.sparse import CSCMatrix, coo_to_csc, generate, paper_matrix_names
from repro.sparse.patterns import (
    adjacency_csr,
    adjacency_lists,
    ensure_diagonal,
    has_full_diagonal,
)
from repro.symbolic import elimination_tree, fill_in_values, symbolic_symmetric

from . import analysis_oracles as oracle

PROPERTY = settings(max_examples=25, deadline=None)


def assert_same(x, y) -> None:
    """Exact equality of values and dtype (arrays) or value and type."""
    if isinstance(y, np.ndarray):
        assert isinstance(x, np.ndarray)
        assert x.dtype == y.dtype
        np.testing.assert_array_equal(x, y)
    else:
        assert type(x) is type(y)
        assert x == y


def assert_same_csc(x: CSCMatrix, y: CSCMatrix) -> None:
    assert x.shape == y.shape
    for name in ("indptr", "indices", "data"):
        assert_same(getattr(x, name), getattr(y, name))


def assert_same_blocks(x: BlockMatrix, y: BlockMatrix) -> None:
    for name in ("n", "bs", "nb", "dtype"):
        assert_same(getattr(x, name), getattr(y, name))
    for name in ("blk_colptr", "blk_rowidx", "boundaries"):
        assert_same(getattr(x, name), getattr(y, name))
    assert len(x.blk_values) == len(y.blk_values)
    for bx, by in zip(x.blk_values, y.blk_values):
        assert_same_csc(bx, by)
    for name in ("indptr", "indices", "data", "ptr_off", "val_off", "gather"):
        assert_same(getattr(x.arena, name), getattr(y.arena, name))


def assert_same_dag(x: TaskDAG, y: TaskDAG) -> None:
    assert len(x.tasks) == len(y.tasks)
    for tx, ty in zip(x.tasks, y.tasks):
        for name in ("tid", "ttype", "k", "bi", "bj", "flops", "n_deps", "successors"):
            assert_same(getattr(tx, name), getattr(ty, name))
    assert list(x.panel_of_block.items()) == list(y.panel_of_block.items())
    assert_same(x.total_flops, y.total_flops)


def random_pattern(n: int, density: float, seed: int, *, diagonal: bool = True,
                   empty_cols: int = 0) -> CSCMatrix:
    """Random pattern with random values; ``empty_cols`` columns (and, for
    a structurally symmetric graph view, their rows) are left empty."""
    rng = np.random.default_rng(seed)
    m = int(n * n * density)
    rows = rng.integers(0, n, m)
    cols = rng.integers(0, n, m)
    if diagonal:
        rows = np.concatenate([rows, np.arange(n)])
        cols = np.concatenate([cols, np.arange(n)])
    empty = rng.choice(n, size=min(empty_cols, n), replace=False)
    keep = ~np.isin(cols, empty) & ~np.isin(rows, empty)
    vals = rng.standard_normal(int(keep.sum())) + 4.0
    return coo_to_csc((n, n), rows[keep], cols[keep], vals)


def disconnected(seed: int, parts: int = 3) -> CSCMatrix:
    blocks = [random_pattern(int(k), 0.2, seed + k).to_scipy()
              for k in np.random.default_rng(seed).integers(1, 12, parts)]
    return CSCMatrix.from_scipy(sp.block_diag(blocks))


graphs = st.one_of(
    st.builds(random_pattern, st.integers(1, 60), st.floats(0.0, 0.2),
              st.integers(0, 10_000), diagonal=st.booleans(),
              empty_cols=st.integers(0, 5)),
    st.builds(disconnected, st.integers(0, 10_000), st.integers(2, 4)),
)


# ----------------------------------------------------------------------
# edge cases through the whole analysis
# ----------------------------------------------------------------------

EDGE_CASES = {
    "n1": lambda: random_pattern(1, 0.0, 0),
    "n1_no_diagonal": lambda: random_pattern(1, 0.0, 0, diagonal=False),
    "no_edges": lambda: random_pattern(6, 0.0, 0),
    "empty_columns": lambda: random_pattern(12, 0.15, 4, empty_cols=4),
    "disconnected": lambda: disconnected(7, 4),
}


@pytest.mark.parametrize("case", list(EDGE_CASES))
def test_edge_cases_match_reference(case):
    a = EDGE_CASES[case]()
    n = a.ncols
    mask = np.arange(n) % 3 != 1  # cuts paths: some vertices unreachable
    for m in (None, mask):
        level, levels = bfs_levels(adjacency_csr(a), 0, m)
        ref_level, ref_levels = oracle.bfs_levels(oracle.adjacency_lists(a), 0, m)
        assert_same(level, ref_level)
        assert [lv.tolist() for lv in levels] == [lv.tolist() for lv in ref_levels]
    assert_same(rcm(a), oracle.rcm(a))
    assert_same(nested_dissection(a, leaf_size=2), oracle.nested_dissection(a, leaf_size=2))
    filled = symbolic_symmetric(a).filled
    assert_same_csc(filled, oracle.symbolic_symmetric(a).filled)
    for bs in (1, 4, n + 3):  # n + 3: one block, n below the block size
        blocks = block_partition(filled, bs)
        assert_same_blocks(blocks, oracle.block_partition(filled, bs))
        assert_same_dag(build_dag(blocks), oracle.build_dag(blocks))


# ----------------------------------------------------------------------
# ordering
# ----------------------------------------------------------------------


@PROPERTY
@given(graphs, st.data())
def test_bfs_levels_matches_per_vertex_search(a, data):
    adj = adjacency_csr(a)
    ref_adj = oracle.adjacency_lists(a)
    n = a.ncols
    start = data.draw(st.integers(0, n - 1))
    mask = None
    if data.draw(st.booleans()):
        # a random mask cuts the graph, leaving vertices unreachable
        mask = np.asarray(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        mask[start] = True
    level, levels = bfs_levels(adj, start, mask)
    ref_level, ref_levels = oracle.bfs_levels(ref_adj, start, mask)
    assert_same(level, ref_level)
    assert len(levels) == len(ref_levels)
    for lv, ref in zip(levels, ref_levels):
        assert_same(lv, ref)
    assert pseudo_peripheral_vertex(adj, start, mask)[0] == (
        oracle.pseudo_peripheral_vertex(ref_adj, start, mask)[0]
    )


def test_bfs_levels_rejects_masked_start():
    adj = adjacency_csr(random_pattern(5, 0.3, 1))
    mask = np.ones(5, dtype=bool)
    mask[2] = False
    with pytest.raises(ValueError, match="masked out"):
        bfs_levels(adj, 2, mask)


@PROPERTY
@given(graphs)
def test_adjacency_matches_per_column_lists(a):
    lists = adjacency_lists(a)
    ref = oracle.adjacency_lists(a)
    assert len(lists) == len(ref)
    for x, y in zip(lists, ref):
        assert_same(x, y)


@PROPERTY
@given(graphs, st.sampled_from([4, 16, 64]))
def test_orderings_match_reference(a, leaf_size):
    assert_same(rcm(a), oracle.rcm(a))
    assert_same(
        nested_dissection(a, leaf_size=leaf_size),
        oracle.nested_dissection(a, leaf_size=leaf_size),
    )


def test_subgraph_matrix_matches_reference():
    from repro.ordering.nd import _subgraph_matrix

    a = random_pattern(40, 0.1, 3)
    vertices = np.asarray([3, 7, 8, 20, 21, 39], dtype=np.int64)
    assert_same_csc(
        _subgraph_matrix(adjacency_csr(a), vertices),
        oracle.subgraph_matrix(oracle.adjacency_lists(a), vertices),
    )


def _assert_same_mc64(a: CSCMatrix) -> None:
    res, ref = mc64(a), oracle.mc64(a)
    for name in ("row_perm", "row_scale", "col_scale", "log_product"):
        assert_same(getattr(res, name), getattr(ref, name))


@PROPERTY
@given(st.integers(1, 50), st.floats(0.0, 0.2), st.integers(0, 10_000))
def test_mc64_matches_numpy_scalar_dijkstra(n, density, seed):
    rng = np.random.default_rng(seed)
    a = random_pattern(n, density, seed)
    # shuffle rows so the matching has work to do; spread the magnitudes
    a = a.permute(rng.permutation(n), None)
    a.data *= np.exp(rng.uniform(-6.0, 6.0, a.nnz))
    _assert_same_mc64(a)


@pytest.mark.parametrize("zero_col", [0, 3, 6])
def test_mc64_empty_column_message(zero_col):
    a = random_pattern(7, 0.3, 5)
    # a stored-but-zero column counts as empty, as in the reference
    a.data[a.indptr[zero_col] : a.indptr[zero_col + 1]] = 0.0
    msgs = []
    for fn in (mc64, oracle.mc64):
        with pytest.raises(StructurallySingularError) as err:
            fn(a)
        msgs.append(str(err.value))
    assert msgs[0] == msgs[1] == f"column {zero_col} has no nonzero entries"


def test_mc64_structurally_singular_message():
    # columns 0 and 1 both live only in row 0: no perfect matching
    a = CSCMatrix.from_dense(np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 3.0], [0.0, 0.0, 4.0]]))
    for fn in (mc64, oracle.mc64):
        with pytest.raises(StructurallySingularError, match="structurally singular"):
            fn(a)


# ----------------------------------------------------------------------
# symbolic and diagonal helpers
# ----------------------------------------------------------------------


@PROPERTY
@given(graphs)
def test_symbolic_matches_row_subtree_walk(a):
    assert_same(elimination_tree(a), oracle.elimination_tree(a))
    res, ref = symbolic_symmetric(a), oracle.symbolic_symmetric(a)
    assert_same_csc(res.filled, ref.filled)
    assert_same(res.etree, ref.etree)
    assert_same(res.nnz_l, ref.nnz_l)
    assert_same(res.nnz_u, ref.nnz_u)


@PROPERTY
@given(graphs, st.integers(0, 10_000))
def test_fill_in_values_uncovered_column_message(a, seed):
    filled = symbolic_symmetric(a).filled
    assert_same_csc(fill_in_values(filled, a), oracle.fill_in_values(filled, a))
    # drop one stored entry of the pattern: the same first column is named
    if filled.nnz == 0 or a.nnz == 0:
        return
    rows, cols = a.rows_cols()
    k = int(np.random.default_rng(seed).integers(a.nnz))
    keep = ~((filled.indices == rows[k]) & (filled.cols_expanded() == cols[k]))
    pattern = coo_to_csc(a.shape, filled.indices[keep], filled.cols_expanded()[keep])
    msgs = []
    for fn in (fill_in_values, oracle.fill_in_values):
        with pytest.raises(ValueError) as err:
            fn(pattern, a)
        msgs.append(str(err.value))
    assert msgs[0] == msgs[1] == f"pattern does not cover column {cols[k]} of the input"


@PROPERTY
@given(st.integers(0, 30), st.integers(0, 30), st.floats(0.0, 0.3), st.integers(0, 10_000))
def test_missing_diagonal_matches_per_column_search(nrows, ncols, density, seed):
    rng = np.random.default_rng(seed)
    m = int(nrows * ncols * density) if nrows and ncols else 0
    a = coo_to_csc((nrows, ncols), rng.integers(0, max(nrows, 1), m),
                   rng.integers(0, max(ncols, 1), m), rng.standard_normal(m))
    missing = oracle.missing_diagonal(a)
    assert has_full_diagonal(a) == (not missing)
    out = ensure_diagonal(a, 2.5)
    assert oracle.missing_diagonal(out) == []
    assert out.nnz == a.nnz + len(missing)
    dense = a.to_dense()
    dense[missing, missing] = 2.5
    assert_same(out.to_dense(), dense)


# ----------------------------------------------------------------------
# blocking and DAG
# ----------------------------------------------------------------------


@PROPERTY
@given(
    graphs,
    st.one_of(st.integers(1, 70), st.just("irregular")),
    st.sampled_from([None, np.float32]),
)
def test_partition_and_dag_match_reference(a, bs, dtype):
    filled = symbolic_symmetric(a).filled
    if bs == "irregular":
        bs = IrregularBlocking(8).boundaries(filled)
    blocks = block_partition(filled, bs, dtype=dtype)
    assert_same_blocks(blocks, oracle.block_partition(filled, bs, dtype=dtype))
    assert_same_dag(build_dag(blocks), oracle.build_dag(blocks))


def test_dag_missing_diagonal_block_message():
    filled = CSCMatrix.from_dense(np.array([[1.0, 0.0], [1.0, 0.0]]))
    blocks = block_partition(filled, 1)
    for fn in (build_dag, oracle.build_dag):
        with pytest.raises(ValueError, match=r"diagonal block \(1,1\) is structurally"):
            fn(blocks)


# ----------------------------------------------------------------------
# the whole analysis over the 16 analogue families
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", paper_matrix_names())
def test_family_analysis_and_solution_match_reference(name, monkeypatch):
    a = generate(name, scale=0.1, seed=0)
    b = np.random.default_rng(0).standard_normal(a.nrows)
    fast = PanguLU(a)
    x = fast.solve(b)

    # the same solve with every analysis layer swapped for its reference
    monkeypatch.setattr(solver_mod, "mc64", oracle.mc64)
    monkeypatch.setattr(solver_mod, "nested_dissection", oracle.nested_dissection)
    monkeypatch.setattr(solver_mod, "symbolic_symmetric", oracle.symbolic_symmetric)
    monkeypatch.setattr(solver_mod, "build_dag", oracle.build_dag)
    monkeypatch.setattr(strategy_mod, "block_partition", oracle.block_partition)
    ref = PanguLU(a)
    x_ref = ref.solve(b)

    for name_ in ("row_perm", "col_perm", "row_scale", "col_scale"):
        assert_same(getattr(fast, name_), getattr(ref, name_))
    assert_same_csc(fast.symbolic.filled, ref.symbolic.filled)
    assert_same(fast.symbolic.etree, ref.symbolic.etree)
    assert_same_blocks(fast.blocks, ref.blocks)
    assert_same_dag(fast.dag, ref.dag)
    assert_same(x, x_ref)
