"""Tests for the fill-reducing orderings (RCM, AMD, minimum degree, ND)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ordering import amd, minimum_degree, nested_dissection, rcm
from repro.sparse import bandwidth, grid_laplacian_2d, random_sparse
from repro.symbolic import symbolic_symmetric


def _is_permutation(p: np.ndarray, n: int) -> bool:
    return p.shape == (n,) and np.array_equal(np.sort(p), np.arange(n))


def _fill_of(a, p):
    return symbolic_symmetric(a.permute(p, p)).nnz_lu


ORDERINGS = {
    "rcm": rcm,
    "amd": amd,
    "md": minimum_degree,
    "nd": nested_dissection,
}


class TestValidity:
    @pytest.mark.parametrize("name", list(ORDERINGS))
    def test_permutation_on_random(self, name):
        a = random_sparse(60, 0.06, seed=3)
        p = ORDERINGS[name](a)
        assert _is_permutation(p, 60)

    @pytest.mark.parametrize("name", list(ORDERINGS))
    def test_permutation_on_grid(self, name):
        g = grid_laplacian_2d(9, 9)
        p = ORDERINGS[name](g)
        assert _is_permutation(p, 81)

    @pytest.mark.parametrize("name", list(ORDERINGS))
    def test_empty_matrix(self, name):
        from repro.sparse import CSCMatrix

        p = ORDERINGS[name](CSCMatrix.empty((0, 0)))
        assert p.size == 0

    @pytest.mark.parametrize("name", ["amd", "nd"])
    def test_rejects_rectangular(self, name):
        from repro.sparse import CSCMatrix

        r = CSCMatrix.empty((3, 4))
        with pytest.raises(ValueError):
            ORDERINGS[name](r)

    @pytest.mark.parametrize("name", list(ORDERINGS))
    def test_disconnected_graph(self, name):
        # block-diagonal: two independent components
        import scipy.sparse as sp
        from repro.sparse import CSCMatrix

        g1 = grid_laplacian_2d(4, 4).to_scipy()
        g2 = grid_laplacian_2d(3, 3).to_scipy()
        a = CSCMatrix.from_scipy(sp.block_diag([g1, g2]))
        p = ORDERINGS[name](a)
        assert _is_permutation(p, 25)


class TestQuality:
    def test_rcm_reduces_bandwidth(self):
        a = random_sparse(150, 0.03, seed=9)
        p = rcm(a)
        assert bandwidth(a.permute(p, p)) <= bandwidth(a)

    def test_amd_beats_natural_on_grid(self):
        g = grid_laplacian_2d(14, 14)
        natural = _fill_of(g, np.arange(196))
        assert _fill_of(g, amd(g)) < natural

    def test_nd_beats_natural_on_grid(self):
        g = grid_laplacian_2d(14, 14)
        natural = _fill_of(g, np.arange(196))
        assert _fill_of(g, nested_dissection(g)) < natural

    def test_md_close_to_amd(self):
        g = grid_laplacian_2d(10, 10)
        f_amd = _fill_of(g, amd(g))
        f_md = _fill_of(g, minimum_degree(g))
        # AMD is an approximation of MD; allow generous slack both ways
        assert f_amd < 2.0 * f_md

    def test_nd_leaf_size_parameter(self):
        g = grid_laplacian_2d(12, 12)
        p1 = nested_dissection(g, leaf_size=16)
        p2 = nested_dissection(g, leaf_size=100)
        assert _is_permutation(p1, 144) and _is_permutation(p2, 144)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 40), st.floats(0.02, 0.25), st.integers(0, 10_000))
def test_all_orderings_are_permutations(n, density, seed):
    a = random_sparse(n, density, seed=seed)
    for fn in (rcm, amd, nested_dissection):
        assert _is_permutation(fn(a), n)


class TestColamd:
    def test_is_permutation(self):
        from repro.ordering import colamd

        a = random_sparse(70, 0.05, seed=4)
        assert _is_permutation(colamd(a), 70)

    def test_reduces_ata_fill(self):
        from repro.ordering import colamd

        a = random_sparse(80, 0.04, seed=6)
        p = colamd(a)
        natural = _fill_of(a, np.arange(80))
        # colamd orders for A^T A; on these matrices it should at least
        # not be catastrophically worse than natural on A itself, and the
        # solver integration tests check end-to-end behaviour
        assert _fill_of(a, p) < 2 * natural

    def test_unsymmetric_matrix(self):
        from repro.ordering import colamd
        from repro.sparse import generate

        a = generate("cage12", scale=0.15)
        assert _is_permutation(colamd(a), a.ncols)

    def test_solver_option(self):
        from repro import PanguLU, SolverOptions

        a = random_sparse(60, 0.06, seed=7)
        s = PanguLU(a, SolverOptions(ordering="colamd"))
        x = s.solve(np.ones(60))
        assert s.factorize().residual_norm(x, np.ones(60)) < 1e-9
