"""Extension bench — SPD Cholesky vs LU over the same block layout.

For the symmetric positive definite matrices in the test set (the FEM
and grid analogues), the block Cholesky extension factors the lower
triangle only.  This bench compares structural FLOPs, factor storage and
real factorisation wall-clock against the LU path on the same matrices,
and verifies both solve to the same accuracy.
"""

from __future__ import annotations

import time

import numpy as np

from common import banner, matrix
from repro import PanguLU
from repro.analysis import format_table, geometric_mean
from repro.cholesky import PanguLLt
from repro.core import memory_report

SPD_MATRICES = ("apache2", "audikw_1", "ecology1", "G3_circuit", "ldoor", "Serena")


def _compare(name: str):
    a = matrix(name)
    b = np.ones(a.nrows)

    chol = PanguLLt(a)
    t0 = time.perf_counter()
    chol.factorize()
    t_chol = time.perf_counter() - t0
    x_c = chol.solve(b)
    bytes_chol = memory_report(chol.blocks).total_bytes

    lu = PanguLU(a)
    lu.preprocess()
    t0 = time.perf_counter()
    fact = lu.factorize()
    t_lu = time.perf_counter() - t0
    x_l = lu.solve(b)
    bytes_lu = memory_report(lu.blocks).total_bytes

    assert chol.residual_norm(x_c, b) < 1e-8, name
    assert fact.residual_norm(x_l, b) < 1e-8, name
    return {
        "flops_chol": chol.flops,
        "flops_lu": lu.dag.total_flops,
        "t_chol": t_chol,
        "t_lu": t_lu,
        "bytes_chol": bytes_chol,
        "bytes_lu": bytes_lu,
    }


def test_cholesky_vs_lu(benchmark):
    banner("Extension — block Cholesky vs block LU on SPD matrices")
    rows = []
    storage_ratios = {}
    for name in SPD_MATRICES:
        r = _compare(name)
        storage_ratios[name] = r["bytes_lu"] / r["bytes_chol"]
        rows.append([
            name,
            r["flops_lu"] / max(r["flops_chol"], 1),
            r["bytes_lu"] / r["bytes_chol"],
            r["t_lu"] * 1e3,
            r["t_chol"] * 1e3,
        ])
    print(format_table(
        ["matrix", "LU/chol flops", "LU/chol bytes",
         "LU time (ms)", "chol time (ms)"],
        rows,
        float_fmt="{:.2f}",
    ))
    gm = geometric_mean(list(storage_ratios.values()))
    print(f"\ngeomean storage saving: {gm:.2f}x (theory: ≈2x for the factors)")
    benchmark.pedantic(lambda: _compare("ecology1"), rounds=1, iterations=1)
    # the symmetric path must roughly halve storage on every SPD matrix
    assert all(v > 1.5 for v in storage_ratios.values())
