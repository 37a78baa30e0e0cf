"""Extension bench — the two-layer structure's storage claims (Section 4.2).

The paper asserts the block-level arrays add "no significant additional
overhead".  This bench measures it for all 16 analogues: layer-1 bytes as
a share of total factor storage, and the two-layer sparse storage against
the dense-panel equivalent a padded supernodal layout would pay.  A
second test reports the price and the payoff of the preallocated
:class:`~repro.core.blocking.FactorArena` (the paper's "preallocates all
block storage during preprocessing"): the refill gather map's share of
the footprint, and the refactorisation latency that in-place slab
refill buys.
"""

from __future__ import annotations

import time

from common import banner, bench_matrices, matrix, prepared_pangulu
from repro import PanguLU
from repro.analysis import format_table
from repro.core import memory_report


def test_memory_two_layer_overhead(benchmark):
    banner("Section 4.2 — two-layer structure storage accounting")
    rows = []
    overheads = []
    for name in bench_matrices():
        pg = prepared_pangulu(name)
        rep = memory_report(pg.blocks)
        overheads.append(rep.layer1_overhead)
        rows.append([
            name,
            rep.total_bytes / 1024,
            100.0 * rep.layer1_overhead,
            rep.dense_ratio,
        ])
    print(format_table(
        ["matrix", "factor KiB", "layer-1 overhead %", "dense-equivalent ×"],
        rows,
        float_fmt="{:.2f}",
    ))
    print(f"\nmax layer-1 overhead: {100 * max(overheads):.2f}% "
          "(paper: 'no significant additional overhead')")
    benchmark.pedantic(
        lambda: memory_report(prepared_pangulu(bench_matrices()[0]).blocks),
        rounds=3, iterations=1,
    )
    # the paper's claim, quantified: block-level arrays stay under 5%
    assert max(overheads) < 0.05


def test_memory_arena_refactorize(benchmark):
    banner("Section 4.2 — arena refill map + in-place refactorize")
    rows = []
    for name in bench_matrices():
        rep = memory_report(prepared_pangulu(name).blocks)
        rows.append([
            name,
            rep.total_bytes / 1024,
            rep.arena_refill_bytes / 1024,
            100.0 * rep.arena_refill_bytes / rep.total_bytes,
        ])
    print(format_table(
        ["matrix", "factor KiB", "refill map KiB", "refill map %"],
        rows,
        float_fmt="{:.2f}",
    ))

    # refactorize latency: in-place slab refill
    name = bench_matrices()[0]
    a = matrix(name)
    a2 = a.copy()
    a2.data = a.data * 1.1
    fact = PanguLU(a).factorize()
    fact.refactorize(a2)  # warm plan caches, then time steady state
    t0 = time.perf_counter()
    fact.refactorize(a2)
    print(f"refactorize ({name}): {(time.perf_counter() - t0) * 1e3:.2f} ms")
    benchmark.pedantic(lambda: fact.refactorize(a2), rounds=3, iterations=1)
    # the refill really was in place: the value slab survives by identity
    blocks = fact.blocks
    assert blocks.blk_values[0].data.base is blocks.arena.data
