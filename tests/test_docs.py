"""Documentation guards: the walkthrough's code runs, and the public
API surface documented in docs/api.md actually imports."""

from __future__ import annotations

import re
from pathlib import Path

DOCS = Path(__file__).resolve().parent.parent / "docs"


def test_walkthrough_code_blocks_execute():
    """Every ```python block in docs/walkthrough.md runs in one shared
    namespace without error (print output is irrelevant)."""
    text = (DOCS / "walkthrough.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)
    assert len(blocks) >= 6
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "<walkthrough>", "exec"), namespace)
    # the walkthrough actually solved the system it built
    assert "solver" in namespace
    import numpy as np

    solver = namespace["solver"]
    x = namespace["x"]
    assert solver.factorize().residual_norm(x, np.ones(12)) < 1e-10


def test_star_imports_work():
    """`__all__` of every subpackage matches real attributes."""
    import importlib

    for mod_name in (
        "repro",
        "repro.sparse",
        "repro.ordering",
        "repro.symbolic",
        "repro.kernels",
        "repro.core",
        "repro.runtime",
        "repro.baseline",
        "repro.cholesky",
        "repro.analysis",
    ):
        mod = importlib.import_module(mod_name)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{mod_name}.{name} missing"


def test_design_and_experiments_reference_real_benches():
    """Every bench file referenced in DESIGN.md / EXPERIMENTS.md exists."""
    root = DOCS.parent
    for doc in ("DESIGN.md", "EXPERIMENTS.md"):
        text = (root / doc).read_text()
        for ref in set(re.findall(r"benchmarks/(bench_\w+\.py)", text)):
            assert (root / "benchmarks" / ref).exists(), f"{doc} → {ref}"


def test_paper_mapping_references_real_modules():
    import importlib

    text = (DOCS / "paper_mapping.md").read_text()
    for ref in sorted(set(re.findall(r"`(repro(?:\.\w+)+)`", text))):
        parts = ref.split(".")
        # try progressively shorter prefixes: module.attr chains allowed
        for cut in range(len(parts), 1, -1):
            try:
                mod = importlib.import_module(".".join(parts[:cut]))
            except ModuleNotFoundError:
                continue
            obj = mod
            ok = True
            for attr in parts[cut:]:
                if not hasattr(obj, attr):
                    ok = False
                    break
                obj = getattr(obj, attr)
            if ok:
                break
        else:
            raise AssertionError(f"paper_mapping.md references missing {ref}")


def test_option_docs_agree_with_fields():
    """The ``Attributes`` section of the ``SolverOptions`` and
    ``NumericOptions`` docstrings names exactly the dataclass fields, and
    docs/api.md names every field as ``Class.field``."""
    import dataclasses
    import inspect

    from repro.core.numeric import NumericOptions
    from repro.core.solver import SolverOptions

    api = (DOCS / "api.md").read_text()
    for cls in (SolverOptions, NumericOptions):
        fields = [f.name for f in dataclasses.fields(cls)]
        doc = inspect.cleandoc(cls.__doc__)
        section = doc.split("Attributes\n----------\n", 1)[1]
        documented = re.findall(r"^(\w+):$", section, flags=re.MULTILINE)
        assert sorted(documented) == sorted(fields), cls.__name__
        missing = [f for f in fields if f"{cls.__name__}.{f}" not in api]
        assert not missing, f"docs/api.md lacks {cls.__name__} fields {missing}"
