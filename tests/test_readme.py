"""The ```python blocks of README.md run, in order, in one namespace, and give
the values their comments state."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run_and_give_the_stated_values():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    dec = namespace["dec"]
    assert len(dec.orbits) == 1
    assert dec.orbits[0].x.mults == tuple((q, 1) for q in dec.quotient_group.elements())  # the crossed-product character
    assert dec.oracle_dims == dec.reconstructed_dims == (4,)
    point = namespace["point"]
    assert (point.dim, point.basis is None) == (4, True)
    decs = namespace["decs"]
    assert len(decs) == 15
    assert sum(namespace["is_elementary_quotient"](d) for d in decs.values()) == 11
    assert len(namespace["context"].factors) == 6  # 3 systems, each its rows and its elimination
