"""The README's library example runs as written, so the signatures it shows
cannot drift from the code."""
import os
import re

import numpy as np

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def test_library_entry_points_block_runs():
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("## Library entry points\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block, "no python block under 'Library entry points'"
    namespace = {}
    exec(compile(block.group(1), "README.md", "exec"), namespace)
    assert namespace["one"].values.shape == (3, 1, 1025)
    assert np.array_equal(namespace["lvl2"].values, namespace["hier"].levels[1].values)
