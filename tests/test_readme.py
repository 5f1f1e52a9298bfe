"""The README's library quick start runs and prints what its comments say."""

import contextlib
import io
import json
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start_block():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_start_prints_its_comments():
    block = _quick_start_block()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    # the expected value is each print line's comment, up to a ":" remark
    expected = [
        line.split("#", 1)[1].split(":", 1)[0].strip()
        for line in block.splitlines()
        if line.startswith("print(")
    ]
    assert len(printed) == len(expected) == 5
    for got, want in zip(printed, expected):
        if want == "~0":
            assert abs(float(got)) < 1e-12
        elif want.startswith("["):
            values = [complex(tok) for tok in got.strip("[]").split()]
            assert np.allclose(values, json.loads(want), rtol=0, atol=1e-12), (got, want)
        else:
            assert got == want
