import io
import re
import tokenize
from pathlib import Path

import mafoliation

# literals that stay next to the code they guard: a divide-by-zero guard and a
# finite-difference step, neither of them a tolerance
ALLOWED = {("foliation.py", "1e-300"), ("gradient.py", "1e-4")}


def test_tolerances_are_literals_only_in_the_threshold_table():
    found = []
    for path in sorted(Path(mafoliation.__file__).parent.glob("*.py")):
        if path.name == "thresholds.py":
            continue
        for tok in tokenize.generate_tokens(io.StringIO(path.read_text(encoding="utf-8")).readline):
            if tok.type == tokenize.NUMBER and re.search(r"\de-\d", tok.string, re.I):
                if (path.name, tok.string) not in ALLOWED:
                    found.append(f"{path.name}:{tok.start[0]}: {tok.string}")
    assert found == []
