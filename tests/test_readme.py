"""The README's quickstart block runs and prints what its comments claim."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quickstart_block() -> str:
    section = README.read_text().split("## Quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quickstart_block_prints_what_it_claims():
    out = io.StringIO()
    namespace: dict = {}
    with contextlib.redirect_stdout(out):
        exec(_quickstart_block(), namespace)
    lines = out.getvalue().splitlines()
    assert lines[0] == "False"  # a random tree is not an equilibrium
    assert lines[2] == "True True"  # converged, to a star
    assert lines[3] == "True True"  # the oracle makes the same moves
    assert namespace["res"].moves  # recorded: the comparison is not vacuous
