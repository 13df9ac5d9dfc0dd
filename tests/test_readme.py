"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    wrap_line, belief_line = capsys.readouterr().out.splitlines()
    assert wrap_line.startswith("True [(")
    mu, sigma, _ = belief_line.split(" ", 2)
    assert abs(float(mu) - 0.502) < 0.05 and float(sigma) > 0.0
