"""The README's library quick start runs as documented."""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_block_runs():
    text = README.read_text()
    start = text.index("```python\n") + len("```python\n")
    code = text[start:text.index("```", start)]
    exec(compile(code, f"{README}:quick-start", "exec"), {})
