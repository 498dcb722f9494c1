"""The documented library use runs against the current API."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_use_snippet_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "gradient_flow_step" in snippet
    exec(compile(snippet, "README.md (Library use)", "exec"), {})
