"""The README's library example runs as written, on exactly the exported names."""

from __future__ import annotations

import re
from pathlib import Path

import polycode

README = Path(__file__).resolve().parents[1] / "README.md"

EXPORTS = {
    "new_context",
    "parse",
    "format_poly",
    "code",
    "full_distance_profile",
    "dual_summary",
    "lcd_verdict",
    "PolycodeError",
    "ValidationError",
    "CapExceeded",
    "InternalConsistencyError",
}


def test_the_package_exports_the_library_surface():
    assert len(polycode.__all__) == len(EXPORTS)
    assert set(polycode.__all__) == EXPORTS
    assert all(hasattr(polycode, name) for name in EXPORTS)


def test_the_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 17  # one report per j = 0..16
    assert lines[1].split()[:4] == ["1", "2", "2", "True"]
