"""The README's Python examples run against the package as it is, and the
public API is the one it documents."""

import re
import types
from pathlib import Path

import eofbounds

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL)


def test_readme_python_blocks_run():
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert blocks, "README has no python code block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})


def test_public_names_are_pinned():
    # One entry point: bound_report, the check of a state with its standard
    # form, every bound, the GeoF with its witness and the exact EoF of a
    # symmetric state as its eeof.  Submodules are not counted.
    public = {name for name, obj in vars(eofbounds).items()
              if not name.startswith("_") and not isinstance(obj, types.ModuleType)}
    assert public == {
        "BoundReport", "bound_report",
        "entanglement_entropy",
        "DomainError", "EofBoundsError", "NonPhysicalStateError", "ParseError",
        "CovMat", "Invariants", "StandardForm", "invariants",
        "PSD_TOL",
    }
