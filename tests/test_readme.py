"""The README's module map names only what its modules define."""
import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
CONSOLE_SCRIPT = "gvport"  # the `gvport` entry point is a command, not an attribute


def module_map() -> list:
    """(modules, names) per row of the README's module map table, as backticked there."""
    section = README.read_text().split("## Module map", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = line.split("|")[1:-1]
        if len(cells) != 2 or not cells[0].strip().startswith("`"):
            continue
        modules, names = (re.findall(r"`([^`]+)`", cell) for cell in cells)
        rows.append((modules, [name for name in names if name != CONSOLE_SCRIPT]))
    return rows


def resolves(module, name: str) -> bool:
    obj = module
    for part in name.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_module_map_names_resolve():
    rows = module_map()
    assert len(rows) >= 8
    missing = []
    for modules, names in rows:
        loaded = [importlib.import_module(module) for module in modules]
        missing += [(modules, name) for name in names
                    if not any(resolves(module, name) for module in loaded)]
    assert not missing
