import os
import sys
from pathlib import Path

# The suite tests the first ehpolicy on PYTHONPATH, and this checkout's src
# only behind it, so PYTHONPATH=<copy>/src python -m pytest, run from here,
# tests the copy.  src goes after the PYTHONPATH entries and ahead of the
# standard library and site-packages; the tests that start a fresh
# interpreter inherit the same order from PYTHONPATH, so no install is needed
_SRC = str(Path(__file__).resolve().parent.parent / "src")
_STDLIB = os.path.dirname(os.__file__)
if _SRC not in sys.path:
    sys.path.insert(sys.path.index(_STDLIB) if _STDLIB in sys.path else len(sys.path), _SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (os.environ.get("PYTHONPATH"), _SRC)))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "ACCEPTANCE_LINES", None) if module else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
