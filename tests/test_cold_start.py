"""Cold start: importing ehpolicy loads numpy and no other third-party
package, and no CLI path loads a scipy module: not the series, Monte Carlo
or value-iteration paths, not `verify`, and not an exponential law built
from its mcr.

Each CLI case runs `python -m ehpolicy` in a fresh interpreter under
`-X importtime`, which lists every module imported on standard error, and
its standard output must equal the golden file byte for byte, or for a path
with no golden file the output of the same command run in-process.
"""

import json
import re
import subprocess
import sys

import pytest
from test_golden import DATA, GOLDEN

from ehpolicy.cli import main

IMPORT_HYGIENE = """
import json, sys
def third_party():
    return {m.partition(".")[0] for m in sys.modules} - set(sys.stdlib_module_names)
before = third_party()
import ehpolicy
print(json.dumps({"new": sorted(third_party() - before), "all": sorted(third_party())}))
"""


def test_import_loads_numpy_and_no_other_third_party_package():
    proc = subprocess.run([sys.executable, "-c", IMPORT_HYGIENE], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert loaded["new"] == ["ehpolicy", "numpy"]
    assert not {"scipy", "mpmath"} & set(loaded["all"])


# name -> (CLI arguments, golden stdout or None for the in-process output)
COLD_PATHS = {
    "series": (GOLDEN["evaluate_series"][0], "evaluate_series_maximin.json"),
    "mc": (GOLDEN["evaluate_mc"][0], "evaluate_mc.json"),
    "vi": (GOLDEN["evaluate_vi"][0], "evaluate_vi_uniform.json"),
    "verify": (["verify"], "verify.txt"),
    "exponential-by-mcr": (
        ["evaluate", "--family", "exponential", "--p", "0.5", "--method", "vi"], None
    ),
}


@pytest.mark.parametrize("name", sorted(COLD_PATHS))
def test_cli_path_loads_no_scipy(name, tmp_path):
    argv, golden = COLD_PATHS[name]
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "ehpolicy", *argv],
        capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    if golden is None:
        assert main([*argv, "--out", str(tmp_path / "out")]) == 0
        assert proc.stdout == (tmp_path / "out").read_bytes()
    else:
        assert proc.stdout == (DATA / golden).read_bytes()
    imported = set(re.findall(r"^import time:.*\|\s*(\S+)$", proc.stderr.decode(), re.M))
    assert "ehpolicy" in imported
    assert not {m for m in imported if m.partition(".")[0] == "scipy"}
