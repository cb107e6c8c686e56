"""Cold start: importing ehpolicy loads numpy and no other third-party
package, and each CLI path imports from scipy only what it calls: the
series, Monte Carlo and value-iteration paths none of it.

Each CLI case runs `python -m ehpolicy` in a fresh interpreter under
`-X importtime`, which lists every module imported on standard error, and
its standard output must equal the golden file byte for byte.
"""

import json
import re
import subprocess
import sys

import pytest
from test_golden import DATA, GOLDEN

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


# name -> (CLI arguments, golden stdout, scipy modules it must load, ones it must not)
COLD_PATHS = {
    "series": (GOLDEN["evaluate_series"][0], "evaluate_series_maximin.json", set(), {"scipy"}),
    "mc": (GOLDEN["evaluate_mc"][0], "evaluate_mc.json", set(), {"scipy"}),
    "vi": (GOLDEN["evaluate_vi"][0], "evaluate_vi_uniform.json", set(), {"scipy"}),
    "verify": (["verify"], "verify.txt", set(), set()),
}


@pytest.mark.parametrize("name", sorted(COLD_PATHS))
def test_cli_path_imports_only_the_scipy_it_calls(name):
    argv, golden, loads, avoids = COLD_PATHS[name]
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "ehpolicy", *argv],
        capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (DATA / golden).read_bytes()
    imported = set(re.findall(r"^import time:.*\|\s*(\S+)$", proc.stderr.decode(), re.M))
    assert {"ehpolicy", *loads} <= imported
    assert not {m for m in imported if any(m == a or m.startswith(a + ".") for a in avoids)}
