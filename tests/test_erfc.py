"""The numpy-only Gaussian tail against the standard library, and its
coefficient table against the script that writes it."""

import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from paslab.erfc import X_CUT, half_erfc

ROOT = Path(__file__).resolve().parent.parent
TINY = sys.float_info.min  # smallest normal double


def test_half_erfc_matches_math_erfc():
    x = np.linspace(0.0, 27.0, 270_001)
    want = np.array([0.5 * math.erfc(v) for v in x.tolist()])
    got = half_erfc(x)
    normal = want >= TINY
    assert normal.sum() > 0.98 * x.size  # erfc(x) turns subnormal only near x = 26.55
    rel = np.abs(got[normal] - want[normal]) / want[normal]
    assert rel.max() <= 1e-14
    assert np.all(got[~normal] < TINY)


def test_half_erfc_is_zero_exactly_above_the_cut():
    # x * x > log(DBL_MAX) just above X_CUT: zero there, as the Cephes erfc
    # behind scipy's ndtr gives, and a subnormal but positive value at X_CUT
    assert X_CUT * X_CUT <= math.log(sys.float_info.max) < math.nextafter(X_CUT, 30.0) ** 2
    got = half_erfc([26.5, X_CUT, math.nextafter(X_CUT, 30.0), 30.0, 1e300, math.inf])
    assert got[0] >= TINY and 0.0 < got[1] < TINY
    assert np.all(got[2:] == 0.0)


def test_half_erfc_special_values():
    got = half_erfc([0.0, math.nan, 5e-324, 1.0])
    assert got[0] == 0.5
    assert math.isnan(got[1])
    assert got[2] == 0.5
    assert abs(got[3] / (0.5 * math.erfc(1.0)) - 1.0) < 1e-15
    assert half_erfc(np.zeros((2, 3))).shape == (2, 3)


def test_table_regenerates_from_the_script():
    spec = importlib.util.spec_from_file_location("make_erfc_table", ROOT / "scripts" / "make_erfc_table.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.render() == (ROOT / "src" / "paslab" / "_erfc_table.py").read_text(encoding="utf-8")


def test_cli_import_loads_no_scipy():
    code = "import sys, paslab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert out.stdout.strip() == "[]"
