"""`bchyper verify all --seed 7 --samples 2 --format json --rows` against a stored report.

`data/verify_all_seed7_samples2.json` is that report, written with
`json.dumps(doc, sort_keys=True, indent=0)`.  Every field that is not
a float (theorem, case, params, z, passed, string extras, skipped,
options, the counts) must match exactly: a suite that draws its cases
in a different order changes params and z.  Floats (residuals, margins,
slopes, ulps) match to a relative 1e-9, so last-bit rounding that
differs between platforms does not fail the test.
"""

import io
import json
import math
from contextlib import redirect_stdout
from pathlib import Path

from bchyper.cli import main

GOLDEN = Path(__file__).parent / "data" / "verify_all_seed7_samples2.json"


def _match(got, want, path="report"):
    if isinstance(want, float):
        assert isinstance(got, float), f"{path}: {got!r} is not a float"
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12), f"{path}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), f"{path}: keys differ"
        for key in want:
            _match(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{path}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            _match(g, w, f"{path}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{path}: {got!r} != {want!r}"


def test_verify_all_matches_stored_report():
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["verify", "all", "--seed", "7", "--samples", "2", "--format", "json", "--rows"])
    assert code == 0
    _match(json.loads(buf.getvalue()), json.loads(GOLDEN.read_text()))
