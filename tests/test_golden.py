"""Golden pipeline reports: the c12 inputs must keep their report bytes.

The digests are sha256 of `json.dumps(report.to_json_dict(), sort_keys=True)`
and were recorded before the histogram layer was reworked.  A change that
alters these bytes on purpose records the new digest and says why.
"""

import hashlib
import json

import pytest

from sidonkit import integer_range, integer_set, sum_product_pipeline

GOLDEN = {
    "powers": "c76fa2e843c0831aa4c99dbaea020360db57070fb9cf69945756e0e195ab6d21",
    "segment": "882ebaa8836d1cb655cb71a2c8a8bb8440d1a02c789747346619b9b92626615c",
}

INPUTS = {
    "powers": lambda: integer_set([2**i for i in range(40)]),
    "segment": lambda: integer_range(1, 4097),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_c12_pipeline_report_bytes(name):
    rep = sum_product_pipeline(INPUTS[name](), seed=12)
    blob = json.dumps(rep.to_json_dict(), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == GOLDEN[name]
