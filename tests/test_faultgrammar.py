"""The shared ``kind@target#key=value`` grammar: fault plans round-trip.

Every fault-plan string the documentation and CI show must parse, and
``describe`` must write back a string that parses to the same plan.
The chaos and corruption grammars' round trips live beside their
sites, in ``tests/engine/test_chaos.py`` and
``tests/formats/test_corrupt.py``.
"""

from __future__ import annotations

import pytest

from repro.engine import FaultPlan


@pytest.mark.parametrize(
    "text",
    [
        # README
        "crash@*:coo:*#times=none",
        "corrupt@*:csr:*#ckind=bitflip#ber=0.01#mode=strict",
        # repro.engine.faults module docstring
        "raise@rand-0.01:csr:16",
        "crash@*:coo:*",
        "delay@every:5#delay=0.25",
        "raise@band-4:*:8,raise@band-8:*:8",
        "corrupt@*:csr:*#ckind=bitflip#ber=0.001#mode=strict",
        # .github/workflows/ci.yml
        "raise@*:dia:*",
        # every option describe() must write back
        "raise@*:csr:*#times=none",
        "corrupt@*:csr:*#ckind=truncate#plane=values#ber=0.01"
        "#fraction=0.5#mode=repair",
    ],
)
def test_fault_plan_round_trips(text):
    plan = FaultPlan.parse(text)
    assert FaultPlan.parse(plan.describe()) == plan
