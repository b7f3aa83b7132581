"""Post-prefill device state, pinned against committed digests.

Each case builds a small simulation, prefills it to 0.9 through the
FTL's own allocation and program path, and hashes a canonical JSON form
of :func:`repro.persist.driver.capture_state`: numpy arrays become
lists, tuple keys become strings and floats are written by ``repr``, so
the digest does not depend on the Python or numpy version.  The digests
in ``golden/prefill_digest.json`` were taken before prefill's per-WL
path was tuned, so a match shows every cursor, program parameter, chip
array, mapping and counter came out the same.

Regenerate them only after an intentional model change::

    PYTHONPATH=src python tests/ssd/golden/regen_prefill_digest.py
"""

import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

from repro.faults.campaign import get_campaign
from repro.nand.reliability import AgingState
from repro.persist.driver import capture_state
from repro.ssd.config import SSDConfig
from repro.ssd.controller import SSDSimulation

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "prefill_digest.json")

PREFILL = 0.9
FTLS = ("page", "vert", "cube", "cube-", "oracle", "dftl")
AGED = AgingState(pe_cycles=2000, retention_months=12.0)
FAULTS = "heavy"


def _configs():
    """Case name -> (config, ftl)."""
    cases = {}
    for ftl in FTLS:
        cases[f"{ftl}/fresh"] = (SSDConfig.small(), ftl)
        cases[f"{ftl}/aged"] = (SSDConfig.small().with_aging(AGED), ftl)
    cases["cube/tags-oob"] = (SSDConfig.small(store_tags=True, store_oob=True), "cube")
    cases["cube/faults"] = (
        SSDConfig.small().with_faults(get_campaign(FAULTS)),
        "cube",
    )
    return cases


def _key(key) -> str:
    return key if isinstance(key, str) else repr(_canonical(key))


def _canonical(value):
    """``value`` as plain JSON types whose dump is version-independent."""
    if isinstance(value, dict):
        return {_key(key): _canonical(item) for key, item in value.items()}
    if isinstance(value, np.ndarray):
        return _canonical(value.tolist())
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if value is None or isinstance(value, str):
        return value
    if dataclasses.is_dataclass(value):
        return {
            "type": type(value).__name__,
            "fields": {
                field.name: _canonical(getattr(value, field.name))
                for field in dataclasses.fields(value)
            },
        }
    raise TypeError(f"no canonical form for {type(value).__name__}")


def _digest(value) -> str:
    blob = json.dumps(_canonical(value), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _prefilled(config, ftl):
    sim = SSDSimulation(config, ftl=ftl)
    sim.prefill(PREFILL)
    return sim


def digests():
    """Every case's digest of its post-prefill state, keyed by case."""
    return {
        case: _digest(capture_state(_prefilled(config, ftl), {}))
        for case, (config, ftl) in _configs().items()
    }


@pytest.fixture(scope="module")
def current():
    return digests()


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as handle:
        return json.load(handle)


def test_every_case_is_pinned(current, golden):
    assert sorted(current) == sorted(golden) == sorted(_configs())


@pytest.mark.parametrize("case", sorted(_configs()))
def test_prefill_matches_golden(current, golden, case):
    assert current[case] == golden[case]


def test_prefill_under_faults_is_fault_free():
    """Prefill suspends the campaign: it fires nothing, leaves the
    injector's state as built, and programs the very chips and FTL state
    a fault-free prefill does."""
    config = SSDConfig.small().with_faults(get_campaign(FAULTS))
    sim = SSDSimulation(config, ftl="cube")
    injector = sim.controller.faults
    before = _canonical(injector.state_dict())
    sim.prefill(PREFILL)
    assert _canonical(injector.state_dict()) == before
    assert all(chip.faults is injector for chip in sim.controller.chips)
    faulty = capture_state(sim, {})
    clean = capture_state(_prefilled(SSDConfig.small(), "cube"), {})
    for part in ("chips", "ftl", "engine"):
        assert _digest(faulty[part]) == _digest(clean[part]), part


def test_canonical_form_is_strict():
    """Floats keep every bit, tuple keys stay distinct from their
    elements, and an unknown type is refused rather than guessed."""
    assert _canonical({(1, 2): 0.1 + 0.2}) == {"[1, 2]": "0.30000000000000004"}
    assert _canonical(np.array([1.5, 2.0])) == ["1.5", "2.0"]
    with pytest.raises(TypeError):
        _canonical(object())
