#!/usr/bin/env python
"""Regenerate the SPOR report digests after an *intentional* model
change::

    PYTHONPATH=src python tests/persist/golden/regen_spor_reports.py

The cases live in ``tests/persist/test_spor.py``.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.dirname(HERE))))

from tests.persist.test_spor import report_digests  # noqa: E402

if __name__ == "__main__":
    path = os.path.join(HERE, "spor_reports.json")
    with open(path, "w") as handle:
        json.dump(report_digests(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"regenerated {path}")
