#!/usr/bin/env python
"""Regenerate the GC-bound replay fingerprints after an *intentional*
model change::

    PYTHONPATH=src python tests/ftl/golden/regen_gc_bound.py

The cases live in ``tests/ftl/test_gc_bound_digest.py``.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.dirname(HERE))))

from tests.ftl.test_gc_bound_digest import fingerprints  # noqa: E402

if __name__ == "__main__":
    path = os.path.join(HERE, "gc_bound.json")
    with open(path, "w") as handle:
        json.dump(fingerprints(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"regenerated {path}")
