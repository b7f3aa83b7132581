#!/usr/bin/env python
"""Regenerate the generated-trace digests after an *intentional*
change to a generator::

    PYTHONPATH=src python tests/workloads/golden/regen_trace_digest.py

The cases live in ``tests/workloads/test_trace_digest.py``.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.dirname(HERE))))

from tests.workloads.test_trace_digest import digests  # noqa: E402

if __name__ == "__main__":
    path = os.path.join(HERE, "trace_digest.json")
    with open(path, "w") as handle:
        json.dump(digests(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"regenerated {path}")
