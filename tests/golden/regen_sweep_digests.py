#!/usr/bin/env python
"""Regenerate the sweep output digests after an *intentional* model
change::

    PYTHONPATH=src python tests/golden/regen_sweep_digests.py

The cases live in ``tests/test_cli.py``.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(os.path.dirname(HERE)))

from tests.test_cli import sweep_digests  # noqa: E402

if __name__ == "__main__":
    path = os.path.join(HERE, "sweep_digests.json")
    with open(path, "w") as handle:
        json.dump(sweep_digests(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"regenerated {path}")
