#!/usr/bin/env python
"""Regenerate the replay-matrix fingerprints after an *intentional*
model change::

    PYTHONPATH=src python tests/ssd/golden/regen_replay_matrix.py

The cases live in ``tests/ssd/test_replay_matrix.py``.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.dirname(HERE))))

from tests.ssd.test_replay_matrix import fingerprints  # noqa: E402

if __name__ == "__main__":
    path = os.path.join(HERE, "replay_matrix.json")
    with open(path, "w") as handle:
        json.dump(fingerprints(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"regenerated {path}")
