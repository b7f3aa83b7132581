#!/usr/bin/env python
"""Regenerate the post-prefill state digests after an *intentional*
model change::

    PYTHONPATH=src python tests/ssd/golden/regen_prefill_digest.py

The cases live in ``tests/ssd/test_prefill_digest.py``.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.dirname(HERE))))

from tests.ssd.test_prefill_digest import digests  # noqa: E402

if __name__ == "__main__":
    path = os.path.join(HERE, "prefill_digest.json")
    with open(path, "w") as handle:
        json.dump(digests(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"regenerated {path}")
