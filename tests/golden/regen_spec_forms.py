#!/usr/bin/env python
"""Regenerate the pinned spec file forms after an *intentional* change
of the spec-file layout (a ``SPEC_VERSION`` bump)::

    PYTHONPATH=src python tests/golden/regen_spec_forms.py

The cases live in ``tests/test_specs.py``.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(os.path.dirname(HERE)))

from tests.test_specs import spec_forms  # noqa: E402

if __name__ == "__main__":
    path = os.path.join(HERE, "spec_forms.json")
    with open(path, "w") as handle:
        json.dump(spec_forms(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"regenerated {path}")
