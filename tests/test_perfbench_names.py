"""The package names the benchmark harness wraps when it traces a run.

`perfbench/child.py --trace` replaces each `(module, attribute)` in its
TRACED table with a timing wrapper, looking the name up in
`qcausal.<module>`.  A name that is renamed or deleted there makes every
traced run fail at `Tracer.install`, so each one must keep resolving to a
callable.
"""

import importlib
import importlib.util
from pathlib import Path

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def load_child():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child


def test_every_traced_name_resolves_to_a_callable():
    traced = load_child().TRACED
    assert traced
    missing = [
        (module, attr)
        for module, attr, _ in traced
        if not callable(getattr(importlib.import_module(f"qcausal.{module}"), attr, None))
    ]
    assert not missing
