"""Every callable the ledger's tracer patches must still exist.

``benchmarks/ledger/trace.py`` patches its ``TARGETS`` by name; a target
renamed or deleted in ``src/`` would blind its layer in the waterfall, and
only a traced ledger run would notice.  This reads the target list and
edits nothing.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACE = Path(__file__).resolve().parents[1] / "benchmarks" / "ledger" / "trace.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("ledger_trace", TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_tracer_target_resolves():
    targets = load_targets()
    assert targets
    missing = []
    for target in targets:
        module = importlib.import_module(target.module)
        owner = getattr(module, target.owner) if target.owner else module
        if target.attribute not in vars(owner):
            missing.append(target.span)
    assert missing == []

