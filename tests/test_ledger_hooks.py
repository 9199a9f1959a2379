"""The per-layer ledger wraps this program's functions from outside
``src/`` by ``(module, dotted attribute)`` name
(``benchmarks/ledger/ledger_spans.py``).  A hook whose target was
renamed is only *counted* at run time (``trace.hooks_missing``), so a
refactor could silently blind a layer; this test makes it fail here."""

import importlib
import os
import sys

LEDGER_DIR = os.path.join(os.path.dirname(__file__), os.pardir,
                          "benchmarks", "ledger")


def test_every_ledger_span_hook_resolves():
    sys.path.insert(0, LEDGER_DIR)
    try:
        from ledger_spans import HOOKS
    finally:
        sys.path.remove(LEDGER_DIR)
    assert HOOKS
    missing = []
    for module_name, path, _span in HOOKS:
        try:
            owner = importlib.import_module(module_name)
            for part in path.split("."):
                owner = getattr(owner, part)
        except (ImportError, AttributeError):
            missing.append(f"{module_name}:{path}")
    assert not missing, f"ledger span hooks no longer resolve: {missing}"
