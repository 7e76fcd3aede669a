"""The benchmark's tracer wraps and restores the program's public functions.

perfbench/spans.py names the functions it wraps in each polarweb layer; a
renamed or removed one makes `Tracer.install` fail here.
"""

import importlib.util
import sys
from pathlib import Path

import polarweb.cli  # noqa: F401  (loads every polarweb module)

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _namespaces():
    """Every binding of every polarweb module and of the classes it defines."""
    out = {}
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "polarweb" or name.startswith("polarweb.")):
            continue
        out[name] = dict(vars(module))
        for key, value in vars(module).items():
            if isinstance(value, type) and value.__module__ == name:
                out[f"{name}.{key}"] = dict(vars(value))
    return out


def test_tracer_installs_and_restores_every_namespace():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    before = _namespaces()
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert _namespaces() != before
    finally:
        tracer.uninstall()
    after = _namespaces()
    assert after.keys() == before.keys()
    for space, bindings in before.items():
        assert after[space].keys() == bindings.keys(), space
        changed = [k for k, v in bindings.items() if after[space][k] is not v]
        assert not changed, (space, changed)
