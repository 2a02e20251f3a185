"""The perfbench tracer names functions of the package; keep them resolvable."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    for modname, attr, layer, kind in load_spans().TRACED:
        target = importlib.import_module(modname)
        for part in attr.split("."):
            assert hasattr(target, part), f"{modname}.{attr} ({layer}) is gone"
            target = getattr(target, part)
        assert callable(target), f"{modname}.{attr} is not callable"
        if kind == "lru":
            assert hasattr(target, "cache_info"), f"{modname}.{attr} is traced as lru, uncached"
