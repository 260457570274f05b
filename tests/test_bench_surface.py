"""The benchmark's trace surface still resolves in mslab.

`bench/tracer.py` wraps the mslab functions and methods it names in
`FUNCTIONS` and `METHODS`; a rename in `src/` would break a traced
benchmark run at install time. The tracer is loaded by path and only read.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = load_tracer()
    for mod, names in tracer.FUNCTIONS.items():
        module = importlib.import_module(f"mslab.{mod}")
        for name in names:
            assert callable(getattr(module, name, None)), f"mslab.{mod}.{name}"
    for mod, classes in tracer.METHODS.items():
        module = importlib.import_module(f"mslab.{mod}")
        for cls_name, methods in classes.items():
            cls = getattr(module, cls_name)
            for name in methods:
                assert name in cls.__dict__, f"mslab.{mod}.{cls_name}.{name}"
