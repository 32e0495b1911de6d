"""The benchmark tracer's view of the library.

`perfbench/tracing.py` wraps, by name, the entry points listed in its
`ENTRY_POINTS`: functions through `getattr` on `bihom.<module>`, methods
through the defining class's own `__dict__`.  A function is rebound
wherever the same object is bound, so two listed names must not be one
object.  These checks keep a refactor of the library from silently
breaking a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def entry_points():
    spec = importlib.util.spec_from_file_location("_bihom_bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.ENTRY_POINTS


def test_every_traced_entry_point_resolves():
    seen = {}
    for modname, attr, _layer, _hot in entry_points():
        mod = importlib.import_module(f"bihom.{modname}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            assert isinstance(cls, type), attr
            assert meth in cls.__dict__, f"{modname}.{attr} is not defined on {cls_name} itself"
            continue
        fn = getattr(mod, attr, None)
        assert callable(fn), f"bihom.{modname}.{attr} is missing"
        other = seen.setdefault(id(fn), f"{modname}.{attr}")
        assert other == f"{modname}.{attr}", f"{modname}.{attr} is the same object as {other}"
