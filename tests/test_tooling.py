"""The benchmark's tracer names decotab functions by string; keep every name resolvable.

``perfbench/spans.py`` wraps each ``FUNCTIONS`` entry with ``getattr`` when a
``--trace 1`` run starts, so a renamed or removed function breaks only traced
runs.  Class entries are read through ``cls.__dict__`` and must stay a
classmethod or a plain function, the two kinds the tracer knows how to wrap.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

CLASS_ENTRY_KINDS = {
    "params.SufficientStats.from_table": classmethod,
    "params.CondProbs.joint": "function",
    "cuts.CutProbs.from_joint": classmethod,
}


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.FUNCTIONS


def test_every_traced_function_resolves():
    names = traced_names()
    assert names
    class_entries = {}
    for qual in names:
        mod_name, *path = qual.split(".")
        owner = importlib.import_module(f"decotab.{mod_name}")
        if len(path) == 2:
            cls = getattr(owner, path[0])
            assert inspect.isclass(cls), qual
            assert path[1] in cls.__dict__, f"{qual} is not defined in the class body"
            raw = cls.__dict__[path[1]]
            class_entries[qual] = classmethod if isinstance(raw, classmethod) else (
                "function" if inspect.isfunction(raw) else type(raw).__name__
            )
        else:
            assert len(path) == 1, qual
            assert callable(getattr(owner, path[0])), qual
    assert class_entries == CLASS_ENTRY_KINDS
