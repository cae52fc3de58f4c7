"""The benchmark's per-layer tracer can still find what it traces.

perfbench/tracer.py rebinds each name in its TRACED list by looking the
function up in its owner's own ``__dict__``.  A method inherited from a base
class is missing there.  A function defined elsewhere and assigned to the
owner would be rebound everywhere it appears, so calls to the other place
(say, every sparse-polynomial addition) would be counted under this name;
likewise one function object listed under two names.
"""

import importlib
import importlib.util
import types
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_name_is_its_owners_own_function():
    seen = {}
    for dotted in _traced_names():
        module_name, _, qualname = dotted.partition(".")
        owner = importlib.import_module(f"diagdeform.{module_name}")
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        fn = vars(owner).get(attr)
        assert isinstance(fn, types.FunctionType), f"{dotted} is not a function of its owner"
        assert (fn.__module__, fn.__qualname__) == (f"diagdeform.{module_name}", qualname), (
            f"{dotted} is {fn.__module__}.{fn.__qualname__}")
        assert id(fn) not in seen, f"{dotted} is the same function as {seen[id(fn)]}"
        seen[id(fn)] = dotted
