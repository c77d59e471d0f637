"""Every function ``bench/spans.py`` traces must resolve in mixedrates.

``Instruments.install`` looks each ``TARGETS`` entry up by module and name,
so a rename or a deletion in the program breaks ``bench/run.py --trace 1``;
this test fails first.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import mixedrates.cli  # noqa: F401  (imports every layer, as bench/run.py does)

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _targets() -> dict:
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look themselves up there
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _targets()


@pytest.mark.parametrize("name", TARGETS)
def test_traced_function_resolves(name):
    module, function = TARGETS[name]
    assert module in sys.modules, f"{name}: module {module} is not loaded"
    assert callable(getattr(sys.modules[module], function, None)), f"{name}: {module}.{function}"
