"""The benchmark's tracer wraps each boundary name in the module that
calls it, so a name must be called from that module's own code: after a
refactor that moves the call elsewhere, the wrapper would still install
but would count nothing."""
import importlib
import inspect
import types

import pytest

from perfbench.tracer import BOUNDARIES


def _function_names(module) -> set[str]:
    """Names used by the functions, methods, lambdas and comprehensions
    of ``module``, nested code included; module and class bodies, which
    only import and define names, are left out."""
    stack = [compile(inspect.getsource(module), module.__file__, "exec")]
    names: set[str] = set()
    while stack:
        code = stack.pop()
        if code.co_flags & inspect.CO_OPTIMIZED:
            names.update(code.co_names)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return names


@pytest.mark.parametrize("module_name, attr", [(m, a) for m, a, _, _ in BOUNDARIES])
def test_boundary_is_called_in_its_module(module_name, attr):
    assert attr in _function_names(importlib.import_module(module_name))
