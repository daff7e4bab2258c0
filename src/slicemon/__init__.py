"""Online slicing and monitoring of parameter-carrying event traces.

The package splits a single stream of events like ``acquire r=r1`` into one
logical slice per parameter binding and runs a verdict machine against every
slice — incrementally, in one pass, without ever materializing the slices
unless asked to.  See :mod:`slicemon.slicer` for the slicing table,
:mod:`slicemon.parametric` for the monitoring engine,
:mod:`slicemon.reference` for the definitions both are checked against,
and :mod:`slicemon.cli` for the command line.
"""

from importlib import import_module

#: The module each public name lives in.  A name is imported from its module
#: on first access (PEP 562), so ``import slicemon`` (and ``python -m
#: slicemon.cli``, which imports the package first) loads no submodule.
_HOMES = {
    "bindings": ("BindingFormatError", "EMPTY", "InputError", "ParamInstance", "ordered"),
    "counters": ("BalanceMachine", "Ratio", "RatioMachine"),
    "events": (
        "DuplicateParam",
        "ParamMismatch",
        "ParametricEvent",
        "ParseError",
        "UnknownEvent",
        "iter_trace",
        "parse_trace",
        "render_trace",
    ),
    "machines": ("FsmMachine", "Machine", "MonitorSpec", "Verdict"),
    "parametric": ("IndexedMonitor", "RunStats", "VerdictReport"),
    "patterns": ("PatternSyntaxError", "UnknownEventInPattern", "compile_regex"),
    "reference": (
        "BaselineMonitor",
        "binding_closure",
        "definitional_verdicts",
        "join_closure",
        "max_below",
        "slice_trace",
    ),
    "selfcheck": ("run_selfcheck",),
    "slicer": ("SliceTable",),
    "specfile": ("SpecFormatError", "parse_property_spec"),
}
_MODULE_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"
