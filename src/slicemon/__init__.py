"""Online slicing and monitoring of parameter-carrying event traces.

The package splits a single stream of events like ``acquire r=r1`` into one
logical slice per parameter binding and runs a verdict machine against every
slice — incrementally, in one pass, without ever materializing the slices
unless asked to.  See :mod:`slicemon.slicer` for the slicing table,
:mod:`slicemon.parametric` for the monitoring engines, and
:mod:`slicemon.cli` for the command line.
"""

from .bindings import (
    BindingFormatError,
    EMPTY,
    ParamInstance,
    join_closure,
    max_below,
    ordered,
)
from .events import (
    DuplicateParam,
    ParamMismatch,
    ParametricEvent,
    ParseError,
    UnknownEvent,
    binding_closure,
    iter_trace,
    parse_trace,
    render_trace,
    slice_trace,
)
from .machines import (
    BalanceMachine,
    FsmMachine,
    Machine,
    MonitorSpec,
    Ratio,
    RatioMachine,
    Verdict,
)
from .parametric import (
    BaselineMonitor,
    IndexedMonitor,
    RunStats,
    VerdictReport,
    definitional_verdicts,
)
from .patterns import (
    PatternSyntaxError,
    UnknownEventInPattern,
    compile_regex,
)
from .selfcheck import run_selfcheck
from .slicer import SliceTable
from .specfile import SpecFormatError, parse_property_spec

__all__ = [
    "BalanceMachine",
    "BaselineMonitor",
    "BindingFormatError",
    "DuplicateParam",
    "EMPTY",
    "FsmMachine",
    "IndexedMonitor",
    "Machine",
    "MonitorSpec",
    "ParamInstance",
    "ParamMismatch",
    "ParametricEvent",
    "ParseError",
    "PatternSyntaxError",
    "Ratio",
    "RatioMachine",
    "RunStats",
    "SliceTable",
    "SpecFormatError",
    "UnknownEvent",
    "UnknownEventInPattern",
    "Verdict",
    "VerdictReport",
    "binding_closure",
    "compile_regex",
    "definitional_verdicts",
    "iter_trace",
    "join_closure",
    "max_below",
    "ordered",
    "parse_property_spec",
    "parse_trace",
    "render_trace",
    "run_selfcheck",
    "slice_trace",
]

__version__ = "0.1.0"
