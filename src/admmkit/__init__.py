"""Operator-splitting solvers with trajectory-following adaptive acceleration.

The package splits into proximal building blocks (`prox`), one-step scheme
transitions and their dual fixed-point twins (`splitting`), the difference
extrapolation engine (`extrapolate`), the accelerated solver loop (`a3dmm`),
trajectory and spectral diagnostics (`spectra`), a problem gallery
(`problems`) and the benchmark harness and CLI (`bench`, `cli`).

`run_a3dmm` is the one solver entry point: it runs every scheme variant,
with or without extrapolation or momentum.  Every subproblem oracle is an
exact `ProxOracle` whose one method is `evaluate(w, gamma)`.
"""

__version__ = "0.1.0"

from .prox import LinearMap, ProxOracle
from .splitting import IterateState, SolverConfig, SplitProblem
from .extrapolate import CompanionFit, DiffWindow
from .a3dmm import ExtrapConfig, run_a3dmm
from .trace import Trace, TraceRow

__all__ = [
    "__version__",
    "LinearMap", "ProxOracle",
    "IterateState", "SolverConfig", "SplitProblem",
    "CompanionFit", "DiffWindow",
    "ExtrapConfig", "run_a3dmm",
    "Trace", "TraceRow",
]
