"""Linear-product homotopy continuation for structured polynomial systems
and real witness set computation.

The names below are the public API; everything else is reached through the
submodules (``lph.poly``, ``lph.linalg``, ``lph.tracker``,
``lph.start_systems``, ``lph.solver``, ``lph.witness``, ``lph.cli``).
"""

from .poly import MultiPoly, ParseError, PolySystem, jacobian_transpose, parse_poly
from .solver import LPHProblem, LPHResult, lph_solve
from .start_systems import solve_square
from .tracker import track_path
from .witness import RealWitnessSet, real_witness_set

__all__ = [
    "PolySystem",
    "parse_poly",
    "jacobian_transpose",
    "LPHProblem",
    "LPHResult",
    "lph_solve",
    "RealWitnessSet",
    "real_witness_set",
    "ParseError",
    "MultiPoly",
    "solve_square",
    "track_path",
]

__version__ = "0.1.0"
