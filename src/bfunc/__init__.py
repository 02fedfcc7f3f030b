"""Local b-functions via approximate division in the formal Weyl algebra."""

from .errors import (BfuncError, InputError, ParseError, ResourceLimitError,
                     ZeroLeadingTermError)
from .groebner import (GroebnerBasis, MoraResult, buchberger_mora, ecart,
                       groebner_lazard, mora_div, spair)
from .localb import (BFunctionResult, ann_fs, approx_nf, dependency_kernel,
                     find_generator, local_b_function, rational_roots,
                     verify_certificate)
from .opdiv import OpDivisionResult, accuracy_schedule, op_approx_div
from .orders import MatrixOrder, operator_order, series_order
from .parser import parse_op, parse_poly
from .printing import format_poly, format_univariate
from .rationals import Rational, rat
from .staircase import ApproxDivisionResult, series_approx_div
from .sympoly import SymbolPoly
from .weyl import (DiffOp, FsAction, apply_action, apply_to_fs, e_part,
                   from_symbol, op_mul, ord_e)

__version__ = "0.1.0"

__all__ = [
    "ApproxDivisionResult", "BFunctionResult", "BfuncError", "DiffOp",
    "FsAction", "GroebnerBasis", "InputError", "MatrixOrder", "MoraResult",
    "OpDivisionResult", "ParseError", "Rational", "ResourceLimitError",
    "SymbolPoly", "ZeroLeadingTermError", "accuracy_schedule", "ann_fs",
    "apply_action", "apply_to_fs", "approx_nf", "buchberger_mora",
    "dependency_kernel", "e_part", "ecart", "find_generator", "format_poly",
    "format_univariate", "from_symbol", "groebner_lazard",
    "local_b_function", "mora_div", "op_approx_div", "op_mul",
    "operator_order", "ord_e", "parse_op", "parse_poly", "rat",
    "rational_roots", "series_approx_div", "series_order", "spair",
    "verify_certificate",
]
