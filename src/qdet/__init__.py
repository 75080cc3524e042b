"""Quaternion matrices, noncommutative determinants, and generalized inverses.

Exact-mode arithmetic uses arbitrary-precision rationals so that every
determinantal identity and defining equation in the package is checked as
an equality rather than a tolerance; float mode backs the independent
numeric oracles.
"""

from . import errors
from .geninv import (
    DRAZIN_ROUTES,
    MP_ROUTES,
    WDRAZIN_ROUTES,
    drazin,
    drazin_all_routes,
    mp_all_routes,
    mp_inverse,
    wdrazin,
    wdrazin_all_routes,
    wdrazin_limit_estimate,
)
from .matrix import (
    QMatrix,
    embed_complex,
    index_of,
    inverse_square,
    mat_pow,
    max_abs_diff,
    rank,
    unembed_complex,
)
from .ncdet import (
    cdet,
    cdet_reference,
    char_poly,
    ddet,
    hermitian_inverse,
    principal_minor_sum,
    rdet,
    rdet_reference,
)
from .scalar import (
    EXACT,
    FLOAT,
    Quaternion,
    format_quaternion,
    parse_quaternion,
)
from .verify import (
    VerifyReport,
    check_drazin,
    check_penrose,
    check_wdrazin,
    mp_oracle_embedding,
)

__version__ = "0.1.0"

__all__ = [
    "EXACT",
    "FLOAT",
    "Quaternion",
    "QMatrix",
    "VerifyReport",
    "MP_ROUTES",
    "DRAZIN_ROUTES",
    "WDRAZIN_ROUTES",
    "parse_quaternion",
    "format_quaternion",
    "mat_pow",
    "rank",
    "index_of",
    "inverse_square",
    "embed_complex",
    "unembed_complex",
    "max_abs_diff",
    "rdet",
    "cdet",
    "rdet_reference",
    "cdet_reference",
    "ddet",
    "principal_minor_sum",
    "char_poly",
    "hermitian_inverse",
    "mp_inverse",
    "mp_all_routes",
    "drazin",
    "drazin_all_routes",
    "wdrazin",
    "wdrazin_all_routes",
    "wdrazin_limit_estimate",
    "check_penrose",
    "check_drazin",
    "check_wdrazin",
    "mp_oracle_embedding",
    "errors",
]
