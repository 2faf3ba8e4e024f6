"""Connected regular factorizations of multi-cover complete uniform hypergraphs.

Given (n, h, lam, r_1..r_k), decide whether the lam-fold complete
h-uniform hypergraph on n vertices splits into edge-disjoint spanning
factors where factor i is r_i-regular, and construct such a split with
every factor of degree 2 or more connected.  The construction runs an
amalgam of all edges through n - 1 vertex-splitting stages, each driven
by an equalized hinge selection over two laminar families.
"""

from .detach import (
    Factorization, FeasibilityReport, Params, check_feasibility, construct, initial_amalgam,
    split_step,
)
from .errors import InternalInvariantError, InvalidHingeError, ParameterError, TimeLimitError
from .hypercore import ColoredMultiHypergraph, Edge, binom, wing_decompositions
from .laminar import (
    LaminarFamily, Selection, build_cell_family, build_wing_family, equalized_select,
)
from .oracle import (
    OracleResult, SearchBudget, brute_force_factorize, exhaustive_select, search_backend,
)
from .verify import CheckResult, VerificationReport, verify_factorization, verify_stage
from .wings import (
    HingeRef, Wing, WingDecomposition, is_connected, split_is_connected, wing_decomposition,
)

__version__ = "0.1.0"

__all__ = [
    "binom", "brute_force_factorize", "build_cell_family", "build_wing_family",
    "check_feasibility", "CheckResult", "ColoredMultiHypergraph", "construct", "Edge",
    "equalized_select", "exhaustive_select", "Factorization", "FeasibilityReport", "HingeRef",
    "initial_amalgam", "InternalInvariantError", "InvalidHingeError", "is_connected",
    "LaminarFamily", "OracleResult", "ParameterError", "Params", "search_backend",
    "SearchBudget", "Selection", "split_is_connected", "split_step", "TimeLimitError",
    "verify_factorization", "verify_stage", "VerificationReport", "Wing", "wing_decomposition",
    "wing_decompositions", "WingDecomposition",
]
