"""plumblat: exact invariants of negative-definite plumbing graphs.

Riemann-Roch chi, Laufer cycle algorithms, certified integer chi
minimization, h1 interval floors, relatively generic h1 formulas, and
blow-up surgery, all in exact rational arithmetic.
"""

from .errors import (
    BoxTooLarge,
    EmptySubset,
    GraphMismatch,
    GraphSyntaxError,
    HypothesisFailed,
    InternalError,
    NegativeCoefficient,
    NotAnEdge,
    OracleIncomplete,
    PlumblatError,
    PreconditionFailed,
    UnknownVertex,
    UsageError,
    ValidationError,
)
from .graph import (
    IntersectionData,
    PlumbingGraph,
    intersection_data,
    parse_graph,
    serialize_graph,
    subgraph,
)
from .cycles import (
    Cycle,
    estar,
    estar_decompose,
    format_cycle,
    in_lipman_cone,
    in_minus_lipman_cone,
    is_dual_lattice_member,
    meet,
    pairing,
    parse_cycle,
    restrict_R,
    restrict_cycle,
)
from .chimin import (
    MinChiCertificate,
    anticanonical_cycle,
    chi,
    fundamental_cycle,
    is_rational,
    laufer_reduce,
    min_chi_box,
    min_chi_lower_bounded,
)
from .genus import (
    IntervalFloorReport,
    eca_dim,
    eca_nonempty,
    ez_with_oracle,
    fiber_dim,
    generic_ez,
    generic_h1_oz_floor,
    generic_natural_h1,
    generic_pg,
    interval_floor_line_bundle,
    natural_floor_applicable,
)
from .relative import (
    GenericNaturalOracle,
    H1Oracle,
    RelReport,
    TableOracle,
    ZeroOracle,
    parse_oracle_file,
    reldom_check,
    relgen1_nonempty,
    relgen_h1,
    relspace_dim,
)
from .surgery import (
    BlowupResult,
    blowup_chain,
    blowup_edge,
    blowup_edge_chain,
    blowup_generic,
    z_new,
    z_r,
)

# No module of the library uses exactlin, but the benchmark's tracer
# (plumbench/spans.py) finds its targets in sys.modules, so a traced run
# needs it loaded; this import goes when the tracer drops those targets.
from . import exactlin  # noqa: F401

__version__ = "0.1.0"
