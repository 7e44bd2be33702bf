"""Concordance invariant bounds from combinatorial knot presentations.

Exact values where closed-form results apply (positive braids, torus
knots, qualifying pretzels, Whitehead doubles), provably-sound integer
intervals everywhere else, with machine-checkable derivation
certificates.
"""

from .braid import (
    BraidWord,
    bennequin_genus,
    closure_components,
    mirror_braid,
    parse_braid,
    slice_bennequin_lower,
    tau_positive_braid,
)
from .deduce import (
    Certificate,
    Cobordism,
    CrossingChange,
    Double,
    Fact,
    FactBase,
    KnotRecord,
    Mirror,
    Presentation,
    Sum,
    Unknotting,
    propagate,
    query,
    replay,
)
from .families import (
    PretzelParams,
    TorusParams,
    pretzel_tau,
    tau_torus,
    torus_braid,
    whitehead_double_tau,
)
from .grid import (
    GridDiagram,
    components,
    corner_census,
    crossings,
    ne_corners,
    parse_grid,
    stabilize_ne,
    tb,
    writhe_grid,
)
from .interval import Interval

__version__ = "0.1.0"
