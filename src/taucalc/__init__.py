"""Concordance invariant bounds from combinatorial knot presentations.

Exact values where closed-form results apply (positive braids, torus
knots, qualifying pretzels, Whitehead doubles), provably-sound integer
intervals everywhere else, with machine-checkable derivation
certificates.
"""

__version__ = "0.1.0"
