"""Logical error rate estimation for the planar surface code.

The package turns a detailed per-gate error model into six scalar rates,
measures logical X/Z failure rates by Pauli-frame Monte Carlo with
minimum-weight perfect matching decoding, stores the measurements in a small
interpolation database, and answers two questions: what are the logical
rates of this hardware at distance d, and what distance does it need to
reach a target rate.
"""

__version__ = "0.3.0"
