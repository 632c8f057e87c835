"""Numerical toolkit for the two-phase bidirectional relaying cq channel.

Capacity regions for the two-sender and broadcast phases, frequency-typical
sets and typical subspace projectors with exact quantitative bound checks,
the operator inequalities behind square-root decoding, and a desk-scale
random-coding simulator for the broadcast phase.

The modules are the public surface (import from cqrelay.channels,
cqrelay.coding and the others); the package root binds no name.
"""
