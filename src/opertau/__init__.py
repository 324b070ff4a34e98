"""opertau: exact-arithmetic integrable-systems toolkit.

Microdifferential operators over truncated Laurent series, KdV hierarchy
flows, Miura opers and their gauge reductions, finite-window Sato
Grassmannians with tau functions, two-sided Toda correlators, affine Hecke
actions with q-wedges, and the Miura -> flag -> Grassmannian round trip.
Every scalar is an exact rational; every truncation is tracked.
"""
