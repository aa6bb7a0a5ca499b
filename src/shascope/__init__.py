"""Exact-arithmetic toolkit for elliptic curves over Q at desk scale:
Weierstrass invariants and reduction types, division-polynomial identities,
finite-field group structure, rational torsion, normalized alpha traces in
torsion fields, Galois-image decision rules, and lifting plans.
"""
