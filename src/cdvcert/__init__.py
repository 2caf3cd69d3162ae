"""Exact-arithmetic certificates for spectral lower bounds on graph invariants.

The package certifies facts about discrete Schrodinger operators on graphs
without any floating point: scalars live in Q or a real quadratic extension
Q[sqrt(d)], and every verdict (inertia, corank, transversality rank) is the
result of exact elimination.  Callers import its modules, such as
`from cdvcert import cdvcore`; the package itself re-exports no name.
"""
