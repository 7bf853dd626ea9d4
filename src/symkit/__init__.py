"""symkit: a numerical laboratory for symmetric decreasing rearrangement.

Grid fields and sets, symmetrization operators, the integral functionals the
classical rearrangement inequalities compare, sharp-constant evaluators, and
tolerance-controlled experiment suites that verify every in-scope inequality.
"""
