"""The numerical tolerance policy: four relative levels, one per question.

Every floating-point decision compares a computed value with one of these
levels times the magnitude of its data; the scale is chosen at the call.
"""

# A computed value (a sample, a residue, the gap between two poles) at most
# this times its scale is zero.
ZERO_TOL = 1e-12
# The zero level of ``is_pd``'s leading minors and of ``matrix_rank``'s
# singular values.
RANK_TOL = 1e-10
# Two computed quantities (the sides of an inequality, a determinant and
# its Hadamard bound, two pole magnitudes) are told apart only beyond this
# times their scale.
SLACK_TOL = 1e-9
# A computed root or eigenvalue can move by up to this (relative): an
# imaginary part this small is zero.
ROOT_TOL = 1e-8
