"""Numerical tolerances of the solver, each defined once.

The modules that use a tolerance import it from here.  ``PRUNE_SLACK`` is
read only through ``at_most``.
"""

# A cut is added only when eta exceeds its right-hand side by more than
# this at a fractional LP point or in a pool scan.  Protects the cut loop
# from cycling on cuts that HiGHS's own primal tolerance already treats as
# satisfied.
EPS_VIOL = 1e-6

# A leader variable within this distance of 0 or 1 counts as integral.
# Protects the integral branch of the cut loop (exact certification, SF's
# exact pass, branching on the most fractional variable) from LP round-off.
INT_TOL = 1e-6

# Largest bound or row violation lp_solve accepts in HiGHS's answer,
# recomputed from the model's own rows.  Protects every caller from a
# vertex that HiGHS reports optimal but that breaks the model, such as a
# row changed inside HiGHS only or a nan residual.
FEAS_TOL = 1e-7

# Relative slack of the branch-and-cut test "bound <= incumbent" (prune),
# and the integral-point cut threshold: an exact separation pass returns
# its cut at an integral point once eta exceeds the cut's value there by
# more than this.  Protects certification from round-off in LP objectives
# while keeping the certified objective within 2e-10 of the truth.
PRUNE_SLACK = 2e-10

# A prefix of an LP point's masses (descending attractiveness) counts as
# reaching one within this slack.  Protects the anchor choice in
# tight_ell and the GSF separation costs from masses that sum to one only
# up to round-off.
UNIT_SLACK = 1e-9


def at_most(a: float, b: float) -> bool:
    """a <= b up to PRUNE_SLACK relative to b."""
    return a <= b + PRUNE_SLACK * (1.0 + abs(b))
