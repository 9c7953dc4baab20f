"""Exact and first-order solutions of q-deformed wave equations.

The deformed exponential [1 + (1-q)z]^{1/(1-q)} replaces e^z in the
nonlinear Schrodinger and Klein-Gordon equations studied here.  qcore
evaluates it stably through the q -> 1 pole and carries first-order jets
in (q - 1); planewave, separation, qgaussian and kleingordon hold the
closed-form solutions and their first-order approximants; verify holds
the finite-difference and order-of-convergence oracles; scenarios maps
laboratory particle parameters onto the dimensionless phase units the
ratio figures use.
"""

__version__ = "0.1.0"
