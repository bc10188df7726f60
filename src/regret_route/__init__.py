"""Regret-bounded vehicle routing: configuration-LP solvers with
constant-factor rounding, distance-cap and per-node-bound reductions,
and a validation harness (generators, exact oracles, verifier).

The package re-exports nothing; import from the modules.  The entry
points are ``regret_route.harness.run_solver`` (every solver by name,
from the ``SOLVERS`` table), ``regret_route.harness.verify``, the
generators and exact oracles beside them, the solvers in
``regret_route.reductions`` and the command line in ``regret_route.cli``.
"""

__version__ = "0.1.0"
