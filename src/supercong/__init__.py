"""supercong: exact verification of binomial/Apery-like supercongruences,
eta-quotient generating-function identities, and CM values of Hauptmoduls."""

__version__ = "0.1.0"

from .arith import jacobi, primes_in
from .congruence import CongruenceSpec, catalog, lookup, sweep, verify
from .sequences import SequenceId, exact_term

__all__ = [
    "jacobi",
    "primes_in",
    "CongruenceSpec",
    "catalog",
    "lookup",
    "sweep",
    "verify",
    "SequenceId",
    "exact_term",
    "__version__",
]
