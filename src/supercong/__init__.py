"""supercong: exact verification of binomial/Apery-like supercongruences,
eta-quotient generating-function identities, and CM values of Hauptmoduls."""

__version__ = "0.1.0"
