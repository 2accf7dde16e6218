"""Exception types raised across the workbench.

Every error that carries a mathematical witness (an associativity triple, a
saturation lattice, a proper submodule, ...) stores it on the exception object
so callers and reports can surface it instead of re-deriving it.
"""

from __future__ import annotations


class OrdembedError(Exception):
    """Base class for all workbench errors."""


# -- exact arithmetic ---------------------------------------------------------

class ZeroPolynomial(OrdembedError):
    """Factorization of the zero polynomial was requested."""


class SearchExhausted(OrdembedError):
    """A bounded deterministic search ended without its result; carries the limit."""

    def __init__(self, limit: int, message: str | None = None):
        self.limit = limit
        super().__init__(message or f"search exhausted after {limit} candidates")


# -- linear algebra -----------------------------------------------------------

class DimensionMismatch(OrdembedError):
    """Operands live in different ambient spaces."""


# -- structure algebras and orders --------------------------------------------

class ParseError(OrdembedError):
    """Malformed algebra/order/embedding input."""


class NotAssociative(OrdembedError):
    """Structure constants fail associativity; carries a witness triple."""

    def __init__(self, i: int, j: int, k: int, message: str | None = None):
        self.triple = (i, j, k)
        super().__init__(message or f"associativity fails on basis triple {(i, j, k)}")


class NoUnit(OrdembedError):
    """The declared unit vector is not a two-sided unit."""


class NonSaturatedIdeal(OrdembedError):
    """Quotient by a non-saturated lattice ideal; carries the saturation."""

    def __init__(self, saturation, message: str | None = None):
        self.saturation = saturation
        super().__init__(message or "ideal lattice is not saturated in the order")


class OracleIncomplete(OrdembedError):
    """A multiplication oracle could not supply (or support) a needed product."""


# -- wedderburn ---------------------------------------------------------------

class NotSemisimple(OrdembedError):
    """Decomposition of an algebra with nonzero radical; carries the radical."""

    def __init__(self, radical=None, message: str | None = None):
        self.radical = radical
        super().__init__(message or "algebra has a nonzero radical")


class NotSemisimpleAction(OrdembedError):
    """Isotypic splitting of a non-semisimple operator algebra action."""


class NotInvariant(OrdembedError):
    """A subspace is not invariant under the given operators."""


# -- embeddings ---------------------------------------------------------------

class NotSemiprime(OrdembedError):
    """Minimal primes of a non-semiprime order; carries a nilpotent witness."""

    def __init__(self, witness=None, message: str | None = None):
        self.witness = witness
        super().__init__(message or "order is not semiprime")


class UnresolvedSimplicity(OrdembedError):
    """A ladder part's commutant was not split, or classification left simplicity open, within budget."""

    def __init__(self, budget: int, message: str | None = None):
        self.budget = budget
        super().__init__(message or f"simplicity unresolved within budget {budget}")


class NotIrredundant(OrdembedError):
    """minimize_step requires an irredundant embedding."""


class UnmatchedComponents(OrdembedError):
    """Codomain components cannot be matched to the minimal primes."""


class NotNatural(OrdembedError):
    """Operation requires a natural embedding."""


class DomainNotSemiprime(OrdembedError):
    """The domain meets the radical of the codomain; carries the witness."""

    def __init__(self, witness=None, message: str | None = None):
        self.witness = witness
        super().__init__(message or "domain intersects the radical nontrivially")


class CertificateFailure(OrdembedError):
    """A certificate the workbench built failed its re-check; carries the diagnostics."""

    def __init__(self, diagnostics=None, message: str | None = None):
        self.diagnostics = diagnostics
        super().__init__(message or f"certificate failed its re-check: {diagnostics}")


class NotElementary(OrdembedError):
    """Operation requires an elementary embedding."""


class NotRegular(OrdembedError):
    """A claimed denominator is not a central regular element; carries it."""

    def __init__(self, element=None, message: str | None = None):
        self.element = element
        super().__init__(message or "element is not central regular")


# -- criteria -----------------------------------------------------------------

class CentreNotEtale(OrdembedError):
    """The centre's rational span is not a product of fields; carries the radical."""

    def __init__(self, radical=None, message: str | None = None):
        self.radical = radical
        super().__init__(message or "centre spans a non-semisimple algebra")


# -- cli ----------------------------------------------------------------------

class GoldenMismatch(OrdembedError):
    """A recomputed corpus report differs from its golden; carries the diff."""

    def __init__(self, name: str, diff: str):
        self.name = name
        self.diff = diff
        super().__init__(f"golden mismatch for corpus entry {name!r}")
