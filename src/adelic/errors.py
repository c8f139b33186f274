"""Domain error taxonomy.

Every error a library operation can raise by contract derives from
``AdelicError``; the ``code`` attribute keys the machine-readable error
payload emitted by the CLI.  Programming mistakes (wrong types, malformed
descriptors built by hand) raise plain ``ValueError`` instead.
"""


class AdelicError(Exception):
    code = "adelic_error"


class NonCoprimeModuli(AdelicError):
    """Two CRT moduli share a prime factor."""

    code = "non_coprime_moduli"


class NoIntegerSolution(AdelicError):
    """A p-adic ball contains no nonnegative integer."""

    code = "no_integer_solution"


class InfinityOnFiniteAdele(AdelicError):
    """The archimedean component was requested from a finite adele."""

    code = "infinity_on_finite_adele"


class NotInvertible(AdelicError):
    """Idele factorization was applied to a noninvertible adele."""

    code = "not_invertible"


class ZeroComponent(AdelicError):
    """A partial absolute value hit a vanishing coordinate."""

    code = "zero_component"


class NotIntegral(AdelicError):
    """An operation restricted to integral adeles saw a negative valuation."""

    code = "not_integral"


class Infeasible(AdelicError):
    """Zero-pattern conflict: a constrained coordinate vanishes but the
    constraint excludes zero, so no scaling witness can exist."""

    code = "infeasible"


class ClosedOrbitMiss(AdelicError):
    """The orbit of an invertible full adele is closed and misses the
    requested neighbourhood; no exact witness exists."""

    code = "closed_orbit_miss"


class MalformedDescriptor(AdelicError):
    """A set descriptor contains atoms the target space does not admit."""

    code = "malformed_descriptor"


class ImproperPoint(AdelicError):
    """The full prime set was supplied where only proper subsets live."""

    code = "improper_point"


class NegativeForQPlus(AdelicError):
    """A character on the positive rationals was evaluated at a negative."""

    code = "negative_for_q_plus"


class WorkBoundExceeded(AdelicError):
    """An input would take more work than the documented bound allows."""

    code = "work_bound_exceeded"
