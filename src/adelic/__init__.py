"""Exact arithmetic for finite and full adeles under rational scaling.

The library computes, with exact rationals throughout: p-adic valuations
and expansions, finitely described adeles and their zero sets, the idele
factorization of invertibles, orbit closures and quasi-orbits of the
scaling action, constructive Chinese-Remainder approximation witnesses,
and the closure operators of the parameter spaces classifying the
quasi-orbits.
"""

from .adele import (
    Adele,
    DefaultSpec,
    EXTENDED_PRIMES,
    FINITE_PRIMES,
    FiniteAdele,
    FullAdele,
    Neighbourhood,
    PrimeSet,
    RATIONAL,
    TIMES_P,
    UnitIdele,
    ZERO,
    absolute_value,
    component,
    embed_rational,
    factor_idele,
    is_invertible,
    scale,
    xi_partial,
    zero_set,
)
from .errors import (
    AdelicError,
    ClosedOrbitMiss,
    ImproperPoint,
    Infeasible,
    InfinityOnFiniteAdele,
    MalformedDescriptor,
    NegativeForQPlus,
    NoIntegerSolution,
    NonCoprimeModuli,
    NotIntegral,
    NotInvertible,
    WorkBoundExceeded,
    ZeroComponent,
)
from .oracle import SearchBudget, window_closure, witness_by_search
from .padic import (
    INFINITE_VALUATION,
    INFINITY,
    PadicBall,
    Prime,
    TruncatedPadic,
    crt_solve,
    expand,
    integer_in_ball,
    is_prime,
    iter_primes,
    valuation,
)
from .primtop import (
    ALL_CHARACTERS,
    AllCharacters,
    Character,
    CharacterPoint,
    ClosedSetDescriptor,
    PrimeSetPoint,
    Q_FULL,
    Q_PLUS,
    SetDescriptor,
    SingletonFamily,
    UnitFamily,
    UnitPoint,
    WHOLE_SPACE,
    character_eval,
    closed_contains_atom,
    pc_closure,
    point_specializes,
    prim_equal,
    prim_full_closure,
    primcq_closure,
    tau_closure,
)
from .quasiorbit import (
    FULL_GROUP,
    ParameterPoint,
    TRIVIAL,
    approx_witness,
    chi,
    exact_orbit_witness,
    is_zero_divisor,
    isotropy,
    orbit_closure_contains,
    same_quasi_orbit,
)

__version__ = "0.1.0"
