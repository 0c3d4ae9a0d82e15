"""Exact symbolic calculator for Z/2-equivariant unoriented bordism."""

from .coefficients import CoefRing, allowed_degrees, dold_indices, generator_rep
from .conner_floyd import (AntipodalSphere, FreeBZ2Elem, GammaOf, Geometry,
                           ProductOf, Proj, Trivial)
from .errors import (BordcalcError, CapacityError, ContractViolation,
                     IntegrityError, NotDivisible, ParseError)
from .gf2 import GradedPoly, VarTable, poly_rank, solve_gf2
from .localized import LaurentRing
from .presentation import BordismRing, FormalMonomial, Presentation, QuotientElem
from .session import Session
from .verify import Check, verify

__version__ = '0.1.0'

__all__ = [
    'AntipodalSphere', 'BordcalcError', 'BordismRing', 'CapacityError',
    'Check', 'CoefRing', 'ContractViolation', 'FormalMonomial',
    'FreeBZ2Elem', 'GammaOf', 'Geometry', 'GradedPoly', 'IntegrityError',
    'LaurentRing', 'NotDivisible', 'ParseError', 'Presentation', 'ProductOf',
    'Proj', 'QuotientElem', 'Session', 'Trivial', 'VarTable',
    'allowed_degrees', 'dold_indices', 'generator_rep', 'poly_rank',
    'solve_gf2', 'verify',
]
