"""One-stop construction of the full calculator stack."""

from .coefficients import CoefRing
from .conner_floyd import Geometry
from .localized import LaurentRing
from .presentation import BordismRing


class Session:
    """A coefficient ring, its localization, the bordism ring, and geometry."""

    def __init__(self, max_degree=16, fuel=500000):
        self.coef = CoefRing(max_degree)
        self.laurent = LaurentRing(self.coef)
        self.mo = BordismRing(self.laurent, fuel=fuel)
        self.geometry = Geometry(self.mo)
        self.table = self.coef.table
        self.max_degree = max_degree
