"""One-stop construction of the full calculator stack."""

from .coefficients import CoefRing
from .conner_floyd import Geometry
from .gf2 import Memo
from .localized import LaurentRing
from .presentation import BordismRing


class Session:
    """A coefficient ring, its localization, the bordism ring, and geometry."""

    def __init__(self, max_degree=16):
        self.coef = CoefRing(max_degree)
        self.laurent = LaurentRing(self.coef)
        self.mo = BordismRing(self.laurent)
        self.geometry = Geometry(self.mo)
        self.table = self.coef.table
        self.max_degree = max_degree

    def stats(self):
        """(entries, hits) of every memo the session reaches, by (owner, attribute).

        The owners are the session's parts, and the Boardman tables once built.
        """
        owners = dict(coef=self.coef, table=self.table, boardman=self.coef.boardman,
                      laurent=self.laurent, mo=self.mo, geometry=self.geometry)
        out = {}
        for owner, obj in owners.items():
            for name in [*getattr(obj, '__dict__', ()), *getattr(obj, '__slots__', ())]:
                value = getattr(obj, name)
                if isinstance(value, Memo):
                    out[owner, name] = (len(value), value.hits)
        return out
