"""symf: exact symmetric function arithmetic and its applications.

Everything is computed over the rationals with no floating point
anywhere: the five classical bases with exact base change, Hall scalar
and Kronecker products, plethysm, symmetric group character tables,
invariant characters of tensor powers for the classical groups, and the
cycle index enumeration of card deals and regular multigraphs.
"""

from .errors import (DegreeError, ExprError, ResourceLimitError, SymfError,
                     TruncationError)
from .partitions import Partition, partition_count, partitions_of, z_of
from .symfunc import (SymFn, dimension, e, from_json_dict, generator, h,
                      kronecker, m, monomial_coefficient, one, p, s, scalar,
                      specialize_ones, to_basis, to_json_dict, zero)
from .characters import (CharacterTable, RepCharacter, char_of_functor,
                         character_table, chi, schur_functor_char)
from .plethysm import (GradedSeries, fundamental, h_plus_series, h_sum_series,
                       plethysm, plethysm_series)

# The invariant and enumeration layers load on first access, so a
# command that never reads them never compiles them.  plethysm stays
# eager above: it is also the name of its submodule, and importing
# symf.plethysm binds the module here unless the function is bound
# first.
_LAZY = (("invariants", ("Custom", "GLnAdjoint", "PolyFunctor",
                         "SLnDefining", "SnPermutation", "Sp2nDefining",
                         "hilbert_dim", "hom_dim", "hom_series_char",
                         "inv_char", "inv_char_polyfunc")),
         ("enumeration", ("DealSpec", "RegularGraphSpec", "card_deals",
                          "deals_cycle_index", "regular_graphs",
                          "regular_graphs_cycle_index")))


def _lazy(scope, table):
    """A module __getattr__ (PEP 562) for the module whose globals are
    scope: each name of table, pairs of a submodule of symf and the
    names read from it, is imported on first access and kept in scope."""
    def __getattr__(name):
        for module, names in table:
            if name in names:
                from importlib import import_module
                value = getattr(import_module("." + module, __name__), name)
                scope[name] = value
                return value
        raise AttributeError("module %r has no attribute %r"
                             % (scope["__name__"], name))
    return __getattr__


__getattr__ = _lazy(globals(), _LAZY)


def __dir__():
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"

__all__ = [
    "SymfError", "DegreeError", "TruncationError", "ResourceLimitError",
    "ExprError",
    "Partition", "partitions_of", "partition_count", "z_of",
    "SymFn", "generator", "zero", "one", "p", "h", "e", "m", "s",
    "to_basis", "scalar", "kronecker", "dimension", "specialize_ones",
    "monomial_coefficient", "to_json_dict", "from_json_dict",
    "CharacterTable", "character_table", "chi", "RepCharacter",
    "char_of_functor", "schur_functor_char",
    "GradedSeries", "plethysm", "plethysm_series", "fundamental",
    "h_sum_series", "h_plus_series",
    "SLnDefining", "Sp2nDefining", "SnPermutation", "GLnAdjoint", "Custom",
    "PolyFunctor", "inv_char", "inv_char_polyfunc", "hilbert_dim",
    "hom_series_char", "hom_dim",
    "DealSpec", "RegularGraphSpec", "card_deals", "deals_cycle_index",
    "regular_graphs", "regular_graphs_cycle_index",
    "__version__",
]
