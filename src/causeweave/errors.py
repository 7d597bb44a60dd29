"""Exception types shared across the package."""


class CauseweaveError(Exception):
    """Base class for all package-specific errors."""


class InputError(CauseweaveError):
    """Base class of the errors that bad input raises; the CLI exits 2 on one."""


class SchemaError(InputError):
    """Schema file is malformed or internally inconsistent."""


class UnknownLevel(InputError):
    """A cell value is not a declared level of its variable."""


class RowLengthMismatch(InputError):
    """A CSV row has a different number of cells than the header."""


class MissingColumn(InputError):
    """A schema variable has no matching CSV column."""


class DegenerateTable(CauseweaveError):
    """A contingency-table query cannot produce a meaningful statistic."""


class MixedBackendUnsupported(InputError):
    """The requested test backend cannot handle the query's variable kinds."""


class UnknownVertex(InputError):
    """A graph query referenced a vertex that does not exist."""


class UninjectedQuery(InputError):
    """An injected-results backend received a query outside its table."""


class BudgetExceeded(CauseweaveError):
    """The candidate-set search expanded more sets than the configured cap."""


class PriorKnowledgeCycle(InputError):
    """Required edges and tier constraints are jointly cyclic."""


class VertexMismatch(CauseweaveError):
    """Graphs passed to a comparison do not share the same vertex set."""
