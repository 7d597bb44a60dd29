"""Exception types shared across the package."""


class CauseweaveError(Exception):
    """Base class for all package-specific errors."""


class SchemaError(CauseweaveError):
    """Schema file is malformed or internally inconsistent."""


class UnknownLevel(CauseweaveError):
    """A cell value is not a declared level of its variable."""


class RowLengthMismatch(CauseweaveError):
    """A CSV row has a different number of cells than the header."""


class MissingColumn(CauseweaveError):
    """A schema variable has no matching CSV column."""


class DegenerateTable(CauseweaveError):
    """A contingency-table query cannot produce a meaningful statistic."""


class MixedBackendUnsupported(CauseweaveError):
    """The requested test backend cannot handle the query's variable kinds."""


class UnknownVertex(CauseweaveError):
    """A graph query referenced a vertex that does not exist."""


class UninjectedQuery(CauseweaveError):
    """An injected-results backend received a query outside its table."""


class BudgetExceeded(CauseweaveError):
    """The candidate-set search expanded more sets than the configured cap."""


class EmptyFamily(CauseweaveError):
    """Neighborhood selection was invoked on an empty candidate family."""


class PriorKnowledgeCycle(CauseweaveError):
    """Required edges and tier constraints are jointly cyclic."""


class VertexMismatch(CauseweaveError):
    """Graphs passed to a comparison do not share the same vertex set."""
