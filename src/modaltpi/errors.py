"""Exception types shared across the package."""


class ModalTpiError(Exception):
    """Base class for all package errors."""


class FormulaSyntaxError(ModalTpiError):
    """Raised on malformed formula text; carries the bare message and its
    1-based line/column."""

    def __init__(self, message, line=1, column=1, source=None):
        self.message = message
        self.line = line
        self.column = column
        self.source = source
        where = f"line {line}, column {column}"
        if source:
            where = f"{source}, {where}"
        super().__init__(f"{where}: {message}")


class NotAClauseError(ModalTpiError):
    """The formula is not a clause in the literal/clause grammar."""


class NotATermError(ModalTpiError):
    """The formula is not a term in the literal/term grammar."""


class InconsistentTermError(ModalTpiError):
    """A term whose propositional literals contain a complementary pair."""


class PreconditionError(ModalTpiError):
    """A documented operation precondition does not hold."""


class NonClausalQueryError(ModalTpiError):
    """Compiled query answering only accepts clausal queries."""


class CapacityError(ModalTpiError):
    """A size cap (clause/term count) was exceeded."""


class BudgetExceededError(ModalTpiError):
    """A node or enumeration budget was exhausted before a decision.

    Deliberately distinct from an unsat answer: callers must never treat
    a blown budget as a verdict.
    """


class SchemaError(ModalTpiError):
    """A persisted compilation file has an unknown or missing schema."""
