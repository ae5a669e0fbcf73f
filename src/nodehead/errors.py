"""Exception types shared across the package, one per non-zero exit code.

The CLI maps each onto its exit-code contract: a :class:`ContractError`
exits 1, a :class:`FormatError` 2 and a :class:`NumericError` 3. An error
is raised as the class of the exit code it should end in; no caller needs
a finer distinction, which the message carries.
"""


class ContractError(ValueError):
    """A documented precondition was violated: a bad flag or argument, an
    empty batch, a short series or operands of inconsistent shapes."""


class FormatError(ValueError):
    """An input file is unusable: it does not match its documented layout,
    or it parses but its content is invalid (a label above 9, no labels)."""


class NumericError(ArithmeticError):
    """A computation produced non-finite values or exhausted its step budget.

    ``where`` carries the integration time at which the failure occurred,
    when known.
    """

    def __init__(self, message, where=None):
        super().__init__(message)
        self.where = where

    def prefixed(self, place):
        """This failure again, of its own type and ``where``, its message prefixed by ``place``."""
        return type(self)(f"{place}: {self}", where=self.where)
