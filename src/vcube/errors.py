"""Exception taxonomy shared across the library and the CLI exit codes."""


class DomainError(ValueError):
    """An argument is outside the operation's stated domain."""


class ParseError(ValueError):
    """A serialized artifact (family, matching, certificate) is malformed."""

    def __init__(self, message, lineno=None):
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)
        self.lineno = lineno


class BudgetError(RuntimeError):
    """An exhaustive computation would exceed its configured budget."""


class SolverError(RuntimeError):
    """A numeric solver failed to meet its convergence contract."""


class NotInImageError(ValueError):
    """A family is not the encoding of any induced matching."""


class VerificationError(RuntimeError):
    """An integrity certificate failed its independent audit."""


class Budget:
    """The limit on one guarded computation, in a named unit.

    `refuse_if` is the check before any work.  A loop calls `tick` once
    its count reaches the mark the last tick returned (`tick(0)` gives
    the first), so it pays one comparison per unit.
    """

    STRIDE = 10**6

    def __init__(self, limit, unit, what, progress=None):
        self.limit = limit
        self.unit = unit
        self.what = what
        self.progress = progress
        self._report = self.STRIDE

    def refuse_if(self, need, shown=None):
        """Raise if `need`, a lower bound, is over; `shown` may word it."""
        if need > self.limit:
            raise BudgetError(
                f"{self.what} needs {shown or f'at least {need}'} "
                f"{self.unit}, over the budget of {self.limit}"
            )

    def tick(self, used):
        """Raise past the limit, report each STRIDE crossed to `progress`,
        and return the next mark."""
        if used > self.limit:
            raise BudgetError(
                f"{self.what} exceeded its budget of {self.limit} {self.unit}"
            )
        while self._report <= used:
            if self.progress is not None:
                self.progress(self._report)
            self._report += self.STRIDE
        return min(self._report, self.limit + 1)
