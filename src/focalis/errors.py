class ValidationError(ValueError):
    """Malformed input data (unsorted spectrum, infeasible config, ...)."""


class OracleUndefinedError(RuntimeError):
    """An independent oracle was queried where it is not defined."""


class SingularOperatorError(ValueError):
    """Operator is (numerically) singular; carries the offending eigenvector."""

    def __init__(self, message, eigenvalue=None, eigenvector=None):
        super().__init__(message)
        self.eigenvalue = eigenvalue
        self.eigenvector = eigenvector
