"""Exception types shared across the package."""


class ParameterError(ValueError):
    """A precondition on operation parameters is violated."""


class BudgetExceededError(RuntimeError):
    """A grid would exceed the configured cell budget."""

    def __init__(self, cells_exponent, budget):
        self.cells_exponent = cells_exponent
        self.budget = budget
        super().__init__(
            f"grid requires 2^{cells_exponent} cells, budget is {budget}"
        )


class NoProgressionError(ValueError):
    """The scale set contains no arithmetic progression of the requested length."""


class ConstructionError(RuntimeError):
    """An internal consistency assertion failed while building an instance."""
