"""The one exception type shared across the simulator."""


class ContractError(ValueError):
    """An operation or a configuration was given arguments outside its contract."""
