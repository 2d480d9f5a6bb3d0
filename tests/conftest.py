from hypothesis import HealthCheck, settings

settings.register_profile(
    "det",
    derandomize=True,
    database=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("det")


def pairs_of(mapping):
    """An Assignment's (row, column) pairs, in row order, as a tuple of int tuples."""
    return tuple(zip(mapping.rows.tolist(), mapping.cols.tolist()))
