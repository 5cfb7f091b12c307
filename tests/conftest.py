import pytest

from cfz.counting import builtin_variety, count_points_generic, points_on_variety


@pytest.fixture(scope="session")
def s_over_49_count():
    return count_points_generic(builtin_variety("S"), 49).count


@pytest.fixture(scope="session")
def s_over_49_points():
    return points_on_variety(builtin_variety("S"), 49)


@pytest.fixture(scope="session")
def x_over_25_count():
    return count_points_generic(builtin_variety("X"), 25).count
