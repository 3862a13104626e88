import math

import pytest

from pan.errors import ContractError, check_choice, check_range

INF, NAN = math.inf, math.nan


@pytest.mark.parametrize("value,low,high,above", [
    (NAN, 0, INF, False),
    (INF, 0, INF, False),
    (-INF, 0, INF, False),
    (NAN, 0.0, 1.0, False),
    (-INF, 0.0, 1.0, False),
    (INF, 0.0, 1.0, False),
    (-1, 0, INF, False),
    (0, 0, INF, True),
    (0.0, 0.0, INF, True),
    (-1e-300, 0.0, 1.0, False),
    (1, 0, 1, False),
    (1.0, 0.0, 1.0, False),
    (5, 1, 5, False),
], ids=["nan", "inf", "minus-inf", "nan-bounded", "minus-inf-bounded", "inf-bounded",
        "int-below-low", "int-at-open-low", "float-at-open-low", "float-below-low",
        "int-at-high", "float-at-high", "int-at-high-of-five"])
def test_check_range_rejects(value, low, high, above):
    with pytest.raises(ContractError, match=f"^x must be .*, got {value}$"):
        check_range("x", value, low, high, above=above)


@pytest.mark.parametrize("value,low,high,above", [
    (0, 0, INF, False),
    (0.0, 0.0, INF, False),
    (1e308, 0.0, INF, True),
    (5e-324, 0.0, INF, True),
    (10**30, 1, INF, False),
    (4, 1, 5, False),
    (0.999, 0.0, 1.0, True),
])
def test_check_range_passes_the_value_through(value, low, high, above):
    assert check_range("x", value, low, high, above=above) is value


@pytest.mark.parametrize("low,high,above,rule", [
    (0, INF, False, "finite and >= 0"),
    (0, INF, True, "finite and > 0"),
    (0, 1, False, "in [0, 1)"),
    (0, 1, True, "in (0, 1)"),
])
def test_check_range_message_states_the_range(low, high, above, rule):
    with pytest.raises(ContractError) as err:
        check_range("lambda_", NAN, low, high, above=above)
    assert str(err.value) == f"lambda_ must be {rule}, got nan"


def test_check_choice():
    check_choice("mode", "b", ("a", "b"))
    with pytest.raises(ContractError) as err:
        check_choice("mode", "c", ("a", "b"))
    assert str(err.value) == "mode must be one of 'a', 'b', got 'c'"
