import pytest

from satrelay import validate


@pytest.mark.parametrize(
    "check",
    [fn for _, fn in validate.CHECKS],
    ids=[fn.__name__.removeprefix("_check_") for _, fn in validate.CHECKS],
)
def test_check(check):
    check()
