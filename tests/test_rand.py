"""Stream keys of srat.rand."""

import pytest

from srat.errors import DomainError
from srat.rand import derive_rng


@pytest.mark.parametrize(
    "key, message",
    [
        ((), "at least one key component"),
        (((), []), "at least one key component"),  # nested empties splice in nothing
        ((3, -1), "must be non-negative"),
        (((3, (0, -2)),), "must be non-negative"),
    ],
    ids=["no_key", "empty_parts", "negative", "negative_nested"],
)
def test_derive_rng_refusals(key, message):
    with pytest.raises(DomainError, match=message):
        derive_rng(*key)
