"""Malformed numbers end in DomainError, never in a TypeError from deep
inside a computation: each public function checks its counts through the
checks it already runs."""

import pytest

from minps import (
    DomainError,
    RenderOptions,
    SearchBudget,
    corner_avoiding_strip,
    double,
    monotonicity_table,
)


@pytest.mark.parametrize("call", [
    lambda: SearchBudget(max_time="1"),
    lambda: monotonicity_table(2.5, 2),
    lambda: double(corner_avoiding_strip(1), 1.5),
    lambda: corner_avoiding_strip("2"),
    lambda: RenderOptions(glyph_on=1),
], ids=["budget-time", "table-limit", "double-times", "strip-k", "render-glyph"])
def test_malformed_numbers_are_domain_errors(call):
    with pytest.raises(DomainError):
        call()
