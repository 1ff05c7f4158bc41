import doctest

import pytest

import lehmerpark.armleg
import lehmerpark.bijection
import lehmerpark.counting
import lehmerpark.enumeration
import lehmerpark.paren
import lehmerpark.parking
import lehmerpark.permutation
import lehmerpark.render
import lehmerpark.setpartition


@pytest.mark.parametrize("module", [
    lehmerpark.permutation,
    lehmerpark.parking,
    lehmerpark.paren,
    lehmerpark.armleg,
    lehmerpark.setpartition,
    lehmerpark.bijection,
    lehmerpark.counting,  # the walk and the recurrences that enumeration imports back
    lehmerpark.enumeration,
    lehmerpark.render,
])
def test_module_doctests(module):
    failures, _ = doctest.testmod(module)
    assert failures == 0
