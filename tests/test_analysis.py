"""Ordering distance and consensus."""

from __future__ import annotations

import math
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogseq import (
    OrderingError,
    Workflow,
    consensus_ordering,
    enumerate_linear_extensions,
    is_linear_extension,
    ordering_distance,
)

from conftest import simple_task

ABC = ("A", "B", "C")


def _squared_sum(ordering, votes) -> int:
    """Exact sum of squared distances from ``ordering`` to every vote."""
    position = {code: i for i, code in enumerate(ordering)}
    return sum((position[code] - i) ** 2
               for vote in votes for i, code in enumerate(vote))


def _perm_strategy(n: int):
    codes = [f"T{i}" for i in range(n)]
    return st.permutations(codes)


class TestDistance:
    def test_identical_is_zero(self):
        assert ordering_distance(ABC, ABC) == 0.0

    def test_adjacent_swap_is_root_two(self):
        assert ordering_distance(("A", "B", "C"), ("A", "C", "B")) == \
            math.sqrt(2)

    def test_full_reversal(self):
        assert ordering_distance(("A", "B", "C"), ("C", "B", "A")) == \
            math.sqrt(8)

    def test_exactness_on_large_indices(self):
        n = 400
        a = tuple(f"T{i:03d}" for i in range(n))
        b = tuple(reversed(a))
        expected = sum((i - (n - 1 - i)) ** 2 for i in range(n))
        # One rounding, at the square root: the neighbouring squares'
        # roots differ by far more than a float's precision here.
        assert ordering_distance(a, b) == math.sqrt(expected)
        assert ordering_distance(a, b) != math.sqrt(expected - 1)

    def test_mismatched_task_sets(self):
        with pytest.raises(OrderingError, match="only in first: C"):
            ordering_distance(("A", "B", "C"), ("A", "B", "D"))
        with pytest.raises(OrderingError, match="only in second: D"):
            ordering_distance(("A", "B", "C"), ("A", "B", "D"))

    def test_duplicates_rejected(self):
        with pytest.raises(OrderingError, match="repeats tasks: A"):
            ordering_distance(("A", "A", "B"), ("A", "B", "C"))
        with pytest.raises(OrderingError, match="repeats"):
            ordering_distance(("A", "B", "C"), ("C", "C", "B"))

    @given(_perm_strategy(6), _perm_strategy(6))
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, a, b):
        assert ordering_distance(a, b) == ordering_distance(b, a)

    @given(_perm_strategy(5), _perm_strategy(5), _perm_strategy(5))
    @settings(max_examples=60, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        ab = ordering_distance(a, b)
        bc = ordering_distance(b, c)
        ac = ordering_distance(a, c)
        assert ac <= ab + bc + 1e-9

    @given(_perm_strategy(5), _perm_strategy(5))
    @settings(max_examples=60, deadline=None)
    def test_identity_of_indiscernibles(self, a, b):
        d = ordering_distance(a, b)
        assert (d == 0) == (tuple(a) == tuple(b))


class TestConsensus:
    def test_single_ordering_is_itself(self):
        assert consensus_ordering([ABC]) == ABC

    def test_unanimous(self):
        assert consensus_ordering([ABC, ABC, ABC]) == ABC

    def test_majority_wins_per_position(self):
        votes = [("A", "B", "C"), ("A", "B", "C"), ("B", "A", "C")]
        # Summed positions: A 1, B 2, C 6.
        assert consensus_ordering(votes) == ("A", "B", "C")

    def test_ties_break_by_code(self):
        votes = [("A", "B"), ("B", "A")]
        assert consensus_ordering(votes) == ("A", "B")

    def test_sorts_by_summed_position(self):
        votes = [("D", "C", "B", "A"), ("D", "A", "C", "B")]
        # Summed positions: D 0, C 3, A 4, B 5.
        result = consensus_ordering(votes)
        assert result == ("D", "C", "A", "B")
        assert _squared_sum(result, votes) == 4

    def test_idempotent(self):
        votes = [("B", "A", "C"), ("A", "C", "B"), ("B", "C", "A")]
        once = consensus_ordering(votes)
        assert consensus_ordering([once]) == once

    def test_empty_input_rejected(self):
        with pytest.raises(OrderingError, match="at least one"):
            consensus_ordering([])

    def test_mismatched_sets_rejected(self):
        with pytest.raises(OrderingError, match="different task sets"):
            consensus_ordering([("A", "B"), ("A", "C")])

    def test_duplicate_in_vote_rejected(self):
        with pytest.raises(OrderingError, match="repeats"):
            consensus_ordering([("A", "A")])

    @given(st.lists(_perm_strategy(5), min_size=1, max_size=7))
    @settings(max_examples=60, deadline=None)
    def test_result_is_permutation_of_input_tasks(self, votes):
        result = consensus_ordering(votes)
        assert sorted(result) == sorted(votes[0])

    @given(st.integers(1, 6).flatmap(
        lambda n: st.lists(_perm_strategy(n), min_size=1, max_size=5)))
    @settings(max_examples=150, deadline=None)
    def test_least_squares_oracle(self, votes):
        # Every permutation, priced by the exact integer sum of squared
        # distances; the least (sum, ordering) is the one expected.
        _, expected = min((_squared_sum(candidate, votes), candidate)
                          for candidate in permutations(votes[0]))
        assert consensus_ordering(votes) == expected

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_valid_inputs_give_a_valid_consensus(self, data):
        # Codes are shuffled against the precedence, so the tie-break by
        # code alone would not keep it.
        n = data.draw(st.integers(3, 6))
        codes = data.draw(st.permutations([f"T{i}" for i in range(n)]))
        tasks = [
            simple_task(code, prerequisites=[
                earlier for earlier in codes[:i]
                if data.draw(st.booleans())])
            for i, code in enumerate(codes)]
        wf = Workflow.from_tasks(tasks)
        extensions = list(enumerate_linear_extensions(wf))
        votes = data.draw(st.lists(st.sampled_from(extensions),
                                   min_size=1, max_size=4))
        assert is_linear_extension(consensus_ordering(votes), wf)

    def test_expert_consensus_fixture(self, validation_document):
        known = validation_document.known_orderings
        votes = [known["paper_optimal"], known["paper_pessimal"],
                 known["paper_expert_consensus"]]
        result = consensus_ordering(votes)
        assert result == ("AIRL", "BKRF", "FRBN", "LIQH", "DIMH", "STSO",
                          "EXBG", "CFRM", "PRLT", "PRBP")
        assert _squared_sum(result, votes) == 56
        assert is_linear_extension(result, validation_document.workflow)
