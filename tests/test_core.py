"""Tests for coin systems, representations, and the two change makers."""

import re
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinsystems import (
    CoinSystem,
    Pattern,
    Representation,
    ResourceLimitError,
    greedy_count,
    is_orderly,
    min_counterexample_oracle,
    opt_count,
)
from coinsystems.core import _greedy_counts, _lex_smallest_counts, _opt_table

from bruteforce import (
    coin_values,
    ref_greedy_counts,
    ref_lex_smallest_optimal,
    ref_opt_count,
)


# ---------- the public interface ----------


def test_public_names_do_not_grow():
    """A ratchet on the package's public names: new helpers stay private."""
    import coinsystems

    assert len(coinsystems.__all__) <= 35
    assert not [name for name in coinsystems.__all__ if name.startswith("_")]


def test_readme_lists_every_public_function():
    """The README's list of main entry points names exactly the lowercase
    public names, so a removed or added function shows up there."""
    import coinsystems

    readme = Path(coinsystems.__file__).parents[2] / "README.md"
    text = readme.read_text().split("The main entry points:")[1].split("\n## ")[0]
    listed = set(re.findall(r"`([A-Za-z_]\w*)`", text))
    assert listed == {name for name in coinsystems.__all__ if name[0].islower()}


# ---------- value objects ----------


def test_coin_system_validation():
    """Coin systems must start at 1 and strictly increase."""
    with pytest.raises(ValueError):
        CoinSystem(())
    with pytest.raises(ValueError):
        CoinSystem((2, 3))
    with pytest.raises(ValueError):
        CoinSystem((1, 3, 3))
    with pytest.raises(ValueError):
        CoinSystem((1, 4, 3))
    with pytest.raises(ValueError):
        CoinSystem((1, True))
    with pytest.raises(ValueError):
        CoinSystem((1, "3"))


def test_coin_system_container_protocol():
    c = CoinSystem((1, 2, 5, 6))
    assert len(c) == 4
    assert list(c) == [1, 2, 5, 6]
    assert c[2] == 5
    assert str(c) == "(1,2,5,6)"
    assert c.prefix(2) == CoinSystem((1, 2))
    with pytest.raises(ValueError):
        c.prefix(0)
    with pytest.raises(ValueError):
        c.prefix(5)


def test_representation_validation():
    c = CoinSystem((1, 3, 4))
    rep = Representation(c, (2, 0, 1))
    assert rep.value() == 6
    assert rep.size() == 3
    with pytest.raises(ValueError):
        Representation(c, (1, 2))
    with pytest.raises(ValueError):
        Representation(c, (1, -1, 0))


def test_pattern_validation():
    assert Pattern("+").marks == "+"
    assert str(Pattern("+++-+")) == "+++-+"
    assert len(Pattern("+++-+")) == 5
    with pytest.raises(ValueError):
        Pattern("")
    with pytest.raises(ValueError):
        Pattern("++x")
    with pytest.raises(ValueError):
        Pattern("-++")
    with pytest.raises(ValueError):
        Pattern("+-+")


# ---------- greedy ----------


def test_greedy_known_values():
    c = CoinSystem((1, 5, 15, 20))
    assert _greedy_counts(c.values, 30) == [0, 2, 0, 1]
    assert greedy_count(c, 30) == 3

    assert _greedy_counts((1, 3, 4), 0) == [0, 0, 0]
    assert _greedy_counts((1, 3, 4), 6) == [2, 0, 1]

    assert greedy_count(CoinSystem((1, 2, 5, 6)), 10) == 3


def test_greedy_rejects_bad_amounts():
    c = CoinSystem((1, 2))
    with pytest.raises(ValueError):
        greedy_count(c, -1)
    with pytest.raises(ValueError):
        greedy_count(c, 2.0)


# ---------- optimal ----------


def test_opt_known_values():
    assert opt_count(CoinSystem((1, 5, 15, 20)), 30) == 2
    assert opt_count(CoinSystem((1, 3, 4)), 9) == 3
    assert opt_count(CoinSystem((1, 3, 4)), 0) == 0


def test_opt_below_c2_uses_units():
    """Amounts under the second coin can only be paid in unit coins."""
    c = CoinSystem((1, 7, 11))
    for v in range(7):
        assert opt_count(c, v) == v


def test_opt_respects_value_cap(monkeypatch):
    """The one cap, read at call time, guards every DP table: optimal counts,
    the oracle's table (the window below c(n-1)+cn on a small window, the
    lanes on a large one), and the minimal counterexample M whose optimal
    form a witness walks."""
    monkeypatch.setattr("coinsystems.core.DEFAULT_VALUE_CAP", 10)
    c = CoinSystem((1, 2))
    assert opt_count(c, 10) == 5
    with pytest.raises(ResourceLimitError):
        opt_count(c, 11)
    assert min_counterexample_oracle(CoinSystem((1, 5, 6))) == 10
    with pytest.raises(ResourceLimitError):
        min_counterexample_oracle(CoinSystem((1, 5, 7)))
    # the cap bounds M, not the window: (1, 5, 8) has window 12 and M = 10,
    # (1, 6, 7) has M = 12
    assert is_orderly(CoinSystem((1, 5, 8))).witness.value == 10
    with pytest.raises(ResourceLimitError):
        is_orderly(CoinSystem((1, 6, 7)))


# ---------- lexicographic order ----------


def lex_smallest(values, v):
    """The lexicographically smallest optimal counts of v, as the witness
    walk builds them, looking up a DP table's optimal counts below v."""
    return tuple(_lex_smallest_counts(values, v, _opt_table(values, v).__getitem__))


def test_lex_smallest_known_values():
    c = (1, 3, 4)
    assert lex_smallest(c, 9) == (0, 3, 0)
    assert lex_smallest(c, 1) == (1, 0, 0)
    assert lex_smallest(c, 6) == (0, 2, 0)
    assert lex_smallest(c, 0) == (0, 0, 0)


def test_lex_smallest_matches_reference_exhaustively():
    """Every system with at most five coins up to 10, at every amount below
    20: the walk over optimal paths picks the reference's form."""
    for n in range(1, 6):
        for rest in combinations(range(2, 11), n - 1):
            values = (1, *rest)
            for v in range(20):
                assert lex_smallest(values, v) == ref_lex_smallest_optimal(values, v)


# ---------- properties against the reference implementations ----------


@pytest.mark.property_based
@given(coin_values(), st.integers(0, 120))
@settings(max_examples=100)
def test_greedy_matches_reference(values, v):
    """Greedy counts agree with repeated subtraction and recover v."""
    counts = _greedy_counts(values, v)
    assert tuple(counts) == ref_greedy_counts(values, v)
    assert sum(c * x for c, x in zip(values, counts)) == v


@pytest.mark.property_based
@given(coin_values(), st.integers(0, 120))
@settings(max_examples=100)
def test_greedy_never_beats_optimal(values, v):
    c = CoinSystem(values)
    assert greedy_count(c, v) >= opt_count(c, v)


@pytest.mark.property_based
@given(coin_values(max_value=25), st.integers(0, 80))
@settings(max_examples=100, deadline=None)
def test_opt_matches_reference(values, v):
    assert opt_count(CoinSystem(values), v) == ref_opt_count(values, v)


@pytest.mark.property_based
@given(coin_values(max_n=4, max_value=20), st.integers(0, 40))
@settings(max_examples=100, deadline=None)
def test_lex_smallest_matches_reference(values, v):
    """The lexicographic minimum over all optimal representations."""
    counts = lex_smallest(values, v)
    assert counts == ref_lex_smallest_optimal(values, v)
    assert sum(counts) == opt_count(CoinSystem(values), v)
    assert sum(c * x for c, x in zip(values, counts)) == v
