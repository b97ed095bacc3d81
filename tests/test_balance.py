"""Confidence-ranked pool selection and per-class oversampling."""

import pytest
from hypothesis import given, settings, strategies as st

from offlang.balance import (BalancePlan, apply_plan, oversample,
                             select_top_confident)
from offlang.corpus import Corpus, Tweet, WeakLabel, class_distribution
from offlang.errors import ValidationError


def tweet(tid, label_c=None, label_a="OFF", text="x"):
    label_b = "TIN" if label_c else None
    return Tweet(id=tid, text=text, label_a=label_a, label_b=label_b,
                 label_c=label_c)


def pool_with(entries):
    """entries: (id, label_c, confidence, std) -> (Corpus, weak dict)."""
    tweets = [tweet(tid, label_c) for tid, label_c, _, _ in entries]
    weak = {tid: WeakLabel(id=tid, confidence=c, std=s)
            for tid, _, c, s in entries}
    return Corpus(tweets=tuple(tweets)), weak


# ---------------------------------------------------------------------------
# Selection


def test_select_orders_by_confidence_then_std_then_id():
    pool, weak = pool_with([
        ("d", "GRP", 0.90, 0.10),
        ("b", "GRP", 0.95, 0.20),
        ("c", "GRP", 0.90, 0.05),
        ("e", "GRP", 0.90, 0.10),
        ("a", "IND", 0.99, 0.01),   # other class, never selected here
    ])
    picked = [t.id for t in select_top_confident(pool, weak, "GRP", 3)]
    assert picked == ["b", "c", "d"]   # conf 0.95; then std 0.05; then id d < e


def test_select_zero_and_all():
    pool, weak = pool_with([("a", "GRP", 0.5, 0.1), ("b", "GRP", 0.6, 0.1)])
    assert select_top_confident(pool, weak, "GRP", 0) == []
    assert [t.id for t in select_top_confident(pool, weak, "GRP", 2)] == ["b", "a"]


def test_select_filters_by_label_level():
    # Selection by a level-A label must use label_a, not label_c.
    pool, weak = pool_with([("a", "GRP", 0.9, 0.0), ("b", None, 0.8, 0.0)])
    picked = select_top_confident(pool, weak, "OFF", 2)
    assert sorted(t.id for t in picked) == ["a", "b"]


def test_select_shortfall_raises():
    pool, weak = pool_with([("a", "GRP", 0.9, 0.0)])
    with pytest.raises(ValidationError, match="shortfall"):
        select_top_confident(pool, weak, "GRP", 2)
    with pytest.raises(ValidationError):
        select_top_confident(pool, weak, "GRP", -1)


def test_select_missing_weak_label_raises():
    pool, _ = pool_with([("a", "GRP", 0.9, 0.0), ("b", "GRP", 0.8, 0.0)])
    weak = {"a": WeakLabel(id="a", confidence=0.9, std=0.0)}
    with pytest.raises(ValidationError) as exc:
        select_top_confident(pool, weak, "GRP", 1)
    assert exc.value.ids == ["b"]


# ---------------------------------------------------------------------------
# Oversampling


def small_corpus():
    return Corpus(tweets=(
        tweet("i1", "IND"), tweet("i2", "IND"), tweet("i3", "IND"),
        tweet("g1", "GRP"), tweet("g2", "GRP"),
        tweet("o1", "OTH"),
        tweet("u1", None),            # unlabeled at level c, passes through
    ))


def test_oversample_reaches_target_and_keeps_originals():
    corpus = small_corpus()
    result = oversample(corpus, 3, "C", seed=1)
    dist = class_distribution(result.corpus, "C")
    assert dist == {"IND": 3, "GRP": 3, "OTH": 3}
    assert [t.id for t in result.corpus.tweets[:7]] == [t.id for t in corpus.tweets]
    assert len(result.corpus.tweets) == 7 + 1 + 2


def test_oversample_duplicates_grouped_in_class_order():
    result = oversample(small_corpus(), 3, "C", seed=1)
    extras = [t for t in result.corpus.tweets[7:]]
    labels = [t.label_c for t in extras]
    assert labels == sorted(labels, key=("IND", "GRP", "OTH").index)
    assert labels.count("GRP") == 1 and labels.count("OTH") == 2


def test_oversample_ids_and_provenance():
    result = oversample(small_corpus(), 3, "C", seed=1)
    for dup_id, orig_id in result.duplicate_of.items():
        base, _, serial = dup_id.partition("#dup")
        assert base == orig_id
        assert serial.isdigit()
        dup = next(t for t in result.corpus.tweets if t.id == dup_id)
        orig = next(t for t in result.corpus.tweets if t.id == orig_id)
        assert dup.text == orig.text
        assert dup.label_c == orig.label_c
    # Same original drawn twice gets #dup1, #dup2, ...
    result = oversample(Corpus(tweets=(tweet("a", "IND"), tweet("g", "GRP"),
                                       tweet("o", "OTH"))), 4, "C", seed=0)
    assert sorted(result.duplicate_of) == ["a#dup1", "a#dup2", "a#dup3",
                                           "g#dup1", "g#dup2", "g#dup3",
                                           "o#dup1", "o#dup2", "o#dup3"]


def test_oversample_is_deterministic_per_class():
    # Drawing for one class must not shift another class's draws: removing
    # GRP's deficit leaves the OTH duplicates identical.
    base = small_corpus()
    full = oversample(base, 3, "C", seed=7)
    grp_satisfied = Corpus(tweets=base.tweets + (tweet("g3", "GRP"),))
    partial = oversample(grp_satisfied, 3, "C", seed=7)
    oth_full = [d for d, o in sorted(full.duplicate_of.items()) if o == "o1"]
    oth_partial = [d for d, o in sorted(partial.duplicate_of.items()) if o == "o1"]
    assert oth_full == oth_partial


def test_oversample_class_with_no_rows_raises():
    corpus = Corpus(tweets=(tweet("i1", "IND"), tweet("g1", "GRP")))
    with pytest.raises(ValidationError, match="OTH"):
        oversample(corpus, 2, "C", seed=0)


def test_oversample_id_collision_raises():
    corpus = Corpus(tweets=(tweet("a", "IND"), tweet("a#dup1", "IND"),
                            tweet("g", "GRP"), tweet("o", "OTH")))
    with pytest.raises(ValidationError, match="collides"):
        oversample(corpus, 3, "C", seed=0)


def test_oversample_validation():
    with pytest.raises(ValidationError):
        oversample(small_corpus(), 0, "C", seed=0)


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5),
       st.integers(2, 12), st.integers(0, 2 ** 32))
def test_oversample_distribution_property(n_ind, n_grp, n_oth, target, seed):
    tweets = tuple(tweet(f"i{k}", "IND") for k in range(n_ind)) \
        + tuple(tweet(f"g{k}", "GRP") for k in range(n_grp)) \
        + tuple(tweet(f"o{k}", "OTH") for k in range(n_oth))
    result = oversample(Corpus(tweets=tweets), target, "C", seed=seed)
    dist = class_distribution(result.corpus, "C")
    for label, have in (("IND", n_ind), ("GRP", n_grp), ("OTH", n_oth)):
        assert dist[label] == max(have, target)
    assert len(set(result.corpus.ids())) == len(result.corpus.tweets)


# ---------------------------------------------------------------------------
# Plans


def test_balance_plan_validation():
    BalancePlan(level="C", target_per_class=5, seed=0, additions={"GRP": 2})


@pytest.mark.parametrize("target, additions, message", [
    pytest.param(0, {}, "target_per_class must be >= 1, got 0", id="target-0"),
    pytest.param(5, {"OFF": 1},
                 "add.OFF: 'OFF' is not a level-C class, expected one of IND, GRP, OTH",
                 id="add-OFF"),
    pytest.param(5, {"GRP": -1}, "add.GRP must be >= 0, got -1", id="add-GRP--1"),
])
def test_balance_plan_errors_name_the_field(target, additions, message):
    # `balance` prefixes each message with "balance." to name its config key.
    with pytest.raises(ValidationError) as exc:
        BalancePlan(level="C", target_per_class=target, seed=0, additions=additions)
    assert str(exc.value) == message


def test_apply_plan_end_to_end():
    base = small_corpus()
    pool, weak = pool_with([
        ("p1", "GRP", 0.9, 0.1), ("p2", "GRP", 0.8, 0.1),
        ("p3", "OTH", 0.7, 0.2),
    ])
    plan = BalancePlan(level="C", target_per_class=4, seed=3,
                       additions={"GRP": 2, "OTH": 1})
    report = apply_plan(base, pool, weak, plan)
    assert report.before == {"IND": 3, "GRP": 2, "OTH": 1}
    assert report.after_selection == {"IND": 3, "GRP": 4, "OTH": 2}
    assert report.after == {"IND": 4, "GRP": 4, "OTH": 4}
    assert [row[0] for row in report.selected] == ["p1", "p2", "p3"]
    assert report.selected[0] == ("p1", "GRP", 0.9, 0.1)
    # 1 IND + 2 OTH duplicates fill the remaining deficits.
    assert len(report.duplicate_of) == 3


def test_apply_plan_id_clash_with_base_raises():
    base = Corpus(tweets=(tweet("x", "IND"),))
    pool, weak = pool_with([("x", "GRP", 0.9, 0.1)])
    plan = BalancePlan(level="C", target_per_class=1, seed=0,
                       additions={"GRP": 1})
    with pytest.raises(ValidationError) as exc:
        apply_plan(base, pool, weak, plan)
    assert exc.value.ids == ["x"]


def test_apply_plan_without_additions_is_pure_oversampling():
    base = small_corpus()
    plan = BalancePlan(level="C", target_per_class=3, seed=1)
    report = apply_plan(base, Corpus(tweets=()), {}, plan)
    assert report.selected == ()
    assert report.after == {"IND": 3, "GRP": 3, "OTH": 3}
