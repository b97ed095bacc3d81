"""Corpus balancing: confidence-ranked selection from a weakly labeled pool
followed by per-class oversampling with replacement.

Selection sorts candidates by descending confidence, then ascending std,
then id, and fails loudly when the pool cannot cover the requested count.
Oversampling never drops an original row: classes at or above the target
are left untouched, deficits are filled by sampling originals with
replacement, and every duplicate gets a fresh `<original-id>#dupN` id with
its provenance recorded in a duplicate-of map.  All draws are seeded per
class, so results are independent of which other classes need filling.
"""

from dataclasses import dataclass, field

from .corpus import Corpus, Tweet, WeakLabel, class_distribution, classes_for, level_of_label
from .errors import ValidationError
from .rng import TAG_OVERSAMPLE, stream


def select_top_confident(pool: Corpus, weak: dict[str, WeakLabel],
                         label: str, n: int) -> list[Tweet]:
    """The n most confident pool tweets carrying `label`.

    Ties break by lower std, then id.  Raises ValidationError when a
    candidate has no weak label or fewer than n candidates exist.
    """
    if n < 0:
        raise ValidationError(f"cannot select a negative count ({n})")
    level = level_of_label(label)
    candidates = [t for t in pool if t.label_at(level) == label]
    missing = [t.id for t in candidates if t.id not in weak]
    if missing:
        raise ValidationError("pool tweets lack weak labels", missing)
    if len(candidates) < n:
        raise ValidationError(
            f"pool shortfall for {label}: requested {n}, only {len(candidates)} available")
    ranked = sorted(candidates, key=lambda t: (-weak[t.id].confidence, weak[t.id].std, t.id))
    return ranked[:n]


@dataclass(frozen=True)
class OversampleResult:
    corpus: Corpus
    duplicate_of: dict[str, str]  # duplicate id -> original id


def oversample(corpus: Corpus, target_per_class: int, level: str,
               seed: int) -> OversampleResult:
    """Duplicate rows with replacement until every class reaches the target.

    Originals are all kept, in their original order; duplicates follow,
    grouped by canonical class order.  Tweets without a label at `level`
    pass through untouched.  A class with a deficit but no originals is an
    error.
    """
    if target_per_class < 1:
        raise ValidationError(f"target_per_class must be >= 1, got {target_per_class}")
    classes = classes_for(level)
    counts = class_distribution(corpus, level)
    existing_ids = set(corpus.ids())

    duplicates: list[Tweet] = []
    duplicate_of: dict[str, str] = {}
    dup_serial: dict[str, int] = {}
    for class_index, label in enumerate(classes):
        needed = target_per_class - counts[label]
        if needed <= 0:
            continue
        members = [t for t in corpus if t.label_at(level) == label]
        if not members:
            raise ValidationError(
                f"class {label} has no rows to oversample from (needs {needed})")
        rng = stream(seed, TAG_OVERSAMPLE, class_index)
        for pick in rng.integers(0, len(members), size=needed):
            orig = members[int(pick)]
            dup_serial[orig.id] = dup_serial.get(orig.id, 0) + 1
            new_id = f"{orig.id}#dup{dup_serial[orig.id]}"
            if new_id in existing_ids:
                raise ValidationError(f"duplicate id {new_id} collides with an existing id")
            existing_ids.add(new_id)
            duplicates.append(Tweet(id=new_id, text=orig.text, label_a=orig.label_a,
                                    label_b=orig.label_b, label_c=orig.label_c))
            duplicate_of[new_id] = orig.id
    return OversampleResult(
        corpus=corpus.with_tweets(list(corpus.tweets) + duplicates),
        duplicate_of=duplicate_of,
    )


@dataclass(frozen=True)
class BalancePlan:
    level: str
    target_per_class: int
    seed: int
    additions: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        classes = classes_for(self.level)
        if self.target_per_class < 1:
            raise ValidationError(
                f"target_per_class must be >= 1, got {self.target_per_class}")
        for label, count in self.additions.items():
            if label not in classes:
                raise ValidationError(f"add.{label}: {label!r} is not a level-{self.level} "
                                      f"class, expected one of {', '.join(classes)}")
            if count < 0:
                raise ValidationError(f"add.{label} must be >= 0, got {count}")


@dataclass(frozen=True)
class BalanceReport:
    corpus: Corpus
    before: dict[str, int]
    after_selection: dict[str, int]
    after: dict[str, int]
    selected: tuple[tuple[str, str, float, float], ...]  # id, label, confidence, std
    duplicate_of: dict[str, str]


def apply_plan(base: Corpus, pool: Corpus, weak: dict[str, WeakLabel],
               plan: BalancePlan) -> BalanceReport:
    """Selection then oversampling: add the planned pool tweets per class,
    then oversample every class up to the plan's target."""
    selected: list[Tweet] = []
    detail: list[tuple[str, str, float, float]] = []
    for label in classes_for(plan.level):
        want = plan.additions.get(label, 0)
        if want == 0:
            continue
        for t in select_top_confident(pool, weak, label, want):
            selected.append(t)
            wl = weak[t.id]
            detail.append((t.id, label, wl.confidence, wl.std))

    base_ids = set(base.ids())
    clashes = [t.id for t in selected if t.id in base_ids]
    if clashes:
        raise ValidationError("pool additions collide with base corpus ids", clashes)

    combined = base.with_tweets(list(base.tweets) + selected)
    result = oversample(combined, plan.target_per_class, plan.level, plan.seed)
    return BalanceReport(
        corpus=result.corpus,
        before=class_distribution(base, plan.level),
        after_selection=class_distribution(combined, plan.level),
        after=class_distribution(result.corpus, plan.level),
        selected=tuple(detail),
        duplicate_of=result.duplicate_of,
    )
