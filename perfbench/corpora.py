"""Seeded synthetic corpora, lexicons and configs for the benchmark.

Nothing here imports offlang.  Every tweet is built from pieces whose
preprocessed form is known in advance, so the generator records, next to
the raw text, the tokens offlang must produce, the pre-filter token view
the surface features read, the planted emoji and their expected mean
lexicon score, and the planted label.  The checks in `checks.py` compare
the program against these records.

Content words have the shape consonant-vowel-consonant-vowel-consonant,
with vowels from "aou" and a final consonant from "bdgkptz".  No English stemmer rule applies to such a
word (no -s, -e, -y, -ed, -ing, -er, -al, -ent ... endings), so each word
is its own stem, and none of them is an English stopword.
"""

import bisect
import itertools
import random
from dataclasses import dataclass

ONSETS = "bdfgklmnprtvz"
VOWELS = "aou"
CODAS = "bdgkptz"

STOPWORDS = (
    "a", "about", "all", "and", "are", "at", "be", "but", "for", "have",
    "he", "i", "if", "in", "is", "it", "just", "like", "me", "my", "not",
    "of", "on", "she", "so", "that", "the", "they", "this", "to", "was",
    "we", "what", "with", "you", "your",
)

# Emoji lexicon: (emoji, score).  Kinds: plain code points, a VS16 form,
# two ZWJ sequences and a flag.  No unknown emoji below starts with one of
# these entries, so each planted unit is scored as a whole.
KNOWN_EMOJI = (
    ("\U0001F602", 0.221), ("\U0001F60D", 0.678), ("\U0001F62D", -0.093),
    ("\U0001F621", -0.513), ("\U0001F92C", -0.701), ("\U0001F644", -0.304),
    ("\U0001F44D", 0.521), ("\U0001F44E", -0.485), ("\U0001F4A9", -0.368),
    ("\U0001F525", 0.139), ("\U0001F970", 0.711), ("\U0001F92E", -0.652),
    ("❤️", 0.746),                                   # VS16
    ("\U0001F926‍♂️", -0.35),                   # ZWJ
    ("\U0001F3F3️‍\U0001F308", 0.402),               # ZWJ
    ("\U0001F1FA\U0001F1F8", 0.05),                            # flag
)
NEGATIVE_EMOJI = tuple(e for e, s in KNOWN_EMOJI if s < 0)

# Emoji missing from the lexicon: each counts 0 in the mean.  Skin tones
# ride only on unknown bases (see the FOUND note on toned known emoji).
UNKNOWN_EMOJI = (
    "\U0001F9A9",                                  # plain
    "\U0001FAE0",                                  # plain, Unicode 14
    "\U0001F64B\U0001F3FE",                        # skin tone
    "\U0001F469\U0001F3FD‍\U0001F4BB",        # ZWJ with skin tone
    "\U0001F9D1‍\U0001F680",                  # ZWJ
    "\U0001F1E9\U0001F1F0",                        # flag
)

PUNCT_ENDINGS = ("!", "?", ".", "!!", "?!")

# Class-word pool sizes per label.
CLASS_WORDS = {"NOT": 40, "OFF": 60, "IND": 40, "GRP": 40, "OTH": 40}
N_ABUSIVE = 20          # OFF words that are also on the abusive lexicon
ZIPF_WORDS = 8000
ZIPF_EXPONENT = 1.05

# OLID (Zampieri et al. 2019): 13,240 training tweets, 4,400 OFF; level C
# 2,407 IND / 1,074 GRP / 395 OTH.
OLID_A = {"NOT": 8840, "OFF": 4400}
OLID_C = {"IND": 2407, "GRP": 1074, "OTH": 395}


@dataclass(frozen=True, slots=True)
class Tweet:
    """One generated tweet and everything offlang must make of it."""
    id: str
    text: str
    label: str
    tokens: tuple[str, ...]        # preprocess() output tokens
    base_tokens: tuple[str, ...]   # lowercased tokens before the filters
    emoji: tuple[str, ...]         # planted emoji, in text order
    emoji_score: float             # their mean lexicon score, unknown = 0


def _word_list(rnd: random.Random) -> list[str]:
    words = ["".join(p) for p in itertools.product(ONSETS, VOWELS, ONSETS, VOWELS, CODAS)]
    rnd.shuffle(words)
    return words


class Lexicon:
    """Seeded word pools shared by every corpus of one benchmark run."""

    def __init__(self, seed: int):
        rnd = random.Random(seed * 7919 + 17)
        words = _word_list(rnd)
        pos = 0
        self.class_words = {}
        for label, size in CLASS_WORDS.items():
            self.class_words[label] = words[pos:pos + size]
            pos += size
        self.zipf = words[pos:pos + ZIPF_WORDS]
        self.abusive = self.class_words["OFF"][:N_ABUSIVE]
        self.emoji_scores = dict(KNOWN_EMOJI)
        weights = [1.0 / (r + 1) ** ZIPF_EXPONENT for r in range(len(self.zipf))]
        self.cum = list(itertools.accumulate(weights))

    def zipf_word(self, rnd: random.Random) -> str:
        return self.zipf[bisect.bisect_left(self.cum, rnd.random() * self.cum[-1])]

    def expected_score(self, planted) -> float:
        """Mean lexicon score of planted emoji, unknown ones counting 0,
        summed in text order."""
        scores = [self.emoji_scores.get(e, 0.0) for e in planted]
        return sum(scores) / len(scores) if scores else 0.0


def _cap(word: str, rnd: random.Random) -> str:
    r = rnd.random()
    if r < 0.08:
        return word.capitalize()
    if r < 0.1:
        return word.upper()
    return word


def make_tweet(lex: Lexicon, rnd: random.Random, tid: str, label: str,
               emoji_share: float, signal: float) -> Tweet:
    """Build one tweet for `label`.

    `signal` is the chance that the tweet carries words from its own class
    pool; with probability 0.08 it carries a word of a random other class.
    """
    tokens: list[str] = []
    base: list[str] = []
    chunks: list[str] = []
    for _ in range(rnd.choice((0, 0, 1, 1, 1, 2))):
        chunks.append("@USER")
        tokens.append("@user")
        base.append("@user")

    content = [lex.zipf_word(rnd) for _ in range(rnd.randint(3, 11))]
    if rnd.random() < signal:
        for _ in range(rnd.choice((1, 1, 2))):
            content.insert(rnd.randrange(len(content) + 1),
                           rnd.choice(lex.class_words[label]))
    if rnd.random() < 0.08:
        other = rnd.choice([c for c in lex.class_words if c != label])
        content.insert(rnd.randrange(len(content) + 1), rnd.choice(lex.class_words[other]))
    words = []
    for w in content:
        if rnd.random() < 0.3:
            words.append((rnd.choice(STOPWORDS), True))
        words.append((w, False))

    planted: list[str] = []
    n_emoji = rnd.choice((1, 1, 2, 3)) if rnd.random() < emoji_share else 0
    emoji_at = sorted(rnd.randrange(len(words)) for _ in range(n_emoji))
    for i, (w, is_stop) in enumerate(words):
        shown = _cap(w, rnd)
        lw = w.lower()
        base.append(lw)
        if not is_stop:
            tokens.append(lw)
        if i == len(words) - 1 and rnd.random() < 0.4:
            p = rnd.choice(PUNCT_ENDINGS)
            shown += p
            base.append(p)
        elif rnd.random() < 0.06:
            shown += ","
            base.append(",")
        for _ in range(emoji_at.count(i)):
            if rnd.random() < 0.5:
                pool = NEGATIVE_EMOJI if label == "OFF" and rnd.random() < 0.6 \
                    else tuple(e for e, _ in KNOWN_EMOJI)
            else:
                pool = UNKNOWN_EMOJI
            e = rnd.choice(pool)
            planted.append(e)
            # Glue to the word or stand alone; removal leaves the word intact.
            if rnd.random() < 0.3 and shown[-1].isalpha():
                shown += e
            else:
                chunks.append(shown)
                shown = e
        chunks.append(shown)

    if rnd.random() < 0.15:
        a, b = lex.zipf_word(rnd), lex.zipf_word(rnd)
        chunks.append("#" + a.capitalize() + b.capitalize())
        tokens += [a, b]
        base += [a, b]
    if rnd.random() < 0.2:
        chunks.append("URL")
        tokens.append("url")
        base.append("url")
    return Tweet(tid, " ".join(chunks), label, tuple(tokens), tuple(base),
                 tuple(planted), lex.expected_score(planted))


def make_corpus(lex: Lexicon, seed: int, tag: str, mix: dict, emoji_share: float,
                signal: float) -> list[Tweet]:
    """Tweets with exactly mix[label] rows per label, in seeded order."""
    rnd = random.Random(f"{seed}/{tag}")
    labels = [label for label, n in mix.items() for _ in range(n)]
    rnd.shuffle(labels)
    return [make_tweet(lex, rnd, f"{tag}{i:05d}", label, emoji_share, signal)
            for i, label in enumerate(labels)]


def scaled_mix(mix: dict, total: int) -> dict:
    """Scale a class mix to `total` rows, keeping every class non-empty."""
    whole = sum(mix.values())
    out = {c: max(1, n * total // whole) for c, n in mix.items()}
    first = next(iter(out))
    out[first] += total - sum(out.values())
    return out


HEADER = "id\ttweet\tsubtask_a\tsubtask_b\tsubtask_c"


def labeled_tsv(tweets, level: str) -> str:
    rows = [HEADER]
    for t in tweets:
        if level == "A":
            b, c = ("TIN", "IND") if t.label == "OFF" else ("NULL", "NULL")
            rows.append(f"{t.id}\t{t.text}\t{t.label}\t{b}\t{c}")
        else:
            rows.append(f"{t.id}\t{t.text}\tOFF\tTIN\t{t.label}")
    return "\n".join(rows) + "\n"


def text_only_tsv(tweets) -> str:
    return "\n".join(["id\ttweet"] + [f"{t.id}\t{t.text}" for t in tweets]) + "\n"


def lexicon_files(lex: Lexicon) -> dict[str, str]:
    """File name -> content for the three lexicons a config names."""
    emoji = "# emoji,score\n" + "".join(f"{e},{s!r}\n" for e, s in KNOWN_EMOJI)
    return {
        "stopwords.txt": "\n".join(STOPWORDS) + "\n",
        "abusive.txt": "\n".join(lex.abusive) + "\n",
        "emoji.csv": emoji,
    }


def config_text(seed: int, corpus: str, level: str, n_trees: int, max_depth,
                out_model: str | None = None, out_manifest: str | None = None) -> str:
    lines = [
        f"seed = {seed}",
        f"corpus.train = {corpus}",
        f"train.level = {level}",
        "lexicon.stopwords = stopwords.txt",
        "lexicon.abusive = abusive.txt",
        "lexicon.emoji = emoji.csv",
        "features.min_df = 2",
        f"forest.n_trees = {n_trees}",
        f"forest.max_depth = {max_depth}",
    ]
    if out_model:
        lines.append(f"out.model = {out_model}")
    if out_manifest:
        lines.append(f"out.manifest = {out_manifest}")
    return "\n".join(lines) + "\n"
