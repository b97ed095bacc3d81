"""Offensive-language classification toolkit.

Corpus handling for three-level offensive-language annotation, tweet
preprocessing, TF-IDF + surface features, a from-scratch random forest with
stratified cross-validation and grid search, confidence-based corpus
balancing with oversampling, evaluation metrics and emotion-lexicon
profiling, all reproducible from a single seed.
"""

__version__ = "0.1.0"

from .balance import BalancePlan, apply_plan, oversample, select_top_confident
from .corpus import (Corpus, Tweet, WeakLabel, class_distribution, load_corpus,
                     load_weak_labels, serialize_corpus)
from .emolex import emotion_counts, emotion_report, load_emotion_lexicon
from .errors import (ModelFormatError, ModelTruncatedError, ModelVersionError,
                     OfflangError, ParseError, ValidationError)
from .features import FeatureVector, Vocabulary, featurize, fit_vocabulary, tfidf
from .forest import (CVResult, ForestModel, ForestParams, cross_validate, gini,
                     grid_search, kfold, load_model, predict, predict_proba,
                     save_model, train_forest, train_tree)
from .metrics import confusion, majority_baseline, render_confusion, scores
from .stemming import stem
from .textprep import (PrepConfig, TokenizedTweet, extract_emoji_sentiment,
                       preprocess, reduce_elongation, split_hashtag, tokenize)

__all__ = [name for name in dir() if not name.startswith("_")]
