"""Text-processing substrate: tokenization, lemmatization, quantities, POS.

This subpackage replaces the NLP utilities the paper takes from NLTK
(WordNet lemmatizer, stop words, POS tagging) with self-contained,
deterministic implementations tuned for the recipe/nutrition vocabulary.

The POS tagger is numpy-backed and only the NER clustering step uses
it, so its names load on first use (:mod:`repro._lazy`).
"""

from repro._lazy import lazy_exports
from repro.text.lemmatizer import WordNetStyleLemmatizer, lemmatize
from repro.text.negation import rewrite_negations
from repro.text.quantity import parse_quantity, QuantityParseError
from repro.text.stopwords import STOP_WORDS, remove_stop_words
from repro.text.tokenize import tokenize, word_tokens

__getattr__, __dir__ = lazy_exports(globals(), {
    "CoarsePOSTagger": "repro.text.pos",
    "pos_tags": "repro.text.pos",
    "tag_frequency_vector": "repro.text.pos",
})

__all__ = [
    "WordNetStyleLemmatizer",
    "lemmatize",
    "rewrite_negations",
    "CoarsePOSTagger",
    "pos_tags",
    "tag_frequency_vector",
    "parse_quantity",
    "QuantityParseError",
    "STOP_WORDS",
    "remove_stop_words",
    "tokenize",
    "word_tokens",
]
