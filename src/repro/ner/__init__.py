"""Named Entity Recognition for ingredient phrases (paper §II-A).

The paper trains Stanford NER — a linear-chain CRF over hand-crafted
features — to tag ingredient-phrase tokens with NAME, STATE, UNIT,
QUANTITY, TEMP, DF (dry/fresh) and SIZE.  This subpackage provides the
same model family built from scratch:

* :mod:`repro.ner.corpus` — tagged-phrase records and the Stanford
  TSV training format,
* :mod:`repro.ner.features` — the orthographic/lexical/contextual
  feature templates,
* :mod:`repro.ner.viterbi` — exact first-order decoding,
* :mod:`repro.ner.crf` — linear-chain CRF trained by L-BFGS,
* :mod:`repro.ner.perceptron` — averaged structured perceptron (same
  decoder, much faster training; the pipeline default),
* :mod:`repro.ner.rule_tagger` — deterministic lexicon baseline,
* :mod:`repro.ner.clustering` — POS-vector k-means used to select
  diverse train/test phrases,
* :mod:`repro.ner.metrics` — token/entity P-R-F1 and k-fold CV.

The perceptron and the clustering step are numpy-backed, the CRF
trains with scipy, and the metrics only score taggers; every default
path tags with the rule tagger, so those names load on first use
(:mod:`repro._lazy`).
"""

from repro._lazy import lazy_exports
from repro.ner.corpus import TAGS, TaggedPhrase, read_tsv, write_tsv
from repro.ner.features import extract_features
from repro.ner.rule_tagger import RuleBasedTagger

__getattr__, __dir__ = lazy_exports(globals(), {
    "LinearChainCRF": "repro.ner.crf",
    "AveragedPerceptronTagger": "repro.ner.perceptron",
    "cluster_phrases": "repro.ner.clustering",
    "select_diverse_corpus": "repro.ner.clustering",
    "EvaluationReport": "repro.ner.metrics",
    "entity_f1": "repro.ner.metrics",
    "evaluate": "repro.ner.metrics",
    "k_fold_cross_validation": "repro.ner.metrics",
})

__all__ = [
    "TAGS",
    "TaggedPhrase",
    "read_tsv",
    "write_tsv",
    "LinearChainCRF",
    "extract_features",
    "EvaluationReport",
    "entity_f1",
    "evaluate",
    "k_fold_cross_validation",
    "AveragedPerceptronTagger",
    "RuleBasedTagger",
    "cluster_phrases",
    "select_diverse_corpus",
]
