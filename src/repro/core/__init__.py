"""GIANT core: the Attention Ontology and the algorithms that build it.

This package is the paper's primary contribution:

* :mod:`repro.core.ontology` — the Attention Ontology DAG (five node types,
  three edge types, Section 2), a façade over the storage engine;
* :mod:`repro.core.store` — the indexed :class:`OntologyStore` engine:
  type-partitioned tables, inverted token index, phrase/alias map,
  versioned :class:`OntologyDelta` batches and snapshots;
* :mod:`repro.core.features` — QTIG node features (NER/POS/stopword/
  length/sequence-id embeddings, Section 3.1);
* :mod:`repro.core.gctsp` — GCTSP-Net: R-GCN node classification + ATSP
  decoding (Section 3.1);
* :mod:`repro.core.phrase` — attention phrase normalization;
* :mod:`repro.core.bootstrap` / :mod:`repro.core.align` /
  :mod:`repro.core.coverrank` — weak-supervision candidate generation;
* :mod:`repro.core.derivation` — Common Suffix Discovery and Common Pattern
  Discovery (higher-level concepts/topics);
* :mod:`repro.core.mining` — the end-to-end Algorithm 1 pipeline;
* :mod:`repro.core.linking` — edge construction (Section 3.2).
"""

from .ontology import AttentionOntology, AttentionNode, NodeType, EdgeType, Edge
from .store import OntologyStore, OntologyDelta, StoreSnapshot
from .features import NodeFeatureExtractor, FEATURE_FIELDS
from .gctsp import GCTSPNet, GraphExample, prepare_example
from .phrase import AttentionPhrase, PhraseNormalizer
from .bootstrap import PatternBootstrapper, Pattern
from .align import align_query_title, extract_aligned_candidates
from .coverrank import split_subtitles, cover_rank, select_event_candidate
from .derivation import common_suffix_discovery, common_pattern_discovery
from .mining import AttentionMiner, MinedAttention
from .serialize import (
    save_ontology,
    load_ontology,
    delta_to_dict,
    delta_from_dict,
    save_deltas,
    load_deltas,
)
# Imported last: zsets pulls in repro.views, which must see the already
# initialised store module above.
from .zsets import delta_to_zsets, token_rows

__all__ = [
    "delta_to_zsets",
    "token_rows",
    "AttentionOntology",
    "AttentionNode",
    "NodeType",
    "EdgeType",
    "Edge",
    "OntologyStore",
    "OntologyDelta",
    "StoreSnapshot",
    "NodeFeatureExtractor",
    "FEATURE_FIELDS",
    "GCTSPNet",
    "GraphExample",
    "prepare_example",
    "AttentionPhrase",
    "PhraseNormalizer",
    "PatternBootstrapper",
    "Pattern",
    "align_query_title",
    "extract_aligned_candidates",
    "split_subtitles",
    "cover_rank",
    "select_event_candidate",
    "common_suffix_discovery",
    "common_pattern_discovery",
    "AttentionMiner",
    "MinedAttention",
    "save_ontology",
    "load_ontology",
    "delta_to_dict",
    "delta_from_dict",
    "save_deltas",
    "load_deltas",
]
