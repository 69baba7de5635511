"""repro — a full reproduction of GIANT: Scalable Creation of a Web-scale
Ontology (Liu, Guo, Niu et al., SIGMOD 2020).

Public API overview::

    from repro import (
        GiantPipeline,            # end-to-end: click logs -> ontology deltas
        AttentionOntology,        # the ontology DAG (façade over the store)
        OntologyStore,            # indexed storage engine + deltas
        OntologyService,          # online serving: batched tagging/queries
        AsyncOntologyService,     # asyncio front: micro-batched streams
        ClusterService,           # sharded scatter-gather serving tier
        RemoteClusterService,     # shards in follower-fed worker processes
        DeltaLog, SnapshotCatalog,  # durable segmented WAL + compaction
        GCTSPNet,                 # the paper's phrase-mining model
        build_world, QueryLogGenerator,  # synthetic click-log substrate
    )

Subpackages:
    repro.core       — ontology store/façade, GCTSP-Net, mining,
                       derivation, linking
    repro.graph      — click graph, random-walk clustering, QTIG
    repro.tsp        — ATSP solvers for ATSP-decoding
    repro.nn         — numpy autograd, R-GCN, LSTM-CRF, seq2seq, Duet, GBDT
    repro.text       — tokenizer, POS, NER, dependency parser, TF-IDF
    repro.synth      — synthetic world + query-log generators
    repro.datasets   — CMD / EMD builders
    repro.baselines  — TextRank, AutoPhrase, Match/Align, LSTM-CRF, ...
    repro.apps       — story trees, document tagging, query understanding,
                       feed-recommendation CTR simulation
    repro.serving    — OntologyService: batched online tagging/query APIs,
                       LRU caching, incremental delta refresh; the
                       asyncio micro-batching front + JSON RPC wrapper
    repro.cluster    — sharded cluster tier: hash-partitioned stores,
                       scatter-gather ClusterService, follower-fed
                       remote shard worker processes
    repro.replication — durable segmented delta log, snapshot catalog,
                       log publisher/followers (the system of record)
    repro.obs        — process-wide metrics registry (counters, gauges,
                       latency histograms) and cross-process request
                       tracing with Chrome trace_event export
    repro.eval       — metrics and table/figure rendering
"""

from .cluster import ClusterService, RemoteClusterService
from .config import GiantConfig, MiningConfig, LinkingConfig, GCTSPConfig
from .core.gctsp import GCTSPNet
from .core.ontology import AttentionOntology, NodeType, EdgeType
from .core.store import OntologyStore, OntologyDelta
from .pipeline import GiantPipeline, PipelineReport
from .replication import (
    DeltaLog,
    LogFollower,
    LogPublisher,
    SnapshotCatalog,
)
from .serving import AsyncOntologyService, OntologyService
from .synth.world import build_world, WorldConfig
from .synth.querylog import QueryLogGenerator

__version__ = "1.0.0"

__all__ = [
    "GiantConfig",
    "MiningConfig",
    "LinkingConfig",
    "GCTSPConfig",
    "GCTSPNet",
    "AttentionOntology",
    "NodeType",
    "EdgeType",
    "OntologyStore",
    "OntologyDelta",
    "OntologyService",
    "AsyncOntologyService",
    "ClusterService",
    "RemoteClusterService",
    "DeltaLog",
    "SnapshotCatalog",
    "LogPublisher",
    "LogFollower",
    "GiantPipeline",
    "PipelineReport",
    "build_world",
    "WorldConfig",
    "QueryLogGenerator",
    "__version__",
]
