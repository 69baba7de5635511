"""Randomized view-identity harness for the maintained-view layer.

The oracle (DESIGN.md §13): after *every* op of a randomized delta
script, every registered materialized view must be byte-identical
(``rpc.dumps``) to a from-scratch recompute of the same query — on the
single-store service, on the cluster's serving facade, and on every
per-shard posting fragment (whose union must in turn equal the full
postings relation).  This extends the PR-5 consistency discipline from
"responses match" to "the maintained state itself matches", so an
incremental-maintenance bug is caught at the op that introduced it, not
at whichever later probe happens to read the poisoned view.

Scripts come from the same seeded generator as the cluster harness
(``test_cluster_consistency.generate_ops``) — delta batches, serving
probes, profile/story traffic, and one mid-stream rebalance — so a
failing schedule is recorded to ``REPRO_CONSISTENCY_ARTIFACTS`` as a
``views-oplist-*.json`` artifact and shrinks by deleting ops from the
JSON, exactly like the serving-identity harness.
"""

import json
import os
import pathlib

import pytest

from repro.serving.rpc import dumps
from test_cluster_consistency import TAGGER_OPTIONS, _Replay, generate_ops


class _ViewReplay(_Replay):
    """The cluster-consistency replay plus a view-identity check after
    every op: materialized() == recompute() for every catalog entry."""

    def check_views(self, step: int, kind: str) -> None:
        where = f"after op {step} ({kind}) at version {self.cluster.version}"
        for label, service in (("single", self.single),
                               ("cluster", self.cluster)):
            for name, view in service.views.items():
                assert dumps(view.materialized()) == \
                    dumps(view.recompute()), \
                    f"view {label}/{name} diverged {where}"
        # Per-shard posting fragments: each identical to its own
        # owned-rows recompute...
        merged: dict = {}
        for replica in self.cluster.replicas:
            fragment = replica.views.get("tag_postings")
            frozen = fragment.materialized()
            assert dumps(frozen) == dumps(fragment.recompute()), \
                f"shard {replica.shard_id} posting fragment diverged {where}"
            for key, ids in frozen.items():
                merged.setdefault(key, set()).update(ids)
        # ...and their scatter-merge equal to the full postings relation
        # (the single service's view over the producer store).
        union = {key: sorted(ids) for key, ids in sorted(merged.items())}
        full = self.single.views.get("tag_postings").recompute()
        assert dumps(union) == dumps(full), \
            f"merged shard fragments != full postings {where}"


def replay_with_view_checks(ops: list, start_shards: int) -> _ViewReplay:
    """Replay a recorded op list, asserting view identity at every step
    (the shrinkable failure artifact replays through this entry point)."""
    replay = _ViewReplay(start_shards)
    for step, spec in enumerate(ops):
        kind = spec["op"]
        if kind == "delta":
            replay.apply_delta(spec)
        elif kind == "rebalance":
            replay.rebalance(spec["num_shards"])
        elif kind == "serve":
            replay.serve(spec)
        elif kind == "profile":
            replay.profile(spec)
        elif kind == "story":
            replay.story(spec)
        else:  # pragma: no cover - scripts are generated
            raise AssertionError(f"unknown scripted op {kind!r}")
        replay.check_views(step, kind)
    return replay


def _artifact_dir() -> "pathlib.Path | None":
    root = os.environ.get("REPRO_CONSISTENCY_ARTIFACTS")
    if not root:
        return None
    path = pathlib.Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _run_scenario(seed: int, steps: int, start_shards: int,
                  rebalance_to: int) -> None:
    ops = generate_ops(seed, steps, rebalance_to)
    try:
        replay_with_view_checks(ops, start_shards)
    except AssertionError:
        artifacts = _artifact_dir()
        if artifacts is not None:
            name = (f"views-oplist-seed{seed}-s{start_shards}"
                    f"-to{rebalance_to}.json")
            (artifacts / name).write_text(json.dumps(
                {"seed": seed, "start_shards": start_shards,
                 "rebalance_to": rebalance_to, "ops": ops}, indent=1))
            raise AssertionError(
                f"view-identity violation (op list recorded at "
                f"{artifacts / name}; replay with "
                f"replay_with_view_checks(ops, {start_shards}))")
        raise


class TestRandomizedViewIdentity:
    # Growth, shrink, and the degenerate 1-shard cluster, each with a
    # mid-stream rebalance — the rebalance step is where fragment
    # retraction (weight -1 folds) and promotion must cancel exactly.
    @pytest.mark.parametrize("start_shards,rebalance_to,seed", [
        (1, 3, 0),
        (2, 4, 1),
        (3, 5, 2),
        (5, 2, 0),
    ])
    def test_views_stay_byte_identical_under_random_scripts(
            self, start_shards, rebalance_to, seed):
        _run_scenario(seed=seed, steps=8, start_shards=start_shards,
                      rebalance_to=rebalance_to)

    def test_view_op_list_round_trips_through_json(self):
        """The failure artifact is self-sufficient: a reloaded op list
        replays (with view checks) identically."""
        ops = generate_ops(seed=11, steps=6, rebalance_to=3)
        reloaded = json.loads(json.dumps(ops))
        assert reloaded == ops
        replay_with_view_checks(reloaded, start_shards=2)

    def test_rebalance_retracts_exactly_the_moved_fragment_rows(self):
        """Zoomed-in acceptance check for the retraction path: growing
        the ring moves records between shards; every moved node's
        posting rows must leave the source fragment (weight -1) and
        enter the destination fragment (weight +1) with nothing strayed
        — the merged union is invariant across the flip."""
        ops = [spec for spec in generate_ops(seed=5, steps=9,
                                             rebalance_to=4)
               if spec["op"] == "delta"]
        replay = _ViewReplay(start_shards=2)
        for step, spec in enumerate(ops):
            replay.apply_delta(spec)
        before = dumps(replay.single.views.get("tag_postings").recompute())
        replay.rebalance(4)
        replay.check_views(len(ops), "rebalance")
        after = dumps(replay.single.views.get("tag_postings").recompute())
        assert before == after  # ring flips change routing, not content
        moved = replay.cluster.last_rebalance["moved_nodes"]
        assert moved > 0, "growth to 4 shards should move some records"
