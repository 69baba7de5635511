"""Tests for repro.cli and repro.config."""

import numpy as np
import pytest

from repro.cli import main
from repro.config import (
    GCTSPConfig,
    GiantConfig,
    LinkingConfig,
    MiningConfig,
    make_rng,
)
from repro.errors import ConfigError


class TestMakeRng:
    def test_from_seed_deterministic(self):
        assert make_rng(3).random() == make_rng(3).random()

    def test_passthrough_generator(self):
        rng = np.random.default_rng(0)
        assert make_rng(rng) is rng

    def test_none_gives_generator(self):
        assert isinstance(make_rng(None), np.random.Generator)

    def test_bad_type_raises(self):
        with pytest.raises(ConfigError):
            make_rng("nope")


class TestConfigValidation:
    def test_defaults_valid(self):
        GiantConfig().validate()

    def test_bad_visit_threshold(self):
        with pytest.raises(ConfigError):
            MiningConfig(visit_threshold=0.0).validate()

    def test_bad_event_lengths(self):
        with pytest.raises(ConfigError):
            MiningConfig(event_min_len=10, event_max_len=5).validate()

    def test_bad_walk_steps(self):
        with pytest.raises(ConfigError):
            MiningConfig(walk_steps=0).validate()

    def test_bad_category_threshold(self):
        with pytest.raises(ConfigError):
            LinkingConfig(category_threshold=0.0).validate()

    def test_bad_embedding_dim(self):
        with pytest.raises(ConfigError):
            LinkingConfig(embedding_dim=1).validate()

    def test_bad_gctsp_layers(self):
        with pytest.raises(ConfigError):
            GCTSPConfig(num_layers=0).validate()

    def test_bad_gctsp_bases(self):
        with pytest.raises(ConfigError):
            GCTSPConfig(num_bases=0).validate()


class TestCli:
    @pytest.fixture(scope="class")
    def built(self, tmp_path_factory):
        """One CLI build emitting both the ontology JSON and a delta
        log (with a snapshot compacted at the tiny threshold)."""
        root = tmp_path_factory.mktemp("cli")
        path = root / "onto.json"
        log_dir = root / "delta-log"
        rc = main(["build", "--days", "2", "--out", str(path),
                   "--log-dir", str(log_dir), "--compact-bytes", "1"])
        assert rc == 0
        return str(path), str(log_dir)

    @pytest.fixture(scope="class")
    def ontology_path(self, built):
        return built[0]

    @pytest.fixture(scope="class")
    def log_dir(self, built):
        return built[1]

    def test_build_writes_file(self, ontology_path):
        import json
        import pathlib

        data = json.loads(pathlib.Path(ontology_path).read_text())
        assert data["nodes"]

    def test_stats(self, ontology_path, capsys):
        assert main(["stats", "--ontology", ontology_path]) == 0
        out = capsys.readouterr().out
        assert "concept" in out and "isA" in out

    def test_query(self, ontology_path, capsys):
        rc = main(["query", "--ontology", ontology_path,
                   "--q", "best fuel efficient cars"])
        assert rc == 0
        assert "concepts" in capsys.readouterr().out

    def test_tag(self, ontology_path, capsys):
        rc = main(["tag", "--ontology", ontology_path,
                   "--title", "honda civic and toyota corolla reviewed",
                   "--body", "the honda civic stands out. toyota corolla too."])
        assert rc == 0
        assert "concepts" in capsys.readouterr().out

    def test_showcase(self, ontology_path, capsys):
        assert main(["showcase", "--ontology", ontology_path]) == 0
        assert "concepts" in capsys.readouterr().out

    def test_missing_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_build_wrote_delta_log_with_snapshot(self, log_dir, capsys):
        from repro.replication import DeltaLog, SnapshotCatalog

        log = DeltaLog(log_dir, readonly=True)
        assert log.segments()
        catalog = SnapshotCatalog(log, readonly=True)
        assert catalog.snapshots()  # --compact-bytes 1 forced a fold

    def test_serve_from_log_compares_clean(self, log_dir, capsys):
        rc = main(["serve", "--from-log", log_dir, "--shards", "2",
                   "--compare"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "bootstrapped store" in out
        assert "identical to single store" in out

    def test_serve_remote_shards_from_log(self, log_dir, capsys):
        rc = main(["serve", "--from-log", log_dir, "--remote-shards", "2",
                   "--compare"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "2 remote worker shards" in out
        assert "identical to single store" in out

    def test_serve_requires_exactly_one_source(self, log_dir,
                                               ontology_path, capsys):
        assert main(["serve"]) == 2
        assert main(["serve", "--ontology", ontology_path,
                     "--from-log", log_dir]) == 2
        err = capsys.readouterr().err
        assert "exactly one" in err

    def test_serve_remote_requires_from_log(self, ontology_path, capsys):
        rc = main(["serve", "--ontology", ontology_path,
                   "--remote-shards", "2"])
        assert rc == 2
        assert "--from-log" in capsys.readouterr().err

    @pytest.mark.parametrize("listen", [
        "8750",             # missing HOST:
        "127.0.0.1:",       # missing port
        "127.0.0.1:nope",   # non-numeric port
        "127.0.0.1:99999",  # port out of range
        "127.0.0.1:²",      # isdigit()-true but not an int literal
    ])
    def test_serve_malformed_listen_fails_before_loading(self, capsys,
                                                         listen):
        # A bad --listen must fail fast: the ontology path here does not
        # even exist, so reaching the load would raise instead of
        # returning the usage error.
        rc = main(["serve", "--ontology", "does-not-exist.json",
                   "--listen", listen])
        assert rc == 2
        assert "HOST:PORT" in capsys.readouterr().err
