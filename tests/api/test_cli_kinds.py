"""End-to-end CLI coverage of the unified API: ``dpsc releases --build
--kind qgram-t3`` stores a q-gram release that serves through the query
service, and ``dpsc mine --kind`` mines it."""

from __future__ import annotations

from repro.cli import main
from repro.serving import QueryService, ReleaseStore


def _build_args(store, kind, extra=()):
    return [
        "releases",
        "--store",
        str(store),
        "--build",
        "genome",
        "--kind",
        kind,
        "--n",
        "60",
        "--ell",
        "10",
        "--epsilon",
        "30",
        "--seed",
        "3",
        *extra,
    ]


class TestReleasesKind:
    def test_qgram_t3_release_serves_end_to_end(self, tmp_path, capsys):
        store_dir = tmp_path / "rel"
        assert main(_build_args(store_dir, "qgram-t3", ["--q", "3"])) == 0
        out = capsys.readouterr().out
        assert "saved genome v1" in out
        assert "theorem-3" in out

        store = ReleaseStore(store_dir)
        structure = store.load("genome")
        assert structure.metadata.qgram_length == 3
        assert structure.metadata.construction.startswith("theorem-3")

        service = QueryService.from_store(store)
        patterns = [p for p, _ in structure.items()][:4] or ["ACG"]
        assert service.batch(patterns) == [structure.query(p) for p in patterns]

    def test_qgram_t4_release_needs_delta(self, tmp_path, capsys):
        store_dir = tmp_path / "rel"
        # Without delta the Theorem 4 construction refuses (pure budget)...
        assert main(_build_args(store_dir, "qgram-t4", ["--q", "3"])) == 2
        assert "delta" in capsys.readouterr().err
        # ... and with delta > 0 it builds and lists.
        assert (
            main(_build_args(store_dir, "qgram-t4", ["--q", "3", "--delta", "1e-6"]))
            == 0
        )
        assert "theorem-4" in capsys.readouterr().out

    def test_heavy_path_remains_the_default_kind(self, tmp_path, capsys):
        store_dir = tmp_path / "rel"
        assert main(_build_args(store_dir, "heavy-path")) == 0
        assert "theorem-1" in capsys.readouterr().out

    def test_ledger_composes_across_kinds(self, tmp_path, capsys):
        store_dir = tmp_path / "rel"
        cap = ["--cap-epsilon", "70"]
        assert main(_build_args(store_dir, "heavy-path", cap)) == 0
        assert main(_build_args(store_dir, "qgram-t3", ["--q", "3", *cap])) == 0
        # 30 + 30 spent; the third build would breach the 70 cap.
        assert main(_build_args(store_dir, "qgram-t3", ["--q", "3", *cap])) == 2
        assert "exceed" in capsys.readouterr().err


class TestMineKind:
    def test_mine_accepts_a_qgram_kind(self, capsys):
        code = main(
            [
                "mine",
                "--workload",
                "genome",
                "--kind",
                "qgram-t3",
                "--q",
                "3",
                "--n",
                "60",
                "--ell",
                "10",
                "--epsilon",
                "30",
            ]
        )
        assert code == 0
        assert "kind=qgram-t3" in capsys.readouterr().out

    def test_mine_reports_kind_errors_cleanly(self, capsys):
        code = main(
            [
                "mine",
                "--kind",
                "qgram-t4",
                "--q",
                "3",
                "--n",
                "40",
                "--ell",
                "8",
            ]
        )
        assert code == 2
        assert "delta" in capsys.readouterr().err


def test_quickstart_still_runs(capsys):
    assert main(["quickstart"]) == 0
    assert "error bound" in capsys.readouterr().out


def test_registry_kinds_are_cli_choices():
    from repro.api import default_registry
    from repro.cli import build_parser

    parser = build_parser()
    for kind in default_registry().kinds():
        args = parser.parse_args(["mine", "--kind", kind])
        assert args.kind == kind
