"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.parcomp.backends import bound_malloc_arenas
from repro.seq.fasta import read_fasta, to_fasta, write_fasta
from repro.seq.sequence import Sequence, SequenceSet


@pytest.fixture()
def fasta_file(tmp_path):
    path = tmp_path / "in.fasta"
    seqs = SequenceSet(
        [
            Sequence("a", "MKTAYIAKQRQISFVKSHFSRQ"),
            Sequence("b", "MKTAYIAKQRQISFVKHFSRQ"),
            Sequence("c", "MKTAYIARQRQISFVKSHFSR"),
            Sequence("d", "MTAYIAKQRQISFVKSHFSRQ"),
        ]
    )
    write_fasta(path, seqs)
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_align_defaults(self):
        args = build_parser().parse_args(["align", "x.fasta"])
        assert args.procs == 4 and args.engine is None

    @pytest.mark.parametrize("argv, flag", [
        # Prefix matching once read these as longer flags of the same
        # sub-command.
        (["trace", "x.fa", "--tree", "nj"], "--tree"),
        (["align", "x.fa", "--dist", "full-dp"], "--dist"),
        (["distances", "x.fa", "--est", "full-dp"], "--est"),
    ])
    def test_abbreviated_flags_are_usage_errors(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro")
        assert f"unrecognized arguments: {flag}" in err
        assert "Traceback" not in err

    def test_every_full_flag_spelling_parses(self):
        import argparse

        parser = build_parser()
        commands = next(
            a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)
        ).choices
        checked = 0
        for name, command in commands.items():
            positionals = [
                "x" for a in command._actions if not a.option_strings
            ]
            for action in command._actions:
                if isinstance(action, argparse._HelpAction):
                    continue
                for flag in action.option_strings:
                    argv = [name, *positionals, flag]
                    if action.nargs not in (0, "?"):
                        argv.append(
                            str(action.choices[0]) if action.choices
                            else "1"
                        )
                    args = parser.parse_args(argv)
                    assert getattr(args, action.dest) is not None, argv
                    checked += 1
        assert checked > 100


class TestCommands:
    def test_engines_lists_sequential_aligners(self, capsys):
        assert main(["engines"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        sequential = {row[0] for row in rows if row[1:2] == ["sequential"]}
        assert {"muscle", "tcoffee"} <= sequential

    def test_generate(self, tmp_path):
        out = tmp_path / "fam.fasta"
        ref = tmp_path / "ref.fasta"
        rc = main(
            [
                "generate", "-n", "6", "-l", "50", "-r", "200",
                "-s", "3", "-o", str(out), "--reference", str(ref),
            ]
        )
        assert rc == 0
        seqs = read_fasta(out)
        assert len(seqs) == 6
        assert ref.exists()

    def test_generate_stdout(self, capsys):
        assert main(["generate", "-n", "2", "-l", "40"]) == 0
        assert capsys.readouterr().out.startswith(">seq")

    def test_align_sample_align_d(self, fasta_file, tmp_path, capsys):
        out = tmp_path / "aln.fasta"
        rc = main(["align", str(fasta_file), "-p", "2", "-o", str(out)])
        assert rc == 0
        text = out.read_text()
        assert text.startswith(">a")
        assert "Sample-Align-D" in capsys.readouterr().err

    def test_align_sequential(self, fasta_file, capsys):
        rc = main(["align", str(fasta_file), "--engine", "clustalw"])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(">a")
        assert "clustalw" in captured.err

    def test_align_engine_flag(self, fasta_file, capsys):
        rc = main(["align", str(fasta_file), "--engine", "center-star"])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(">a")
        assert "center-star" in captured.err

    def test_align_engine_parallel_baseline(self, fasta_file, capsys):
        rc = main(
            ["align", str(fasta_file), "--engine", "parallel-baseline",
             "-p", "2"]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(">a")
        assert "parallel-baseline" in captured.err

    def test_align_aligner_flag_removed(self, fasta_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["align", str(fasta_file), "--aligner", "center-star"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --aligner" in capsys.readouterr().err

    def test_align_unknown_engine(self, fasta_file, capsys):
        rc = main(["align", str(fasta_file), "--engine", "nope"])
        assert rc == 2
        assert "unknown engine" in capsys.readouterr().err

    def test_align_seed_changes_distribution(self, fasta_file, capsys):
        rc = main(["align", str(fasta_file), "-p", "2", "--seed", "5"])
        assert rc == 0
        assert "Sample-Align-D" in capsys.readouterr().err

    def test_align_json_to_file(self, fasta_file, tmp_path):
        import json

        out = tmp_path / "summary.json"
        rc = main(
            ["align", str(fasta_file), "-p", "2", "--seed", "1",
             "--json", str(out)]
        )
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["engine"] == "sample-align-d"
        assert report["n_rows"] == 4
        assert report["request_hash"]
        assert "bucket_sizes" in report["diagnostics"]
        # The serving-layer stats ride along in the JSON report.
        assert report["service"]["computed"] == 1
        assert report["service"]["misses"] == 1
        assert "evictions" in report["service"]
        assert report["job"]["cache_hit"] is False
        assert report["job"]["status"] == "done"

    def test_align_json_to_stderr(self, fasta_file, capsys):
        rc = main(
            ["align", str(fasta_file), "--engine", "center-star", "--json"]
        )
        assert rc == 0
        err = capsys.readouterr().err
        assert '"engine": "center-star"' in err

    def test_engines_lists_unified_registry(self, capsys):
        assert main(["engines"]) == 0
        out = capsys.readouterr().out
        assert "sample-align-d" in out and "distributed" in out
        assert "muscle" in out and "sequential" in out

    def test_rank(self, fasta_file, capsys):
        rc = main(["rank", str(fasta_file), "-k", "3", "--samples", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "centralized:" in out and "globalized" in out
        assert "variance w.r.t. centralized" in out

    def test_quality(self, tmp_path, capsys):
        test = tmp_path / "test.fasta"
        ref = tmp_path / "ref.fasta"
        test.write_text(">a\nMK-V\n>b\nMKAV\n")
        ref.write_text(">a\nMK-V\n>b\nMKAV\n")
        rc = main(["quality", str(test), str(ref)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Q  = 1.0000" in out and "TC = 1.0000" in out

    def test_plan_projects_a_shape(self, capsys, monkeypatch):
        # Stub calibration so the test is fast and host-independent.
        from repro.perfmodel import KernelCoefficients
        import repro.perfmodel as pm

        monkeypatch.setattr(
            pm, "calibrate_kernels", lambda: KernelCoefficients()
        )
        rc = main(["plan", "-n", "500", "-l", "120", "--max-procs", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "time_s" in out and "speedup" in out
        assert "model-recommended workers:" in out
        assert [line.split()[0] for line in out.splitlines()[2:5]] == [
            "1", "2", "4"
        ]


class TestPlan:
    @pytest.fixture(autouse=True)
    def _stub_calibration(self, monkeypatch):
        from repro.perfmodel import KernelCoefficients
        import repro.perfmodel as pm

        monkeypatch.setattr(
            pm, "calibrate_kernels", lambda: KernelCoefficients()
        )

    def test_plan_text(self, fasta_file, capsys):
        rc = main(["plan", str(fasta_file), "--max-procs", "8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "recommended workers:" in out
        assert "efficiency" in out

    def test_plan_json(self, fasta_file, tmp_path):
        import json

        out = tmp_path / "plan.json"
        rc = main(
            ["plan", str(fasta_file), "--max-procs", "8", "--json", str(out)]
        )
        assert rc == 0
        plan = json.loads(out.read_text())
        assert plan["n_sequences"] == 4
        assert 1 <= plan["recommended_procs"] <= 8
        assert plan["predicted_speedup"] is not None
        assert "1" in plan["efficiency"]

    def test_plan_json_stdout(self, fasta_file, capsys):
        rc = main(["plan", str(fasta_file), "--max-procs", "4", "--json"])
        assert rc == 0
        assert '"recommended_procs"' in capsys.readouterr().out


class TestLoadtest:
    def test_closed_loop_repeat_mix(self, capsys, tmp_path):
        import json

        out = tmp_path / "report.json"
        rc = main(
            ["loadtest", "--requests", "24", "--clients", "3",
             "--mix", "repeat", "--pool", "4", "--seed", "1",
             "--workers", "2", "--json", str(out)]
        )
        assert rc == 0
        printed = capsys.readouterr().out
        assert "0 errors" in printed
        assert "coalesce hit-rate:" in printed
        report = json.loads(out.read_text())
        assert report["requests"]["ok"] == 24
        assert report["requests"]["errors"] == 0
        assert report["latency"]["p99_s"] is not None
        svc = report["gateway"]["service"]
        assert svc["served"] + svc["computed"] >= 24 - report["gateway"]["coalesced"]

    def test_store_backed_loadtest_persists(self, tmp_path, capsys):
        store = tmp_path / "store"
        args = ["loadtest", "--requests", "12", "--clients", "2",
                "--mix", "repeat", "--pool", "3", "--seed", "2",
                "--workers", "2", "--store", str(store)]
        assert main(args) == 0
        capsys.readouterr()
        # Second process-equivalent run: everything served from disk.
        assert main(args) == 0
        assert "0 errors" in capsys.readouterr().out
        assert any(store.rglob("*.json"))


class TestServeParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 8000 and args.queue_size == 256
        assert args.store is None

    def test_bad_gateway_options_clean_error(self, capsys):
        rc = main(["serve", "--burst", "4"])  # burst without rate
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        rc = main(["loadtest", "--requests", "0"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_serve_bind_failure_clean_error(self, capsys):
        import socket

        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            rc = main(["serve", "--port", str(port)])
            assert rc == 2
            assert "cannot bind" in capsys.readouterr().err
        finally:
            blocker.close()

    def test_loadtest_defaults(self):
        args = build_parser().parse_args(["loadtest"])
        assert args.requests == 500 and args.clients == 8
        assert args.mix == "zipf" and args.mode == "closed"


class TestBackendFlag:
    def test_align_backend_processes(self, pool, fasta_file, capsys):
        """Ranks in worker processes: ``--backend pool``."""
        rc = main(
            ["align", str(fasta_file), "-p", "2", "--backend", "pool"]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(">a")
        assert "backend=pool" in captured.err

    def test_align_backend_threads_is_explicit_default(self, fasta_file,
                                                       capsys):
        rc = main(["align", str(fasta_file), "-p", "2",
                   "--backend", "threads"])
        assert rc == 0
        assert "backend=threads" in capsys.readouterr().err

    def test_align_backend_json_reports_backend(self, pool, fasta_file,
                                                tmp_path):
        import json

        out = tmp_path / "run.json"
        rc = main(["align", str(fasta_file), "-p", "2", "--backend",
                   "pool", "-o", str(tmp_path / "aln.fasta"),
                   "--json", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["diagnostics"]["backend"] == "pool"

    def test_align_backend_rejected_for_sequential_engine(self, fasta_file,
                                                          capsys):
        rc = main(["align", str(fasta_file), "--engine", "center-star",
                   "--backend", "pool"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--backend currently applies only to" in err

    def test_align_unknown_backend_clean_error(self, fasta_file, capsys):
        rc = main(["align", str(fasta_file), "--backend", "gpu"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_serve_unknown_backend_clean_error(self, capsys):
        rc = main(["serve", "--backend", "gpu"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_loadtest_unknown_backend_clean_error(self, capsys):
        rc = main(["loadtest", "--backend", "gpu"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_plan_backend_probe(self, fasta_file, tmp_path, monkeypatch):
        import json

        from repro.perfmodel import KernelCoefficients
        import repro.perfmodel as pm

        monkeypatch.setattr(
            pm, "calibrate_kernels", lambda: KernelCoefficients()
        )
        out = tmp_path / "plan.json"
        rc = main(["plan", str(fasta_file), "--max-procs", "2",
                   "--backend", "threads", "--json", str(out)])
        assert rc == 0
        plan = json.loads(out.read_text())
        probe = plan["backend_probe"]
        assert probe["backend"] == "threads"
        assert set(probe["wall_s"]) == {"1", "2"}
        assert probe["speedup"]["1"] == pytest.approx(1.0)
        # The measured throughput drives the recommendation.
        assert plan["recommended_procs"] == probe["best_procs"]
        assert "recommended_procs_model" in plan

    def test_plan_unknown_backend_clean_error(self, fasta_file, capsys,
                                              monkeypatch):
        from repro.perfmodel import KernelCoefficients
        import repro.perfmodel as pm

        monkeypatch.setattr(
            pm, "calibrate_kernels", lambda: KernelCoefficients()
        )
        rc = main(["plan", str(fasta_file), "--backend", "gpu"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["align", "{fasta}", "-p", "2", "--backend", "pool"],
        ["distances", "{fasta}", "--backend", "pool"],
        ["plan", "{fasta}", "--backend", "Pool"],
        ["serve", "--backend", "pool"],
    ], ids=["align", "distances", "plan", "serve"])
    def test_bad_pool_size_is_one_error_line(
        self, fasta_file, capsys, monkeypatch, command
    ):
        """A ``REPRO_POOL_WORKERS`` that is not a positive integer is
        read where the command resolves ``--backend pool``: rc 2 and one
        ``error:`` line, not a traceback from inside the run."""
        monkeypatch.setenv("REPRO_POOL_WORKERS", "two")
        argv = [arg.format(fasta=fasta_file) for arg in command]
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: REPRO_POOL_WORKERS must be a positive integer, "
            "got 'two'"
        ]

    def test_engines_documents_backends(self, capsys):
        assert main(["engines"]) == 0
        out = capsys.readouterr().out
        assert "execution backends" in out
        assert "(--backend): pool, threads\n" in out


class TestDistanceCli:
    def test_engines_lists_estimators_and_transforms(self, capsys):
        assert main(["engines"]) == 0
        out = capsys.readouterr().out
        for name in ("ktuple", "kmer-fraction", "full-dp"):
            assert name in out
        assert "linear" in out and "kimura" in out

    def test_engines_json_lists_estimators_and_transforms(self, capsys):
        import json

        assert main(["engines", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "full-dp" in payload["distance_estimators"]
        assert "threads" in payload["execution_backends"]
        assert payload["transforms"] == ["linear", "kimura"]

    def test_distances_matrix_stats(self, fasta_file, capsys):
        rc = main(["distances", str(fasta_file), "--estimator", "ktuple"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ktuple distances: N=4 pairs=6" in out

    def test_distances_matrix_tsv_and_backend(self, fasta_file, tmp_path,
                                              capsys):
        tsv = tmp_path / "d.tsv"
        rc = main(
            [
                "distances", str(fasta_file), "--backend", "threads",
                "--workers", "2", "-o", str(tsv),
            ]
        )
        assert rc == 0
        lines = tsv.read_text().strip().splitlines()
        assert len(lines) == 5  # header + 4 rows
        assert lines[0].split("\t")[1:] == ["a", "b", "c", "d"]

    def test_distances_json_stats(self, fasta_file, tmp_path):
        import json

        dest = tmp_path / "stats.json"
        rc = main(
            [
                "distances", str(fasta_file), "--estimator", "full-dp",
                "--transform", "kimura", "--json", str(dest),
            ]
        )
        assert rc == 0
        stats = json.loads(dest.read_text())
        assert stats["n_pairs"] == 6 and stats["estimator"] == "full-dp"

    def test_distances_unknown_estimator_clean_error(self, fasta_file,
                                                     capsys):
        rc = main(["distances", str(fasta_file), "--estimator", "nope"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_align_distance_flags(self, fasta_file, tmp_path, capsys):
        plain = tmp_path / "plain.fasta"
        opted = tmp_path / "opted.fasta"
        assert main(
            ["align", str(fasta_file), "--engine", "center-star",
             "-o", str(plain)]
        ) == 0
        assert main(
            ["align", str(fasta_file), "--engine", "center-star",
             "--distance", "ktuple", "--distance-backend", "threads",
             "-o", str(opted)]
        ) == 0
        # Same estimator, parallel schedule: byte-identical alignment.
        assert plain.read_text() == opted.read_text()

    def test_align_distance_rejected_for_tcoffee(self, fasta_file, capsys):
        rc = main(
            ["align", str(fasta_file), "--engine", "tcoffee",
             "--distance", "ktuple"]
        )
        assert rc == 2
        assert "does not take --distance" in capsys.readouterr().err

    def test_align_distance_backend_rejected_for_sample_align_d(
        self, fasta_file, capsys
    ):
        rc = main(
            ["align", str(fasta_file), "--distance-backend", "threads"]
        )
        assert rc == 2
        assert "--distance-backend" in capsys.readouterr().err

    def test_align_distance_reaches_local_aligner(self, fasta_file,
                                                  tmp_path, capsys):
        out = tmp_path / "sad.fasta"
        rc = main(
            ["align", str(fasta_file), "-p", "2", "--distance",
             "kmer-fraction", "-o", str(out)]
        )
        assert rc == 0
        assert out.read_text().startswith(">")

    def test_align_unknown_distance_clean_error(self, fasta_file, capsys):
        rc = main(
            ["align", str(fasta_file), "--engine", "clustalw",
             "--distance", "nope"]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_loadtest_distance_defaults(self, capsys, tmp_path):
        import json

        dest = tmp_path / "report.json"
        rc = main(
            [
                "loadtest", "--requests", "12", "--clients", "2",
                "--pool", "3", "--mix", "repeat", "--workers", "2",
                "--engine", "center-star", "--distance-backend", "threads",
                "--json", str(dest),
            ]
        )
        assert rc == 0
        report = json.loads(dest.read_text())
        gw = report["gateway"]
        assert gw["default_distance"]["backend"] == "threads"
        assert report["requests"]["errors"] == 0

    def test_serve_unknown_distance_clean_error(self, capsys):
        rc = main(["serve", "--port", "0", "--distance", "nope"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_engines_lists_distance_estimators(self, capsys):
        assert main(["engines"]) == 0
        out = capsys.readouterr().out
        assert "distance estimators" in out
        assert "ktuple" in out and "full-dp" in out

    def test_engines_json(self, capsys):
        import json

        assert main(["engines", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        by_name = {e["name"]: e for e in payload["engines"]}
        assert by_name["clustalw"]["stages"] == ["distance", "tree"]
        assert by_name["parallel-baseline"]["stages"] == [
            "distance", "tree"
        ]
        assert by_name["tcoffee"]["stages"] == []
        assert "distance_options" not in by_name["clustalw"]
        assert sorted(payload["distance_estimators"]) == [
            "full-dp", "kmer-fraction", "ktuple"
        ]


class TestTraceCli:
    def test_trace_synthetic_family(self, tmp_path, capsys):
        import json

        out = tmp_path / "trace.json"
        report = tmp_path / "stages.json"
        rc = main(
            ["trace", "-n", "6", "-l", "40", "-o", str(out),
             "--json", str(report)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        names = {e["name"] for e in doc["traceEvents"]}
        assert {"gateway.admit", "gateway.compute", "service.execute",
                "engine.align", "distance.all_pairs", "tree.build",
                "tree.merge", "dp.profile_align"} <= names
        stages = json.loads(report.read_text())
        assert stages["n_spans"] == len(doc["traceEvents"])
        assert stages["stage_breakdown"]

    def test_trace_says_which_distance_path_ran(self, each_dp_kernel, tmp_path):
        """``--distance full-dp`` aligns pair by pair on either kernel:
        its DP events are ``dp.pairs`` events under ``distance.all_pairs``
        whose ``kernel`` names the path, and nothing batches."""
        import json

        for kernel in each_dp_kernel():
            out = tmp_path / f"trace-{kernel}.json"
            rc = main(["trace", "--engine", "clustalw", "--distance",
                       "full-dp", "-n", "6", "-l", "40", "-o", str(out)])
            assert rc == 0
            events = json.loads(out.read_text())["traceEvents"]
            by_id = {e["args"]["span_id"]: e for e in events}

            def stage_of(event):
                """``distance.all_pairs`` / ``tree.merge`` ancestor's name."""
                while event["name"] not in ("distance.all_pairs", "tree.merge"):
                    event = by_id[event["args"]["parent_id"]]
                return event["name"]

            pairs = [e for e in events if e["name"] == "dp.pairs"]
            assert sum(e["args"]["pairs"] for e in pairs) == 15
            assert {stage_of(e) for e in pairs} == {"distance.all_pairs"}
            assert {e["args"]["kernel"] for e in pairs} == {kernel}
            assert not [e for e in events if e["name"] == "dp.batch"]

    def test_trace_says_which_row_kernel_ran(
        self, dp_kernel, tmp_path, capsys
    ):
        import json

        out = tmp_path / "trace.json"
        report = tmp_path / "stages.json"
        args = ["trace", "--engine", "muscle", "-n", "6", "-l", "40",
                "-o", str(out)]
        assert main(args + ["--json", str(report)]) == 0
        reported = json.loads(report.read_text())
        assert reported["dp.kernel"] == dp_kernel
        assert reported["malloc.arena_max"] == bound_malloc_arenas()
        events = json.loads(out.read_text())["traceEvents"]
        fills = [e for e in events if e["name"] == "dp.align"]
        assert fills and {e["args"]["kernel"] for e in fills} == {dp_kernel}
        assert main(args) == 0
        printed = capsys.readouterr().out
        assert f"dp.kernel: {dp_kernel}" in printed
        assert f"malloc.arena_max: {bound_malloc_arenas()}" in printed
        # (the fixture's stand-in for no_compiler / cache_unwritable / ...)
        assert ("dp.kernel_fallback: forced" in printed) == (
            dp_kernel == "numpy"
        )

    def test_trace_reports_peak_rss(self, tmp_path, capsys):
        """``peak_rss_mib`` (this process's peak resident set) sits beside
        the wall time, in text and in ``--json``."""
        import json
        import resource

        report = tmp_path / "stages.json"
        args = ["trace", "-n", "4", "-l", "30",
                "-o", str(tmp_path / "t.json")]
        assert main(args + ["--json", str(report)]) == 0
        peak = json.loads(report.read_text())["peak_rss_mib"]
        # ru_maxrss and VmHWM come from the kernel's approximate per-CPU
        # RSS counters, read at different moments: equal within a few %.
        now = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        assert 0 < peak <= 1.05 * now
        assert main(args) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert " wall=" in first and " peak_rss_mib=" in first

    def test_trace_fasta_input_text_output(self, fasta_file, tmp_path,
                                           capsys):
        out = tmp_path / "trace.json"
        rc = main(["trace", str(fasta_file), "-o", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "service.execute" in printed
        assert "chrome trace written to" in printed
        assert out.exists()

    @pytest.mark.parametrize(
        "engine, stage_flags",
        [
            ("sample-align-d", []),
            ("sample-align-d", ["--distance", "full-dp"]),
            ("clustalw", ["--distance", "kmer-fraction",
                          "--distance-backend", "threads"]),
            ("muscle", []),
        ],
    )
    def test_align_and_trace_build_the_same_request(
        self, fasta_file, engine, stage_flags
    ):
        """One request builder: the same engine and stage flags give the
        same request content hash from either command; what ``trace``
        does not carry (``--local-aligner``, ``--backend``) takes
        ``SampleAlignDConfig``'s defaults."""
        from repro.cli.run import _align_request

        seqs = list(read_fasta(fasta_file))
        parser = build_parser()
        hashes = []
        for head in (["align", "--seed", "5"], ["trace", "-s", "5"]):
            args = parser.parse_args(
                [*head, str(fasta_file), "--engine", engine, "-p", "2",
                 *stage_flags]
            )
            hashes.append(_align_request(args, engine, seqs).content_hash())
        assert hashes[0] == hashes[1]

    def test_trace_hands_stage_flags_to_the_local_aligners(
        self, tmp_path, capsys
    ):
        """``trace --engine sample-align-d --distance full-dp`` configures
        the per-bucket aligners, as ``align`` does, instead of passing
        ``distance=`` to the engine's constructor."""
        import json

        out = tmp_path / "trace.json"
        rc = main(["trace", "--engine", "sample-align-d", "--distance",
                   "full-dp", "-n", "8", "-l", "40", "-o", str(out)])
        assert rc == 0, capsys.readouterr().err
        names = [e["name"] for e in json.loads(out.read_text())["traceEvents"]]
        assert "dp.pairs" in names

    def test_trace_leaves_tracing_disabled(self, tmp_path):
        from repro.obs.tracing import tracing_enabled

        assert main(["trace", "-n", "4", "-l", "30",
                     "-o", str(tmp_path / "t.json")]) == 0
        assert not tracing_enabled()

    def test_trace_unknown_engine_clean_error(self, tmp_path, capsys):
        rc = main(["trace", "-n", "4", "-l", "30", "--engine", "nope",
                   "-o", str(tmp_path / "t.json")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_loadtest_trace_out(self, tmp_path, capsys):
        import json

        trace = tmp_path / "load.json"
        rc = main(
            ["loadtest", "--requests", "6", "--clients", "2",
             "--pool", "2", "--workers", "2",
             "--trace-out", str(trace)]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "spans written to" in captured.err
        assert "stage breakdown:" in captured.out
        doc = json.loads(trace.read_text())
        assert any(e["name"] == "gateway.compute"
                   for e in doc["traceEvents"])
        from repro.obs.tracing import tracing_enabled

        assert not tracing_enabled()


def _commands():
    import argparse

    return next(
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ).choices


class TestCommandTable:
    COMMANDS = {
        "align", "trace", "generate", "quality",
        "engines", "distances", "trees", "rank",
        "plan", "serve", "loadtest",
    }

    def test_every_module_registers_its_commands(self):
        assert set(_commands()) == self.COMMANDS

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_command_has_a_handler_and_help(self, name, capsys):
        assert callable(_commands()[name].get_default("handler"))
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: repro {name}")

    @pytest.mark.parametrize("argv", [
        ["aligners"], ["model"], ["model", "-n", "500", "-l", "120"],
        ["distances"], ["distances", "--json"], ["trees"],
    ])
    def test_answered_elsewhere_commands_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: repro")

    def test_shared_options_have_one_declaration(self):
        """``--json`` and ``--backend`` are the same action object on
        every command that carries them."""
        for flag, carriers in (
            ("--json", {"align", "trace", "engines", "distances", "trees",
                        "plan", "loadtest"}),
            ("--backend", {"align", "distances", "plan", "serve",
                           "loadtest"}),
        ):
            actions = {
                name: action
                for name, command in _commands().items()
                for action in command._actions
                if flag in action.option_strings
            }
            assert set(actions) == carriers, flag
            assert len({id(a) for a in actions.values()}) == 1, flag

    def test_a_failure_inside_the_run_keeps_its_traceback(self, fasta_file):
        """Only bad input is an rc 2: a ``ValueError`` raised by the
        engine run itself propagates."""
        from repro.engine import register_engine, unregister_engine

        class Broken:
            name = "broken"
            kind = "sequential"

            def run(self, request):
                raise ValueError("engine bug")

        register_engine("broken", lambda **kw: Broken(), overwrite=True)
        try:
            with pytest.raises(ValueError, match="engine bug"):
                main(["align", str(fasta_file), "--engine", "broken"])
        finally:
            unregister_engine("broken")


class TestPlanShapes:
    @pytest.fixture(autouse=True)
    def _stub_calibration(self, monkeypatch):
        from repro.perfmodel import KernelCoefficients
        import repro.perfmodel as pm

        monkeypatch.setattr(
            pm, "calibrate_kernels", lambda: KernelCoefficients()
        )

    def test_shape_json_has_time_and_speedup_columns(self, capsys):
        import json

        assert main(["plan", "-n", "2000", "-l", "300", "--json"]) == 0
        plan = json.loads(capsys.readouterr().out)
        assert plan["input"] is None and plan["n_sequences"] == 2000
        assert set(plan["time_s"]) == set(plan["efficiency"])
        assert plan["speedup"]["1"] == pytest.approx(
            plan["predicted_sequential_s"] / plan["time_s"]["1"]
        )

    def test_file_and_shape_agree(self, tmp_path, capsys):
        import json

        fasta = tmp_path / "even.fasta"
        fasta.write_text("".join(f">s{i}\n{'MKVAW' * 4}\n" for i in range(6)))
        assert main(["plan", str(fasta), "--json"]) == 0
        from_file = json.loads(capsys.readouterr().out)
        assert main(["plan", "-n", "6", "-l", "20", "--json"]) == 0
        from_shape = json.loads(capsys.readouterr().out)
        from_file.pop("input"), from_shape.pop("input")
        assert from_shape == from_file

    @pytest.mark.parametrize("argv, message", [
        (["plan"], "give a FASTA file, or both -n and -l"),
        (["plan", "-n", "100"], "give a FASTA file, or both -n and -l"),
        (["plan", "-n", "100", "-l", "50", "--backend", "threads"],
         "--backend probes a FASTA file's workload"),
        (["plan", "IN", "-n", "100", "-l", "50"],
         "give a FASTA file or -n/-l, not both"),
    ])
    def test_usage_errors(self, fasta_file, argv, message, capsys):
        argv = [str(fasta_file) if a == "IN" else a for a in argv]
        assert main(argv) == 2
        assert f"error: {message}" in capsys.readouterr().err

    def test_empty_fasta_is_a_usage_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.fasta"
        empty.write_text("")
        assert main(["plan", str(empty)]) == 2
        assert "error: no sequences in input" in capsys.readouterr().err


class TestBackendSpelling:
    def test_align_backend_is_an_engine_kwarg(self, fasta_file):
        from repro.cli.run import _align_request

        seqs = list(read_fasta(fasta_file))
        args = build_parser().parse_args(
            ["align", str(fasta_file), "-p", "2", "--backend", "pool"]
        )
        request = _align_request(args, "sample-align-d", seqs)
        assert request.engine_kwargs == {"backend": "pool"}
        assert "backend" not in request.config.to_dict()
        args.backend = None
        assert _align_request(args, "sample-align-d", seqs).engine_kwargs == {}
