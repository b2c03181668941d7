"""CLI durability commands: scrub, durable, resume, validate_journal."""

import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main

TOOLS = Path(__file__).resolve().parents[2] / "tools"
sys.path.insert(0, str(TOOLS))

import validate_journal  # noqa: E402  (tools/ is not a package)


class TestParser:
    def test_new_subcommands_parse(self):
        parser = build_parser()
        args = parser.parse_args(
            ["durable", "j.jsonl", "--crash-after", "5",
             "--strategy", "direct", "--config", "CFS2"]
        )
        assert args.experiment == "durable"
        assert args.path == "j.jsonl"
        assert args.crash_after == 5
        assert args.strategy == "direct"
        assert args.config == "CFS2"

    @pytest.mark.parametrize("command", ["durable", "resume"])
    def test_journal_path_is_required(self, command):
        with pytest.raises(SystemExit) as excinfo:
            main([command])
        assert excinfo.value.code == 2


class TestScrubCommand:
    def test_scrub_reports_and_heals(self, capsys):
        rc = main(["scrub", "--stripes", "10", "--corrupt", "2",
                   "--seed", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "checked : 10 stripes" in out
        assert "all repaired: yes" in out
        assert "scrub.passes=1" in out
        assert "scrub.findings=2" in out

    def test_scrub_clean_cluster(self, capsys):
        rc = main(["scrub", "--stripes", "6", "--corrupt", "0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "corrupt : 0" in out


class TestDurableCommands:
    def test_crash_then_resume_round_trip(self, tmp_path, capsys):
        journal = str(tmp_path / "journal.jsonl")
        rc = main(["durable", journal, "--seed", "4", "--stripes", "8",
                   "--crash-after", "7"])
        out = capsys.readouterr().out
        assert rc == 3
        assert "coordinator crashed after 7 journal records" in out
        assert f"repro-car resume {journal}" in out

        rc = main(["resume", journal])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verified: yes" in out
        assert "(resumed)" in out

    def test_uninterrupted_durable_run(self, tmp_path, capsys):
        journal = str(tmp_path / "journal.jsonl")
        rc = main(["durable", journal, "--seed", "4", "--stripes", "6"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verified: yes" in out
        assert "0 replayed" in out

    def test_progress_on_durable_and_resume(self, tmp_path, capsys):
        journal = str(tmp_path / "journal.jsonl")
        # Two-stripe windows: record 9 lands after the first commit.
        assert main(["durable", journal, "--seed", "4", "--stripes", "12",
                     "--window", "2", "--crash-after", "9",
                     "--progress"]) == 3
        capsys.readouterr()
        assert main(["resume", journal, "--window", "2",
                     "--progress"]) == 0
        captured = capsys.readouterr()
        assert "stripes/s" in captured.err
        assert "verified: yes" in captured.out
        assert "= 0 replayed" not in captured.out

    def test_crash_during_resume_exits_3(self, tmp_path, capsys):
        journal = str(tmp_path / "journal.jsonl")
        assert main(["durable", journal, "--seed", "4", "--stripes", "8",
                     "--crash-after", "6"]) == 3
        capsys.readouterr()
        assert main(["resume", journal, "--crash-after", "2"]) == 3
        capsys.readouterr()
        assert main(["resume", journal]) == 0
        assert "verified: yes" in capsys.readouterr().out


class TestValidateJournalTool:
    def test_ok_on_complete_journal(self, tmp_path, capsys):
        journal = str(tmp_path / "journal.jsonl")
        main(["durable", journal, "--seed", "4", "--stripes", "6"])
        capsys.readouterr()
        rc = validate_journal.main([journal])
        out = capsys.readouterr().out
        assert rc == 0
        assert "OK" in out and "complete" in out

    def test_ok_on_crashed_journal(self, tmp_path, capsys):
        journal = str(tmp_path / "journal.jsonl")
        main(["durable", journal, "--seed", "4", "--stripes", "8",
              "--crash-after", "7"])
        capsys.readouterr()
        rc = validate_journal.main([journal])
        out = capsys.readouterr().out
        assert rc == 0
        assert "crashed" in out and "pending" in out

    def test_invalid_on_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"seq": 1, "rec": "mystery"}\n{"seq": 2}\n')
        rc = validate_journal.main([str(bad)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "INVALID" in err

    def test_usage_error(self, capsys):
        assert validate_journal.main([]) == 2
        assert "usage" in capsys.readouterr().err
