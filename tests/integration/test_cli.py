"""Tests for the command-line interface."""

import pytest

from repro.cli import main


@pytest.fixture
def program_file(tmp_path):
    f = tmp_path / "prog.s"
    f.write_text("""
        movi r2, 21
        add r3, r2, r2
        halt
    """)
    return str(f)


@pytest.fixture
def data_program(tmp_path):
    f = tmp_path / "data.s"
    f.write_text("""
        movi r2, 7
        st r2, r1, 0
        ld r3, r1, 0
        halt
    """)
    return str(f)


class TestAsm:
    def test_prints_words(self, program_file, capsys):
        assert main(["asm", program_file]) == 0
        out = capsys.readouterr().out
        assert "0x0000" in out
        assert out.count("0x00") >= 3

    def test_prints_labels(self, tmp_path, capsys):
        f = tmp_path / "l.s"
        f.write_text("start:\n  br start")
        main(["asm", str(f)])
        assert "start = 0x0" in capsys.readouterr().out


class TestDisasm:
    def test_round_trip_view(self, program_file, capsys):
        assert main(["disasm", program_file]) == 0
        out = capsys.readouterr().out
        assert "movi r2, 21" in out
        assert "add r3, r2, r2" in out
        assert "halt" in out


class TestRun:
    def test_runs_and_prints_registers(self, program_file, capsys):
        assert main(["run", program_file]) == 0
        out = capsys.readouterr().out
        assert "halted" in out
        assert "r3 = 42" in out.replace("r3 =", "r3 =") or "r3" in out
        assert "42" in out

    def test_data_segment_flag(self, data_program, capsys):
        assert main(["run", "--data", "4096", data_program]) == 0
        out = capsys.readouterr().out
        assert "read/write segment" in out
        assert "7" in out

    def test_trace_flag(self, program_file, capsys):
        main(["run", "--trace", program_file])
        out = capsys.readouterr().out
        assert "movi r2, 21" in out

    def test_faulting_program_exits_nonzero(self, tmp_path, capsys):
        f = tmp_path / "bad.s"
        f.write_text("ld r2, r1, 0\nhalt")  # r1 is an integer
        assert main(["run", str(f)]) == 1
        assert "fault" in capsys.readouterr().out

    def test_max_cycles(self, tmp_path, capsys):
        f = tmp_path / "loop.s"
        f.write_text("loop:\n  br loop")
        assert main(["run", "--max-cycles", "50", str(f)]) == 1
        assert "max_cycles" in capsys.readouterr().out


class TestIsa:
    def test_lists_all_opcodes(self, capsys):
        assert main(["isa"]) == 0
        out = capsys.readouterr().out
        assert "setptr" in out
        assert "restrict" in out
        assert "fadd" in out


class TestTrace:
    def test_writes_perfetto_loadable_json(self, data_program, tmp_path,
                                           capsys):
        import json

        out = tmp_path / "trace.json"
        assert main(["trace", "--data", "4096", "--out", str(out),
                     data_program]) == 0
        stdout = capsys.readouterr().out
        assert "trace events" in stdout
        trace = json.loads(out.read_text())
        events = trace["traceEvents"]
        assert any(e["name"] == "bundle" for e in events)
        assert any(e.get("args", {}).get("name", "").startswith("cluster")
                   for e in events if e["ph"] == "M")

    def test_text_timeline(self, program_file, capsys):
        assert main(["trace", "--text", "--out", "", program_file]) == 0
        out = capsys.readouterr().out
        assert "bundle" in out
        assert "thread.halt" in out


class TestCounters:
    def run_snapshot(self, program, path, extra=()):
        assert main(["run", "--counters-json", str(path), *extra,
                     program]) == 0

    def test_diff_prints_changed_counters(self, program_file, data_program,
                                          tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self.run_snapshot(program_file, a)
        self.run_snapshot(data_program, b, extra=["--data", "4096"])
        capsys.readouterr()
        assert main(["counters", "--diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "cache.misses" in out
        assert "->" in out

    def test_identical_snapshots_diff_empty(self, program_file, tmp_path,
                                            capsys):
        a = tmp_path / "a.json"
        self.run_snapshot(program_file, a)
        capsys.readouterr()
        assert main(["counters", "--diff", str(a), str(a)]) == 0
        assert "no counter differences" in capsys.readouterr().out

    def test_all_includes_unchanged(self, program_file, tmp_path, capsys):
        a = tmp_path / "a.json"
        self.run_snapshot(program_file, a)
        capsys.readouterr()
        assert main(["counters", "--diff", str(a), str(a), "--all"]) == 0
        assert "chip.cycles" in capsys.readouterr().out


class TestQuickstartTraceAcceptance:
    """The issue's acceptance check: `repro trace` on the quickstart
    workload emits Perfetto-loadable JSON with cluster tracks, and its
    cycle count is bit-identical to an untraced `repro run`."""

    WORKLOAD = """
        movi r2, 8
        movi r3, 0
        mov  r4, r1
        movi r6, 1
    init:
        beq r2, summed
        st r6, r4, 0
        lea r4, r4, 8
        subi r2, r2, 1
        br init
    summed:
        movi r2, 8
        mov r4, r1
    loop:
        beq r2, done
        ld r5, r4, 0
        add r3, r3, r5
        lea r4, r4, 8
        subi r2, r2, 1
        br loop
    done:
        halt
    """

    def cycles_from(self, out):
        import re

        return int(re.search(r"after (\d+) cycles", out).group(1))

    def test_traced_cycles_match_untraced(self, tmp_path, capsys):
        import json

        f = tmp_path / "quickstart.s"
        f.write_text(self.WORKLOAD)
        out = tmp_path / "trace.json"
        assert main(["run", "--data", "4096", str(f)]) == 0
        untraced = self.cycles_from(capsys.readouterr().out)
        assert main(["trace", "--data", "4096", "--out", str(out),
                     str(f)]) == 0
        traced = self.cycles_from(capsys.readouterr().out)
        assert traced == untraced
        trace = json.loads(out.read_text())
        tracks = {e["args"]["name"] for e in trace["traceEvents"]
                  if e["ph"] == "M" and e["name"] == "thread_name"}
        assert any(t.startswith("cluster") for t in tracks)


class TestMissingInputPath:
    """A command whose input path does not exist says so in one line on
    stderr and exits 2 — no traceback."""

    @pytest.mark.parametrize("command", [
        ["asm", "{missing}"],
        ["disasm", "{missing}"],
        ["run", "{missing}"],
        ["trace", "{missing}"],
        ["snapshot", "{missing}", "{out}"],
        ["counters", "--diff", "{missing}", "{missing}"],
        ["restore", "{missing}"],
        ["replay", "{missing}"],
        ["compare", "--trace", "{missing}"],
    ], ids=lambda argv: argv[0])
    def test_reports_and_exits_2(self, command, tmp_path, capsys):
        missing = str(tmp_path / "absent")
        argv = [arg.format(missing=missing, out=tmp_path / "out.snap")
                for arg in command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == (f"repro {command[0]}: cannot read {missing}: "
                       "No such file or directory\n")
        assert not (tmp_path / "out.snap").exists()
