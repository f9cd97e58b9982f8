"""Documentation freshness: generated docs match the code they document."""

import contextlib
import io
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]


def documented_commands() -> list[tuple[str, str]]:
    """``(file, command)`` for every ``python -m repro ...`` line (an
    optional ``$`` prompt allowed) in a fenced block of README.md or
    docs/*.md, with ``\\`` continuations joined."""
    found = []
    for path in [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]:
        fenced = False
        command = None
        for line in path.read_text().splitlines():
            text = line.strip()
            if text.startswith("```"):
                fenced = not fenced
            elif command is not None:
                command += " " + text
            elif fenced and text.removeprefix("$ ").startswith(
                    ("python -m repro ", "python -m repro.cli ")):
                command = text.removeprefix("$ ")
            if command is None:
                continue
            if command.endswith("\\"):
                command = command[:-1]
            else:
                found.append((path.name, command))
                command = None
    return found


class TestGeneratedDocs:
    def test_isa_md_is_current(self, tmp_path):
        """docs/ISA.md must equal what the generator produces now."""
        out = tmp_path / "ISA.md"
        subprocess.run(
            [sys.executable, str(REPO / "tools/generate_isa_md.py"), str(out)],
            check=True, cwd=REPO, capture_output=True)
        committed = (REPO / "docs/ISA.md").read_text()
        assert out.read_text() == committed, \
            "docs/ISA.md is stale — run tools/generate_isa_md.py"

    def test_experiments_md_exists_and_covers_everything(self):
        text = (REPO / "EXPERIMENTS.md").read_text()
        for experiment in [f"E{i} " for i in range(1, 16)]:
            assert f"## {experiment}" in text.replace("—", "- ") or \
                f"## {experiment.strip()} —" in text, f"missing {experiment}"
        for ablation in ("A1", "A2", "A3", "A4", "A5"):
            assert ablation in text


class TestDocumentedCommands:
    def test_every_documented_command_parses(self):
        """Each documented invocation is accepted by the real argument
        parser, ``...`` elisions and trailing ``# ...`` comments
        dropped."""
        from repro.cli import build_parser

        commands = documented_commands()
        assert len(commands) >= 35
        rejected = []
        for name, command in commands:
            argv = [token for token in shlex.split(command, comments=True)
                    if token != "..."][3:]
            try:
                with contextlib.redirect_stderr(io.StringIO()):
                    build_parser().parse_args(argv)
            except SystemExit:
                rejected.append(f"{name}: {command}")
        assert not rejected, rejected


class TestCrossReferences:
    def test_readme_links_resolve(self):
        text = (REPO / "README.md").read_text()
        for path in ("DESIGN.md", "EXPERIMENTS.md", "docs/ISA.md",
                     "docs/TUTORIAL.md"):
            assert path in text
            assert (REPO / path).exists()

    def test_design_bench_targets_exist(self):
        """Every bench file DESIGN.md names must exist."""
        import re
        text = (REPO / "DESIGN.md").read_text()
        for match in re.finditer(r"benchmarks/\w+\.py", text):
            assert (REPO / match.group()).exists(), match.group()

    def test_examples_readme_lists_every_script(self):
        listed = (REPO / "examples/README.md").read_text()
        for script in (REPO / "examples").glob("*.py"):
            assert script.name in listed, f"{script.name} missing from examples/README.md"

    def test_experiment_modules_have_benches(self):
        """Every eNN experiment module has a matching bench file."""
        experiments = (REPO / "src/repro/experiments").glob("e*_*.py")
        benches = {p.name for p in (REPO / "benchmarks").glob("bench_*.py")}
        for module in experiments:
            number = module.stem.split("_")[0]  # e.g. "e13"
            assert any(b.startswith(f"bench_{number}_") for b in benches), \
                f"no bench for {module.name}"
