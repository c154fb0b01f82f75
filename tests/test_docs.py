"""Documentation rot guards: the docs must reference things that exist."""

import argparse
import importlib
import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["README.md", "DESIGN.md", "EXPERIMENTS.md",
                                  "docs/ARCHITECTURE.md", "LICENSE"])
def test_doc_exists_and_is_substantial(name):
    path = ROOT / name
    assert path.exists(), name
    assert len(path.read_text(encoding="utf-8")) > 200


def test_readme_examples_exist():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for script in re.findall(r"`(\w+\.py)`", readme):
        assert (ROOT / "examples" / script).exists(), script


def test_design_modules_importable():
    """Every `repro.x.y` dotted path mentioned in DESIGN.md must import."""
    design = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    modules = set(re.findall(r"`(repro(?:\.\w+)+)`", design))
    assert modules, "DESIGN.md should reference concrete modules"
    for dotted in sorted(modules):
        importlib.import_module(dotted)


def test_experiments_mentions_every_figure():
    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    for artifact in ["Table 1", "Fig. 3", "Fig. 4", "Fig. 5", "Fig. 6",
                     "Fig. 7", "Fig. 8", "Fig. 9", "Fig. 10"]:
        assert artifact in text, artifact


def test_benchmark_files_cover_every_paper_artifact():
    benches = {p.name for p in (ROOT / "benchmarks").glob("test_*.py")}
    for required in ["test_table1.py"] + [f"test_fig{i}.py" for i in
                                          (3, 4, 5, 6, 7, 8, 9, 10)]:
        assert required in benches, required


def test_quickstart_doc_example_runs():
    """The README's quickstart snippet must stay executable."""
    from repro import KTH_SP2, generate_trace, run_portfolio
    from repro.sim.clock import VirtualCostClock

    jobs = generate_trace(KTH_SP2, duration=2 * 3_600.0, seed=42)
    result, scheduler = run_portfolio(
        jobs, cost_clock=VirtualCostClock(0.01), seed=7
    )
    assert result.metrics.avg_bounded_slowdown >= 1.0
    assert isinstance(scheduler.reflection.grouped_ratio(1), dict)


# ---------------------------------------------------------------------------
# CLI flags named in the docs


CLI_DOCS = ["README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/ARCHITECTURE.md",
            ".claude/skills/verify/SKILL.md"]

_FENCE = re.compile(r"^(```|~~~)[^\n]*\n(.*?)^\1[ \t]*$", re.S | re.M)
# An inline code span may wrap across lines, but not across a blank line.
_SPAN = re.compile(r"(?<!`)`([^`\n]+(?:\n[^`\n]+)*)`(?!`)")
_SHELL_OPS = {"|", "||", "&", "&&", ";", ">", ">>", "<", "(", ")"}


def _doc_snippets(text: str):
    """Shell lines of fenced blocks (``\\`` continuations joined), then
    inline code spans (line breaks folded into spaces)."""
    for _, block in _FENCE.findall(text):
        yield from re.sub(r"\\\n", " ", block).splitlines()
    for span in _SPAN.findall(_FENCE.sub("", text)):
        yield span.replace("\n", " ")


def _tokens(snippet: str) -> list[str]:
    snippet = re.sub(r"(^|\s)#.*", "", snippet)  # a shell comment
    lexer = shlex.shlex(snippet, posix=True, punctuation_chars=True)
    lexer.whitespace_split = True
    lexer.commenters = ""
    try:
        return list(lexer)
    except ValueError:  # an unbalanced quote in prose
        return snippet.split()


def _subcommands(parser) -> dict:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def _cli_commands(text: str):
    """Every ``repro <subcommand> …`` in *text*, as its token list after
    ``repro`` (up to the next shell operator)."""
    top = _subcommands(build_parser())
    for snippet in _doc_snippets(text):
        tokens = _tokens(snippet)
        for i, token in enumerate(tokens):
            if token != "repro" or i + 1 == len(tokens):
                continue
            first = tokens[i + 1]
            if not (first.startswith("-")
                    or all(part in top for part in first.split("/"))):
                continue  # prose or Python (``from repro import …``)
            args = []
            for arg in tokens[i + 1:]:
                if arg in _SHELL_OPS:
                    break
                args.append(arg)
            yield args


def _unknown_flags(args: list[str]) -> list[str]:
    """Flags in *args* that the (sub)parser they follow does not define.

    Subcommands are walked as argparse would, so ``service run --socket``
    is checked against ``repro service run``; ``chaos run/soak`` stands
    for both, and a flag must exist on each."""
    parsers, bad = [build_parser()], []
    descending = True
    for arg in args:
        if arg.startswith("-"):
            for flag in re.split(r"[/=]", arg):
                if flag.startswith("--") and flag != "--" and any(
                    flag not in p._option_string_actions for p in parsers
                ):
                    bad.append(flag)
            continue
        choices = [_subcommands(p) for p in parsers]
        if descending and all(choices):
            names = arg.split("/")
            unknown = [n for n in names if any(n not in c for c in choices)]
            if unknown:
                bad.extend(unknown)
                break
            parsers = [c[n] for c in choices for n in names]
        else:
            descending = False  # a positional argument or an option value
    return bad


def test_cli_command_collector():
    text = (
        "Run `repro run --model X\n--seed 7` or `repro trace-report F`.\n"
        "```bash\n"
        "python -m repro service run --socket s \\\n"
        "    --journal-dir j   # --not-a-flag\n"
        "from repro import run_portfolio\n"
        "```\n"
    )
    assert list(_cli_commands(text)) == [
        ["service", "run", "--socket", "s", "--journal-dir", "j"],
        ["run", "--model", "X", "--seed", "7"],
        ["trace-report", "F"],
    ]
    assert _unknown_flags(["run", "--workers", "2"]) == ["--workers"]
    assert _unknown_flags(["run", "--trace-out/--profile/--prom-out"]) == []
    assert _unknown_flags(["campaign", "fig7", "--workers=2"]) == []
    assert _unknown_flags(["service", "loadgen", "--socket", "s"]) == []
    assert _unknown_flags(["service", "run/replay", "--journal-dir", "j"]) == []
    assert _unknown_flags(["service", "run/replay", "--socket", "s"]) == ["--socket"]
    assert _unknown_flags(["chaos", "walk"]) == ["walk"]


def test_docs_name_only_existing_cli_flags():
    """Every ``--flag`` a doc shows after ``repro <subcommand>`` exists."""
    checked, failures = 0, []
    for name in CLI_DOCS:
        text = (ROOT / name).read_text(encoding="utf-8")
        for args in _cli_commands(text):
            checked += 1
            bad = _unknown_flags(args)
            if bad:
                failures.append(f"{name}: repro {' '.join(args)}: {bad}")
    assert not failures, "\n".join(failures)
    assert checked >= 40, f"only {checked} commands found: collector broken?"
