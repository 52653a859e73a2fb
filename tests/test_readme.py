"""Keep the README honest: its code fences must execute."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_fences(text: str) -> list[str]:
    return re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)


def test_readme_exists_and_mentions_paper():
    text = README.read_text(encoding="utf-8")
    assert "HIERAS" in text
    assert "ICPP 2003" in text


def test_readme_quickstart_executes():
    text = README.read_text(encoding="utf-8")
    fences = python_fences(text)
    assert fences, "README must contain a python quickstart fence"
    namespace: dict = {}
    exec(compile(fences[0], "<README quickstart>", "exec"), namespace)  # noqa: S102
    assert "bundle" in namespace


def test_readme_references_real_files():
    text = README.read_text(encoding="utf-8")
    root = README.parent
    for rel in ("EXPERIMENTS.md", "DESIGN.md"):
        assert rel in text
        assert (root / rel).exists()
    for example in re.findall(r"examples/(\w+)\.py", text):
        assert (root / "examples" / f"{example}.py").exists(), example


# ----------------------------------------------------------------------
# the docs cannot drift from the CLI
# ----------------------------------------------------------------------

ROOT = README.parent
CLI_DOCS = [
    ROOT / "README.md",
    *sorted((ROOT / "docs").glob("*.md")),
    ROOT / "benchmarks" / "README.md",
    ROOT / "EXPERIMENTS.md",
    ROOT / "DESIGN.md",
    ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
]


def cli_invocations(text: str) -> list[list[str]]:
    """Argument words of every ``python -m repro.experiments ...`` in ``text``.

    Invocations may wrap across prose lines; words stop at the first
    token that is not a plain argument (a backtick, ``#``, ``\\``, ``>``).
    """
    found = []
    for match in re.finditer(r"python -m\s+repro\.experiments((?:\s+[\w<>\[\]./,=-]+)*)", text):
        found.append(match.group(1).split())
    return found


def subcommands() -> set[str]:
    from repro.experiments.cli import build_parser

    (action,) = (
        a for a in build_parser()._subparsers._group_actions if a.dest == "command"
    )
    return set(action.choices)


def test_cli_subcommands_are_the_documented_five():
    assert subcommands() == {"list", "run", "sweep", "report", "bench"}


def test_documented_invocations_name_registered_subcommands_and_ids():
    from repro.experiments.figures import EXPERIMENTS

    known = subcommands()
    benches = {e.id for e in EXPERIMENTS.values() if e.document}
    checked = 0
    for doc in CLI_DOCS:
        text = doc.read_text(encoding="utf-8")
        for words in cli_invocations(text):
            if not words:  # the bare entry point, named without a subcommand
                continue
            assert words[0] in known, (doc.name, words)
            checked += 1
            ids = []
            for word in words[1:]:
                if word.startswith("-"):
                    break
                ids.append(word)
            ids = [i for i in ids if not i.startswith(("<", "["))]  # `run <id>` placeholders
            if words[0] == "run":
                assert all(i == "all" or i in EXPERIMENTS for i in ids), (doc.name, words)
            if words[0] == "bench":
                assert all(i in benches for i in ids), (doc.name, words)
        # Shorthand without the interpreter prefix: `bench scale --full`, `run fig3`.
        for command, experiment_id in re.findall(r"`(run|bench) ([a-z][a-z0-9_]*)\b", text):
            valid = benches if command == "bench" else {"all", *EXPERIMENTS}
            assert experiment_id in valid, (doc.name, command, experiment_id)
    assert checked >= 20  # the regex still finds the invocations


def test_ci_bench_matrix_is_the_registry():
    from repro.experiments.figures import EXPERIMENTS

    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
    (ids,) = re.findall(r"^\s+id: \[(.*)\]$", workflow, flags=re.MULTILINE)
    assert sorted(ids.split(", ")) == sorted(
        e.id for e in EXPERIMENTS.values() if e.document
    )
    assert workflow.count("repro.experiments bench ") == 1


def test_ci_figures_job_runs_every_experiment():
    """The ``figures`` job's command parses against the CLI and names ``all``."""
    from repro.experiments.cli import build_parser

    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
    (_, job) = re.split(r"^  figures:$", workflow, flags=re.MULTILINE)
    job = re.split(r"^  \w+:$", job, flags=re.MULTILINE)[0]
    (line,) = (ln for ln in job.splitlines() if "repro.experiments" in ln)
    (words,) = cli_invocations(line)
    args = build_parser().parse_args(words)
    assert (args.command, args.ids, args.full) == ("run", ["all"], False)
