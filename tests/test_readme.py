"""The README's library quick start and CLI block run and print what their comments say,
and its list of memo tables is the package's."""

import contextlib
import importlib
import io
import json
import pkgutil
import re
import shlex
from pathlib import Path

import hochschild
from hochschild.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(heading: str, lang: str) -> str:
    text = README.read_text()
    section = text[text.index(heading) :]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_prints_its_documented_results():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_block("## Library quick start", "python"), str(README), "exec"), {})
    assert out.getvalue().splitlines() == ["k^1 + k/2", "False"]


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, (argv, out)
    return out


def test_cli_block_runs_and_prints_its_documented_values(capsys):
    # every `hochschild ...` line that needs no placeholder file runs through
    # cli.main; a comment that is a JSON object or string is a documented value
    variables, ran, checked = {}, [], []
    for line in _block("## CLI", "sh").splitlines():
        command, _, comment = line.partition("  #")
        assignment = re.fullmatch(r"(\w+)=\$\((hochschild .*)\)\s*", command)
        if assignment:
            variables[assignment.group(1)] = _run(capsys, shlex.split(assignment.group(2))[1:]).strip()
            continue
        if not command.startswith("hochschild ") or "path/to/" in command:
            continue
        argv = [variables[a[1:]] if a.startswith("$") else a for a in shlex.split(command)[1:]]
        out = _run(capsys, argv)
        ran.append(argv[0])
        comment = comment.strip()
        if comment[:1] in ("{", '"'):
            doc, expected = json.loads(out), json.loads(comment)
            if isinstance(expected, dict):
                assert expected.items() <= doc.items(), (command, doc)
            else:
                assert expected in doc.values(), (command, doc)
            checked.append(expected)
    assert {"koszul", "bound", "hh", "analyze", "extensions"} <= set(ran)
    assert checked == [{"free_rank": 2, "torsion": []}, "HCdim >= 2; not quasi-free"]


def test_memo_tables_are_the_ones_the_readme_names():
    modules = [info.name for info in pkgutil.iter_modules(hochschild.__path__)]
    tables = set()
    for short in modules:
        module = importlib.import_module(f"hochschild.{short}")
        for name, value in vars(module).items():
            if callable(value) and hasattr(value, "cache_info") and value.__module__ == module.__name__:
                tables.add(f"{short}.{name}")
    text = README.read_text()
    paragraph = text[text.index("All values are immutable") : text.index("## CLI")]
    named = {m.group(0)[1:-1] for m in re.finditer(r"`(\w+)\.\w+`", paragraph) if m.group(1) in modules}
    assert tables == named
    assert len(tables) == 6
