"""README's examples against the package: every ``md.<name>`` the
"Library use" example calls is exported, every name it imports from a
module exists, every exported name resolves (the bench tracer walks
``moraldrift.__all__``), and every ``moraldrift`` command line parses."""
import importlib
import re
import shlex
from pathlib import Path

import moraldrift
from moraldrift.cli import _HANDLERS, build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_example() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_example_calls_only_exported_names():
    example = library_use_example()
    compile(example, "README.md", "exec")
    used = set(re.findall(r"\bmd\.(\w+)", example))
    assert sorted(used - set(moraldrift.__all__)) == []
    assert {"prediction_matrix", "retrieve_changing"} <= used
    imports = re.findall(r"^from (moraldrift\.\w+) import (.+)$", example, re.M)
    assert imports
    for module, names in imports:
        for name in names.split(","):
            assert hasattr(importlib.import_module(module), name.strip()), (module, name)


def test_every_exported_name_resolves():
    assert len(set(moraldrift.__all__)) == len(moraldrift.__all__)
    assert [name for name in moraldrift.__all__ if not hasattr(moraldrift, name)] == []


def command_line_examples() -> list[list[str]]:
    """The argv of each ``moraldrift`` command in the README's ``sh`` blocks,
    its continuation lines joined."""
    text = README.read_text(encoding="utf-8")
    lines = "".join(re.findall(r"```sh\n(.*?)```", text, re.S)).replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in lines.splitlines()
            if line.startswith("moraldrift ")]


def test_command_line_examples_parse():
    # A renamed or removed flag is a usage error here.
    examples = command_line_examples()
    parser = build_parser()
    assert sorted(parser.parse_args(argv).command for argv in examples) == sorted(_HANDLERS)
