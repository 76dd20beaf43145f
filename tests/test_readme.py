"""README's "Library use" example against the package's exports: every
``md.<name>`` it calls is exported, every name it imports from a module
exists, and every exported name resolves (the bench tracer walks
``moraldrift.__all__``)."""
import importlib
import re
from pathlib import Path

import moraldrift

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
