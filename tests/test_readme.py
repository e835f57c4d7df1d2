"""README.md against the code: every test it cites exists, and every config
key it names is one ``fedgcf`` reads."""

import ast
import re
from pathlib import Path

from fedgcf.cli import CONFIG_KEYS

ROOT = Path(__file__).resolve().parents[1]
# a cited test, as `tests/<file>.py::<test>`
CITATION = re.compile(r"`(tests/\w+\.py)::(\w+)`")


def readme() -> str:
    return (ROOT / "README.md").read_text(encoding="utf-8")


def sections() -> dict[str, str]:
    """The README's level-2 sections, by title."""
    parts = re.split(r"^## (.+)$", readme(), flags=re.M)
    return dict(zip(parts[1::2], parts[2::2]))


def test_cited_tests_exist():
    cited = CITATION.findall(readme())
    assert cited
    defined: dict[str, set] = {}
    for path, name in cited:
        if path not in defined:
            assert (ROOT / path).is_file(), f"README cites {path}, which does not exist"
            tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
            defined[path] = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        assert name in defined[path], f"README cites {path}::{name}, which {path} does not define"
    for title in ("Library", "Determinism", "Tests"):
        assert CITATION.search(sections()[title]), f"README section {title!r} cites no test"


def test_configuration_names_only_config_keys():
    # each group is a bullet "- group: `key`, `key` (`value` or `value`), ...";
    # an item starts with its key, or with keys joined by "/", where
    # `split_train/val/test` is short for split_train, split_val and split_test
    bullets = re.findall(r"^- [\w ]+: (.*(?:\n  .*)*)", sections()["Configuration"], re.M)
    assert bullets
    named = []
    for bullet in bullets:
        for item in " ".join(bullet.split()).split(", "):
            head = re.match(r"`[^`]+`(?:/`[^`]+`)*", item)
            assert head, f"README Configuration item {item!r} does not start with a key"
            for token in re.findall(r"`([^`]+)`", head.group(0)):
                first, *rest = token.split("/")
                prefix = first.rsplit("_", 1)[0] + "_"
                named += [first, *(prefix + suffix for suffix in rest)]
    assert {"split_test", "kcore_item", "dataset_dir"} <= set(named)
    assert sorted(set(named) - set(CONFIG_KEYS)) == []
