"""PyYAML, for the documents `coco.scenario` does not read or write itself.

Importing PyYAML costs more than reading any plain scenario, so only a
document that `scenario._plain_yaml` declines, or a profile name that
PyYAML must quote, imports this module.  Only PyYAML's pure-Python parser
and emitter are used, so a file reads and writes the same whether or not
PyYAML was built with libyaml.
"""

from __future__ import annotations

import yaml

from coco.errors import ScenarioError


class _SafeLoader(yaml.SafeLoader):
    """`yaml.SafeLoader` that rejects a key repeated in one mapping.

    It checks the keys as written, before `<<` merges apply, so a merged
    key may still be overridden.  The composer is recursive, so a deeply
    nested document ends in `RecursionError`.
    """

    def compose_mapping_node(self, anchor):
        node = super().compose_mapping_node(anchor)
        seen = set()
        for key, _ in node.value:
            if isinstance(key, yaml.ScalarNode) and key.tag != "tag:yaml.org,2002:merge":
                if (key.tag, key.value) in seen:
                    raise yaml.composer.ComposerError(
                        "while composing a mapping", node.start_mark,
                        f"duplicate key {key.value!r}", key.start_mark)
                seen.add((key.tag, key.value))
        return node


def load(text: str, where: str):
    """The document of ``text`` as PyYAML's safe loader builds it; any error
    is a `ScenarioError` prefixed with ``where``."""
    try:
        return yaml.load(text, Loader=_SafeLoader)
    except yaml.YAMLError as e:
        mark = getattr(e, "problem_mark", None)
        line = f", line {mark.line + 1}" if mark else ""
        raise ScenarioError(f"{where}{line}: invalid YAML: {getattr(e, 'problem', e)}") from None
    except RecursionError:
        raise ScenarioError(f"{where}: invalid YAML: nested too deeply") from None
    except (ValueError, LookupError, AttributeError) as e:
        # the safe constructor's own errors on a tag it cannot apply (!!int x)
        raise ScenarioError(f"{where}: invalid YAML: bad tagged value: {e}") from None


def dump(value) -> str:
    """``value`` in PyYAML's block layout, as its pure-Python safe dumper writes it."""
    return yaml.dump(value, Dumper=yaml.SafeDumper, sort_keys=False)
