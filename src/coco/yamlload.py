"""PyYAML loading, for the documents `coco.scenario` does not read itself.

Importing PyYAML costs more than reading any plain scenario, so only a
document that `scenario._plain_yaml` declines imports this module.
"""

from __future__ import annotations

import yaml

from coco.errors import ScenarioError


class _Composer(yaml.composer.Composer):
    """PyYAML's composer, rejecting a key repeated in one mapping.

    It checks the keys as written, before `<<` merges apply, so a merged
    key may still be overridden.  Both loaders below compose through it.
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


class _SafeLoader(_Composer, yaml.SafeLoader):
    """`yaml.SafeLoader` that rejects duplicate keys."""


try:
    from yaml.cyaml import CParser
except ImportError:  # PyYAML built without libyaml
    _Loader = _SafeLoader
else:
    class _Loader(_Composer, CParser, yaml.constructor.SafeConstructor,
                  yaml.resolver.Resolver):
        """`_SafeLoader` with libyaml's scanner and parser, about 5x faster.

        PyYAML's own composer builds the node tree, so a deeply nested
        document ends in `RecursionError`, as with the pure-Python loader.
        `yaml.CSafeLoader` composes in C without a depth limit and dies with
        SIGSEGV on a document nested tens of thousands of levels deep.
        """

        def __init__(self, stream):
            CParser.__init__(self, stream)
            yaml.composer.Composer.__init__(self)
            yaml.constructor.SafeConstructor.__init__(self)
            yaml.resolver.Resolver.__init__(self)


def load(text: str, where: str):
    """The document of ``text`` as PyYAML's safe loader builds it; any error
    is a `ScenarioError` prefixed with ``where``."""
    try:
        try:
            return yaml.load(text, Loader=_Loader)
        except yaml.YAMLError:
            # libyaml words its errors differently and drops detail (the
            # offending character): PyYAML's own parser decides every error
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
