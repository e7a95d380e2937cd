"""coco's YAML: the plain reader, the write rules, and PyYAML for the rest.

`read` reads plain block YAML, which every shipped and benchmark file is,
by itself (`_plain_yaml`), and any other text with PyYAML's pure-Python safe
loader.  `entry_head` and `plain_float` write a profile file in PyYAML's
block layout, and only a name that PyYAML must quote goes through its
dumper.  Importing `yaml` costs more than reading any plain scenario, so
only those two paths do.  libyaml is never used, so a file reads and writes
the same whether or not PyYAML was built with it.
"""

from __future__ import annotations

import re
from functools import cache

from coco.errors import ScenarioError

# YAML 1.1's bool and null words, which PyYAML reads as True, False and None
_WORDS = {**dict.fromkeys(("yes", "Yes", "YES", "true", "True", "TRUE", "on", "On", "ON"), True),
          **dict.fromkeys(("no", "No", "NO", "false", "False", "FALSE", "off", "Off", "OFF"),
                          False),
          **dict.fromkeys(("null", "Null", "NULL"), None)}
_KEY = r"[A-Za-z_][A-Za-z0-9_]{0,1023}"  # PyYAML reads no key over 1,024 characters
# a plain token of a type read here: a word (a string, or a bool or null
# word), a decimal integer, or a float with a dot
_SCALAR = (r"(?:(?P<word>[A-Za-z_][A-Za-z0-9_.+-]*)|(?P<int>[-+]?(?:0|[1-9][0-9]*))"
           r"|(?P<float>[-+]?[0-9]+\.[0-9]*(?:[eE][-+][0-9]+)?))")
# what follows `key:` or `-` on its line: nothing, a token, or a one-line flow
# collection of tokens; then spaces, or a comment after a space
_REST = (rf"(?: +(?:{_SCALAR}|\[(?P<items>[^][{{}}#]*)\]|\{{(?P<pairs>[^][{{}}#]*)\}}))?"
         r"(?: +#.*| *)")
_ENTRY = re.compile(_REST)  # a sequence entry's line after its `-`
_KEYED = re.compile(rf"(?P<key>{_KEY}):{_REST}")  # a mapping entry's line
_FLOW_ITEM = re.compile(rf" *{_SCALAR} *")
_FLOW_PAIR = re.compile(rf" *(?P<key>{_KEY}): +{_SCALAR} *")
_CONTENT = re.compile(r"^( *)([^ #\n].*)", re.MULTILINE)  # a line that is not blank or a comment
_NOT_PLAIN = re.compile(r"[^\n -~]")  # a tab, \r, another control or a non-ASCII character
_DASH = ("-", "- ")  # a line's first two characters where it is a sequence entry


def _scalar(match: re.Match):
    """The value of the token ``match`` ends with, as PyYAML's resolver types it."""
    kind = match.lastgroup
    if kind == "word":
        return _WORDS.get(match["word"], match["word"])
    if kind == "int":
        return int(match["int"])  # ValueError past int's digit limit
    return float(match["float"])


def _flow(items: str | None, pairs: str | None, depth: int):
    """The one-line flow sequence (``items``) or mapping (``pairs``) at ``depth``."""
    if depth >= 100:
        raise ValueError("nested too deeply")
    if items is not None:
        if not items.strip(" "):
            return []
        tokens = [_FLOW_ITEM.fullmatch(item) for item in items.split(",")]
        if None in tokens:
            raise ValueError(items)
        return list(map(_scalar, tokens))
    node = {}
    for pair in pairs.split(",") if pairs.strip(" ") else ():
        match = _FLOW_PAIR.fullmatch(pair)
        if match is None or match["key"] in _WORDS or match["key"] in node:
            raise ValueError(pair)
        node[match["key"]] = _scalar(match)
    return node


class _Reader:
    """Block YAML read one content line at a time: each collection reads the
    lines at its own indent.  A line no collection reads (a scalar's second
    line, a line at a stray indent) ends them all, and the reader with it."""

    def __init__(self, text: str):
        lines = _CONTENT.findall(text)
        self.indents = [len(spaces) for spaces, _ in lines] + [-1]  # -1: the end
        self.lines = [line for _, line in lines] + [""]
        self.pos = 0

    def node(self, depth: int):
        """The block sequence or mapping that starts at the current line."""
        if depth >= 100:  # its entries would lie deeper than 100 levels
            raise ValueError("nested too deeply")
        read = self.sequence if self.lines[self.pos][:2] in _DASH else self.mapping
        return read(self.indents[self.pos], depth)

    def mapping(self, indent: int, depth: int) -> dict:
        node, indents, lines = {}, self.indents, self.lines
        while indents[self.pos] == indent:
            entry = _KEYED.fullmatch(lines[self.pos])
            if entry is None or entry["key"] in _WORDS or entry["key"] in node:
                raise ValueError(lines[self.pos])
            self.pos += 1
            node[entry["key"]] = self.value(entry, indent, depth + 1, True)
        return node

    def sequence(self, indent: int, depth: int) -> list:
        node, indents, lines = [], self.indents, self.lines
        while indents[self.pos] == indent and lines[self.pos][:2] in _DASH:
            line = lines[self.pos]
            entry = _ENTRY.fullmatch(line, 1)
            if entry is None:  # `- - x` or `- key: x`: a collection from here, at its column
                inner = line[1:].lstrip(" ")
                indents[self.pos] += len(line) - len(inner)
                lines[self.pos] = inner
                node.append(self.node(depth + 1))
            else:
                self.pos += 1
                node.append(self.value(entry, indent, depth + 1, False))
        return node

    def value(self, entry: re.Match, indent: int, depth: int, indentless: bool):
        """The value of ``entry``, a line at ``indent``: on the line, on the
        more indented lines below, or null.  After `key:` (``indentless``), a
        sequence may also start at the key's own indent."""
        if entry.lastgroup in ("word", "int", "float"):
            return _scalar(entry)
        if entry.lastgroup in ("items", "pairs"):
            return _flow(entry["items"], entry["pairs"], depth)
        below = self.indents[self.pos]
        if below > indent or (indentless and below == indent
                              and self.lines[self.pos][:2] in _DASH):
            return self.node(depth)
        return None


def _plain_yaml(text: str):
    """The document of ``text`` if it is plain block YAML, else None to leave
    it to PyYAML.  Plain is a mapping of identifier keys (no bool or null
    word, none repeated) whose values are block collections, one-line flow
    collections of tokens, tokens typed as PyYAML types them (null, bool,
    string, decimal int, float with a dot), or nothing; with comments and
    blank lines.  Declined: any other scalar or syntax, a scalar continued on
    a second line, a tab or a character that is not printable ASCII, and
    nesting deeper than 100 levels."""
    if _NOT_PLAIN.search(text):
        return None
    reader = _Reader(text)
    try:
        doc = reader.mapping(reader.indents[0], 0)
    except ValueError:
        return None
    return doc if reader.indents[reader.pos] < 0 else None


@cache
def _safe_loader() -> type:
    """`yaml.SafeLoader`, built on first use, that rejects a repeated mapping key.

    It checks the keys as written, before `<<` merges apply, so a merged
    key may still be overridden.  The composer is recursive, so a deeply
    nested document ends in `RecursionError`.
    """
    import yaml

    class SafeLoader(yaml.SafeLoader):
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

    return SafeLoader


def read(text: str, where: str):
    """The document of ``text``: the plain reader's, or else PyYAML's safe
    loader's; any error is a `ScenarioError` prefixed with ``where``."""
    doc = _plain_yaml(text)
    if doc is not None:
        return doc
    import yaml
    try:
        return yaml.load(text, Loader=_safe_loader())
    except yaml.YAMLError as e:
        mark = getattr(e, "problem_mark", None)
        line = f", line {mark.line + 1}" if mark else ""
        raise ScenarioError(f"{where}{line}: invalid YAML: {getattr(e, 'problem', e)}") from None
    except RecursionError:
        raise ScenarioError(f"{where}: invalid YAML: nested too deeply") from None
    except (ValueError, LookupError, AttributeError) as e:
        # the safe constructor's own errors on a tag it cannot apply (!!int x)
        raise ScenarioError(f"{where}: invalid YAML: bad tagged value: {e}") from None


def plain_float(x) -> str:
    """PyYAML's plain form of a finite float: its repr, `.0` before a bare exponent."""
    text = repr(float(x)).lower()
    return text if "." in text or "e" not in text else text.replace("e", ".0e", 1)


_PLAIN_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_.-]*")  # a name PyYAML writes unquoted


def entry_head(name: str, sl_full: float) -> str:
    """A profile-file entry's first lines, its workload and ``sl_full``, in
    PyYAML's block layout.  A name that PyYAML would quote or escape goes,
    with ``sl_full``, through its pure-Python dumper, as libyaml folds long
    escaped names at other points; any other is written here."""
    if _PLAIN_NAME.fullmatch(name) and name not in _WORDS:
        return f"- workload: {name}\n  sl_full: {plain_float(sl_full)}\n"
    import yaml
    return yaml.dump([{"workload": name, "sl_full": float(sl_full)}], Dumper=yaml.SafeDumper,
                     sort_keys=False)
