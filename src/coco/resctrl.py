"""Serialization of CLOS sets in the Linux resctrl schemata text format.

The writer drives a directory tree laid out like resctrl (tests, dry runs)
and writes each schemata file by write-then-rename.  A real resctrl mount
cannot be renamed onto, so it has no write path yet.

Grammar (bit-exact).  The kernel separates a line's domains with ";";
coco writes one domain per line:
    line        := resource ":" assignments "\n"
    resource    := "L3" | "MB"
    assignments := assign (";" assign)*
    assign      := cache_id "=" value
    value       := lowercase hex mask (L3) | decimal integer 1..100 (MB)
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path

from coco.closconfig import ClosConfig, ClosSet
from coco.core import Value, _set
from coco.errors import ApplyDriftError, SchemataParseError, ValidationError

DEFAULT_RESCTRL_ROOT = "/sys/fs/resctrl"
GROUP_FILES = ("schemata", "tasks", "cpus")
_HEX_DIGITS = set("0123456789abcdef")


class SchemataFragment(Value):
    """Parsed schemata content: per-cache-id masks and MBA percentages."""

    __slots__ = ("l3_masks", "mb_percents")

    def __init__(self, l3_masks: dict[int, int], mb_percents: dict[int, int]):
        _set(self, "l3_masks", l3_masks)
        _set(self, "mb_percents", mb_percents)

    def mask(self, cache_id: int = 0) -> int:
        return self.l3_masks[cache_id]

    def mba_percent(self, cache_id: int = 0) -> int:
        return self.mb_percents[cache_id]


class ResctrlLayout(Value):
    """Group-per-CLOS directory layout under a configurable root."""

    __slots__ = ("root_path",)

    def __init__(self, root_path: Path):
        _set(self, "root_path", root_path)

    @classmethod
    def from_env(cls, root: str | None = None) -> "ResctrlLayout":
        """The layout under ``root``, else ``$RESCTRL_ROOT``, else the default.
        An empty path is refused: as a `Path` it is the current directory."""
        where = "--root"
        if root is None:
            where, root = "RESCTRL_ROOT", os.environ.get("RESCTRL_ROOT", DEFAULT_RESCTRL_ROOT)
        if not root:
            raise ValidationError(f"{where}: empty resctrl root")
        return cls(Path(root))

    def group_dir(self, clos_id: int) -> Path:
        return self.root_path / f"clos{clos_id}"


class GroupReport(Value):
    __slots__ = ("group", "action", "error")

    def __init__(self, group: str, action: str,  # created | updated | unchanged | failed
                 error: str | None = None):
        _set(self, "group", group)
        _set(self, "action", action)
        _set(self, "error", error)


class ApplyReport(Value):
    __slots__ = ("groups",)

    def __init__(self, groups: list[GroupReport] | None = None):
        _set(self, "groups", [] if groups is None else groups)

    @property
    def ok(self) -> bool:
        return all(g.action != "failed" for g in self.groups)

    @property
    def rewrites(self) -> int:
        return sum(g.action in ("created", "updated") for g in self.groups)


def serialize_schemata(config: ClosConfig, cache_id: int = 0) -> str:
    """Two newline-terminated lines: the L3 mask, then the MB percentage."""
    if config.mask <= 0:
        raise ValidationError(f"zero mask: clos {config.id}")
    if not config.is_contiguous():
        raise ValidationError(f"non-contiguous mask: clos {config.id}")
    if not 1 <= config.mba_percent <= 100:
        raise ValidationError(f"mba out of range: clos {config.id}")
    if cache_id < 0:
        raise ValidationError("cache_id must be >= 0")
    return f"L3:{cache_id}={config.mask:x}\nMB:{cache_id}={config.mba_percent}\n"


def parse_schemata(text: str) -> SchemataFragment:
    """Inverse of serialize for well-formed input; whitespace-tolerant."""
    l3: dict[int, int] = {}
    mb: dict[int, int] = {}
    lines = text.splitlines()
    for ln, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        col0 = raw.find(stripped[0]) + 1
        head, sep, rest = stripped.partition(":")
        if not sep:
            raise SchemataParseError("expected ':' after resource name", ln, col0)
        resource = head.strip()
        if resource not in ("L3", "MB"):
            raise SchemataParseError(f"unsupported resource {resource}", ln, col0)
        target = l3 if resource == "L3" else mb
        cursor = raw.find(":") + 1
        for part in rest.split(";"):
            token = part.strip()
            col = cursor + (part.find(token) if token else 0) + 1
            cursor += len(part) + 1
            cid_text, eq, value = token.partition("=")
            if not eq or not cid_text.strip() or not value.strip():
                raise SchemataParseError("expected <cache_id>=<value>", ln, col)
            try:
                cid = int(cid_text.strip())
            except ValueError:
                raise SchemataParseError(
                    f"malformed cache id {cid_text.strip()!r}", ln, col) from None
            if cid < 0:
                raise SchemataParseError("cache id must be >= 0", ln, col)
            if cid in target:
                raise SchemataParseError(f"duplicate cache id {cid}", ln, col)
            value = value.strip()
            if resource == "L3":
                if not value or not set(value) <= _HEX_DIGITS:
                    raise SchemataParseError(
                        f"malformed hex mask {value!r}", ln, col)
                mask = int(value, 16)
                if mask == 0:
                    raise SchemataParseError("zero mask", ln, col)
                target[cid] = mask
            else:
                try:
                    percent = int(value)
                except ValueError:
                    raise SchemataParseError(
                        f"malformed percentage {value!r}", ln, col) from None
                if not 1 <= percent <= 100:
                    raise SchemataParseError(
                        f"percent {percent} out of [1, 100]", ln, col)
                target[cid] = percent
    if not l3:
        raise SchemataParseError("missing L3 line", max(len(lines), 1), 1)
    if not mb:
        raise SchemataParseError("missing MB line", max(len(lines), 1), 1)
    return SchemataFragment(l3, mb)


def serialize_clos_set(clos_set: ClosSet, cache_id: int = 0) -> str:
    """All latency-critical groups, id order, '# closN' headers."""
    chunks = []
    for cfg in sorted(clos_set.configs, key=lambda c: c.id):
        if cfg.id == clos_set.reserved_id:
            continue
        chunks.append(f"# clos{cfg.id}\n" + serialize_schemata(cfg, cache_id))
    return "".join(chunks)


def _write_schemata(path: Path, content: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(content)
    os.replace(tmp, path)


def apply(clos_set: ClosSet, layout: ResctrlLayout) -> ApplyReport:
    """Create/update one group directory per LC CLOS; verify by read-back.

    Per-group failures are reported, not raised; a read-back mismatch on a
    group that claimed success raises ApplyDriftError, which carries the
    report.  A group directory
    created by this call is removed again if its writes fail.
    """
    report = ApplyReport()
    verify: list[tuple[Path, ClosConfig]] = []
    for cfg in sorted(clos_set.configs, key=lambda c: c.id):
        if cfg.id == clos_set.reserved_id:
            continue
        gdir = layout.group_dir(cfg.id)
        created_here = False
        try:
            desired = serialize_schemata(cfg)
            if not gdir.exists():
                gdir.mkdir(parents=True)
                created_here = True
            for name in GROUP_FILES[1:]:  # created if missing, in ``Path.touch``'s mode
                try:
                    os.close(os.open(gdir / name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
                except FileExistsError:
                    pass
            schemata = gdir / "schemata"
            try:
                existing = schemata.read_text()
            except FileNotFoundError:
                existing = None
            if existing == desired:
                report.groups.append(GroupReport(gdir.name, "unchanged"))
            else:
                _write_schemata(schemata, desired)
                action = "created" if created_here else "updated"
                report.groups.append(GroupReport(gdir.name, action))
            verify.append((schemata, cfg))
        except OSError as e:
            if created_here:
                shutil.rmtree(gdir, ignore_errors=True)
            report.groups.append(GroupReport(gdir.name, "failed", str(e)))
    for schemata, cfg in verify:
        fragment = parse_schemata(schemata.read_text())
        if fragment.mask() != cfg.mask or fragment.mba_percent() != cfg.mba_percent:
            raise ApplyDriftError(
                f"apply drift: {schemata} does not match clos {cfg.id}", report)
    return report
