import os
import random
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coco import resctrl
from coco.calibration import reference_machine
from coco.cli import main
from coco.closconfig import ClosConfig, default_partition
from coco.errors import ApplyDriftError, SchemataParseError, ValidationError
from coco.resctrl import (ResctrlLayout, apply, parse_schemata,
                          serialize_clos_set, serialize_schemata)

GOLDEN = Path(__file__).parent / "data" / "schemata_default.golden"


def random_config(rng: random.Random) -> ClosConfig:
    width = rng.randint(1, 20)
    shift = rng.randint(0, 20 - width)
    return ClosConfig(rng.randint(0, 3), ((1 << width) - 1) << shift,
                      rng.randint(1, 100))


class TestSerialize:
    def test_three_bit_mask(self):
        cfg = ClosConfig(1, 0b111, 50)
        assert serialize_schemata(cfg, 0) == "L3:0=7\nMB:0=50\n"

    def test_wide_mask(self):
        cfg = ClosConfig(3, 0xFF800, 100)
        assert serialize_schemata(cfg, 0) == "L3:0=ff800\nMB:0=100\n"

    def test_default_partition_clos1(self):
        cs = default_partition(reference_machine())
        assert serialize_schemata(cs.by_id(1), 0) == "L3:0=1c\nMB:0=10\n"

    def test_invalid_config_rejected(self):
        with pytest.raises(ValidationError):
            serialize_schemata(ClosConfig(0, 0, 50))
        with pytest.raises(ValidationError):
            serialize_schemata(ClosConfig(0, 0b101, 50))
        with pytest.raises(ValidationError):
            serialize_schemata(ClosConfig(0, 0b11, 0))


class TestParse:
    def test_inverse_of_serialize(self):
        frag = parse_schemata("L3:0=7\nMB:0=50\n")
        assert frag.mask(0) == 0b111
        assert frag.mba_percent(0) == 50

    def test_zero_mask_rejected(self):
        with pytest.raises(SchemataParseError, match="zero mask"):
            parse_schemata("L3:0=0\nMB:0=50\n")

    def test_unknown_resource_rejected(self):
        with pytest.raises(SchemataParseError, match="unsupported resource L2"):
            parse_schemata("L2:0=f\n")

    def test_whitespace_tolerated(self):
        frag = parse_schemata("  L3:0=1c  \n\n  MB:0=10\n")
        assert frag.mask(0) == 0x1C and frag.mba_percent(0) == 10

    def test_multi_socket_line(self):
        frag = parse_schemata("L3:0=ff;1=f0\nMB:0=40;1=60\n")
        assert frag.mask(1) == 0xF0 and frag.mba_percent(1) == 60

    def test_percent_out_of_range(self):
        with pytest.raises(SchemataParseError, match="out of"):
            parse_schemata("L3:0=f\nMB:0=0\n")
        with pytest.raises(SchemataParseError, match="out of"):
            parse_schemata("L3:0=f\nMB:0=101\n")

    def test_missing_line(self):
        with pytest.raises(SchemataParseError, match="missing MB line"):
            parse_schemata("L3:0=f\n")

    def test_malformed_hex_names_position(self):
        with pytest.raises(SchemataParseError) as exc:
            parse_schemata("L3:0=zz\nMB:0=50\n")
        assert exc.value.line == 1 and exc.value.column >= 4

    def test_uppercase_hex_rejected(self):
        with pytest.raises(SchemataParseError):
            parse_schemata("L3:0=FF\nMB:0=50\n")

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 20), st.integers(0, 10), st.integers(1, 100),
           st.integers(0, 3))
    def test_round_trip(self, width, shift, percent, cache_id):
        cfg = ClosConfig(0, ((1 << width) - 1) << shift, percent)
        frag = parse_schemata(serialize_schemata(cfg, cache_id))
        assert frag.mask(cache_id) == cfg.mask
        assert frag.mba_percent(cache_id) == cfg.mba_percent


class TestGolden:
    def test_default_partition_bytes(self):
        cs = default_partition(reference_machine())
        assert serialize_clos_set(cs) == GOLDEN.read_text()


class TestApply:
    def test_fresh_root_creates_groups(self, tmp_path):
        cs = default_partition(reference_machine())
        layout = ResctrlLayout(tmp_path)
        report = apply(cs, layout)
        assert report.ok and report.rewrites == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == ["clos1", "clos2", "clos3"]
        for cfg in cs.lc_configs():
            gdir = tmp_path / f"clos{cfg.id}"
            assert (gdir / "tasks").exists() and (gdir / "cpus").exists()
            frag = parse_schemata((gdir / "schemata").read_text())
            assert frag.mask(0) == cfg.mask
            assert frag.mba_percent(0) == cfg.mba_percent

    def test_reapply_is_idempotent(self, tmp_path):
        cs = default_partition(reference_machine())
        layout = ResctrlLayout(tmp_path)
        apply(cs, layout)
        second = apply(cs, layout)
        assert second.ok and second.rewrites == 0
        assert all(g.action == "unchanged" for g in second.groups)

    def test_existing_groups_unchanged_or_updated(self, tmp_path):
        # a group left as written is unchanged; one whose schemata differs is
        # rewritten; one without schemata, tasks or cpus gets them; files
        # already there keep their contents
        cs = default_partition(reference_machine())
        apply(cs, ResctrlLayout(tmp_path))
        (tmp_path / "clos1" / "tasks").write_text("4242\n")
        (tmp_path / "clos2" / "schemata").write_text(serialize_schemata(cs.by_id(1)))
        shutil.rmtree(tmp_path / "clos3")
        (tmp_path / "clos3").mkdir()
        report = apply(cs, ResctrlLayout(tmp_path))
        assert report.ok and report.rewrites == 2
        assert [(g.group, g.action) for g in report.groups] == [
            ("clos1", "unchanged"), ("clos2", "updated"), ("clos3", "updated")]
        assert (tmp_path / "clos1" / "tasks").read_text() == "4242\n"
        for cfg in cs.lc_configs():
            gdir = tmp_path / f"clos{cfg.id}"
            assert sorted(p.name for p in gdir.iterdir()) == ["cpus", "schemata", "tasks"]
            assert (gdir / "schemata").read_text() == serialize_schemata(cfg)

    def test_file_in_place_of_a_group_fails_that_group(self, tmp_path):
        cs = default_partition(reference_machine())
        (tmp_path / "clos2").write_text("not a group\n")
        report = apply(cs, ResctrlLayout(tmp_path))
        assert [(g.group, g.action, g.error) for g in report.groups] == [
            ("clos1", "created", None),
            ("clos2", "failed", f"[Errno 20] Not a directory: '{tmp_path / 'clos2' / 'tasks'}'"),
            ("clos3", "created", None)]
        assert (tmp_path / "clos2").read_text() == "not a group\n"  # left in place

    def test_unwritable_root_reports_failures(self, tmp_path):
        cs = default_partition(reference_machine())
        blocked = tmp_path / "blocked"
        blocked.write_text("")  # a file where the root directory should be
        report = apply(cs, ResctrlLayout(blocked))
        assert not report.ok
        assert all(g.action == "failed" for g in report.groups)
        assert blocked.is_file()  # nothing partially created

    def test_failed_write_removes_created_groups(self, tmp_path, monkeypatch):
        # runs as root too: the failure comes from the write, not mode bits
        def refuse(path, content):
            raise OSError(f"{path}: write refused")
        monkeypatch.setattr(resctrl, "_write_schemata", refuse)
        report = apply(default_partition(reference_machine()), ResctrlLayout(tmp_path))
        assert not report.ok
        assert [g.action for g in report.groups] == ["failed"] * 3
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(os.geteuid() == 0, reason="root ignores mode bits")
    def test_read_only_root_reports_failures(self, tmp_path):
        cs = default_partition(reference_machine())
        root = tmp_path / "ro"
        root.mkdir()
        os.chmod(root, 0o555)
        try:
            report = apply(cs, ResctrlLayout(root))
            assert not report.ok
            assert all(g.action == "failed" for g in report.groups)
            assert list(root.iterdir()) == []  # no partial directories
        finally:
            os.chmod(root, 0o755)

    def test_read_back_mismatch_raises_drift(self, tmp_path, monkeypatch, reference_path,
                                              capsys):
        # runs as root too: every group's schemata gets CLOS 1's lines
        clos1 = serialize_schemata(default_partition(reference_machine()).by_id(1))
        write = resctrl._write_schemata
        monkeypatch.setattr(resctrl, "_write_schemata", lambda path, _: write(path, clos1))
        drifted = tmp_path / "api" / "clos2" / "schemata"
        with pytest.raises(ApplyDriftError) as e:
            apply(default_partition(reference_machine()), ResctrlLayout(tmp_path / "api"))
        assert str(e.value) == f"apply drift: {drifted} does not match clos 2"
        assert [(g.group, g.action) for g in e.value.report.groups] == [
            ("clos1", "created"), ("clos2", "created"), ("clos3", "created")]

        # the CLI prints each group's line before the one-line error
        root = tmp_path / "cli"
        assert main(["schemata", str(reference_path), "--apply", "--root", str(root)]) == 2
        assert capsys.readouterr().err == (
            "clos1: created\nclos2: created\nclos3: created\n"
            f"error: apply drift: {root / 'clos2' / 'schemata'} does not match clos 2\n")

    def test_env_root_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RESCTRL_ROOT", str(tmp_path))
        layout = ResctrlLayout.from_env()
        assert layout.root_path == tmp_path

    @pytest.mark.parametrize("root, env", [("", "elsewhere"), (None, "")])
    def test_cli_refuses_empty_root_and_creates_nothing(self, root, env, tmp_path,
                                                        monkeypatch, reference_path,
                                                        capsys):
        # `Path("")` is the current directory: an empty root is never a default
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("RESCTRL_ROOT", env)
        argv = ["schemata", str(reference_path), "--apply"]
        assert main(argv + (["--root", root] if root is not None else [])) == 2
        where = "--root" if root is not None else "RESCTRL_ROOT"
        assert capsys.readouterr() == ("", f"error: {where}: empty resctrl root\n")
        assert list(tmp_path.iterdir()) == []
