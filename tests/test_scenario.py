import json
import tempfile
from pathlib import Path
from unittest import mock

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coco import scenario, yamlload
from coco.calibration import calibrated_capacity_fn, calibrated_profile
from coco.core import Dominance, MachineSpec, SensitivityProfile, SloSpec
from coco.errors import ScenarioError
from coco.profiler import GroundTruthModel, build_profile
from coco.scenario import dump_profiles, load_profile_file, load_scenario
from coco.sim import Policy, WarmupParams

MINIMAL = """\
machine: {llc_ways: 20, clos_count: 4, mba_step: 10}
workloads:
  - name: web
    slo: {percentile: 0.99, latency_bound_ms: 20.0}
    offered_load: 100.0
    profile: {calibration: nginx, sl_full: 1000.0}
"""


def pyyaml_dump(profiles, dumper=yaml.SafeDumper) -> str:
    """A profile file as PyYAML writes it, by default its pure-Python dumper;
    ``profiles`` maps each name to (profile, sl_full)."""
    entries = [{"workload": name,
                "sl_full": float(sl_full),
                "way_levels": list(p.way_levels),
                "mba_levels": list(p.mba_levels),
                "slowdowns": [[float(x) for x in row] for row in p.slowdowns]}
               for name, (p, sl_full) in sorted(profiles.items())]
    return yaml.dump({"profiles": entries}, Dumper=dumper, sort_keys=False)


# names PyYAML must quote, escape or fold, plain ones, names near the plain
# rule, and any text
PROFILE_NAMES = st.sampled_from(
    ["web", "yes", "null", "123", "1.5", "a: b", "- x", "#x", "caf\u00e9 \u6f22\u5b57",
     "tab\there", "a model name with spaces, long enough to pass eighty columns " * 2,
     "model-nginx-03", "a.b_c-", "_", "NULL", "On", "y", "e5"]
) | st.from_regex(r"[A-Za-z0-9_.+~ -]{1,8}", fullmatch=True) | st.text(min_size=1, max_size=100)
# slowdowns: integers, floats whose repr has an exponent, and any finite float >= 1
SLOWDOWNS = st.sampled_from([1, 2, 7, 1.5, 1e16, 1e22, 1.0000001, 3e300]) | st.floats(1.0, 1e300)


@st.composite
def profiles(draw):
    """A valid profile and sl_full: each cell the larger of its row's and its
    column's descending value, so the grid is monotone and 1 at the full corner."""
    ways = sorted(draw(st.sets(st.integers(1, 10**6), min_size=1, max_size=4)))
    mbas = sorted(draw(st.sets(st.integers(1, 99), max_size=3))) + [100]
    row = sorted(draw(st.lists(SLOWDOWNS, min_size=len(ways) - 1, max_size=len(ways) - 1)),
                 reverse=True) + [1]
    col = sorted(draw(st.lists(SLOWDOWNS, min_size=len(mbas) - 1, max_size=len(mbas) - 1)),
                 reverse=True) + [1]
    grid = tuple(tuple(max(a, b) for b in col) for a in row)
    sl_full = draw(st.sampled_from([1, 1e16, 1e-5, 5e-324, 120000.0, 1.7e308])
                   | st.floats(1e-300, 1e300))
    return SensitivityProfile(tuple(ways), tuple(mbas), grid), sl_full


FLAT = SensitivityProfile((1, 20), (50, 100), ((1.0, 1.0), (1.0, 1.0))), 1.0


# the second workload merges the first one's keys and overrides two
MERGED = MINIMAL.replace("  - name: web\n", "  - &web\n    name: web\n") + """\
  - <<: *web
    name: web-2
    offered_load: 250.0
"""


def overload_profiles():
    """The overload benchmark's models: three applications on a 20 x 50 grid."""
    machine = MachineSpec(llc_ways=20, clos_count=16, mba_step=2)
    profiles = {}
    for app, slo_ms, full in (("memcached", 1.5, 152353.6), ("nginx", 20.0, 61234.5),
                              ("mongodb", 15.0, 41745.2)):
        model = GroundTruthModel(slo_ms / 10, 2.0, calibrated_capacity_fn(app, full))
        profiles[f"model-{app}"] = build_profile(model, machine, SloSpec(0.99, slo_ms))
    return profiles


# implicitly typed scalars of every kind PyYAML resolves, strings that look
# like them, texts equal once built (1, 0x1, 1.0, true), and plain texts a
# flow collection cannot hold
SCALAR_TEXTS = ["0x1f", "0o17", "0b_", "1:30", "1:30.5", "+1_000", "-0", "1", "0x1", "1.0",
                "-0.0", "3.", ".inf", "-.Inf", ".nan", ".NaN", "1e400", "1.0e+400", "yes", "No",
                "on", "true", "~", "null", "", "2001-12-14", "2001-12-14 21:59:43.10 -5", "=",
                "<<", "web", "a b", "caf\u00e9", "x: y", "- z", "#c", "a,b"]
PROPERTIES = ["&a", "&b", "!!str", "!!int", "!!float", "!!map", "!!seq", "!", "!local",
              "!!binary", "!!timestamp"]


def yaml_text(node, indent=0, flow=False) -> str:
    """``node`` as YAML: inline, or block lines each after a newline."""
    kind, *rest = node
    if kind == "scalar":
        text, style = rest
        return {"": text, "'": "'" + text.replace("'", "''") + "'", '"': json.dumps(text)}[style]
    if kind == "alias":
        return "*" + rest[0]
    if kind == "property":  # an anchor or a tag
        return rest[0] + " " + yaml_text(rest[1], indent, flow)
    items, flow = rest[0], flow or rest[1] or not rest[0]
    if kind == "seq":
        if flow:
            return "[" + ", ".join(yaml_text(x, flow=True) for x in items) + "]"
        return "".join(f"\n{' ' * indent}- {yaml_text(x, indent + 2)}" for x in items)
    pairs = [(yaml_text(k, flow=True), yaml_text(v, indent + 2, flow)) for k, v in items]
    if flow:
        return "{" + ", ".join(f"{k}: {v}" for k, v in pairs) + "}"
    return "".join(f"\n{' ' * indent}{k}: {v}" for k, v in pairs)


@st.composite
def yaml_documents(draw):
    """A YAML text of nested block and flow collections; in half of them, also
    anchors, aliases, ``<<`` merges, tags, a second document or deep nesting."""
    extras = draw(st.booleans())
    scalars = st.tuples(st.just("scalar"), st.sampled_from(SCALAR_TEXTS),
                        st.sampled_from(["", "'", '"']))
    keys = scalars | st.tuples(st.just("scalar"), st.from_regex(r"[a-z][a-z0-9_]{0,6}",
                                                                fullmatch=True), st.just(""))
    aliases = st.tuples(st.just("alias"), st.sampled_from(["a", "b"]))
    merge = st.tuples(st.just(("scalar", "<<", "")), aliases)

    def collections(children):
        entries = st.tuples(keys | children, children) | (merge if extras else st.nothing())
        nodes = (st.tuples(st.just("seq"), st.lists(children, max_size=4), st.booleans())
                 | st.tuples(st.just("map"), st.lists(entries, max_size=4), st.booleans()))
        if extras:
            nodes |= st.tuples(st.just("property"), st.sampled_from(PROPERTIES), children)
        return nodes

    values = st.recursive(scalars | aliases if extras else scalars, collections, max_leaves=12)
    text = yaml_text(("map", draw(st.lists(st.tuples(keys, values), min_size=1, max_size=5)),
                      False)).lstrip("\n") + "\n"
    if extras:
        depth = draw(st.sampled_from([0, 100, 101, 600]))
        text += f"deep: {'[' * depth}{']' * depth}\n" if depth else ""
        text += draw(st.sampled_from(["", "...\n", "---\nb: 1\n", "--- 1\n"]))
    return text


# tokens and keys the plain reader reads, then near misses it leaves to PyYAML
PLAIN_TOKENS = ["0", "-0", "+7", "12", "-170", "1.5", "3.", "-0.0", "+2.50", "1.0e+5", "2.5E-3",
                "1.0e+400", "00.5", "web", "a.b-c", "x+y", "_", "_1", "true", "False", "ON", "off",
                "null", "NULL", "No"]
NEAR_TOKENS = ["1e5", "1.0e5", "0x1f", "012", "1_000", ".5", ".inf", "-", "+", "+x", "1.2.3",
               "2001-12-14", "~", "1:30", "a b", "'q'", '"q"', "=", "<<", "a#b", "x:y", "&a x",
               "!!str x", "*a", "|", ">", "?", "%", "@", "[a", "caf\u00e9", "a\tb", "---", "..."]
PLAIN_KEYS = ["a", "b", "c", "sl_full", "_x", "k9", "Yes_", 1024]  # n: a key n letters long
NEAR_KEYS = ["yes", "No", "ON", "null", "Null", "off", "a-b", "1", "'a'", "a b", 1025]


def key_text(key) -> str:
    return "k" * key if isinstance(key, int) else key


@st.composite
def plain_documents(draw):
    """A YAML text mostly of the forms `_plain_yaml` reads: block mappings with
    nested, indentless and compact sequences, one-line flow collections, and
    comments, at varied indent widths; in a quarter of them, some tokens,
    keys or comments miss, and a line may move."""
    miss = draw(st.integers(0, 3)) == 0
    tokens = st.sampled_from(PLAIN_TOKENS * 3 + NEAR_TOKENS if miss else PLAIN_TOKENS)
    keys = st.sampled_from(PLAIN_KEYS + NEAR_KEYS if miss else PLAIN_KEYS).map(key_text)
    unique = None if miss else (lambda pair: pair[0])  # keys repeat only in a miss
    flows = (st.lists(tokens, max_size=3).map(lambda ts: "[" + ", ".join(ts) + "]")
             | st.lists(st.tuples(keys, tokens), max_size=3, unique_by=unique).map(
                 lambda ps: "{" + ", ".join(f"{k}: {v}" for k, v in ps) + "}"))
    # a collection: its entries, the indent of its nested blocks, and whether
    # a nested sequence is indentless (after `key:`) or compact (after `-`)
    layout = st.tuples(st.integers(1, 4), st.booleans())
    nodes = st.recursive(
        tokens | flows | st.just(""),
        lambda children: (
            st.tuples(st.just("seq"), st.lists(children, min_size=1, max_size=4), layout)
            | st.tuples(st.just("map"), st.lists(st.tuples(keys, children), min_size=1,
                                                 max_size=4, unique_by=unique), layout)),
        max_leaves=8)

    def block(node, indent) -> list[str]:
        """``node``'s lines at column ``indent``."""
        kind, items, (step, short) = node
        lines = []
        for key, value in items if kind == "map" else (("-", item) for item in items):
            head = " " * indent + (key + ":" if kind == "map" else "-")
            if isinstance(value, str):
                lines.append(f"{head} {value}".rstrip())
            elif kind == "seq" and short:  # `- - x` or `- key: x`
                inner = block(value, indent + step)
                lines += [head + inner[0][len(head):], *inner[1:]]
            else:  # a sequence after `key:` may be indentless
                lines += [head, *block(value, indent + (0 if short and value[0] == "seq"
                                                        else step))]
        return lines

    top = draw(st.lists(st.tuples(keys, nodes), min_size=1, max_size=4, unique_by=unique))
    lines = block(("map", top, (2, False)), draw(st.sampled_from([0, 0, 0, 2])))
    after = [" # note", "  #"] + (["#x"] if miss else [])  # after a line's content
    for at, comment in draw(st.lists(st.tuples(st.integers(0, len(lines) - 1), st.sampled_from(
            ["", "  ", "# note", "    # note: [x]"] + after)), max_size=3)):
        if comment in after:
            lines[at] += comment
        else:
            lines.insert(at, comment)
    if miss and draw(st.booleans()):  # a line moved left or right
        at = draw(st.integers(0, len(lines) - 1))
        lines[at] = " " * draw(st.integers(0, 3)) + lines[at].lstrip(" ")
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\n\n"]))


def nested_blocks(depth: int) -> str:
    """A mapping nested ``depth`` levels deep in block style."""
    return "".join(f"{'  ' * i}a:\n" for i in range(depth))


def load_outcome(path: Path) -> str:
    """``_load_yaml``'s value or error, as text: NaN equals NaN."""
    try:
        return repr(scenario._load_yaml(path))
    except ScenarioError as e:
        return f"ScenarioError: {e}"


def assert_same_as_yaml_load(path: Path) -> str:
    """``_load_yaml``'s outcome, which must not change when ``_plain_yaml``
    declines every document."""
    built = load_outcome(path)
    with mock.patch.object(yamlload, "_plain_yaml", lambda text: None):
        assert load_outcome(path) == built
    return built


def assert_read_as_yaml_load_reads_it(text):
    """What ``_plain_yaml`` builds, PyYAML's safe loader builds the same, of
    the same types; a text it declines may hold anything."""
    doc = yamlload._plain_yaml(text)
    if doc is not None:
        assert repr(doc) == repr(yaml.load(text, Loader=yamlload._safe_loader())), text


def assert_loads_back(text, profiles):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "profiles.yaml"
        path.write_text(text)
        for name, (profile, sl_full) in profiles.items():
            assert scenario._profile_entry(path, name, {}) == (profile, sl_full)
            assert load_profile_file(path, name) == profile


def write(tmp_path, text, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadScenario:
    def test_reference_loads(self, reference_path):
        loaded = load_scenario(reference_path)
        assert len(loaded.workloads) == 6
        assert loaded.policies[0] is Policy.COCO
        assert loaded.sim_params["seed"] == 42
        scenario = loaded.scenario()
        assert scenario.interference_alpha == 5.0

    def test_minimal(self, tmp_path):
        loaded = load_scenario(write(tmp_path, MINIMAL))
        w = loaded.workloads[0].spec
        assert w.name == "web"
        assert w.dominance is Dominance.LLC_DOMINANT
        assert loaded.scenario().policy is Policy.COCO

    def test_unknown_key_rejected(self, tmp_path):
        text = MINIMAL + "unknown_section: 1\n"
        with pytest.raises(ScenarioError, match="unknown keys"):
            load_scenario(write(tmp_path, text))

    def test_unknown_workload_key_rejected(self, tmp_path):
        text = MINIMAL.replace("offered_load: 100.0",
                               "offered_load: 100.0\n    surprise: true")
        with pytest.raises(ScenarioError, match="unknown keys"):
            load_scenario(write(tmp_path, text))

    def test_invalid_yaml_names_line(self, tmp_path):
        path = write(tmp_path, "machine: {llc_ways: 20\nworkloads: []\n")
        with pytest.raises(ScenarioError, match=r"line \d+"):
            load_scenario(path)

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_bytes(MINIMAL.encode() + b"# \xff\xfe\n")
        with pytest.raises(ScenarioError, match="can't decode"):
            load_scenario(path)

    def test_deeply_nested_yaml_rejected(self, tmp_path):
        path = write(tmp_path, "machine: " + "[" * 5000 + "]" * 5000 + "\n")
        with pytest.raises(ScenarioError, match="nested too deeply"):
            load_scenario(path)

    def test_unknown_keys_of_mixed_types_listed(self, tmp_path):
        text = MINIMAL.replace("mba_step: 10", "mba_step: 10, 5: 1, x: 2")
        with pytest.raises(ScenarioError, match=r"unknown keys \[5, 'x'\]"):
            load_scenario(write(tmp_path, text))

    @pytest.mark.parametrize("old, new, message", [
        ("llc_ways: 20, ", "", "machine: missing llc_ways"),
        ("percentile: 0.99, ", "", r"workloads\[0\]\.slo: missing percentile"),
        ("- name: web\n    slo", "- slo", r"workloads\[0\]: missing name"),
        ("offered_load: 100.0", "offered_load: 100.0\n    dominance: high",
         r"workloads\[0\]\.dominance: unknown dominance 'high'"),
        ("sl_full: 1000.0}\n", "sl_full: 1000.0}\nsim: {policy: 0}\n",
         r"sim\.policy: expected a nonempty string"),
        ("profile: {calibration: nginx, sl_full: 1000.0}",
         "model: {base_latency_ms: 1.0, capacity: {calibration: nginx, "
         "grid: {way_levels: [1, 20], mba_levels: [10, 100], "
         "values: [[1.0, 2.0], [3.0, 4.0]]}}}",
         r"model\.capacity: exactly one of calibration/grid required"),
    ])
    def test_field_errors_name_their_path(self, tmp_path, old, new, message):
        with pytest.raises(ScenarioError, match=message):
            load_scenario(write(tmp_path, MINIMAL.replace(old, new)))

    def test_absent_keys_take_value_type_defaults(self, tmp_path):
        loaded = load_scenario(write(tmp_path, MINIMAL + "sim: {warmup: {window: 3}}\n"))
        assert loaded.sim_params == {"policy": Policy.COCO,
                                     "warmup": WarmupParams(window=3)}
        assert loaded.scenario().warmup.factor == 1.15

    def test_clos_mask_and_width_exclusive(self, tmp_path):
        text = MINIMAL.replace("clos_count: 4", "clos_count: 2") + (
            "clos_set:\n"
            "  configs:\n"
            "    - {id: 0, width: 17, mask: 0x1ffff, mba_percent: 50}\n"
            "    - {id: 1, width: 3, mba_percent: 50}\n")
        with pytest.raises(ScenarioError, match="exactly one of mask/width"):
            load_scenario(write(tmp_path, text))

    def test_profile_and_model_exclusive(self, tmp_path):
        text = MINIMAL.replace(
            "profile: {calibration: nginx, sl_full: 1000.0}",
            "profile: {calibration: nginx, sl_full: 1000.0}\n"
            "    model: {base_latency_ms: 1.0, tail_inflation: 1.0, "
            "capacity: {calibration: nginx, full: 1000.0}}")
        with pytest.raises(ScenarioError, match="exactly one of profile/model"):
            load_scenario(write(tmp_path, text))

    def test_unknown_calibration_app(self, tmp_path):
        text = MINIMAL.replace("calibration: nginx", "calibration: redis")
        with pytest.raises(ScenarioError, match="unknown calibration"):
            load_scenario(write(tmp_path, text))

    def test_model_workload_profiled_at_load(self, tmp_path):
        text = MINIMAL.replace(
            "profile: {calibration: nginx, sl_full: 1000.0}",
            "model: {base_latency_ms: 1.0, tail_inflation: 2.0, "
            "capacity: {calibration: nginx, full: 1000.0}}")
        loaded = load_scenario(write(tmp_path, text))
        lw = loaded.workloads[0]
        assert lw.model is not None
        assert lw.spec.profile.way_levels == tuple(range(1, 21))

    def test_dominance_override(self, tmp_path):
        text = MINIMAL.replace("offered_load: 100.0",
                               "offered_load: 100.0\n    dominance: balanced")
        loaded = load_scenario(write(tmp_path, text))
        assert loaded.workloads[0].spec.dominance is Dominance.BALANCED

    def test_clos_override_by_width(self, tmp_path):
        text = MINIMAL + (
            "clos_set:\n"
            "  reserved_id: 0\n"
            "  configs:\n"
            "    - {id: 0, width: 17, mba_percent: 50}\n"
            "    - {id: 1, width: 3, mba_percent: 50}\n"
        )
        text = text.replace("clos_count: 4", "clos_count: 2")
        loaded = load_scenario(write(tmp_path, text))
        assert loaded.clos_set.by_id(1).mask == 0b111 << 17
        assert loaded.clos_set.by_id(0).mask == (1 << 17) - 1

    def test_clos_override_mixing_width_and_mask(self, tmp_path):
        text = MINIMAL.replace("clos_count: 4", "clos_count: 3") + (
            "clos_set:\n"
            "  configs:\n"
            "    - {id: 0, width: 2, mba_percent: 20}\n"
            "    - {id: 1, mask: \"ffff0\", mba_percent: 50}\n"
            "    - {id: 2, width: 2, mba_percent: 30}\n")
        clos_set = load_scenario(write(tmp_path, text)).clos_set
        assert [c.mask for c in clos_set.configs] == [0b11, 0xffff0, 0b1100]

    def test_invalid_clos_override_rejected(self, tmp_path):
        text = MINIMAL + (
            "clos_set:\n"
            "  configs:\n"
            "    - {id: 0, mask: 0x3, mba_percent: 50}\n"
            "    - {id: 1, mask: 0x6, mba_percent: 50}\n"  # overlaps bit 1
        )
        text = text.replace("clos_count: 4", "clos_count: 2")
        with pytest.raises(ScenarioError, match="overlap"):
            load_scenario(write(tmp_path, text))


class TestOneGridPerSource:
    """A profile source's grid is checked once and shared by its workloads."""

    @pytest.mark.parametrize("name, models", [("overload-101", 6), ("fleet-101", 0)])
    def test_one_check_per_grid(self, name, models, monkeypatch):
        path = Path(__file__).parent / "data" / f"{name}.yaml"
        checks = []
        check = SensitivityProfile.__init__

        def counted(self, *args):
            checks.append(args)
            check(self, *args)

        monkeypatch.setattr(SensitivityProfile, "__init__", counted)
        loaded = load_scenario(path)
        # the calibrations' grids were built once, when coco.calibration loaded
        assert len(checks) == models == sum(w.model is not None for w in loaded.workloads)
        doc = yaml.safe_load(path.read_text())["workloads"]
        for w, entry in zip(loaded.workloads, doc):
            if "profile" in entry:
                assert w.spec.profile is calibrated_profile(entry["profile"]["calibration"])
                assert w.spec.sl_full == entry["profile"]["sl_full"]
        assert len({id(w.spec.profile) for w in loaded.workloads}) == models + 3

    def test_one_parse_per_profile_file(self, tmp_path, machine20, monkeypatch):
        model = GroundTruthModel(1.0, 2.0, calibrated_capacity_fn("nginx", 1000.0))
        (tmp_path / "profiles.yaml").write_text(dump_profiles(
            {"web": build_profile(model, machine20, SloSpec(0.99, 20.0)),
             "db": (FLAT[0], 5.0)}))
        text = MINIMAL.replace("profile: {calibration: nginx, sl_full: 1000.0}",
                               "profile: {file: profiles.yaml}") + "".join(
            f"  - {{name: {name}, slo: {{percentile: 0.99, latency_bound_ms: 20.0}}, "
            f"profile: {{file: profiles.yaml, workload: {entry}}}}}\n"
            for name, entry in (("web-2", "web"), ("db", "db"), ("db-2", "db")))
        parsed = []
        load_yaml = scenario._load_yaml
        monkeypatch.setattr(scenario, "_load_yaml", lambda path: parsed.append(path)
                            or load_yaml(path))
        specs = [w.spec for w in load_scenario(write(tmp_path, text)).workloads]
        assert [s.name for s in specs] == ["web", "web-2", "db", "db-2"]
        assert len(parsed) == 2  # the scenario, then the profile file once
        web, web2, db, db2 = specs
        assert web.profile is web2.profile and db.profile is db2.profile
        assert web.profile is not db.profile and (db.sl_full, db2.sl_full) == (5.0, 5.0)


class TestProfileFiles:
    def test_round_trip(self, tmp_path, machine20):
        from coco.calibration import calibrated_capacity_fn
        from coco.core import SloSpec
        from coco.profiler import GroundTruthModel
        model = GroundTruthModel(1.0, 2.0, calibrated_capacity_fn("nginx", 1000.0))
        profile, sl_full = build_profile(model, machine20, SloSpec(0.99, 20.0))
        path = tmp_path / "profiles.yaml"
        path.write_text(dump_profiles({"web": (profile, sl_full)}))
        assert load_profile_file(path, "web") == profile
        assert scenario._profile_entry(path, "web", {}) == (profile, sl_full)

    def test_missing_workload(self, tmp_path):
        path = tmp_path / "profiles.yaml"
        path.write_text("profiles: []\n")
        with pytest.raises(ScenarioError, match="no profile for workload"):
            load_profile_file(path, "web")

    def test_workload_named_twice(self, tmp_path):
        first, second = (dump_profiles({"a": (calibrated_profile(app), sl_full)})
                         for app, sl_full in (("nginx", 1000.0), ("mongodb", 500.0)))
        path = write(tmp_path, first + second.removeprefix("profiles:\n"), "profiles.yaml")
        with pytest.raises(ScenarioError) as e:
            load_profile_file(path, "a")
        assert str(e.value) == f"{path}: profiles[1]: workload 'a' named twice"

    def test_a_workload_that_is_not_a_string_names_no_entry(self, tmp_path):
        path = write(tmp_path, "profiles:\n- {workload: [a]}\n- {workload: [a]}\n"
                               "- {workload: {b: 1}}\n", "profiles.yaml")
        with pytest.raises(ScenarioError, match="no profile for workload 'a'"):
            load_profile_file(path, "a")

    def test_scenario_ingests_profile_file(self, tmp_path, machine20):
        from coco.calibration import calibrated_capacity_fn
        from coco.core import SloSpec
        from coco.profiler import GroundTruthModel
        model = GroundTruthModel(1.0, 2.0, calibrated_capacity_fn("nginx", 1000.0))
        profile, sl_full = build_profile(model, machine20, SloSpec(0.99, 20.0))
        (tmp_path / "profiles.yaml").write_text(dump_profiles({"web": (profile, sl_full)}))
        text = MINIMAL.replace("profile: {calibration: nginx, sl_full: 1000.0}",
                               "profile: {file: profiles.yaml}")
        spec = load_scenario(write(tmp_path, text)).workloads[0].spec
        assert (spec.profile, spec.sl_full) == (profile, sl_full)


class TestLibyaml:
    """Files read and write the same with or without libyaml: only PyYAML's
    pure-Python loader and dumper are used."""

    def test_pure_python_fallback_gives_equal_results(self, tmp_path, machine20,
                                                       reference_path, monkeypatch):
        model = GroundTruthModel(1.0, 2.0, calibrated_capacity_fn("nginx", 1000.0))
        built = build_profile(model, machine20, SloSpec(0.99, 20.0))
        profiles = tmp_path / "profiles.yaml"
        profiles.write_text(dump_profiles({"web": built, "db": built}))
        path = write(tmp_path, MINIMAL.replace(
            "profile: {calibration: nginx, sl_full: 1000.0}",
            "profile: {file: profiles.yaml}"))

        def load_all():
            return (load_scenario(reference_path), load_scenario(path),
                    load_profile_file(profiles, "db"))

        fast = load_all()
        monkeypatch.setattr(yamlload, "_plain_yaml", lambda text: None)  # PyYAML reads all
        assert load_all() == fast

    def test_loader_rejects_duplicate_keys(self):
        with pytest.raises(yaml.YAMLError, match="duplicate key 'a'"):
            yaml.load("m: {a: 1, b: 2, a: 3}\n", Loader=yamlload._safe_loader())

    def test_merge_keys_still_override(self, tmp_path):
        web, web2 = (w.spec for w in load_scenario(write(tmp_path, MERGED)).workloads)
        assert (web2.name, web2.offered_load) == ("web-2", 250.0)
        assert (web2.slo, web2.profile) == (web.slo, web.profile)

    def test_dump_equals_pure_python_dump(self):
        profiles = overload_profiles()
        assert dump_profiles(profiles) == pyyaml_dump(profiles)

    @settings(max_examples=300, deadline=None)
    # long escaped names, which libyaml folds at other points than PyYAML
    @example(profiles={"a\x1f" * 30: FLAT})
    @example(profiles={"\u00e9" * 50: FLAT})
    # each distinct value is formatted once: values shared by two profiles,
    # an int cell beside its equal float, and an exponent written `1.0e+16`
    @example(profiles={"a": (SensitivityProfile((1, 2), (50, 100), ((2.5, 1.5), (1.5, 1))), 2.5),
                       "b": (SensitivityProfile((1, 2), (50, 100), ((3.0, 2.5), (1.5, 1))), 1.5)})
    @example(profiles={"web": (SensitivityProfile((1, 2), (50, 100), ((1, 1.0), (1.0, 1))), 1)})
    @example(profiles={"web": (SensitivityProfile((1, 2), (100,), ((1e16,), (1.0,))), 1e16)})
    @given(profiles=st.dictionaries(PROFILE_NAMES, profiles(), max_size=3))
    def test_dump_equals_pyyaml_and_loads_back(self, profiles):
        # the same bytes on every install, with or without libyaml
        text = dump_profiles(profiles)
        assert text == pyyaml_dump(profiles)
        assert_loads_back(text, profiles)

    @settings(max_examples=100, deadline=None)
    @given(profiles=st.dictionaries(st.text(min_size=1), profiles(), max_size=3))
    def test_any_name_as_the_whole_file_dumper_writes_it(self, profiles):
        # names of any length come out as in the whole file dumped by PyYAML
        text = dump_profiles(profiles)
        assert text == pyyaml_dump(profiles)
        assert_loads_back(text, profiles)

    @pytest.mark.parametrize("text, message", [
        ("machine: *nope\n", "line 1: invalid YAML: found undefined alias 'nope'"),
        ("machine: @x\n", "line 1: invalid YAML: found character '@' that cannot "
                          "start any token"),
        ("machine:\n  a: 1\n b: 2\n", "line 3: invalid YAML: expected <block end>, "
                                      "but found '<block mapping start>'"),
        # libyaml's parser accepts both: they are refused on every install
        ("policies: [\tcoco, rr]\n", "line 1: invalid YAML: found character '\\t' "
                                     "that cannot start any token"),
        ("a: [x?y]\n", "line 1: invalid YAML: expected ',' or ']', but got '?'"),
    ])
    def test_yaml_errors_keep_pure_python_wording(self, tmp_path, text, message):
        path = write(tmp_path, text)
        with pytest.raises(ScenarioError) as e:
            load_scenario(path)
        assert str(e.value) == f"{path}, {message}"


class TestPlainYaml:
    """Plain documents are read by `_plain_yaml`, and give what PyYAML's
    composer and safe constructor give; every other document goes to them."""

    @settings(max_examples=300, deadline=None)
    # each reason to decline, then texts that are built: 100 levels deep, a
    # tab inside {…}, keys that no dict takes
    # for equal
    @example(text="a: !!str 1\n")
    @example(text="a: ! 1\n")
    @example(text="a: !!int x\n")
    @example(text="a: &x 1\n")
    @example(text="a: &x 1\nb: *x\n")
    @example(text="a: &x {c: 1}\nb: {<<: *x, d: 2}\n")
    @example(text="a: 2001-12-14\n")
    @example(text="a: =\n")
    @example(text="=: 1\n")
    @example(text="[a]: 1\n")
    @example(text="? - x\n: y\n")
    @example(text="a: 1\na: 2\n")
    @example(text="a: 1\n'a': 2\n")
    @example(text="1: a\n0x1: b\n")
    @example(text="1: a\n1.0: b\n")
    @example(text="1: a\ntrue: b\n")
    @example(text=".nan: 1\n.NaN: 2\n")
    @example(text="a: " + "[" * 101 + "]" * 101 + "\n")
    @example(text="a: 1\n---\nb: 2\n")
    @example(text="")
    @example(text="a: [1\n")
    @example(text="a: 0b_\n")
    @example(text="a: " + "[" * 100 + "]" * 100 + "\n")
    @example(text="a: {b: 1,\tc: 2}\n")
    @example(text="1: a\n'1': b\n.nan: c\n")
    @given(text=yaml_documents())
    def test_same_value_or_error_as_yaml_load(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "doc.yaml"
            path.write_text(text, encoding="utf-8")
            assert_same_as_yaml_load(path)

    # outside hypothesis, which raises the recursion limit while a test runs:
    # past about 490 levels PyYAML's composer, and so every load, gives up
    @pytest.mark.parametrize("depth", [100, 101, 300, 600, 900])
    def test_same_nesting_limit_as_yaml_load(self, depth, tmp_path):
        built = assert_same_as_yaml_load(write(tmp_path, f"a: {'[' * depth}{']' * depth}\n"))
        assert built.endswith("invalid YAML: nested too deeply") == (depth >= 600)

    @settings(max_examples=120, deadline=None)
    @example(text=nested_blocks(101))
    @example(text=nested_blocks(600))
    @example(text="a:\n- b: 1\n  c:\n  - 2\n  - - 3\n- [x, 4]\nd: {e: 5.0}\n")
    @example(text="a: 1 # note\nb:\n  # note\n  c: x\n")
    @example(text="a: 1.0e5\n")
    @example(text="a: b#c\n")
    @example(text="a: 1 # \x01\n")  # PyYAML refuses a control character anywhere
    @example(text="a: 1 # \u2028b: 2\n")  # and ends a comment at a Unicode line break
    @example(text="a: 1\n  b\n")
    @example(text="k" * 1024 + ": 1\n")
    @example(text="k" * 1025 + ": 1\n")
    @given(text=plain_documents())
    def test_read_as_yaml_load_reads_it(self, text):
        assert_read_as_yaml_load_reads_it(text)

    @pytest.mark.parametrize("form", ["a: X\n", "a:\n- x\n- X\n", "a: [x, X]\n",
                                      "a: {b: X}\n"])
    def test_each_token_read_as_yaml_load_reads_it(self, form):
        for token in PLAIN_TOKENS + NEAR_TOKENS:
            assert_read_as_yaml_load_reads_it(form.replace("X", token))

    @pytest.mark.parametrize("form", ["X: 1\n", "a:\n  - X: 1\n", "b: 1\nX: 2\n",
                                      "a: {b: 1, X: 2}\n"])
    def test_each_key_read_as_yaml_load_reads_it(self, form):
        for key in PLAIN_KEYS + NEAR_KEYS:
            assert_read_as_yaml_load_reads_it(form.replace("X", key_text(key)))

    # outside hypothesis, as above
    @pytest.mark.parametrize("depth", [100, 101, 600])
    def test_block_nesting_limit(self, depth, tmp_path):
        text = nested_blocks(depth)
        assert (yamlload._plain_yaml(text) is None) == (depth > 100)
        built = assert_same_as_yaml_load(write(tmp_path, text))
        assert built.endswith("invalid YAML: nested too deeply") == (depth >= 600)

    @staticmethod
    def spy(monkeypatch) -> list:
        """The values ``_plain_yaml`` returns from now on, None where it declines."""
        returned, plain_yaml = [], yamlload._plain_yaml
        monkeypatch.setattr(yamlload, "_plain_yaml",
                            lambda text: returned.append(plain_yaml(text)) or returned[-1])
        return returned

    @pytest.mark.parametrize("name", ["reference", "swap-binds", "pairs", "fleet-101",
                                      "overload-101", "profiles"])
    def test_shipped_files_are_built(self, name, reference_path, tmp_path, monkeypatch):
        path = Path(__file__).parent / "data" / f"{name}.yaml"
        if name == "reference":
            path = Path(reference_path)
        elif name == "profiles":
            path = write(tmp_path, dump_profiles(overload_profiles()), "profiles.yaml")
        returned = self.spy(monkeypatch)
        doc = scenario._load_yaml(path)
        assert len(returned) == 1 and returned[0] is doc and isinstance(doc, dict)

    def test_merge_keys_decline(self, tmp_path, monkeypatch):
        returned = self.spy(monkeypatch)
        load_scenario(write(tmp_path, MERGED))
        assert returned == [None]
