"""File schemas: dataset JSONL round trips, CSV layouts, byte reproducibility."""

import contextlib
import csv
import dataclasses
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import EDGE_INTS, dataset_text, mostly, switched_dataset

from eqrc import formats
from eqrc.experiments import (
    BELL_PAIRS,
    ExperimentSpec,
    RunDataset,
    RunGroup,
    run_experiment,
    sort_wigner_sets,
    sweep_angle,
)
from eqrc.formats import (
    dataset_record_lines,
    load_run_dataset,
    write_expectation_csv,
    write_reports_jsonl,
    write_run_dataset,
    write_sweep_csv,
    write_triple_csv,
)
from eqrc.inequalities import bell_check, cyclic_concatenate
from eqrc.model import GaugeKey, MODE_RADEMACHER, PairStream, Setting
from eqrc.stats import build_triple_table
from eqrc.experiments import BELL_SETTINGS

RAD2 = GaugeKey(mode=MODE_RADEMACHER, j=2)


def _spec(n=500, seed=5, switching="fixed"):
    return ExperimentSpec(setting_pairs=BELL_PAIRS, pairs_per_setting=n, seed=seed, key=RAD2, switching=switching)


class TestDatasetJsonl:
    def test_grouped_round_trip(self, tmp_path):
        ds = run_experiment(_spec())
        path = tmp_path / "run.jsonl"
        write_run_dataset(ds, path)
        back = load_run_dataset(path)
        assert back.spec == ds.spec
        assert len(back.groups) == 3
        for g1, g2 in zip(ds.groups, back.groups):
            assert np.array_equal(g1.pair_index, g2.pair_index)
            assert np.array_equal(g1.left, g2.left)
            assert np.array_equal(g1.right, g2.right)
            assert g1.left_setting.close_to(g2.left_setting, 0.0)  # bit-exact floats

    def test_switched_round_trip_then_sort(self, tmp_path):
        ds = run_experiment(_spec(switching="random-switched"))
        path = tmp_path / "switched.jsonl"
        write_run_dataset(ds, path)
        back = load_run_dataset(path)
        assert np.array_equal(back.schedule, ds.schedule)
        sorted_back = sort_wigner_sets(back)
        sorted_orig = sort_wigner_sets(ds)
        for g1, g2 in zip(sorted_orig.groups, sorted_back.groups):
            assert np.array_equal(g1.pair_index, g2.pair_index)
            assert np.array_equal(g1.left, g2.left)
            assert np.array_equal(g1.right, g2.right)

    def test_sorted_back_switched_run_loads_back_as_its_groups(self, tmp_path):
        ds = sort_wigner_sets(run_experiment(_spec(n=3, switching="random-switched")))
        write_run_dataset(ds, tmp_path / "sorted.jsonl")
        back = load_run_dataset(tmp_path / "sorted.jsonl")
        assert (back.schedule, back.spec, back.canonical_pairs, back.meta) == (None, ds.spec, ds.canonical_pairs,
                                                                              ds.meta)
        assert [(g.label, g.left_setting, g.right_setting) for g in back.groups] == [
            (g.label, g.left_setting, g.right_setting) for g in ds.groups]
        for g1, g2 in zip(ds.groups, back.groups, strict=True):
            for name in ("pair_index", "left", "right"):
                assert np.array_equal(getattr(g1, name), getattr(g2, name))
                assert getattr(g1, name).dtype == getattr(g2, name).dtype

    @pytest.mark.parametrize("k", [3, 257])
    def test_switched_ids_load_back_in_the_runs_dtype(self, tmp_path, k):
        pairs = tuple((Setting.from_angle(0.1 * j), Setting.from_angle(0.7 * j + 0.3)) for j in range(k))
        ds = run_experiment(ExperimentSpec(setting_pairs=pairs, pairs_per_setting=3, seed=9, key=RAD2,
                                           switching="random-switched"))
        write_run_dataset(ds, tmp_path / "switched.jsonl")
        back = load_run_dataset(tmp_path / "switched.jsonl").interleaved
        assert ds.schedule.dtype == back.group_ids.dtype == (np.uint8 if k <= 256 else np.uint16)
        for name in ("group_ids", "pair_index", "left", "right"):
            assert np.array_equal(getattr(back, name), getattr(ds.interleaved, name))

    def test_payload_is_reproducible_and_header_isolated(self):
        t1 = dataset_text(run_experiment(_spec()))
        t2 = dataset_text(run_experiment(_spec()))
        lines1, lines2 = t1.splitlines(), t2.splitlines()
        assert lines1[1:] == lines2[1:]  # payload identical
        h1, h2 = json.loads(lines1[0]), json.loads(lines2[0])
        h1["meta"].pop("created"), h2["meta"].pop("created")
        assert h1 == h2  # only wall clock may differ, and only in the header

    def test_record_lines_carry_schema_version_and_no_clock(self):
        ds = run_experiment(_spec(n=3))
        for line in dataset_record_lines(ds):
            rec = json.loads(line)
            assert rec["v"] == 1
            assert set(rec) == {"v", "group", "n", "station", "setting", "outcome"}

    def test_float_fields_round_trip_bitwise(self, tmp_path):
        ds = run_experiment(_spec(n=3))
        path = tmp_path / "rt.jsonl"
        write_run_dataset(ds, path)
        back = load_run_dataset(path)
        for g1, g2 in zip(ds.groups, back.groups):
            assert g1.right_setting.b2 == g2.right_setting.b2
            assert g1.right_setting.b3 == g2.right_setting.b3

    def test_dataset_without_pairs_is_its_header_line_alone(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        write_run_dataset(RunDataset(canonical_pairs=(), groups=()), path)
        assert path.read_text().count("\n") == 1 and list(dataset_record_lines(load_run_dataset(path))) == []
        back = load_run_dataset(path)
        assert (back.canonical_pairs, back.groups, back.schedule, back.spec) == ((), (), None, None)

    def test_load_rejects_wrong_kind(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"v":1,"kind":"something-else"}\n')
        with pytest.raises(ValueError, match="run-dataset"):
            load_run_dataset(path)

    @pytest.mark.parametrize("right", ["[0.0,0.0]", '["1.0","0.0"]', "[true,0.0]", "[1.0]"])
    def test_load_rejects_a_header_without_valid_settings(self, tmp_path, right):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"v":1,"kind":"run-dataset","pairs":[[[1.0,0.0],%s]]}\n' % right)
        with pytest.raises(ValueError, match="line 1: header without valid slots"):
            load_run_dataset(path)

    def test_load_rejects_incomplete_pair(self, tmp_path):
        ds = run_experiment(_spec(n=3))
        lines = dataset_text(ds).splitlines()
        path = tmp_path / "gap.jsonl"
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop the final R record
        with pytest.raises(ValueError, match="incomplete"):
            load_run_dataset(path)

    def test_load_rejects_unknown_group_tag(self, tmp_path):
        ds = run_experiment(_spec(n=3))
        lines = dataset_text(ds).splitlines()
        bad = json.loads(lines[1])
        bad["group"] = "pair9"
        lines[1] = json.dumps(bad, sort_keys=True, separators=(",", ":"))
        path = tmp_path / "tag.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="unknown group"):
            load_run_dataset(path)


def _rewrite(tmp_path, ds, edit):
    """Write ``ds``, pass its record dicts through ``edit`` (returns the new list), save."""
    lines = dataset_text(ds).splitlines()
    records = edit([json.loads(line) for line in lines[1:]])
    path = tmp_path / "edited.jsonl"
    path.write_text("\n".join([lines[0], *(json.dumps(r) for r in records)]) + "\n")
    return path


class TestLoaderRefusals:
    """What the writer never writes is refused, naming the pair or line."""

    def test_any_json_rendering_in_any_order_loads(self, tmp_path):
        ds = run_experiment(_spec(n=50))
        # json.dumps without sort_keys or compact separators, records shuffled
        order = np.random.default_rng(0).permutation(2 * 150)
        back = load_run_dataset(_rewrite(tmp_path, ds, lambda recs: [recs[i] for i in order]))
        for g1, g2 in zip(ds.groups, back.groups):
            assert np.array_equal(g1.pair_index, g2.pair_index)
            assert np.array_equal(g1.left, g2.left) and np.array_equal(g1.right, g2.right)

    def test_switched_file_keeps_first_appearance_order(self, tmp_path):
        ds = run_experiment(_spec(n=50, switching="random-switched"))

        def reorder(recs):
            # Every R ahead of its L, and the first pair's L after the whole
            # second pair: a pair sits where its earlier record is.
            out = [r for i in range(0, len(recs), 2) for r in (recs[i + 1], recs[i])]
            out.insert(3, out.pop(1))
            return out

        back = load_run_dataset(_rewrite(tmp_path, ds, reorder)).interleaved
        for name in ("group_ids", "pair_index", "left", "right"):
            assert np.array_equal(getattr(back, name), getattr(ds.interleaved, name))

    @pytest.mark.parametrize("shape", ["repeated", "interleaved"])
    def test_switched_file_cannot_repeat_a_pair_index_across_groups(self, tmp_path, shape):
        ds = run_experiment(_spec(n=3, switching="random-switched"))  # group g holds pair indices 3g+1 .. 3g+3

        def renumber(recs):
            g_of = {f"pair{g}": g for g in range(3)}
            if shape == "repeated":  # group pair1's indices become pair0's
                return [dict(r, n=r["n"] - 3) if r["group"] == "pair1" else r for r in recs]
            return [dict(r, n=3 * (r["n"] - 3 * g_of[r["group"]] - 1) + g_of[r["group"]] + 1) for r in recs]

        path = _rewrite(tmp_path, ds, renumber)
        if shape == "repeated":
            with pytest.raises(ValueError, match="^pair index 1 occurs twice in the groups of file "):
                load_run_dataset(path)
            return
        groups = sort_wigner_sets(load_run_dataset(path)).groups  # overlapping ranges, disjoint indices
        assert [g.pair_index.tolist() for g in groups] == [[1, 4, 7], [2, 5, 8], [3, 6, 9]]

    @pytest.mark.parametrize("extra", ["flipped L", "whole pair"])
    def test_repeated_record_is_refused(self, tmp_path, extra):
        ds = run_experiment(_spec(n=3))

        def repeat(recs):
            dup = [dict(recs[2], outcome=-recs[2]["outcome"])] if extra == "flipped L" else recs[2:4]
            return recs + dup

        with pytest.raises(ValueError, match=r"pair \d+ in group pair0 .*exactly one L and one R"):
            load_run_dataset(_rewrite(tmp_path, ds, repeat))

    @pytest.mark.parametrize("bad_n", [1.9, 2.0, True, 0, -4, "2", None])
    def test_pair_index_must_be_an_integer_of_at_least_one(self, tmp_path, bad_n):
        ds = run_experiment(_spec(n=3))
        # Move the first pair (both records) to the bad index.
        path = _rewrite(tmp_path, ds, lambda recs: [dict(r, n=bad_n) for r in recs[:2]] + recs[2:])
        with pytest.raises(ValueError, match=r"line 2: pair index .* is not an integer >= 1"):
            load_run_dataset(path)

    @pytest.mark.parametrize("bad_outcome", [5, 0, 1.0, True, "1"])
    def test_outcome_must_be_minus_or_plus_one(self, tmp_path, bad_outcome):
        ds = run_experiment(_spec(n=3))
        path = _rewrite(tmp_path, ds, lambda recs: recs[:3] + [dict(recs[3], outcome=bad_outcome)] + recs[4:])
        with pytest.raises(ValueError, match=r"line 5: outcome .* is not -1 or \+1"):
            load_run_dataset(path)


    # recs[4] is group pair0's last L record, of setting [1.0, 0.0]; recs[5] its R record, of BELL_SETTINGS[1].
    @pytest.mark.parametrize("at,setting", [
        (5, [0.0, 1.0]), (5, [0.5 + 1e-13, math.sqrt(3.0) / 2.0]), (4, [1, 0]), (4, [1.0, -0.0]), (4, [1.0, 1e-15]),
    ], ids=repr)
    def test_record_setting_must_be_its_groups_as_written(self, tmp_path, at, setting):
        ds = run_experiment(_spec(n=3))
        path = _rewrite(tmp_path, ds, lambda recs: recs[:at] + [dict(recs[at], setting=setting)] + recs[at + 1:])
        with pytest.raises(ValueError, match=rf"line {at + 2}: unknown group or station, or a setting other than "
                                             "the header's"):
            load_run_dataset(path)

    @pytest.mark.parametrize("at", [0, 4])  # a slot's first record, and a later one
    def test_record_with_an_extra_key_is_refused(self, tmp_path, at):
        ds = run_experiment(_spec(n=3))
        path = _rewrite(tmp_path, ds, lambda recs: recs[:at] + [dict(recs[at], hint=1)] + recs[at + 1:])
        with pytest.raises(ValueError, match=rf"line {at + 2}: .* does not have the keys"):
            load_run_dataset(path)

    @pytest.mark.parametrize("garbage", [" ", "\t", " x", "{}"], ids=repr)
    def test_text_after_a_records_object_is_refused(self, tmp_path, garbage):
        lines = dataset_text(run_experiment(_spec(n=3))).splitlines()
        lines[3] += garbage
        path = tmp_path / "garbage.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"line 4: text after the object"):
            load_run_dataset(path)

    def test_text_after_the_header_object_is_refused(self, tmp_path):
        lines = dataset_text(run_experiment(_spec(n=3))).splitlines()
        lines[0] += ' trailing garbage {"x":1}'
        path = tmp_path / "garbage.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"line 1: text after the object: ' trailing garbage"):
            load_run_dataset(path)

    @pytest.mark.parametrize("fields,match", [  # a field set to KeyError is left out of the header
        ({"seed": 1.7}, "header seed 1.7 is not an integer >= 0"),
        ({"seed": "1"}, "header seed '1' is not an integer >= 0"),
        ({"seed": True}, "header seed True is not an integer >= 0"),
        ({"seed": -1}, "header seed -1 is not an integer >= 0"),
        ({"pairs_per_setting": 5.9}, "header pairs_per_setting 5.9 is not an integer >= 1"),
        ({"pairs_per_setting": 0}, "header pairs_per_setting 0 is not an integer >= 1"),
        ({"pairs_per_setting": None}, "header pairs_per_setting None is not an integer >= 1"),
        ({"spec_pairs": KeyError}, "header spec is refused: KeyError\\('spec_pairs'\\)"),
        ({"gauge": KeyError}, "header spec is refused: KeyError\\('gauge'\\)"),
        ({"spec_pairs": [[[0, 0], [1, 0]]]}, "header spec is refused: ValueError\\('zero vector"),
        ({"gauge": [1]}, "header spec is refused: ValueError\\('a gauge key has the keys"),
        ({"switching": "bogus"}, "header spec is refused: ValueError\\(\"unknown switching mode 'bogus'\"\\)"),
        ({"meta": [["created", "x"]]}, r"header meta \[\['created', 'x'\]\] is not an object"),
    ], ids=repr)
    def test_header_field_the_writer_never_writes_is_refused(self, tmp_path, fields, match):
        lines = dataset_text(run_experiment(_spec(n=3))).splitlines()
        header = json.loads(lines[0])
        header.update({k: v for k, v in fields.items() if v is not KeyError})
        lines[0] = json.dumps({k: v for k, v in header.items() if fields.get(k) is not KeyError})
        path = tmp_path / "header.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"run-dataset {path} line 1: {match}"):
            load_run_dataset(path)

    @pytest.mark.parametrize("kind", ["run-dataset", "report-log", "emission-log"])
    @pytest.mark.parametrize("ending,line,text", [
        (b"\r\n", 1, r"'\\r\\n'"), (b"\r", 1, r"'\\r\{"), (b"one \r\n", 3, r"'\\r\\n'"),
    ], ids=["crlf", "cr", "one-crlf"])
    def test_cr_and_crlf_line_endings_are_refused(self, tmp_path, kind, ending, line, text):
        # The writers end every line in \n alone; a file whose endings were rewritten does not load as theirs.
        path = tmp_path / f"{kind}.jsonl"
        if kind == "run-dataset":
            write_run_dataset(run_experiment(_spec(n=3)), path)
        elif kind == "report-log":
            _report_log_file(path, 6)
        else:
            formats.write_emission_log(formats.SourceLog(seed=0, session_index=0, count=3, emissions=PairStream(
                n=np.arange(1, 4), lam=np.full(3, 0.5), t=np.full(3, 0.25))), path)
        raw = path.read_bytes()
        if ending == b"one \r\n":  # the second data line alone
            first, second, rest = raw.split(b"\n", 2)
            path.write_bytes(first + b"\n" + second + b"\n" + rest.replace(b"\n", b"\r\n", 1))
        else:
            path.write_bytes(raw.replace(b"\n", ending))
        load = {"run-dataset": load_run_dataset, "report-log": formats.load_report_log,
                "emission-log": formats.load_emission_log}[kind]
        with pytest.raises(ValueError, match=f"line {line}: text after the object: {text}"):
            load(path)

    @pytest.mark.parametrize("kind", ["run-dataset", "report-log"])
    @pytest.mark.parametrize("taken", [False, True], ids=["first-chunk", "after-a-taken-chunk"])
    def test_line_that_is_not_utf8_is_refused(self, tmp_path, monkeypatch, kind, taken):
        monkeypatch.setattr(formats, "_CHUNK_BYTES", 2000)
        path = tmp_path / f"{kind}.jsonl"
        if kind == "run-dataset":
            write_run_dataset(run_experiment(_spec(n=100)), path)
        else:
            _report_log_file(path, 200)
        lines = path.read_bytes().split(b"\n")
        starts = np.cumsum([len(line) + 1 for line in lines[1:]])  # where each line after a data line starts
        at = int(np.searchsorted(starts, 3 * formats._CHUNK_BYTES)) + 2 if taken else 3  # 0-based, past a chunk
        lines[at] = lines[at].replace(b'"station":"', b'"station":"\xff')
        path.write_bytes(b"\n".join(lines))
        decoded = []
        decode = formats._decode
        monkeypatch.setattr(formats, "_decode", lambda line: decoded.append(line) or decode(line))
        load = load_run_dataset if kind == "run-dataset" else formats.load_report_log
        with pytest.raises(ValueError, match=f"{kind} {path} line {at + 1}: not UTF-8 text: .* 0xff"):
            load(path)
        assert (lines[1].decode() + "\n" in decoded) is not taken  # the first chunk took the JSON path or not

    @pytest.mark.parametrize("field,value,loads", [
        ("seed", 0, True), ("seed", 2**64 + 5, True), ("seed", -1, False), ("seed", 5.0, False),
        ("seed", True, False), ("pairs_per_setting", 1, True), ("pairs_per_setting", 0, False),
        ("pairs_per_setting", 3.0, False), ("pairs_per_setting", True, False),
    ], ids=repr)
    def test_spec_takes_the_seed_and_size_its_file_loads_back(self, tmp_path, field, value, loads):
        path = tmp_path / "run.jsonl"
        fields = {"seed": 5, "pairs_per_setting": 3, field: value}
        if loads:  # written, then loaded back as the same spec
            spec = ExperimentSpec(setting_pairs=BELL_PAIRS, key=RAD2, **fields)
            write_run_dataset(run_experiment(spec), path)
            assert load_run_dataset(path).spec == spec
            return
        with pytest.raises(ValueError, match=rf"^{field} must be an integer >= [01], got {value!r}$"):
            ExperimentSpec(setting_pairs=BELL_PAIRS, key=RAD2, **fields)
        lines = dataset_text(run_experiment(_spec(n=3))).splitlines()
        lines[0] = json.dumps(dict(json.loads(lines[0]), **{field: value}))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"line 1: header {field} {value!r} is not an integer >= [01]$"):
            load_run_dataset(path)

    def test_header_fault_is_named_before_a_record_fault(self, tmp_path):
        lines = dataset_text(run_experiment(_spec(n=3))).splitlines()
        lines[0] = json.dumps(dict(json.loads(lines[0]), seed=1.7))
        lines[4] = "not a record"
        path = tmp_path / "header.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"run-dataset {path} line 1: header seed 1.7 is not an integer >= 0$"):
            load_run_dataset(path)


# Settings from random angles plus components whose JSON form is easy to get
# wrong: negative zero, the smallest subnormal next to 1.0, a pure -1.
_EDGE_SETTINGS = [Setting(1.0, 0.0), Setting(1.0, -0.0), Setting(-0.0, 1.0), Setting(1.0, 5e-324),
                  Setting(0.0, -1.0)]
_settings = st.one_of(st.sampled_from(_EDGE_SETTINGS),
                        st.floats(-math.pi, math.pi).map(Setting.from_angle))
# RunGroup takes any string as its label: the template writer must escape quotes, backslashes and
# non-ASCII exactly as json.dumps does.
_labels = st.one_of(st.just("pair0"), st.text(alphabet=st.sampled_from('ab"\\é∑😀\n\x00'), max_size=6))


def _reference_lines(groups):
    """The pre-template writer: one sorted-key dict dump per record."""
    out = []
    for label, lft, rgt, idx, left, right in groups:
        for n, lo, ro in zip(idx, left, right):
            for station, setting, o in (("L", lft, lo), ("R", rgt, ro)):
                out.append(json.dumps({"v": 1, "group": label, "n": int(n), "station": station,
                                       "setting": [setting.b2, setting.b3], "outcome": int(o)},
                                      sort_keys=True, separators=(",", ":")))
    return out


@st.composite
def _datasets(draw):
    """Disjoint groups with n up to 2**62, as fixed groups or as a switched run's, in a drawn emission order."""
    k = draw(st.integers(1, 3))
    ns = draw(st.lists(st.integers(1, 2**62), min_size=k, max_size=k + 12, unique=True))
    cuts = sorted(draw(st.lists(st.integers(0, len(ns)), min_size=k - 1, max_size=k - 1)))
    pairs = tuple((draw(_settings), draw(_settings)) for _ in range(k))
    groups = []
    for gid, (lo, hi) in enumerate(zip([0, *cuts], [*cuts, len(ns)])):
        idx = np.array(sorted(ns[lo:hi]), dtype=np.int64)
        signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=2 * len(idx), max_size=2 * len(idx)))
        outs = np.array(signs, dtype=np.int8).reshape(2, -1)
        label = draw(_labels) if gid == 0 else f"pair{gid}"
        groups.append(RunGroup(label, *pairs[gid], idx, outs[0], outs[1]))
    if not draw(st.booleans()):
        return RunDataset(canonical_pairs=pairs, groups=tuple(groups)), [
            (g.label, g.left_setting, g.right_setting, g.pair_index, g.left, g.right) for g in groups]
    perm = draw(st.permutations(range(len(ns))))
    gids = np.concatenate([np.full(len(g), gid, np.int64) for gid, g in enumerate(groups)])[perm]
    idx, left, right = (np.concatenate([getattr(g, a) for g in groups])[perm] for a in ("pair_index", "left", "right"))
    ref = [(f"pair{g}", *pairs[g], [n], [lo], [ro]) for g, n, lo, ro in zip(gids, idx, left, right)]
    return switched_dataset(pairs, gids, idx, left, right), ref


def _edge_case(ns):
    """A one-group dataset with these pair indices, and its reference groups."""
    idx, outs = np.array(sorted(ns), np.int64), np.resize(np.array([1, -1], np.int8), len(ns))
    group = RunGroup("pair0", Setting(1.0, 0.0), BELL_SETTINGS[1], idx, outs, -outs)
    return RunDataset(canonical_pairs=((group.left_setting, group.right_setting),), groups=(group,)), [
        (group.label, group.left_setting, group.right_setting, idx, outs, -outs)]


def _at_edge_indices(test):
    """``test`` with an example of one record pair per edge pair index, and one of all of them in one group."""
    for n in EDGE_INTS:
        test = example(case=_edge_case([n]))(test)
    return example(case=_edge_case(EDGE_INTS))(test)


def _dataset_reference(ds):
    """``ds`` as the reference groups ``_reference_lines`` takes."""
    if (inter := ds.interleaved) is None:
        return [(g.label, g.left_setting, g.right_setting, g.pair_index, g.left, g.right) for g in ds.groups]
    return [(f"pair{g}", *ds.canonical_pairs[g], [n], [lo], [ro])
            for g, n, lo, ro in zip(inter.group_ids, inter.pair_index, inter.left, inter.right)]


class TestRecordTemplate:
    @settings(max_examples=150, deadline=None)
    @given(case=_datasets())
    @_at_edge_indices
    def test_template_lines_equal_dumping_each_record(self, case):
        ds, ref = case
        assert list(dataset_record_lines(ds)) == _reference_lines(ref)

    @pytest.mark.parametrize("switching", ["fixed", "random-switched"])
    def test_dataset_of_several_render_blocks_equals_dumping_and_loads_back(self, tmp_path, switching):
        pairs = ((BELL_SETTINGS[0], BELL_SETTINGS[1]),) if switching == "fixed" else BELL_PAIRS
        ds = run_experiment(ExperimentSpec(setting_pairs=pairs, pairs_per_setting=formats._RENDER_ROWS // 2 + 3,
                                           seed=4, key=RAD2, switching=switching))
        path = tmp_path / "run.jsonl"
        write_run_dataset(ds, path)
        lines = path.read_text(encoding="utf-8").splitlines()[1:]
        assert len(lines) > formats._RENDER_ROWS and lines == _reference_lines(_dataset_reference(ds))
        assert _columns(load_run_dataset(path)) == _columns(ds)


_block_values = st.one_of(st.integers(-2**63, 2**63 - 1), st.sampled_from(EDGE_INTS),
                          st.integers(-3, 3).map(lambda d: 2**32 + d), st.integers(-3, 3).map(lambda d: -2**32 + d),
                          st.integers(-9, 9), st.integers(-10**10, 10**10))


class TestDigitBlock:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(_block_values, max_size=40) | st.lists(st.integers(-2**32, 2**32), max_size=40)
           | st.lists(st.integers(-9, 9), max_size=40))
    @example([2**32 - 1, 7])
    @example([-(2**32 - 1)])
    @example([2**32])
    @example([-2**63, 2**63 - 1])
    @example([])
    def test_rows_less_nuls_are_each_values_decimal_text(self, values):
        block = formats._digit_block(np.array(values, dtype=np.int64))
        assert [row.tobytes().replace(b"\0", b"") for row in block] == [str(v).encode() for v in values]


def _columns(ds):
    """A dataset's groups and interleaved records as plain lists."""
    inter = ds.interleaved
    return ([(g.label, g.left_setting, g.right_setting, g.pair_index.tolist(), g.left.tolist(), g.right.tolist())
             for g in ds.groups], inter and [a.tolist() for a in (inter.group_ids, inter.pair_index, inter.left,
                                                                  inter.right)])


def _report_log_file(path, count, seed=0):
    """Write station R's log of ``count`` reports with rising pair indices, random outcomes and clocks."""
    rng, setting = np.random.default_rng(seed), BELL_SETTINGS[1]
    ns = np.cumsum(rng.integers(1, 3, count))
    log = formats.StationLog(station="R", setting=setting, key_digest="ab", reports=formats.ReportBatch(
        "R", setting, ns, rng.choice([-1, 1], count).astype(np.int8), rng.integers(0, 2**63, count)))
    formats.write_report_log(log, path)


def _loaded(path):
    """What a load gives: its columns as lists, or its refusal's text."""
    try:
        if json.loads(path.read_text().split("\n", 1)[0])["kind"] == "report-log":
            b = formats.load_report_log(path)
            return b.station, b.setting, b.n.tolist(), b.outcome.tolist(), b.clock_ns.tolist(), b.outcome.dtype
        ds = load_run_dataset(path)
        inter = ds.interleaved
        return (ds.canonical_pairs, ds.spec, ds.meta,
                [(g.label, g.left_setting, g.right_setting, g.pair_index.tolist(), g.left.tolist(),
                  g.right.tolist(), g.left.dtype) for g in ds.groups],
                inter and [a.tolist() for a in (inter.group_ids, inter.pair_index, inter.left, inter.right)])
    except ValueError as exc:
        return str(exc)


def _base_file(path, kind: str, seed=0) -> str:
    """A small dataset ("fixed" or "random-switched") or report log as its writer writes it; returns its text."""
    if kind == "report":
        _report_log_file(path, 24, seed=seed)
    else:
        write_run_dataset(run_experiment(_spec(n=4, seed=seed, switching=kind)), path)
    return path.read_text()


def _int_fields(kind: str) -> list[str]:
    return ["clock_ns", "n", "outcome"] if kind == "report" else ["n", "outcome"]


# Renderings of a record's integer that the writer never writes, from its canonical text.
_INT_TEXT = {"-0": lambda v: "-0", "leading zero": lambda v: "0" + v, "true": lambda v: "true",
             "1.0": lambda v: v + ".0", "20 digits": lambda v: "12345678901234567890",
             # 19 digits past int64's ends, where the chunk parser's accumulator wraps
             "int64 max + 1": lambda v: "9223372036854775808", "int64 min - 1": lambda v: "-9223372036854775809"}
_EDITS = ["whitespace", "key order", "foreign setting", "extra key", "repeat", "no final newline", *_INT_TEXT]


def _with_int_text(line: str, field: str, edit: str) -> str:
    value = re.search(f'"{field}":(-?[0-9]+)', line)
    return line if value is None else line[:value.start(1)] + _INT_TEXT[edit](value[1]) + line[value.end(1):]


def _no_chunks(codec, data):
    return None  # no chunk parses: every line takes the JSON path


def _assert_chunked_load_is_the_json_load(path, chunk_bytes: int) -> None:
    """Chunks of ``chunk_bytes`` and the JSON path alone give the same columns or the same refusal."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(formats, "_CHUNK_BYTES", chunk_bytes)
        chunked = _loaded(path)
        mp.setattr(formats._LineCodec, "parse", _no_chunks)
        assert chunked == _loaded(path)


class TestChunkedLoads:
    """A chunk of data lines the writer re-renders skips json; any other takes the JSON path."""

    @pytest.mark.parametrize("slots", [1, 2, 3, 12])
    def test_codec_parses_back_the_slots_and_columns_it_renders(self, slots):
        # Labels that differ at a byte of their own: slots past 8 take more key bytes than an int holds.
        labels = ["x" * at + "y" + "x" * (slots - at) for at in range(slots)]
        codec = formats._LineCodec([{"group": label, "v": 1} for label in labels], ("n", "outcome"))
        rng = np.random.default_rng(slots)
        slot = rng.integers(0, slots, 3000)
        cols = [rng.integers(-2**63, 2**63 - 1, 3000) >> rng.integers(0, 63, 3000), rng.integers(-9, 9, 3000)]
        data = codec.render(slot, cols)
        assert data.decode().splitlines() == [json.dumps({"group": labels[s], "n": int(n), "outcome": int(o), "v": 1},
                                                         separators=(",", ":")) for s, n, o in zip(slot, *cols)]
        got = codec.parse(data)
        assert got is not None and np.array_equal(got[0], slot) and all(map(np.array_equal, got[1], cols))
        assert codec.parse(data[:-1]) is None and codec.parse(data.replace(b'"v":1', b'"v":2', 1)) is None

    def test_chunk_parsers_take_every_line_the_writers_write(self, tmp_path, monkeypatch):
        monkeypatch.setattr(formats, "_CHUNK_BYTES", 2000)
        paths = {name: tmp_path / f"{name}.jsonl" for name in ("fixed", "switched", "report")}
        write_run_dataset(run_experiment(_spec(n=100)), paths["fixed"])
        write_run_dataset(run_experiment(_spec(n=100, switching="random-switched")), paths["switched"])
        _report_log_file(paths["report"], 200)
        expected = {name: _loaded(path) for name, path in paths.items()}
        decoded = []
        decode = formats._decode
        monkeypatch.setattr(formats, "_decode", lambda line: decoded.append(line) or decode(line))
        for name, path in paths.items():
            assert path.stat().st_size > 5 * formats._CHUNK_BYTES
            decoded.clear()
            assert _loaded(path) == expected[name]
            assert decoded == [path.read_text().split("\n", 1)[0] + "\n"], name  # the header line only
        monkeypatch.setattr(formats._LineCodec, "parse", _no_chunks)
        for name, path in paths.items():
            assert _loaded(path) == expected[name]  # the JSON path agrees

    @pytest.mark.parametrize("kind", ["fixed", "random-switched", "report"])
    @pytest.mark.parametrize("edit", list(_INT_TEXT))
    def test_integer_text_the_writer_never_writes_takes_the_json_path(self, tmp_path, kind, edit):
        path = tmp_path / "file.jsonl"
        text = _base_file(path, kind)
        for field in _int_fields(kind):
            lines = text.splitlines(keepends=True)
            lines[5] = _with_int_text(lines[5], field, edit)
            path.write_text("".join(lines))
            _assert_chunked_load_is_the_json_load(path, 300)

    @settings(max_examples=250, deadline=None)
    @given(st.data())
    def test_chunked_and_json_loads_agree_on_edited_files(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("mixed") / "file.jsonl"
        kind = data.draw(st.sampled_from(["fixed", "random-switched", "report"]))
        lines = _base_file(path, kind, seed=data.draw(st.integers(0, 3))).splitlines(keepends=True)
        for _ in range(data.draw(st.integers(0, 3))):
            at = data.draw(st.integers(1, len(lines) - 1))
            line, edit = lines[at], data.draw(st.sampled_from(_EDITS))
            if edit == "whitespace":
                pos = data.draw(st.integers(0, len(line) - 1))
                line = line[:pos] + data.draw(st.sampled_from([" ", "\t", "\r"])) + line[pos:]
            elif edit == "key order":
                with contextlib.suppress(ValueError):  # a line an earlier edit left without a JSON object
                    line = json.dumps(dict(reversed(json.loads(line).items())), separators=(",", ":")) + "\n"
            elif edit == "repeat":
                lines.insert(at, line)
            elif edit == "no final newline":
                at, line = len(lines) - 1, lines[-1].rstrip("\n")
            elif edit == "foreign setting":
                line = re.sub(r'"setting":\[[^]]*\]', '"setting":[0.0,1.0]', line)
            elif edit == "extra key":
                line = line[:-2] + ',"x":1}\n'
            else:
                line = _with_int_text(line, data.draw(st.sampled_from(_int_fields(kind))), edit)
            lines[at] = line
        path.write_text("".join(lines))
        _assert_chunked_load_is_the_json_load(path, data.draw(st.sampled_from([200, 300, 500])))


def _written_text(write, rows) -> str:
    """What a table writer writes to a text stream."""
    buf = io.StringIO()
    write(rows, buf)
    return buf.getvalue()


class TestCsv:
    def test_sweep_csv_shape_and_values(self):
        points = sweep_angle(seed=3, n_per_step=2_000, steps=6, key=RAD2)
        text = _written_text(write_sweep_csv, points)
        lines = text.splitlines()
        assert lines[0] == "# schema=eqrc.sweep.v1"
        assert lines[1] == "theta_radians,expectation,std_error,n"
        rows = list(csv.DictReader(lines[1:]))
        assert len(rows) == 6
        for row, p in zip(rows, points):
            assert float(row["theta_radians"]) == p.theta  # shortest repr round trip
            assert float(row["expectation"]) == p.estimate.value
            assert int(row["n"]) == 2_000

    def test_sweep_csv_is_byte_reproducible(self):
        a = _written_text(write_sweep_csv, sweep_angle(seed=3, n_per_step=500, steps=4, key=RAD2))
        b = _written_text(write_sweep_csv, sweep_angle(seed=3, n_per_step=500, steps=4, key=RAD2))
        assert a == b

    def test_expectation_csv_layout(self):
        row = {
            "left_b2": 1.0, "left_b3": 0.0, "right_b2": 0.5, "right_b3": math.sqrt(3) / 2,
            "n": 100, "expectation": -0.52, "std_error": 0.08, "seed": 7, "gauge": "rademacher:j=2",
        }
        text = _written_text(write_expectation_csv, [row])
        lines = text.splitlines()
        assert lines[0] == "# schema=eqrc.expectation.v1"
        parsed = list(csv.DictReader(lines[1:]))[0]
        assert float(parsed["expectation"]) == -0.52
        assert parsed["gauge"] == "rademacher:j=2"

    def test_triple_csv(self, tmp_path):
        cyclic = cyclic_concatenate(5, 4_000, RAD2, BELL_SETTINGS)
        tables = [build_triple_table(kind, cyclic) for kind in ("abc'", "ab'c")]
        path = tmp_path / "triples.csv"
        with path.open("w", encoding="utf-8", newline="") as fh:
            write_triple_csv(tables, fh)
        lines = path.read_text().splitlines()
        assert lines[0] == "# schema=eqrc.triples.v1"
        rows = list(csv.DictReader(lines[1:]))
        assert len(rows) == 16
        total = sum(int(r["count"]) for r in rows if r["kind"] == "abc'")
        assert total == 4_000


class TestReportsJsonl:
    def test_reports_file_has_header_and_machine_readable_rows(self, tmp_path):
        rep = bell_check(-0.5, 0.5, -0.5)
        path = tmp_path / "reports.jsonl"
        with path.open("w", encoding="utf-8", newline="") as fh:
            write_reports_jsonl([rep], fh)
        lines = path.read_text().splitlines()
        assert lines[0] == '{"kind":"inequality-reports","v":1}'
        row = json.loads(lines[1])
        assert row["violated"] is True
        assert row["name"] == "bell"
        assert row["lhs"] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# The dataset writer refuses what its loader refuses, before it opens the path

_EARLIER = b"an earlier file\n"


def _refused_write(tmp_path, ds, match):
    """Assert that writing ``ds`` over an earlier file is refused with ``match`` and leaves that file as it was."""
    path = tmp_path / "run.jsonl"
    path.write_bytes(_EARLIER)
    with pytest.raises(ValueError, match=f"^{match}; no dataset is written$"):
        write_run_dataset(ds, path)
    assert path.read_bytes() == _EARLIER


def _group(n, left, right=None, label="pair0", settings=(BELL_SETTINGS[0], BELL_SETTINGS[1])):
    right = [1] * len(n) if right is None else right
    return RunGroup(label, *settings, np.array(n, np.int64), np.array(left, np.int8), np.array(right, np.int8))


def _switched(ids, n, left, right=None, pairs=BELL_PAIRS):
    """A switched dataset of these emission-order columns, with int64 ids, under a random-switched spec."""
    right = [1] * len(n) if right is None else right
    return switched_dataset(pairs, np.array(ids, np.int64), n, left, right,
                            spec=_spec(n=1, switching="random-switched"))


class TestDatasetWriterRefusals:
    @pytest.mark.parametrize("group,match", [
        (_group([1, 2], [1, 7]), r"group pair0 pair at index 1: outcome 7 is not -1 or \+1"),
        (_group([1, 2], [1, 1], [0, 1]), r"group pair0 pair at index 0: outcome 0 is not -1 or \+1"),
        (_group([0, 2], [1, 1]), "group pair0 pair at index 0: pair index 0 is not an integer >= 1"),
        (_group([-2**63, 3], [1, 7]), "group pair0 pair at index 0: pair index -9223372036854775808 is not an "
                                      "integer >= 1"),
    ], ids=["outcome-7", "right-outcome-0", "pair-index-0", "first-of-two"])
    def test_fixed_group_value_the_loader_refuses(self, tmp_path, group, match):
        _refused_write(tmp_path, RunDataset(canonical_pairs=(BELL_PAIRS[0],), groups=(group,)), match)

    @pytest.mark.parametrize("groups", [
        (_group([1], [1], label="g"),),
        (_group([1], [1], settings=(BELL_SETTINGS[0], Setting(0.5, BELL_SETTINGS[1].b3 * (1 + 2**-52)))),),
        (_group([1], [1], settings=(Setting(1.0, -0.0), BELL_SETTINGS[1])),),
        (),
        (_group([1], [1]), _group([2], [1], label="pair1")),
    ], ids=["label", "setting-ulp", "negative-zero", "no-group", "extra-group"])
    def test_fixed_groups_other_than_one_per_setting_pair_are_refused(self, tmp_path, groups):
        _refused_write(tmp_path, RunDataset(canonical_pairs=(BELL_PAIRS[0],), groups=groups),
                       r"groups .*: not pair0, pair1, \.\.\. with the settings of the 1 setting pairs in turn")

    @pytest.mark.parametrize("args,match", [
        (([0, 3, 1], [1, 2, 3], [1, 1, 1]), r"schedule ids outside 0 \.\. 2, the groups' own"),
        (([0, -1], [1, 2], [1, 1]), r"schedule ids outside 0 \.\. 2, the groups' own"),
        (([0, 2, 1], [5, 6, 5], [1, 1, 1]), "^pair index 5 occurs twice in the groups$"),
        (([1, 1], [5, 5], [1, 1]), "^pair index 5 occurs twice in the groups$"),
    ], ids=["id-k", "id-negative", "repeat-across-groups", "repeat-in-group"])
    def test_switched_record_the_loader_refuses_is_refused_when_built(self, args, match):
        with pytest.raises(ValueError, match=match):
            _switched(*args)

    def test_switched_outcome_the_loader_refuses(self, tmp_path):
        _refused_write(tmp_path, _switched([0, 1, 2], [1, 2, 3], [1, 1, 7]),
                       r"group pair2 pair at index 0: outcome 7 is not -1 or \+1")

    @pytest.mark.parametrize("switching,mark,schedule", [
        ("random-switched", {"sorted_from_switched": True}, "with"),  # loaded back as groups, not emission order
        ("random-switched", {}, "without"),  # the groups' records loaded back as emission order
        ("fixed", {}, "with"),  # the emission order loaded back as groups
    ], ids=["schedule-marked-sorted-back", "random-switched-without-schedule", "schedule-under-fixed-spec"])
    def test_schedule_other_than_the_header_makes_the_loader_read_is_refused(self, tmp_path, switching, mark,
                                                                             schedule):
        ds = run_experiment(_spec(n=3, switching="random-switched" if schedule == "with" else "fixed"))
        ds = dataclasses.replace(ds, spec=_spec(n=3, switching=switching), meta={**ds.meta, **mark})
        _refused_write(tmp_path, ds, rf".*run\.jsonl line 1: switching '{switching}' and meta sorted_from_switched "
                                     rf"{mark.get('sorted_from_switched')} {schedule} a schedule: not the order its loader reads")

    @pytest.mark.parametrize("meta", [["x"], None, "sorted_from_switched"], ids=repr)
    def test_header_meta_that_is_not_an_object_is_refused(self, tmp_path, meta):
        ds = run_experiment(_spec(n=2))
        ds.meta = meta
        _refused_write(tmp_path, ds, rf".*run\.jsonl line 1: header meta {re.escape(repr(meta))} is not an object")

    def test_unequal_group_columns_are_refused_when_built(self):
        with pytest.raises(ValueError, match="group pair0 columns pair_index, left and right are of lengths 2, 1 and 2"):
            _group([1, 2], [1], [1, -1])


@st.composite
def _generated_datasets(draw):
    """A dataset of generated columns, or the ValueError that builds none: fixed groups of unordered pair
    indices or switched records, now and then with a pair index from int64's edges or repeated, an outcome
    that is any int8, a group id out of range, fixed columns of unequal lengths, and often no rows."""
    k = draw(st.integers(1, 3))
    n = mostly(draw, draw(st.lists(st.integers(1, 2**63 - 1), max_size=12, unique=True)),
                st.sampled_from(EDGE_INTS) | st.integers(-2**63, 2**63 - 1))
    if n and draw(st.integers(0, 3)) == 0:
        n.append(draw(st.sampled_from(n)))  # a repeated pair index
    outs = [mostly(draw, draw(st.lists(st.sampled_from([-1, 1]), min_size=len(n), max_size=len(n))),
                    st.integers(-128, 127)) for _ in range(2)]
    if draw(st.booleans()):
        ids = mostly(draw, draw(st.lists(st.integers(0, k - 1), min_size=len(n), max_size=len(n))),
                      st.integers(-1, k))
        try:
            return _switched(ids, n, *outs, pairs=BELL_PAIRS[:k])
        except ValueError as exc:  # an id out of range, or a pair index repeated
            return exc
    if draw(st.integers(0, 9)) == 0:  # one column a row short
        outs[draw(st.integers(0, 1))] = outs[0][:-1]
    cuts = sorted(draw(st.lists(st.integers(0, len(n)), min_size=k - 1, max_size=k - 1)))
    pairs = BELL_PAIRS[:k]
    try:
        groups = tuple(RunGroup(f"pair{i}", *pairs[i], np.array(n[lo:hi], np.int64), np.array(outs[0][lo:hi], np.int8),
                                np.array(outs[1][lo:hi], np.int8))
                       for i, (lo, hi) in enumerate(zip([0, *cuts], [*cuts, len(n)])))
        return RunDataset(canonical_pairs=pairs, groups=groups)
    except ValueError as exc:  # unequal lengths, or a pair index in two groups
        return exc


def _by_pair_index(ds):
    """A dataset's columns as lists, each fixed group's rows in pair index order, as a loaded fixed file has them."""
    inter = ds.interleaved
    return ([(g.label, g.left_setting, g.right_setting, sorted(zip(*(a.tolist() for a in (g.pair_index, g.left, g.right)))))
             for g in ds.groups],
            None if inter is None else [a.tolist() for a in (inter.group_ids, inter.pair_index, inter.left, inter.right)])


class TestDatasetRoundTripProperty:
    @settings(max_examples=300, deadline=None)
    @given(_generated_datasets())
    def test_writer_refuses_or_the_file_loads_back_the_same_columns(self, tmp_path_factory, ds):
        if isinstance(ds, ValueError):  # refused when built: nothing to write
            return
        path = tmp_path_factory.mktemp("ds") / "run.jsonl"
        path.write_bytes(_EARLIER)
        try:
            write_run_dataset(ds, path)
        except ValueError:
            assert path.read_bytes() == _EARLIER
            return
        assert _by_pair_index(load_run_dataset(path)) == _by_pair_index(ds)
