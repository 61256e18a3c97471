"""``tools/ab_ops.py``: its summary arithmetic on synthetic timings, and two
renamed copies of the package side by side; no benchmark is launched."""

import importlib.util
import random
import shutil
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from quasiconv import load_gallery

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ab_ops", ROOT / "tools" / "ab_ops.py")
ab_ops = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_ops)


def test_summarize_pairs_each_op_run_with_the_other_sides():
    # two repetitions of three ops per side
    times = {
        "parent": [[1.0, 2.0, 4.0], [1.0, 2.0, 8.0]],
        "change": [[0.5, 2.0, 2.0], [1.5, 1.0, 8.0]],
    }
    got = ab_ops.summarize(times, ["a", "b", "c"])
    # op times 1, 1, 2, 2, 4, 8: median 2, 90th percentile at position 4.5;
    # rounds of 7 and 11
    assert got["parent"] == {"op_p50_s": 2.0, "op_p90_s": 6.0, "round_wall_s": 9.0}
    # op times 0.5, 1, 1.5, 2, 2, 8; rounds of 4.5 and 10.5
    assert got["change"]["op_p50_s"] == 1.75
    assert got["change"]["round_wall_s"] == 7.5
    # ratios 0.5, 1, 0.5 and 1.5, 0.5, 1, inclusive quartiles
    assert got["op_ratio"] == {"median": 0.75, "q1": 0.5, "q3": 1.0, "pairs": 6}


def test_summarize_of_one_run_per_side():
    got = ab_ops.summarize({"parent": [[2.0]], "change": [[3.0]]}, ["a"])
    assert got["parent"] == {"op_p50_s": 2.0, "op_p90_s": 2.0, "round_wall_s": 2.0}
    assert got["op_ratio"] == {"median": 1.5, "q1": 1.5, "q3": 1.5, "pairs": 1}
    assert got["op_ratio_by_label"] == {"a": got["op_ratio"]}


def test_summarize_gives_each_op_labels_ratios():
    # two repetitions of four ops, two of them labelled "W2": each label's
    # ratios are its ops' runs in both repetitions
    times = {
        "parent": [[1.0, 2.0, 4.0, 1.0], [1.0, 2.0, 8.0, 1.0]],
        "change": [[0.5, 2.0, 2.0, 0.25], [1.5, 1.0, 8.0, 1.0]],
    }
    got = ab_ops.summarize(times, ["W2", "C2", "QC2", "W2"])
    assert got["op_ratio_by_label"] == {
        # ratios 1.0 and 0.5
        "C2": {"median": 0.75, "q1": 0.625, "q3": 0.875, "pairs": 2},
        # ratios 0.5 and 1.0
        "QC2": {"median": 0.75, "q1": 0.625, "q3": 0.875, "pairs": 2},
        # ratios 0.5, 0.25, 1.5 and 1.0, inclusive quartiles of 0.25, 0.5, 1, 1.5
        "W2": {"median": 0.75, "q1": 0.4375, "q3": 1.125, "pairs": 4},
    }
    assert got["op_ratio"]["pairs"] == 8


@pytest.fixture
def two_copies(tmp_path):
    """Two copies of the package, the second with its gallery's last entry
    dropped, imported under their own names."""
    names = ("quasiconv_copy_a", "quasiconv_copy_b")
    dirs = [tmp_path / name / "quasiconv" for name in names]
    for d in dirs:
        shutil.copytree(ROOT / "src" / "quasiconv", d,
                        ignore=shutil.ignore_patterns("__pycache__"))
    gallery = dirs[1] / "data" / "gallery.txt"
    text = gallery.read_text()
    gallery.write_text(text[: text.rindex("\n[")] + "\n")
    try:
        yield [ab_ops.load_package(d, name) for d, name in zip(dirs, names)]
    finally:
        for key in [k for k in sys.modules if k.split(".")[0] in names]:
            del sys.modules[key]


def test_renamed_copies_each_load_their_own_gallery(two_copies):
    a, b = two_copies
    want = [entry.name for entry in load_gallery()]
    assert a.__name__ == "quasiconv_copy_a" and a.classifiers.__name__.startswith(a.__name__)
    assert [entry.name for entry in a.load_gallery()] == want
    assert [entry.name for entry in b.load_gallery()] == want[:-1]
    rc, seconds, _ = ab_ops.run_op(importlib.import_module("quasiconv_copy_b.cli"), ("gallery",))
    assert rc == 0 and seconds > 0


def test_untimed_pass_lists_each_op_whose_output_differs(two_copies):
    # the copies differ only in the gallery: its listing differs, and a
    # verify record differs only in its wall_time, which is not compared
    clis = {
        side: importlib.import_module(f"{copy.__name__}.cli")
        for side, copy in zip(ab_ops.SIDES, two_copies)
    }
    verify = ("verify", "--inequality", "HH1D", "--f", "abs(x - 0.3)", "--domain", "-1,1", "--json")
    ops = [
        SimpleNamespace(label="HH1D", argv=verify, expect_pass=True),
        SimpleNamespace(label="gallery", argv=("gallery",), expect_pass=True),
        SimpleNamespace(label="bad", argv=("verify", "--f", "x"), expect_pass=True),
    ]
    kept, left_out, outputs_differ = ab_ops.untimed_pass(clis, ops)
    assert kept == ops[:2] and [op["label"] for op in left_out] == ["bad"]
    assert outputs_differ == [{"label": "gallery", "argv": ["gallery"]}]
    _, _, (out, err) = ab_ops.run_op(clis["parent"], verify)
    assert '"wall_time"\n' in out and err == ""


def test_ops_come_from_the_benchmark_workloads():
    workloads = ab_ops.load_workloads(ROOT)
    ops = workloads.ROUNDS["screen"](random.Random("screen:1"))
    assert ops and all(op.argv[0] == "check" for op in ops)
    assert sorted({ab_ops.expected_rc(op) for op in ops}) == [0, 1]
