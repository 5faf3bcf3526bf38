"""One table of bad values, fed through every entry point that takes them.

The constructor judges hypergraph values for every caller and
`report._checked_labels` judges labels, so the Python constructor
(ValueError), a JSON file and a text file read by `cluster --input` (exit 3)
and, for labels, a `build` sidecar (exit 3) must refuse each value alike.
"""

import json
import math

import pytest

from hypercut import EdvwHypergraph
from hypercut.cli import main

# a connected 4-vertex hypergraph with two hyperedges and weights other than 1
N = 4
BASE = {"members": [[0, 1, 2], [2, 3]], "gamma": [[1.0, 2.0, 3.0], [1.0, 1.0]],
        "kappa": [2.5, 1.0], "mu": [1.0, 2.0, 1.0, 1.0]}
LABELS = [0, 1, 1, 0]

ID_VALUES = {"bool": True, "numeric-string": "1", "non-integral": 1.5,
             "2**63": 2 ** 63}
WEIGHT_VALUES = {"bool": True, "numeric-string": "2.0", "nan": math.nan,
                 "inf": math.inf, "zero": 0.0}
CASES = {f"members-{name}": ("members", v) for name, v in ID_VALUES.items()}
CASES.update({f"{field}-{name}": (field, v) for field in ("gamma", "kappa", "mu")
              for name, v in WEIGHT_VALUES.items()})
LABEL_VALUES = {**ID_VALUES, "nan": math.nan, "inf": math.inf}


def with_bad(field, value):
    """BASE with entry 1 of `field` (of hyperedge 0 for members and gamma)
    replaced by `value`."""
    fields = json.loads(json.dumps(BASE))
    row = fields[field][0] if field in ("members", "gamma") else fields[field]
    row[1] = value
    return fields


def json_text(f):
    return json.dumps({"n_vertices": N, "mu": f["mu"], "hyperedges": [
        {"kappa": k, "members": ms, "gamma": gs}
        for k, ms, gs in zip(f["kappa"], f["members"], f["gamma"])]})


def hg_text(f):
    # repr writes True, '1', 1.5, 9223372036854775808, nan, inf and 0.0 as a
    # hand-edited file would carry them
    lines = [f"{N} {len(f['members'])}"]
    lines += [" ".join([repr(k), *(f"{v!r}:{g!r}" for v, g in zip(ms, gs))])
              for k, ms, gs in zip(f["kappa"], f["members"], f["gamma"])]
    return "\n".join([*lines, " ".join(["mu", *map(repr, f["mu"])]), ""])


def cluster_exit(tmp_path, name, text, sidecar=None):
    path = tmp_path / name
    path.write_text(text)
    if sidecar is not None:
        (tmp_path / f"{name}.provenance.json").write_text(sidecar)
    return main(["cluster", "--input", str(path), "--restarts", "1"])


def test_base_values_pass_every_entry_point(tmp_path):
    # without this the table below could pass on a base that is itself bad
    EdvwHypergraph(N, BASE["members"], BASE["gamma"], BASE["kappa"], BASE["mu"])
    assert cluster_exit(tmp_path, "h.json", json_text(BASE)) == 0
    assert cluster_exit(tmp_path, "h.hg", hg_text(BASE),
                        json.dumps({"labels": LABELS})) == 0


@pytest.mark.parametrize("field, value", CASES.values(), ids=CASES)
def test_constructor_refuses(field, value):
    f = with_bad(field, value)
    where = "hyperedge 0" if field == "members" else field
    with pytest.raises(ValueError, match=where):
        EdvwHypergraph(N, f["members"], f["gamma"], f["kappa"], f["mu"])


@pytest.mark.parametrize("suffix", [".json", ".hg"])
@pytest.mark.parametrize("field, value", CASES.values(), ids=CASES)
def test_cluster_input_refuses(tmp_path, capsys, suffix, field, value):
    write = json_text if suffix == ".json" else hg_text
    text = write(with_bad(field, value))
    assert cluster_exit(tmp_path, "h" + suffix, text) == 3
    assert capsys.readouterr().err.startswith("data error: ")


@pytest.mark.parametrize("labels", [
    *([*LABELS[:1], v, *LABELS[2:]] for v in LABEL_VALUES.values()),
    [[v] for v in LABELS],                 # shape (n, 1)
], ids=[*LABEL_VALUES, "shape-n-by-1"])
def test_sidecar_refuses_labels(tmp_path, capsys, labels):
    assert cluster_exit(tmp_path, "h.hg", hg_text(BASE),
                        json.dumps({"labels": labels})) == 3
    assert "provenance sidecar" in capsys.readouterr().err


def test_sidecar_takes_integral_float_labels(tmp_path, capsys):
    reports = []
    for labels in (LABELS, [float(v) for v in LABELS]):
        assert cluster_exit(tmp_path, "h.hg", hg_text(BASE),
                            json.dumps({"labels": labels})) == 0
        reports.append(json.loads(capsys.readouterr().out))
    assert reports[0]["error"] is not None
    assert reports[0]["error"] == reports[1]["error"]
