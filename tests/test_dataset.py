import json

import numpy as np
import pytest

from occkit import dataset
from occkit.dataset import (
    Dataset,
    Schema,
    SplitPlan,
    apply_preprocessor,
    extract_labels,
    filter_normal,
    fit_preprocessor,
    generate_gaussian_demo,
    generate_uniform_noise,
    load_csv,
    load_schema,
    omit_attack_types,
    split_indices,
    stratified_split,
)

SCHEMA = Schema(
    columns=(
        ("duration", "numeric"),
        ("proto", "categorical"),
        ("label", "binary-label"),
        ("attack_cat", "attack-type-tag"),
    )
)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_csv_basic(tmp_path):
    path = _write(
        tmp_path,
        "a.csv",
        "duration,proto,label,attack_cat\n"
        "1.5,tcp,normal,\n"
        "2.0,udp,attack,dos\n"
        "0.5,tcp,normal,\n",
    )
    table = load_csv(path, SCHEMA)
    assert table.row_count == 3
    assert len(table.columns) == 4


def test_load_csv_empty_cell_is_missing(tmp_path):
    path = _write(
        tmp_path,
        "a.csv",
        "duration,proto,label,attack_cat\n,tcp,normal,\n",
    )
    table = load_csv(path, SCHEMA)
    assert np.isnan(table.columns["duration"][0])
    assert table.texts["proto"][table.columns["proto"][0]] == "tcp"


def test_load_csv_rejects_a_repeated_header_column(tmp_path):
    path = _write(
        tmp_path,
        "a.csv",
        "duration,proto,label,attack_cat,duration\n1,tcp,normal,,100\n2,tcp,normal,,200\n",
    )
    with pytest.raises(ValueError, match=r"header repeats columns: \['duration'\]"):
        load_csv(path, SCHEMA)


def test_load_csv_ragged_row_names_line(tmp_path):
    rows = ["1,tcp,normal,"] * 6
    rows[5] = "1,tcp,normal,,extra"  # file line 7 counting the header
    path = _write(tmp_path, "a.csv", "duration,proto,label,attack_cat\n" + "\n".join(rows) + "\n")
    with pytest.raises(ValueError, match="line 7"):
        load_csv(path, SCHEMA)


def test_load_csv_unknown_column(tmp_path):
    path = _write(tmp_path, "a.csv", "duration,proto,label,attack_cat,bogus\n1,tcp,normal,,x\n")
    with pytest.raises(ValueError, match="bogus"):
        load_csv(path, SCHEMA)


def test_load_csv_missing_schema_column(tmp_path):
    path = _write(tmp_path, "a.csv", "duration,label,attack_cat\n1,normal,\n")
    with pytest.raises(ValueError, match="proto"):
        load_csv(path, SCHEMA)


TRAILING_IGNORED = Schema(columns=SCHEMA.columns + (("difficulty", "ignored"),))
_HEAD = "duration,proto,label,attack_cat,difficulty"


def _outcome(read, path, schema=TRAILING_IGNORED):
    """A table as comparable bytes and texts, or the message it raised."""
    try:
        table = read(path, schema)
    except ValueError as exc:
        return "error", str(exc)
    return (
        list(table.columns),
        {name: (col.dtype.str, col.tobytes()) for name, col in table.columns.items()},
        table.texts,
    )


@pytest.mark.parametrize(
    "body, plain",
    [
        pytest.param(f"{_HEAD}\n1.5,tcp,normal,,3\n2,udp,attack,dos,7\n", True, id="plain"),
        pytest.param(f"{_HEAD}\r\n1.5,tcp,normal,,3\r\n2,udp,attack,dos,7\r\n", True, id="crlf"),
        pytest.param(f"{_HEAD}\n1.5,tcp,normal,,3\n2,udp,attack,dos,7", True, id="no-final-newline"),
        pytest.param(f'{_HEAD}\n1.5,"tcp,x",normal,,3\n2,udp,attack,dos,7\n', False, id="quoted-comma"),
        pytest.param(f"{_HEAD}\n1.5,tcp,normal,,3\r2,udp,attack,dos,7\n", False, id="lone-cr"),
        pytest.param(f"{_HEAD}\n1.5,tcp,normal,,3\n\n2,udp,attack,dos,7\n", False, id="blank-line"),
        pytest.param(f"{_HEAD}\n1.5,tcp,normal,,3\n \n2,udp,attack,dos,7\n", False, id="whitespace-line"),
        pytest.param(f"{_HEAD}\n1.5,tcp,normal,,3\n2,udp,attack,dos\n", False, id="row-one-short"),
        pytest.param(f"{_HEAD}\n1.5,tcp,normal,,3,4\n2,udp,attack,dos,7\n", False, id="row-one-long"),
        pytest.param(f"{_HEAD}\n", False, id="header-only"),
        pytest.param(f"{_HEAD}\n,tcp,normal,,3\n2,udp,attack,dos,7\n", True, id="empty-numeric"),
        pytest.param(f"{_HEAD}\r\n1.5,tcp,normal,,3\r\n,udp,attack,dos,7\r\n", True, id="empty-numeric-crlf"),
        pytest.param(f"{_HEAD}\n,tcp,normal,,3\n2,udp,attack,dos,", True, id="empty-numeric-and-last"),
        pytest.param(f"{_HEAD}\n,tcp,normal,,3\nnan,udp,attack,dos,7\n", False, id="empty-numeric-and-nan"),
        pytest.param(f"{_HEAD}\n1_0,tcp,normal,,3\n2,udp,attack,dos,7\n", False, id="float-only-syntax"),
        pytest.param(f"{_HEAD}\nnan,tcp,normal,,3\n2,udp,attack,dos,7\n", False, id="non-finite"),
        pytest.param(f"{_HEAD}\n1\x1c,tcp,normal,,3\n2,udp,attack,dos,7\n", False, id="numpy-only-space"),
        pytest.param(f"{_HEAD},x\n1.5,tcp,normal,,3,4\n", False, id="unknown-column"),
    ],
)
def test_load_csv_is_the_same_whichever_reader_runs(tmp_path, body, plain):
    path = tmp_path / "a.csv"
    path.write_bytes(body.encode("utf-8"))
    assert _outcome(load_csv, path) == _outcome(dataset._read_with_csv, path)
    assert (dataset._read_plain(path, TRAILING_IGNORED) is not None) == plain


_LAST_NUMERIC = Schema(columns=(("label", "binary-label"), ("x", "numeric"), ("z", "numeric")))


@pytest.mark.parametrize(
    "body",
    [
        "label,x,z\nnormal,1,\nattack,,2\n",
        "label,x,z\r\nnormal,1,\r\nattack,,\r\n",
        "label,x,z\nnormal,,\nattack,3,",
        "z,x,label\n,,normal\n4,,attack\n",
    ],
    ids=["lf", "crlf", "no-final-newline", "leading"],
)
def test_read_plain_takes_empty_numeric_cells_anywhere_in_a_line(tmp_path, body):
    path = tmp_path / "a.csv"
    path.write_bytes(body.encode("utf-8"))
    assert dataset._read_plain(path, _LAST_NUMERIC) is not None
    assert _outcome(dataset._read_plain, path, _LAST_NUMERIC) == _outcome(dataset._read_with_csv, path, _LAST_NUMERIC)


def test_schema_validation():
    with pytest.raises(ValueError, match="duplicate"):
        Schema(columns=(("a", "numeric"), ("a", "numeric"), ("y", "binary-label")))
    with pytest.raises(ValueError, match="binary-label"):
        Schema(columns=(("a", "numeric"),))
    with pytest.raises(ValueError, match="unknown kind"):
        Schema(columns=(("a", "gauge"), ("y", "binary-label")))
    with pytest.raises(ValueError, match="attack-type-tag"):
        Schema(
            columns=(
                ("y", "binary-label"),
                ("t1", "attack-type-tag"),
                ("t2", "attack-type-tag"),
            )
        )


def test_load_schema_flat_and_structured(tmp_path):
    flat = _write(tmp_path, "s1.json", json.dumps({"a": "numeric", "y": "binary-label"}))
    s1 = load_schema(flat)
    assert s1.label_column == "y"

    structured = _write(
        tmp_path,
        "s2.json",
        json.dumps(
            {
                "columns": {"a": "numeric", "y": "binary-label"},
                "label_values": {"normal": ["ok"], "attack": ["bad"]},
            }
        ),
    )
    s2 = load_schema(structured)
    assert "ok" in s2.normal_values


@pytest.mark.parametrize(
    "extra, key",
    [
        ({"label_values": ["normal"]}, "'label_values'"),
        ({"label_values": {"normal": "normal", "attack": ["*"]}}, "'label_values.normal'"),
        ({"label_values": {"attack": "*"}}, "'label_values.attack'"),
        ({"label_values": {"normal": ["normal", 0]}}, "'label_values.normal'"),
        ({"label_value": {"normal": ["ok"]}}, "['label_value']"),
        ({"label_values": {"norml": ["ok"]}}, "['norml']"),
    ],
    ids=["list", "string-normal", "string-attack", "non-string-value", "misspelt-key", "misspelt-label-key"],
)
def test_load_schema_rejects_a_bad_label_vocabulary(tmp_path, extra, key):
    path = _write(tmp_path, "s.json", json.dumps({"columns": {"a": "numeric", "y": "binary-label"}, **extra}))
    with pytest.raises(ValueError) as err:
        load_schema(path)
    assert key in str(err.value)


def _table(tmp_path, body):
    path = _write(tmp_path, "t.csv", "duration,proto,label,attack_cat\n" + body)
    return load_csv(path, SCHEMA)


def test_fit_imputation_mean(tmp_path):
    table = _table(tmp_path, "1,tcp,normal,\n,udp,normal,\n3,tcp,normal,\n")
    state = fit_preprocessor(table, SCHEMA)
    assert state.imputation_means["duration"] == pytest.approx(2.0)


def test_fit_categories_lexicographic(tmp_path):
    table = _table(tmp_path, "1,tcp,normal,\n2,udp,normal,\n3,icmp,normal,\n")
    state = fit_preprocessor(table, SCHEMA)
    assert state.category_maps["proto"] == ("icmp", "tcp", "udp")
    assert [f for f in state.feature_names if f.startswith("proto=")] == [
        "proto=icmp",
        "proto=tcp",
        "proto=udp",
    ]


def test_fit_minmax_and_scaling(tmp_path):
    table = _table(tmp_path, "2,tcp,normal,\n4,tcp,normal,\n6,tcp,normal,\n")
    state = fit_preprocessor(table, SCHEMA)
    assert state.minmax["duration"] == (2.0, 6.0)
    ds = apply_preprocessor(state, table, SCHEMA)
    j = ds.feature_names.index("duration")
    assert ds.X[:, j].tolist() == [0.0, 0.5, 1.0]


def test_fit_rejects_all_missing_numeric(tmp_path):
    table = _table(tmp_path, ",tcp,normal,\n,tcp,normal,\n")
    with pytest.raises(ValueError, match="entirely missing"):
        fit_preprocessor(table, SCHEMA)


def test_non_numeric_cell_names_column_and_data_row(tmp_path):
    # cells are parsed once, at load, so the table never reaches fit or apply
    with pytest.raises(ValueError, match=r"column 'duration', data row 4: .*'fast'"):
        _table(tmp_path, "1,tcp,normal,\n,tcp,normal,\n2,tcp,normal,\nfast,tcp,normal,\n")


def test_header_only_csv_is_an_empty_table(tmp_path):
    table = _table(tmp_path, "")
    assert table.row_count == 0
    assert len(table.columns) == 4
    with pytest.raises(ValueError, match="empty table"):
        fit_preprocessor(table, SCHEMA)


def test_fit_rejects_zero_feature_schema(tmp_path):
    schema = Schema(columns=(("label", "binary-label"),))
    path = _write(tmp_path, "only.csv", "label\nnormal\nattack\n")
    table = load_csv(path, schema)
    with pytest.raises(ValueError, match="no numeric or categorical"):
        fit_preprocessor(table, schema)


def test_fit_rejects_colliding_encoded_names(tmp_path):
    # a numeric column "proto=tcp" and the one-hot of category "tcp" in column "proto"
    schema = Schema(columns=(("proto=tcp", "numeric"),) + SCHEMA.columns)
    path = _write(
        tmp_path,
        "c.csv",
        "proto=tcp,duration,proto,label,attack_cat\n"
        "5,1,tcp,normal,\n7,2,udp,normal,\n9,3,tcp,attack,dos\n",
    )
    table = load_csv(path, schema)
    with pytest.raises(ValueError, match=r"encoded feature names repeat: \['proto=tcp'\]"):
        fit_preprocessor(table, schema)


@pytest.mark.parametrize(
    "columns",
    [
        pytest.param(SCHEMA.columns + (("extra", "numeric"),), id="numeric-added"),
        pytest.param(SCHEMA.columns + (("extra", "categorical"),), id="categorical-added"),
        pytest.param(tuple(c for c in SCHEMA.columns if c[0] != "duration"), id="column-dropped"),
        pytest.param(
            tuple((n, "categorical" if n == "duration" else k) for n, k in SCHEMA.columns),
            id="kind-switched",
        ),
        pytest.param((SCHEMA.columns[1], SCHEMA.columns[0]) + SCHEMA.columns[2:], id="columns-reordered"),
    ],
)
def test_apply_rejects_a_state_fitted_under_another_schema(tmp_path, columns):
    state = fit_preprocessor(_table(tmp_path, "1,tcp,normal,\n3,udp,attack,dos\n"), SCHEMA)
    other = Schema(columns=columns)
    header = ",".join(n for n, _ in columns)
    cells = {"duration": "2", "proto": "tcp", "label": "attack", "attack_cat": "dos", "extra": "4"}
    path = _write(tmp_path, "o.csv", f"{header}\n" + ",".join(cells[n] for n, _ in columns) + "\n")
    table = load_csv(path, other)
    with pytest.raises(ValueError, match="do not match those the state was fitted with"):
        apply_preprocessor(state, table, other)


def test_apply_imputes_with_fitted_mean(tmp_path):
    fit_table = _table(tmp_path, "1,tcp,normal,\n3,tcp,normal,\n")
    state = fit_preprocessor(fit_table, SCHEMA)
    probe = _table(tmp_path, ",tcp,attack,dos\n")
    ds = apply_preprocessor(state, probe, SCHEMA)
    j = ds.feature_names.index("duration")
    # fitted mean 2.0 scaled by range (1, 3) -> 0.5
    assert ds.X[0, j] == pytest.approx(0.5)


@pytest.mark.parametrize("cell", ["nan", "-NaN", "inf", "-Infinity", "1e400"])
def test_non_finite_cell_names_column_and_data_row(tmp_path, cell):
    # an empty cell stays a missing value; only a non-finite number is rejected
    with pytest.raises(ValueError, match=rf"column 'duration', data row 3: '{cell}' is not a finite number"):
        _table(tmp_path, f"1,tcp,normal,\n,tcp,normal,\n{cell},tcp,normal,\n2,tcp,normal,\n")


def test_apply_unseen_category_is_zero_block(tmp_path):
    fit_table = _table(tmp_path, "1,tcp,normal,\n2,udp,normal,\n")
    state = fit_preprocessor(fit_table, SCHEMA)
    probe = _table(tmp_path, "1,sctp,normal,\n")
    ds = apply_preprocessor(state, probe, SCHEMA)
    block = [ds.X[0, ds.feature_names.index(f)] for f in ("proto=tcp", "proto=udp")]
    assert block == [0.0, 0.0]


def test_apply_does_not_clip(tmp_path):
    fit_table = _table(tmp_path, "2,tcp,normal,\n6,tcp,normal,\n")
    state = fit_preprocessor(fit_table, SCHEMA)
    probe = _table(tmp_path, "8,tcp,normal,\n")
    ds = apply_preprocessor(state, probe, SCHEMA)
    assert ds.X[0, ds.feature_names.index("duration")] == pytest.approx(1.5)


def test_constant_feature_scales_to_zero(tmp_path):
    table = _table(tmp_path, "7,tcp,normal,\n7,tcp,normal,\n")
    state = fit_preprocessor(table, SCHEMA)
    ds = apply_preprocessor(state, table, SCHEMA)
    assert np.all(ds.X[:, ds.feature_names.index("duration")] == 0.0)


def test_roundtrip_fit_table_lands_in_unit_interval(tmp_path):
    rng = np.random.default_rng(0)
    lines = []
    protos = ["tcp", "udp", "icmp"]
    for i in range(60):
        dur = "" if i % 13 == 0 else f"{rng.uniform(-5, 40):.3f}"
        label = "normal" if i % 3 else "attack"
        tag = "" if label == "normal" else "dos"
        lines.append(f"{dur},{protos[i % 3]},{label},{tag}")
    table = _table(tmp_path, "\n".join(lines) + "\n")
    state = fit_preprocessor(table, SCHEMA)
    ds = apply_preprocessor(state, table, SCHEMA)
    assert np.all(ds.X >= 0.0) and np.all(ds.X <= 1.0)


def test_fit_is_leak_free(tmp_path):
    train = _table(tmp_path, "1,tcp,normal,\n5,udp,normal,\n3,tcp,attack,dos\n")
    state_before = fit_preprocessor(train, SCHEMA)
    # a perturbed "test" table must not influence a fit on the train table
    _ = _table(tmp_path, "999,sctp,attack,doom\n")
    state_after = fit_preprocessor(train, SCHEMA)
    assert state_before == state_after


def test_extract_labels_unknown_value(tmp_path):
    table = _table(tmp_path, "1,tcp,weird,\n")
    with pytest.raises(ValueError, match="unrecognized label"):
        extract_labels(table, SCHEMA)


def test_extract_labels_missing_tag_on_attack(tmp_path):
    table = _table(tmp_path, "1,tcp,attack,\n")
    with pytest.raises(ValueError, match="no tag"):
        extract_labels(table, SCHEMA)


def test_wildcard_attack_labels_and_label_as_tag(tmp_path):
    # label column holds attack names; no separate tag column
    schema = Schema(
        columns=(("duration", "numeric"), ("class", "binary-label")),
        normal_values=frozenset({"normal"}),
        attack_values=frozenset({"*"}),
    )
    path = _write(tmp_path, "kdd.csv", "duration,class\n1,normal\n2,neptune\n3,smurf\n")
    table = load_csv(path, schema)
    y, tags = extract_labels(table, schema)
    assert y.tolist() == [0, 1, 1]
    assert tags.tolist() == ["", "neptune", "smurf"]


def _toy(n_normal, n_attack, seed=0, tag="a1"):
    rng = np.random.default_rng(seed)
    n = n_normal + n_attack
    y = np.array([0] * n_normal + [1] * n_attack)
    tags = tuple([""] * n_normal + [tag] * n_attack)
    return Dataset(X=rng.normal(size=(n, 3)), y=y, attack_type=tags, feature_names=("a", "b", "c"))


def test_split_exact_proportions():
    data = _toy(900, 100)
    train, test = stratified_split(data, SplitPlan(ratio=0.8, base_seed=1), 0)
    assert train.n_rows == 800 and test.n_rows == 200
    assert int((train.y == 0).sum()) == 720 and int((train.y == 1).sum()) == 80
    assert int((test.y == 0).sum()) == 180 and int((test.y == 1).sum()) == 20


def test_split_deterministic():
    data = _toy(50, 20)
    plan = SplitPlan(ratio=0.8, base_seed=42)
    t1, s1 = stratified_split(data, plan, 3)
    t2, s2 = stratified_split(data, plan, 3)
    assert np.array_equal(t1.X, t2.X) and np.array_equal(s1.X, s2.X)


def test_split_runs_differ():
    data = _toy(80, 20)
    plan = SplitPlan(ratio=0.8, base_seed=42)
    t0, _ = stratified_split(data, plan, 0)
    t1, _ = stratified_split(data, plan, 1)
    rows0 = {tuple(row) for row in t0.X}
    rows1 = {tuple(row) for row in t1.X}
    assert rows0 != rows1


def test_split_is_a_partition():
    data = _toy(37, 11)
    train, test = stratified_split(data, SplitPlan(ratio=0.8, base_seed=9), 2)
    all_rows = sorted(map(tuple, np.vstack([train.X, test.X])))
    assert all_rows == sorted(map(tuple, data.X))
    assert not ({tuple(r) for r in train.X} & {tuple(r) for r in test.X})
    for cls in (0, 1):
        total = int((data.y == cls).sum())
        got = int((train.y == cls).sum())
        assert abs(got - 0.8 * total) < 1.0


def test_split_indices_are_the_rows_of_the_split():
    data = _toy(40, 12)
    plan = SplitPlan(ratio=0.75, n_runs=3, base_seed=5)
    train_idx, test_idx = split_indices(data.y, plan, 2)
    train, test = stratified_split(data, plan, 2)
    assert np.array_equal(data.X[train_idx], train.X) and np.array_equal(data.X[test_idx], test.X)
    with pytest.raises(ValueError, match="run_index 3 out of range"):
        split_indices(data.y, plan, 3)


def test_split_rejects_tiny_class():
    data = _toy(10, 1)
    with pytest.raises(ValueError, match="class 1"):
        stratified_split(data, SplitPlan(base_seed=0), 0)


def test_filter_normal():
    data = _toy(5, 3)
    normals = filter_normal(data)
    assert normals.n_rows == 5
    assert np.all(normals.y == 0)

    all_normal = Dataset(
        X=np.zeros((4, 1)), y=np.zeros(4, dtype=int), attack_type=("",) * 4, feature_names=("f",)
    )
    assert filter_normal(all_normal).n_rows == 4

    all_attack = Dataset(
        X=np.zeros((3, 1)), y=np.ones(3, dtype=int), attack_type=("x",) * 3, feature_names=("f",)
    )
    with pytest.raises(ValueError, match="no normal rows"):
        filter_normal(all_attack)


def test_omit_attack_types():
    X = np.zeros((18, 1))
    y = np.array([0] * 3 + [1] * 15)
    tags = ("",) * 3 + ("a1",) * 10 + ("a2",) * 5
    data = Dataset(X=X, y=y, attack_type=tags, feature_names=("f",))

    reduced = omit_attack_types(data, {"a1"})
    assert reduced.n_rows == 8
    assert reduced.attack_tags() == ("a2",)
    assert int((reduced.y == 0).sum()) == 3

    assert omit_attack_types(data, set()).n_rows == data.n_rows
    assert omit_attack_types(data, {"a1", "a2"}).attack_tags() == ()
    with pytest.raises(ValueError, match="not present"):
        omit_attack_types(data, {"a9"})


def test_demo_is_deterministic():
    d1 = generate_gaussian_demo(1)
    d2 = generate_gaussian_demo(1)
    assert np.array_equal(d1.X, d2.X)
    assert d1.attack_type.tolist() == d2.attack_type.tolist()


def test_demo_has_three_groups():
    demo = generate_gaussian_demo(2)
    groups = {(int(label), tag) for label, tag in zip(demo.y, demo.attack_type)}
    assert groups == {(0, ""), (1, "a1"), (1, "a2")}


def test_demo_cluster_separation_and_centroid_agreement():
    demo = generate_gaussian_demo(3)
    keys = [(0, ""), (1, "a1"), (1, "a2")]
    members = {
        key: np.array(
            [i for i in range(demo.n_rows) if (int(demo.y[i]), demo.attack_type[i]) == key]
        )
        for key in keys
    }
    centroids = {key: demo.X[idx].mean(axis=0) for key, idx in members.items()}
    pooled_std = float(np.mean([demo.X[idx].std(axis=0).mean() for idx in members.values()]))
    for i, a in enumerate(keys):
        for b in keys[i + 1 :]:
            dist = float(np.linalg.norm(centroids[a] - centroids[b]))
            assert dist >= 6.0 * pooled_std

    # nearest-centroid assignment agrees with the generating cluster
    agree = 0
    for key, idx in members.items():
        for i in idx:
            dists = {k: float(np.linalg.norm(demo.X[i] - c)) for k, c in centroids.items()}
            agree += min(dists, key=dists.get) == key
    assert agree / demo.n_rows >= 0.99


def test_uniform_noise_basics():
    noise = generate_uniform_noise(4, 2, seed=5)
    assert noise.X.shape == (4, 2)
    assert np.all(noise.X >= 0.0) and np.all(noise.X <= 1.0)
    assert np.all(noise.y == 1)
    assert set(noise.attack_type) == {"synthetic-noise"}

    again = generate_uniform_noise(4, 2, seed=5)
    assert np.array_equal(noise.X, again.X)

    big = generate_uniform_noise(10_000, 1, seed=6)
    assert 0.47 <= float(big.X.mean()) <= 0.53

    with pytest.raises(ValueError):
        generate_uniform_noise(0, 2, seed=1)


def test_dataset_invariants():
    with pytest.raises(ValueError, match="empty attack_type"):
        Dataset(
            X=np.zeros((1, 1)), y=np.zeros(1, dtype=int), attack_type=("dos",), feature_names=("f",)
        )
    data = _toy(3, 2)
    with pytest.raises(ValueError):
        data.X[0, 0] = 99.0  # arrays are frozen


def test_dataset_holds_read_only_views_of_the_callers_arrays():
    X = np.zeros((3, 2))
    y = np.array([0, 1, 1], dtype=np.int64)
    data = Dataset(X=X, y=y, attack_type=("", "a1", "a1"), feature_names=("f0", "f1"))
    assert np.shares_memory(data.X, X) and np.shares_memory(data.y, y)
    assert not data.X.flags.writeable and not data.y.flags.writeable
    X[0, 0] = 5.0  # the caller's array stays writable
    assert data.X[0, 0] == 5.0
