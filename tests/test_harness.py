import csv
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import gapsgd as G
from gapsgd.cli import main
from gapsgd.harness import (SyntheticParams, build_spec, generate_synthetic,
                            load_libsvm, mean_time_to_tol, parse_plan_file,
                            read_trace_csv, run_experiment, summary_table,
                            write_trace_csv)
from gapsgd.solvers import TraceRecord

from conftest import tuned_eta


# ------------------------------------------------------------- libsvm input

def test_load_libsvm_basic_rows(tmp_path):
    p = tmp_path / "toy.txt"
    p.write_text("1 1:0.5 3:-2\n0\n")
    ds = load_libsvm(p)
    assert (ds.n, ds.d) == (2, 3)
    a = np.asarray(ds.A.todense())
    np.testing.assert_array_equal(a[0], [0.5, 0.0, -2.0])
    np.testing.assert_array_equal(a[1], [0.0, 0.0, 0.0])
    np.testing.assert_array_equal(ds.y, [1.0, 0.0])


def test_load_libsvm_feature_count_from_max_index(tmp_path):
    p = tmp_path / "wide.txt"
    p.write_text("1 2:1.5\n-1 357:2.0\n")
    assert load_libsvm(p).d == 357


def test_load_libsvm_skips_blank_lines(tmp_path):
    p = tmp_path / "blank.txt"
    p.write_text("1 1:1\n\n0 2:1\n\n")
    assert load_libsvm(p).n == 2


@pytest.mark.parametrize("content,fragment", [
    ("x 1:1\n", "line 1"),
    ("1 foo\n", "line 1"),
    ("1 1:a\n", "line 1"),
    ("1 0:2\n", "line 1"),
    ("1 1:1\n0 3:1 2:1\n", "line 2"),
])
def test_load_libsvm_errors_with_line_numbers(tmp_path, content, fragment):
    p = tmp_path / "bad.txt"
    p.write_text(content)
    with pytest.raises(G.LibsvmParseError) as exc:
        load_libsvm(p)
    assert fragment in str(exc.value)


@pytest.mark.parametrize("line,says", [
    ("1 1:0.5 2:nan", "non-finite feature value '2:nan'"),
    ("1 1:-inf", "non-finite feature value '1:-inf'"),
    ("1 1:1e400", "non-finite feature value '1:1e400'"),
    ("inf 1:0.5", "non-finite label 'inf'"),
    ("NaN 1:0.5", "non-finite label 'NaN'"),
])
def test_load_libsvm_names_the_line_of_a_non_finite_entry(tmp_path, line, says):
    p = tmp_path / "bad.txt"
    p.write_text(f"1 1:1\n\n{line}\n0 2:1\n")
    with pytest.raises(G.LibsvmParseError, match=rf"^line 3: {says}$"):
        load_libsvm(p)


def test_load_libsvm_binary_label_maps(tmp_path):
    p = tmp_path / "pm.txt"
    p.write_text("-1 1:1\n+1 2:1\n")
    np.testing.assert_array_equal(load_libsvm(p, binarize_labels=True).y, [0.0, 1.0])
    p.write_text("0 1:1\n1 2:1\n")
    np.testing.assert_array_equal(load_libsvm(p, binarize_labels=True).y, [0.0, 1.0])


def test_load_libsvm_multiclass_first_half_versus_rest(tmp_path):
    p = tmp_path / "multi.txt"
    p.write_text("0 1:1\n1 1:1\n2 1:1\n3 1:1\n2 2:1\n")
    y = load_libsvm(p, binarize_labels=True).y
    np.testing.assert_array_equal(y, [0.0, 0.0, 1.0, 1.0, 1.0])


def test_load_libsvm_keeps_raw_labels_for_regression(tmp_path):
    p = tmp_path / "reg.txt"
    p.write_text("2.5 1:1\n-0.5 2:1\n")
    np.testing.assert_array_equal(load_libsvm(p).y, [2.5, -0.5])


def oracle_load_libsvm(path, binarize_labels=False):
    """The loader as it was before chunked parsing: one Python step per token."""
    labels = []
    rows, cols, vals = [], [], []
    d = 0
    isfinite = math.isfinite
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            try:
                label = float(parts[0])
            except ValueError:
                raise G.LibsvmParseError(f"line {ln}: bad label {parts[0]!r}") from None
            if not isfinite(label):
                raise G.LibsvmParseError(f"line {ln}: non-finite label {parts[0]!r}")
            row = len(labels)
            labels.append(label)
            prev = 0
            for tok in parts[1:]:
                idx, sep, val = tok.partition(":")
                if not sep:
                    raise G.LibsvmParseError(f"line {ln}: bad feature token {tok!r}")
                try:
                    idx = int(idx)
                    val = float(val)
                except ValueError:
                    raise G.LibsvmParseError(
                        f"line {ln}: bad feature token {tok!r}") from None
                if idx < 1:
                    raise G.LibsvmParseError(f"line {ln}: index {idx} is not positive")
                if not isfinite(val):
                    raise G.LibsvmParseError(
                        f"line {ln}: non-finite feature value {tok!r}")
                if idx <= prev:
                    raise G.LibsvmParseError(
                        f"line {ln}: indices must be strictly ascending")
                prev = idx
                d = max(d, idx)
                rows.append(row)
                cols.append(idx - 1)
                vals.append(val)
    n = len(labels)
    if n == 0 or d == 0:
        raise G.LibsvmParseError("file holds no samples with features")
    y = np.asarray(labels)
    if binarize_labels:
        classes = np.unique(y)
        low = set(classes[: classes.size // 2].tolist())
        y = np.array([0.0 if v in low else 1.0 for v in y])
    return G.Dataset(sp.coo_matrix((vals, (rows, cols)), shape=(n, d)), y)


# valid but odd spellings, all read by Python's own int and float
ODD_LABELS = ["+3", "007", "-0", "1e-400", "1_0", "-1", "+1", "0", "2.5", "-.5e1", "1E3"]
ODD_VALUES = ["+3", "007", "-0", "1e-400", "1_0", "0.0", "1E5", "-.5", ".5e-3", "-1_000.5"]
SEPARATORS = [" ", " ", "\t", "  ", " \t", "\x0b", "\x0c", "　"]
ENDINGS = ["\n", "\n", "\r\n", "\r"]


def _index_spelling(rng, idx):
    s = str(idx)
    return str(rng.choice([s, "+" + s, "00" + s, s[0] + "_" + s[1:] if idx >= 10 else s]))


def random_libsvm_lines(rng, n_lines=40):
    """A valid LIBSVM file as lines of tokens, each a dict of the tokens and
    the whitespace around them; a blank line after a lone CR holds a space,
    so every line reads back as one line."""
    lines = []
    for _ in range(n_lines):
        end = str(rng.choice(ENDINGS))
        after_cr = bool(lines) and lines[-1]["end"] == "\r"
        if rng.random() < 0.15:
            lines.append(dict(toks=[], seps=[], lead=str(rng.choice(
                [" ", "\t", " \t "] if after_cr else ["", " ", "\t", " \t "])),
                trail="", end=end))
            continue
        label = (str(rng.choice(ODD_LABELS)) if rng.random() < 0.5
                 else repr(float(rng.normal())))
        idx = np.sort(rng.choice(np.arange(1, 60), size=int(rng.integers(0, 8)),
                                 replace=False))
        feats = [f"{_index_spelling(rng, int(i))}:"
                 + (str(rng.choice(ODD_VALUES)) if rng.random() < 0.3
                    else repr(float(rng.normal()))) for i in idx]
        toks = [label] + feats
        lines.append(dict(toks=toks, seps=[str(rng.choice(SEPARATORS)) for _ in toks[1:]],
                          lead=str(rng.choice(["", "", " ", "\t"])),
                          trail=str(rng.choice(["", "", " ", "\t "])), end=end))
    lines[-1]["end"] = str(rng.choice(["", "\n"]))
    return lines


def render_libsvm(lines):
    out = []
    for line in lines:
        body = "".join(t + s for t, s in zip(line["toks"], line["seps"] + [""]))
        out.append(line["lead"] + body + line["trail"] + line["end"])
    return "".join(out)


def write_libsvm_lines(path, lines):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(render_libsvm(lines))


def loaded(load, path, **kw):
    """The dataset's CSR arrays, labels and shape, bit for bit, or the
    LibsvmParseError text."""
    try:
        ds = load(path, **kw)
    except G.LibsvmParseError as exc:
        return str(exc)
    return ((ds.n, ds.d),) + tuple((a.dtype.str, a.tobytes()) for a in
                                   (ds.A.indptr, ds.A.indices, ds.A.data, ds.y))


@pytest.mark.parametrize("chunk_chars", [1, 97, 1 << 18])
def test_load_libsvm_matches_the_per_token_oracle_on_valid_odd_files(tmp_path, monkeypatch,
                                                                     chunk_chars):
    """Seeded files of odd but valid tokens, tabs, CRLF, lone CRs and lines of
    only whitespace load to the oracle's bits, read in chunks of one line,
    of a few lines and of the whole file."""
    monkeypatch.setattr(G.harness, "_CHUNK_CHARS", chunk_chars)
    p = tmp_path / "odd.txt"
    for seed in range(12):
        write_libsvm_lines(p, random_libsvm_lines(np.random.default_rng(seed)))
        for binarize in (False, True):
            want = loaded(oracle_load_libsvm, p, binarize_labels=binarize)
            assert not isinstance(want, str), want
            assert loaded(load_libsvm, p, binarize_labels=binarize) == want


def _feature_lines(lines):
    return [k for k, line in enumerate(lines) if len(line["toks"]) > 1]


def _prev_index(token):
    return int(token.partition(":")[0])


# each takes (a line's tokens, the position of a feature token) and returns the token
# that replaces it; the index faults need a feature before it on the line
MUTATIONS = {
    "two colons": lambda toks, j: "3:1:2",
    "no index": lambda toks, j: ":5",
    "no value": lambda toks, j: "5:",
    "no colon": lambda toks, j: toks[j].partition(":")[0],
    "repeated index": lambda toks, j: f"{_prev_index(toks[j - 1])}:1.5",
    "descending index": lambda toks, j: f"{_prev_index(toks[j - 1]) - 1}:1.5",
    "zero index": lambda toks, j: "0:2",
    "negative zero index": lambda toks, j: "-0:2",
    "nan value": lambda toks, j: toks[j].partition(":")[0] + ":nan",
    "inf value": lambda toks, j: toks[j].partition(":")[0] + ":-inf",
    "overflowing value": lambda toks, j: toks[j].partition(":")[0] + ":1e400",
    "nan label": lambda toks, j: "NaN",
    "bad label": lambda toks, j: "one",
}


def _mutate(lines, kind, k, j):
    """lines with the token at (line k, position j) replaced by a kind of fault;
    a label mutation replaces position 0 instead."""
    toks = list(lines[k]["toks"])
    if kind.endswith("label"):
        j = 0
    toks[j] = MUTATIONS[kind](toks, j)
    out = list(lines)
    out[k] = dict(lines[k], toks=toks)
    return out


@pytest.mark.parametrize("kind", sorted(MUTATIONS))
def test_load_libsvm_names_the_oracles_line_on_single_token_faults(tmp_path, monkeypatch,
                                                                   kind):
    """One bad token at a random place in a seeded valid file gives the
    oracle's LibsvmParseError text, whether the file is read in one chunk or
    in chunks of a few lines."""
    p = tmp_path / "bad.txt"
    for seed in range(12):
        rng = np.random.default_rng(1000 + seed)
        lines = random_libsvm_lines(rng)
        k = int(rng.choice([k for k, line in enumerate(lines) if len(line["toks"]) > 2]))
        first = 2 if kind in ("repeated index", "descending index") else 1
        j = int(rng.integers(first, len(lines[k]["toks"])))
        write_libsvm_lines(p, _mutate(lines, kind, k, j))
        want = loaded(oracle_load_libsvm, p)
        assert isinstance(want, str) and want.startswith(f"line {k + 1}: "), want
        for chunk_chars in (97, 1 << 18):
            monkeypatch.setattr(G.harness, "_CHUNK_CHARS", chunk_chars)
            assert loaded(load_libsvm, p) == want


@pytest.mark.parametrize("edge", ["first", "last"])
@pytest.mark.parametrize("kind", ["two colons", "no colon", "zero index", "nan value",
                                  "bad label"])
def test_load_libsvm_finds_a_bad_token_at_a_chunk_edge(tmp_path, monkeypatch, edge, kind):
    """The chunk size is set so that the mutated line opens a chunk, its
    bad label or first feature token leading it, or closes one, its bad
    token (a lone label, for a bad label) the chunk's last: the fault is
    named as the oracle names it."""
    p = tmp_path / "edge.txt"
    for seed in range(6):
        rng = np.random.default_rng(2000 + seed)
        lines = random_libsvm_lines(rng)
        k = int(rng.choice([k for k in _feature_lines(lines) if 0 < k < len(lines) - 1]))
        if edge == "last" and kind == "bad label":
            lines[k] = dict(lines[k], toks=lines[k]["toks"][:1], seps=[])
        j = 1 if edge == "first" else len(lines[k]["toks"]) - 1
        write_libsvm_lines(p, _mutate(lines, kind, k, j))
        with open(p, encoding="utf-8") as fh:
            sizes = [len(line) for line in fh]
        monkeypatch.setattr(G.harness, "_CHUNK_CHARS", sum(sizes[:k + (edge == "last")]))
        want = loaded(oracle_load_libsvm, p)
        assert isinstance(want, str) and want.startswith(f"line {k + 1}: "), want
        assert loaded(load_libsvm, p) == want


def test_load_libsvm_of_labels_only_says_so_as_the_oracle_does(tmp_path):
    p = tmp_path / "labels.txt"
    lines = random_libsvm_lines(np.random.default_rng(7))
    write_libsvm_lines(p, [dict(line, toks=line["toks"][:1], seps=[]) for line in lines])
    assert loaded(load_libsvm, p) == loaded(oracle_load_libsvm, p) == (
        "file holds no samples with features")
    p.write_text("")
    assert loaded(load_libsvm, p) == loaded(oracle_load_libsvm, p)


def test_load_libsvm_holds_less_memory_than_the_per_token_oracle(tmp_path):
    """On a 1000 x 5000 file at 2% density (about 100k stored entries) the
    chunked loader's tracemalloc peak stays below the oracle's, which holds
    three Python lists of every entry."""
    data = generate_synthetic(SyntheticParams(n=1000, d=5000, sparsity=0.02, seed=0))
    p = tmp_path / "wide.txt"
    a, y = data.A, data.y.tolist()
    with open(p, "w", encoding="utf-8") as fh:
        for i in range(data.n):
            s, e = a.indptr[i], a.indptr[i + 1]
            fh.write(f"{y[i]!r} " + " ".join(
                f"{c + 1}:{v!r}" for c, v in zip(a.indices[s:e].tolist(),
                                                 a.data[s:e].tolist())) + "\n")
    peaks = {}
    for name, load in (("oracle", oracle_load_libsvm), ("chunked", load_libsvm)):
        tracemalloc.start()
        try:
            ds = load(p)
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.A.nnz == a.nnz
    assert peaks["chunked"] < peaks["oracle"], peaks


# --------------------------------------------------------- synthetic data

def test_generate_synthetic_is_seed_deterministic():
    params = SyntheticParams(n=40, d=60, sparsity=0.4, noise=0.1, seed=7,
                             support_size=5)
    a, b = generate_synthetic(params), generate_synthetic(params)
    assert np.array_equal(a.A.indptr, b.A.indptr)
    assert np.array_equal(a.A.indices, b.A.indices)
    assert np.array_equal(a.A.data, b.A.data)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.x_true, b.x_true)


def test_generate_synthetic_oracle_support_envelope():
    data = generate_synthetic(SyntheticParams(n=120, d=500, sparsity=0.3,
                                              noise=0.05, seed=3, support_size=10))
    spec = build_spec(data, model="lasso", lambda_ratio=0.25, q=10)
    rep = G.reference_solve(spec, tol=1e-9)
    assert 5 <= rep.support.size <= 30


def test_generate_synthetic_orthonormal_recovers_planted_support():
    data = generate_synthetic(SyntheticParams(n=60, d=30, noise=0.0, seed=5,
                                              support_size=4, orthonormal=True))
    spec = build_spec(data, model="lasso", lambda_ratio=0.25, q=6)
    rep = G.reference_solve(spec, tol=1e-10)
    np.testing.assert_array_equal(rep.support, np.flatnonzero(data.x_true))


def test_generate_synthetic_logistic_labels_binary():
    data = generate_synthetic(SyntheticParams(n=50, d=20, seed=1, noise=0.05,
                                              model="logistic"))
    assert set(np.unique(data.y)) <= {0.0, 1.0}


def test_generate_synthetic_invalid_params():
    for kw in (dict(n=0, d=5), dict(n=5, d=5, sparsity=0.0),
               dict(n=5, d=5, noise=-1.0), dict(n=5, d=5, model="svm"),
               dict(n=5, d=5, support_size=9), dict(n=3, d=5, orthonormal=True),
               dict(n=5, d=5, support_placement="middle"),
               dict(n=5, d=5, noise=math.nan), dict(n=5, d=5, noise=math.inf),
               dict(n=5, d=5, noise=math.nan, model="logistic"),
               dict(n=5, d=5, noise=math.inf, model="logistic"),
               dict(n=5, d=5, noise=1.5, model="logistic"),
               dict(n=5, d=5, feature_scale=0.0), dict(n=5, d=5, feature_scale=-1.0),
               dict(n=5, d=5, feature_scale=math.inf), dict(n=5, d=5, amplitude=0.0),
               dict(n=5, d=5, amplitude=-2.0), dict(n=5, d=5, amplitude=math.inf),
               dict(n=2.5, d=5), dict(n=5, d=2.5), dict(n=True, d=5), dict(n=5, d=True),
               dict(n=5, d=5, seed=True), dict(n=5, d=5, seed=1.5),
               dict(n=5, d=5, support_size=2.5), dict(n=5, d=5, support_size=True),
               dict(n=5, d=5, support_size=np.float64(2.0)),
               # a bool is not a density, a deviation, a scale or an amplitude
               *(dict(n=5, d=5, **{name: flag})
                 for name in ("sparsity", "noise", "feature_scale", "amplitude")
                 for flag in (True, np.True_)),
               dict(n=5, d=5, orthonormal=np.True_), dict(n=5, d=5, orthonormal=1)):
        with pytest.raises(ValueError):
            generate_synthetic(SyntheticParams(**kw))


def test_generate_synthetic_checks_every_parameter_before_the_first_draw(monkeypatch):
    """A bad support_size or support_placement, and a bool where a real number
    or a non-bool flag belongs, raise before any normal is drawn."""
    draws = []

    class SpyGenerator(np.random.Generator):
        def normal(self, *args, **kwargs):
            draws.append(kwargs.get("size"))
            return super().normal(*args, **kwargs)

    monkeypatch.setattr(np.random, "Generator", SpyGenerator)
    generate_synthetic(SyntheticParams(n=5, d=5))
    assert draws  # the spy sees the design's draws
    draws.clear()
    for kw in (dict(support_size=6), dict(support_size=2.5),
               dict(support_placement="middle"), dict(sparsity=True),
               dict(amplitude=np.True_), dict(orthonormal=np.True_)):
        with pytest.raises(ValueError):
            generate_synthetic(SyntheticParams(n=5, d=5, **kw))
        assert draws == [], kw


def oracle_generate_synthetic(params):
    """The generator as it was before chunked drawing: two dense n x d arrays."""
    p = params
    rng = np.random.Generator(np.random.Philox(p.seed))
    if p.orthonormal:
        qmat, _ = np.linalg.qr(rng.normal(size=(p.n, p.d)))
        dense = qmat * math.sqrt(p.n) * p.feature_scale
    else:
        dense = rng.normal(size=(p.n, p.d)) * p.feature_scale
        dense *= rng.random(size=(p.n, p.d)) < p.sparsity
    k = p.support_size if p.support_size is not None else max(1, p.d // 20)
    if p.support_placement == "prefix":
        support = np.arange(k)
    else:
        support = np.sort(rng.choice(p.d, size=k, replace=False))
    x_true = np.zeros(p.d)
    x_true[support] = (rng.choice([-1.0, 1.0], size=k)
                       * rng.uniform(1.0, 2.0, size=k) * p.amplitude)
    z = dense @ x_true
    if p.model == "lasso":
        y = z + p.noise * rng.normal(size=p.n)
    else:
        y = (rng.random(p.n) < 1.0 / (1.0 + np.exp(-z))).astype(float)
        if p.noise > 0:
            flip = rng.random(p.n) < p.noise
            y[flip] = 1.0 - y[flip]
    return G.Dataset(sp.csr_matrix(dense), y, x_true=x_true)


def generated(gen, params):
    """Every array of gen(params), with its dtype, as bytes."""
    ds = gen(params)
    return tuple((a.dtype.str, a.tobytes()) for a in
                 (ds.A.indptr, ds.A.indices, ds.A.data, ds.y, ds.x_true))


def random_synthetic_params(rng):
    """Seeded params over both models and placements, noise 0 and density 1 or
    2%, and heights below 8, one above a multiple of 8 and arbitrary."""
    n = int(rng.choice([rng.integers(1, 8), 8 * rng.integers(1, 12) + 1,
                        rng.integers(8, 120)]))
    d = int(rng.integers(1, 300))
    return SyntheticParams(
        n=n, d=d, sparsity=float(rng.choice([1.0, 0.02, rng.uniform(0.05, 1.0)])),
        noise=float(rng.choice([0.0, 0.1])), seed=int(rng.integers(0, 1000)),
        model=str(rng.choice(["lasso", "logistic"])),
        support_size=int(rng.integers(1, d + 1)),
        support_placement=str(rng.choice(["random", "prefix"])),
        amplitude=float(rng.uniform(0.5, 2.0)),
        feature_scale=float(rng.uniform(0.5, 2.0)))


@pytest.mark.parametrize("chunk_cells", [1, 4099, 1 << 18])
def test_generate_synthetic_matches_the_one_shot_oracle_byte_for_byte(monkeypatch,
                                                                      chunk_cells):
    """Seeded random params give the oracle's indptr, indices, data, y and
    x_true, dtypes included, in chunks of 8 rows, of a few rows and of the
    whole design; so do a design wider than a chunk (8-row chunks, a 3-row
    tail) and an orthonormal one."""
    monkeypatch.setattr(G.harness, "_CHUNK_CELLS", chunk_cells)
    rng = np.random.default_rng(chunk_cells)
    cases = [random_synthetic_params(rng) for _ in range(40)]
    cases.append(SyntheticParams(n=40, d=12, seed=3, orthonormal=True))
    if chunk_cells == 1 << 18:
        cases.append(SyntheticParams(n=19, d=(1 << 18) + 3, sparsity=0.001, seed=2,
                                     support_size=5))
    for params in cases:
        assert generated(generate_synthetic, params) == generated(
            oracle_generate_synthetic, params), params


def test_generate_synthetic_holds_less_memory_than_the_one_shot_oracle():
    """On 1000 x 5000 at 2% density the chunked generator's tracemalloc peak
    stays below a quarter of the oracle's, which holds two dense n x d arrays.
    On designs of one chunk it is no higher than the oracle's, give or take
    4 KiB: both peak while the design, its uniforms and its mask are held, and
    the few small Python objects beside them differ by some hundred bytes
    from run to run."""
    for kw, bound in ((dict(n=1000, d=5000, sparsity=0.02, support_size=50),
                       lambda oracle: 0.25 * oracle),
                      (dict(n=500, d=500, sparsity=0.2, model="logistic"),
                       lambda oracle: oracle + 4096),
                      (dict(n=2000, d=40, sparsity=1.0), lambda oracle: oracle + 4096)):
        params = SyntheticParams(seed=0, **kw)
        peaks = {}
        for name, gen in (("oracle", oracle_generate_synthetic),
                          ("chunked", generate_synthetic)):
            tracemalloc.start()
            try:
                gen(params)
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["chunked"] <= bound(peaks["oracle"]), (kw, peaks)


_HASH_SCRIPT = """
import hashlib
from gapsgd.harness import SyntheticParams, generate_synthetic
for n, d in ((219, 2802), (1003, 4999), (513, 3000)):
    ds = generate_synthetic(SyntheticParams(n=n, d=d, sparsity=0.05, seed=0))
    print(hashlib.sha256(ds.A.data.tobytes()).hexdigest(),
          hashlib.sha256(ds.y.tobytes()).hexdigest())
"""


def test_generate_synthetic_bytes_do_not_depend_on_the_blas_thread_count():
    """One and two OpenBLAS threads give the same A.data and y. A one-shot
    product over the whole design is split across threads at these shapes,
    which moved y."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    hashes = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(
                   [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
        done = subprocess.run([sys.executable, "-c", _HASH_SCRIPT], capture_output=True,
                              text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        hashes.append(done.stdout)
    assert hashes[0] == hashes[1]


# ------------------------------------------------------------- CSV traces

def test_trace_csv_round_trip(tmp_path):
    rows = [TraceRecord(0, 0.0, 1.23456789012345678, 0.5, 10, 200),
            TraceRecord(1, 0.0123, 0.3333333333333333, 1e-17, 9, 180,
                        restart="average"),
            TraceRecord(2, 0.0251, 0.30000000000000004, 2e-9, 9, 180,
                        radius=0.1 + 0.2, working_blocks=4, restart="last",
                        refined_dual=True, inner_steps=120),
            TraceRecord(3, 0.0302, 0.29999999999999993, 3e-17, 3, 60,
                        radius=0.01, working_blocks=3, restart="refined",
                        refined_dual=True, identified=True, inner_steps=45)]
    path = tmp_path / "t.csv"
    write_trace_csv(path, rows)
    back = read_trace_csv(path)
    assert back == rows


@pytest.mark.parametrize("edit", [lambda row: row + ",7", lambda row: row.rsplit(",", 1)[0]],
                         ids=["extra-cell", "short-row"])
def test_trace_csv_rejects_a_row_of_the_wrong_length(tmp_path, edit):
    """A row with a cell too many or too few raises ValueError naming its line."""
    path = tmp_path / "t.csv"
    write_trace_csv(path, [TraceRecord(0, 0.0, 1.5, 0.5, 10, 200),
                           TraceRecord(1, 0.01, 1.25, 0.25, 9, 180, restart="last")])
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[2] = edit(lines[2])
    path.write_text("\r\n".join(lines) + "\r\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 3 "):
        read_trace_csv(path)


# ------------------------------------------------------------ experiments

def small_plan(tmp_path, reps=2, ratios=(0.5, 0.25), plot=False, solvers=None):
    synth = SyntheticParams(n=50, d=60, sparsity=0.5, noise=0.05, seed=11,
                            support_size=5)
    data = generate_synthetic(synth)
    spec = build_spec(data, model="lasso", lambda_ratio=0.5, q=10)
    eta = tuned_eta(spec)
    if solvers is None:
        solvers = (G.SolverConfig(solver="adsgd", eta=eta, gap_tol=1e-5,
                                  max_outer=120, seed=100),
                   G.SolverConfig(solver="mrbcd", eta=eta, gap_tol=1e-5,
                                  max_outer=120, seed=100))
    return G.ExperimentPlan(synthetic=synth, model="lasso", lambda_ratios=ratios,
                            solvers=solvers, repetitions=reps,
                            out_dir=str(tmp_path / "runs"), plot=plot)


def test_run_experiment_writes_round_trippable_traces(tmp_path):
    plan = small_plan(tmp_path)
    summaries = run_experiment(plan)
    assert len(summaries) == 2 * 2 * 2
    for s in summaries:
        assert not s.error
        assert os.path.exists(s.trace_path)
        trace = read_trace_csv(s.trace_path)
        assert s.converged == (trace[-1].gap <= 1e-5)
        assert trace[-1].gap <= 1e-5 or not s.converged
    assert os.path.exists(os.path.join(plan.out_dir, "summary.csv"))


def test_summary_csv_holds_each_run_as_written(tmp_path):
    """summary.csv has one column per RunSummary field, floats written by
    repr, converged as 0/1 and an empty error on a run that did not raise;
    a run that raised has NaN times and its message, and no identified
    row: an empty identified_at and a NaN identified_s."""
    eta = small_plan(tmp_path).solvers[0].eta
    plan = small_plan(tmp_path, reps=1, ratios=(0.5,), solvers=(
        G.SolverConfig(solver="adsgd", eta=eta, gap_tol=1e-5, max_outer=120, seed=100),
        G.SolverConfig(solver="adsgd", eta=1000.0, max_outer=20, seed=100)))
    ok, failed = run_experiment(plan)
    with open(os.path.join(plan.out_dir, "summary.csv"), newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["solver", "lambda_ratio", "repetition", "seed", "converged",
                      "outer_iters", "wall_time", "time_to_tol", "final_gap",
                      "final_objective", "coord_updates", "trace_path", "error",
                      "identified_at", "identified_s"]
    assert ok.converged and ok.error == ""
    assert rows[0] == ["adsgd", "0.5", "0", "100", "1", str(ok.outer_iters),
                       repr(ok.wall_time), repr(ok.wall_time), repr(ok.final_gap),
                       repr(ok.final_objective), str(ok.coord_updates), ok.trace_path, "",
                       str(ok.identified_at), repr(ok.identified_s)]
    assert rows[1] == ["adsgd", "0.5", "0", "100", "0", "0", "nan", "nan", "nan", "nan",
                       "0", "", failed.error, "", "nan"]
    assert failed.error.startswith("objective ran away to ")


def test_summary_csv_reads_back_when_each_run_identified_its_model(tmp_path):
    """identified_at and identified_s of a run_experiment grid read back from
    summary.csv as each report gave them: the outer_iter and elapsed_s of
    its trace's first identified row, read back from the run's trace CSV.
    mrbcd never screens, so its cells are empty and NaN."""
    plan = small_plan(tmp_path, reps=2, ratios=(0.5, 0.25))
    summaries = run_experiment(plan)
    with open(os.path.join(plan.out_dir, "summary.csv"), newline="",
              encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(summaries) == 8
    for s, row in zip(summaries, rows):
        first = next((r for r in read_trace_csv(s.trace_path) if r.identified), None)
        if s.solver == "mrbcd":
            assert first is None and s.identified_at is None
            assert row["identified_at"] == "" and row["identified_s"] == "nan"
            continue
        assert s.converged and first is not None
        assert (s.identified_at, s.identified_s) == (first.outer_iter, first.elapsed_s)
        assert int(row["identified_at"]) == s.identified_at <= s.outer_iters
        assert float(row["identified_s"]) == s.identified_s <= s.wall_time


def test_run_experiment_rerun_identical_up_to_timing(tmp_path):
    plan_a = small_plan(tmp_path / "a", reps=2, ratios=(0.5,))
    plan_b = small_plan(tmp_path / "b", reps=2, ratios=(0.5,))
    sa, sb = run_experiment(plan_a), run_experiment(plan_b)
    assert len(sa) == len(sb)
    for ra, rb in zip(sa, sb):
        ta, tb = read_trace_csv(ra.trace_path), read_trace_csv(rb.trace_path)
        assert [(r.outer_iter, r.objective, r.gap, r.active_blocks,
                 r.active_features) for r in ta] == \
               [(r.outer_iter, r.objective, r.gap, r.active_blocks,
                 r.active_features) for r in tb]


def test_run_experiment_mean_times_are_arithmetic_means(tmp_path):
    plan = small_plan(tmp_path, reps=3, ratios=(0.5,))
    summaries = run_experiment(plan)
    means = mean_time_to_tol(summaries)
    for (solver, ratio), val in means.items():
        manual = np.mean([s.time_to_tol for s in summaries
                          if s.solver == solver and s.lambda_ratio == ratio])
        assert abs(val - manual) <= 1e-9
    table = summary_table(summaries)
    assert "adsgd" in table and "mrbcd" in table


def test_run_experiment_lambda_ratio_one_returns_zero(tmp_path):
    plan = small_plan(tmp_path, reps=1, ratios=(1.0,))
    summaries = run_experiment(plan)
    for s in summaries:
        assert s.converged and s.outer_iters == 0


def test_run_experiment_records_failures_and_continues(tmp_path):
    good = G.SolverConfig(solver="adsgd", gap_tol=1e-4, max_outer=100, seed=1)
    bad = G.SolverConfig(solver="mrbcd", eta=1e9, gap_tol=1e-4, max_outer=50,
                         seed=1)
    plan = small_plan(tmp_path, reps=1, ratios=(0.5,), solvers=(bad, good))
    summaries = run_experiment(plan)
    assert len(summaries) == 2
    assert summaries[0].error and not summaries[1].error


def test_run_experiment_plot_emits_svg(tmp_path):
    plan = small_plan(tmp_path, reps=1, ratios=(0.5,), plot=True)
    run_experiment(plan)
    svg = os.path.join(plan.out_dir, "suboptimality_r0.5.svg")
    assert os.path.exists(svg)
    with open(svg, encoding="utf-8") as fh:
        body = fh.read()
    assert "<polyline" in body and "<svg" in body


def test_experiment_plan_validation():
    synth = SyntheticParams(n=10, d=10)
    cfg = (G.SolverConfig(),)
    with pytest.raises(ValueError):
        G.ExperimentPlan(synthetic=synth, dataset_path="x", solvers=cfg)
    with pytest.raises(ValueError):
        G.ExperimentPlan(synthetic=synth, solvers=cfg, lambda_ratios=(1.5,))
    with pytest.raises(ValueError):
        G.ExperimentPlan(synthetic=synth, solvers=cfg, repetitions=0)
    with pytest.raises(ValueError):
        G.ExperimentPlan(synthetic=synth, solvers=())
    # refused here, before run_experiment builds any data
    for bad in (2.5, True):
        with pytest.raises(ValueError, match="repetitions must be an integer"):
            G.ExperimentPlan(synthetic=synth, solvers=cfg, repetitions=bad)
    with pytest.raises(ValueError, match="at least one lambda ratio"):
        G.ExperimentPlan(synthetic=synth, solvers=cfg, lambda_ratios=())
    for bad in (True, np.True_):
        with pytest.raises(ValueError, match="lambda ratios must lie in"):
            G.ExperimentPlan(synthetic=synth, solvers=cfg, lambda_ratios=(bad,))
    assert G.ExperimentPlan(synthetic=synth, solvers=cfg,
                            repetitions=np.int64(2)).repetitions == 2


# --------------------------------------------------------------- plan files

def test_parse_plan_file(tmp_path):
    p = tmp_path / "bench.plan"
    p.write_text(
        "# demo plan\n"
        "n = 50\n"
        "d = 60\n"
        "sparsity = 0.4\n"
        "noise = 0.05\n"
        "seed = 3\n"
        "model = lasso\n"
        "lambda_ratios = 0.5,0.25\n"
        "solvers = adsgd, mrbcd\n"
        "repetitions = 2\n"
        "gap_tol = 1e-5\n"
        "max_outer = 80\n"
        "blocks = 6\n"
        "mu_p = 0.01\n"
        "out = bench_out\n"
    )
    plan = parse_plan_file(p)
    assert plan.q == 6 and plan.mu_p == 0.01
    assert plan.synthetic.n == 50 and plan.synthetic.d == 60
    assert plan.lambda_ratios == (0.5, 0.25)
    assert tuple(c.solver for c in plan.solvers) == ("adsgd", "mrbcd")
    assert plan.repetitions == 2
    assert plan.solvers[0].gap_tol == 1e-5
    assert plan.out_dir == "bench_out"


def test_run_experiment_builds_the_plans_problem(tmp_path):
    plan = G.ExperimentPlan(
        synthetic=G.SyntheticParams(n=30, d=24, noise=0.05, seed=4), q=6, mu_p=0.01,
        lambda_ratios=(0.5,), solvers=(G.SolverConfig(solver="adsgd", max_outer=2),
                                       G.SolverConfig(solver="proxsvrg", max_outer=2)),
        out_dir=str(tmp_path))
    rows = G.run_experiment(plan)
    assert [r.error for r in rows] == ["", ""]
    spec = build_spec(generate_synthetic(plan.synthetic), lambda_ratio=0.5, q=6,
                      mu_p=0.01)
    for r, cfg in zip(rows, plan.solvers):
        got = read_trace_csv(r.trace_path)
        want = G.solve(spec, cfg).trace
        assert got[0].active_blocks == 6
        assert [t.objective for t in got] == [t.objective for t in want]
        assert [t.gap for t in got] == [t.gap for t in want]


def test_parse_plan_file_rejects_garbage(tmp_path):
    p = tmp_path / "bad.plan"
    p.write_text("this is not a key value line\n")
    with pytest.raises(ValueError):
        parse_plan_file(p)


def test_parse_plan_file_rejects_unknown_key_with_its_line(tmp_path):
    p = tmp_path / "typo.plan"
    p.write_text("n = 50\nd = 60\ngap_tl = 1e-9\n")
    with pytest.raises(ValueError, match=r"line 3: unknown key 'gap_tl'"):
        parse_plan_file(p)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1e-6", "fast"])
@pytest.mark.parametrize("key", ["gap_tol", "eta"])
def test_parse_plan_file_rejects_a_bad_eta_or_gap_tol_with_its_line(tmp_path, key, value):
    p = tmp_path / "bad.plan"
    p.write_text(f"n = 50\nd = 60\n# tolerances\n{key} = {value}\n")
    with pytest.raises(ValueError, match=rf"line 4: {key} must be positive and finite"):
        parse_plan_file(p)


@pytest.mark.parametrize("value", ["0", "-3", "2.5", "many"])
@pytest.mark.parametrize("key", ["batch_size", "inner_m", "max_outer"])
def test_parse_plan_file_rejects_a_count_below_one_with_its_line(tmp_path, key, value):
    """A batch size, epoch length or outer budget below one is refused while
    the file is parsed, not by every solve the plan would run."""
    p = tmp_path / "bad.plan"
    p.write_text(f"n = 50\nd = 60\n# budgets\n{key} = {value}\n")
    with pytest.raises(ValueError, match=rf"^plan line 4: {key} must be a positive "
                                         rf"integer, got '{value}'"):
        parse_plan_file(p)
    p.write_text(f"n = 50\nd = 60\n{key} = 1\n")
    cfg = parse_plan_file(p).solvers[0]
    assert {"batch_size": cfg.batch_size, "inner_m": cfg.m,
            "max_outer": cfg.max_outer}[key] == 1


@pytest.mark.parametrize("text,want", [("True", True), ("YES", True), ("1", True),
                                       ("False", False), ("no", False), ("0", False)])
def test_parse_plan_file_reads_flags_in_any_case(tmp_path, text, want):
    p = tmp_path / "flags.plan"
    p.write_text(f"n = 50\nd = 60\nplot = {text}\n")
    assert parse_plan_file(p).plot is want


def test_parse_plan_file_rejects_bad_flag_with_its_line(tmp_path):
    p = tmp_path / "flag.plan"
    p.write_text("n = 50\nd = 60\n\nplot = on\n")
    with pytest.raises(ValueError, match=r"line 4: plot must be"):
        parse_plan_file(p)


@pytest.mark.parametrize("line,says", [
    ("n = 5x", "n must be a positive integer, got '5x'"),
    ("repetitions = 2.5", "repetitions must be a positive integer, got '2.5'"),
    ("sparsity = dense", "sparsity must be a number, got 'dense'"),
    ("lambda_ratios = 0.5,,0.25", "lambda_ratios must be comma-separated numbers"),
    ("solvers = adsgd, mrbdc", "solvers must be comma-separated names among adsgd, "
                               "mrbcd, proxsvrg, reference, got 'adsgd, mrbdc'"),
])
def test_parse_plan_file_rejects_a_value_of_the_wrong_type_with_its_line(tmp_path,
                                                                         line, says):
    p = tmp_path / "bad.plan"
    p.write_text(f"# sizes\n{line}\nn = 50\nd = 60\n")
    with pytest.raises(ValueError, match=rf"^plan line 2: {says}"):
        parse_plan_file(p)


@pytest.mark.parametrize("given,missing", [("n = 50", "d"), ("d = 60", "n"), ("", "n")])
def test_parse_plan_file_names_a_missing_synthetic_size(tmp_path, capsys, given, missing):
    p = tmp_path / "sizeless.plan"
    p.write_text(f"{given}\nsolvers = adsgd\nout = {tmp_path / 'runs'}\n")
    with pytest.raises(ValueError, match=f"synthetic data needs key '{missing}'"):
        parse_plan_file(p)
    assert main(["bench", str(p)]) == 3
    assert f"needs key '{missing}'" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "runs")
    p.write_text("data = some.libsvm\n")  # a data file needs no sizes
    assert parse_plan_file(p).dataset_path == "some.libsvm"


def test_parse_plan_file_rejects_eta_with_theory_mode_on(tmp_path):
    # the theory preset is gone: its key is unknown, with or without eta,
    # and whether it is on or off
    p = tmp_path / "both.plan"
    for plan, ln in (("n = 50\nd = 60\neta = 0.1\ntheory_mode = yes\n", 4),
                     ("n = 50\nd = 60\neta = 0.1\ntheory_mode = no\n", 4),
                     ("n = 50\nd = 60\ntheory_mode = no\neta = 0.1\n", 3),
                     ("n = 50\nd = 60\neta = 0.1\n\ntheory_mode = yes\n", 5),
                     ("n = 50\nd = 60\ntheory_mode = 1\n", 3)):
        p.write_text(plan)
        with pytest.raises(ValueError, match=rf"^plan line {ln}: unknown key 'theory_mode'"):
            parse_plan_file(p)
    p.write_text("n = 50\nd = 60\neta = 0.1\n")
    assert parse_plan_file(p).solvers[0].eta == 0.1


def test_parse_plan_file_reads_the_example_plan():
    plan = parse_plan_file(pathlib.Path(__file__).resolve().parents[1]
                           / "demos" / "example_plan.txt")
    assert plan.synthetic.support_size == 10 and plan.synthetic.support_placement == "prefix"
    assert plan.plot is True and plan.repetitions == 3


def test_parse_plan_file_leaves_every_omitted_key_at_its_dataclass_default(tmp_path):
    """A plan of n and d alone parses to the defaults of SolverConfig,
    SyntheticParams and ExperimentPlan, with adsgd as its one solver."""
    p = tmp_path / "bench.plan"
    p.write_text("n = 50\nd = 60\n")
    assert parse_plan_file(p) == G.ExperimentPlan(
        synthetic=G.SyntheticParams(n=50, d=60), solvers=(G.SolverConfig(solver="adsgd"),))


def test_build_spec_rejects_an_unknown_model_or_penalty_by_its_choices():
    """A misspelled model is refused, not fitted as logistic regression, and
    an unknown penalty raises ValueError, not a bare KeyError."""
    ds = generate_synthetic(SyntheticParams(n=20, d=12, seed=1))
    with pytest.raises(ValueError, match=r"^model must be one of lasso, logistic, "
                                         r"got 'Lasso'$"):
        build_spec(ds, model="Lasso")
    with pytest.raises(ValueError, match=r"^reg must be one of l1, group_l2, got 'l2'$"):
        build_spec(ds, reg="l2")
    for bad in (True, np.True_):  # a bool is not lambda_max
        for kw in (dict(lambda_ratio=bad), dict(lam=bad)):
            with pytest.raises(ValueError, match=r"^lam and lambda_ratio must be real"):
                build_spec(ds, **kw)
    assert build_spec(ds, model="lasso").loss.name == "squared"


def test_generate_synthetic_names_a_negative_seed():
    with pytest.raises(ValueError, match=r"^seed must be a nonnegative integer, got -1$"):
        generate_synthetic(SyntheticParams(n=5, d=5, seed=-1))


def test_build_spec_rejects_zero_lambda_max():
    ds = G.Dataset(np.eye(3), np.zeros(3))
    with pytest.raises(ValueError):
        build_spec(ds, model="lasso", lambda_ratio=0.5, q=3)
