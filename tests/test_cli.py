"""End-to-end runs of the command line through cli.run().

Each subcommand is exercised against a tmp directory and its artifacts
parsed back; exit codes are pinned per failure class.  Reruns must be
byte-identical apart from the manifest timestamps.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from tickphys import (
    DfaConfig,
    FitDiverged,
    RegularSeries,
    avg_hurst_vs_scale,
    cli,
    horizon_scaling,
    invstat,
    market_data,
    parse_regular_series,
    selftest,
    serialize_regular_series,
)
from tickphys.selftest import _synthetic_book_text

EMPTY_SHA256 = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


def manifest_sans_times(path):
    doc = json.loads(path.read_text())
    doc.pop("started")
    doc.pop("finished")
    return doc


def test_synth_writes_series_and_manifest(tmp_path):
    out = tmp_path / "art"
    rc = cli.run(
        ["synth", "--model", "fbm", "--n", "2048", "--seed", "3",
         "--hurst", "0.7", "--out", str(out)]
    )
    assert rc == 0
    series = parse_regular_series((out / "series.csv").read_text())
    assert series.values.size == 2048
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["subcommand"] == "synth"
    assert doc["parameters"]["hurst"] == 0.7
    assert doc["input_digest"] == EMPTY_SHA256  # no input files
    assert set(doc) == {
        "subcommand", "parameters", "input_digest", "tool_version", "started", "finished",
    }


def test_synth_tickwalk_and_validation(tmp_path):
    assert cli.run(  # tickwalk ignores --scale, even one that would overflow another model
        ["synth", "--model", "tickwalk", "--n", "100", "--seed", "1",
         "--p-zero", "0.5", "--scale", "1e308", "--out", str(tmp_path / "a")]
    ) == 0
    vals = parse_regular_series((tmp_path / "a" / "series.csv").read_text()).values
    assert np.all(vals == np.round(vals))
    # fbm without --hurst is a usage problem
    assert cli.run(
        ["synth", "--model", "fbm", "--n", "100", "--seed", "1", "--out", str(tmp_path / "b")]
    ) == 1
    assert not (tmp_path / "b").exists()  # failed runs leave nothing behind


@pytest.mark.parametrize("model", ["fbm", "brownian", "tickwalk"])
@pytest.mark.parametrize("scale", ["nan", "inf", "-inf", "0", "-2"])
def test_synth_refuses_a_scale_that_is_not_finite_and_positive(tmp_path, model, scale, capsys):
    out = tmp_path / "s"
    argv = ["synth", "--model", model, "--n", "100", "--seed", "1", "--hurst", "0.6", f"--scale={scale}"]
    assert cli.run(argv + ["--out", str(out)]) == 1
    assert "--scale must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("model", ["fbm", "brownian"])
def test_synth_refuses_a_scale_that_overflows_the_path(tmp_path, model, capsys):
    """No input is read, so a path that is not finite is a usage error:
    one stderr line naming --scale, no output and no numpy warning."""
    out = tmp_path / "s"
    argv = ["synth", "--model", model, "--n", "100", "--seed", "1", "--hurst", "0.5", "--scale", "1e308"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.run(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == "usage error: --scale 1e+308 overflows the generated path\n"
    assert not out.exists()


@pytest.mark.parametrize("model", ["fbm", "brownian", "tickwalk"])
@pytest.mark.parametrize(
    "flag, message",
    [(["--p-zero", "1.5"], "--p-zero must lie in [0, 1)"),
     (["--p-zero", "nan"], "--p-zero must lie in [0, 1)"),
     (["--p-zero=-0.1"], "--p-zero must lie in [0, 1)"),
     (["--seed=-1"], "--seed must be non-negative")],
)
def test_synth_refuses_a_bad_p_zero_or_seed_as_a_usage_error(tmp_path, model, flag, message, capsys):
    out = tmp_path / "s"
    argv = ["synth", "--model", model, "--n", "100", "--seed", "1", "--hurst", "0.6", *flag]
    assert cli.run(argv + ["--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_hurst_artifacts(tmp_path):
    src = tmp_path / "src"
    cli.run(["synth", "--model", "brownian", "--n", "2048", "--seed", "5", "--out", str(src)])
    out = tmp_path / "art"
    rc = cli.run(
        ["hurst", "--input", str(src / "series.csv"), "--window", "512",
         "--shift", "64", "--out", str(out)]
    )
    assert rc == 0
    lines = (out / "hurst.csv").read_text().splitlines()
    assert lines[0] == "# columns: t,h,stderr,spans_boundary"
    assert {line.rsplit(",", 1)[1] for line in lines[1:]} == {"0"}  # one session
    assert len(lines) - 1 == (2048 - 512) // 64 + 1
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary) == {"mean", "sd", "n_windows"}
    assert 0.2 < summary["mean"] < 0.8
    assert summary["n_windows"] == len(lines) - 1
    # a day break at 1024: windows (t - 512, t) holding it are flagged
    two_days = dataclasses.replace(
        parse_regular_series((src / "series.csv").read_text()), session_boundaries=(0, 1024)
    )
    (tmp_path / "two_days.csv").write_text(serialize_regular_series(two_days))
    assert cli.run(
        ["hurst", "--input", str(tmp_path / "two_days.csv"), "--window", "512",
         "--shift", "64", "--out", str(tmp_path / "d")]
    ) == 0
    rows = [line.split(",") for line in (tmp_path / "d" / "hurst.csv").read_text().splitlines()[1:]]
    assert [int(r[3]) for r in rows] == [int(int(r[0]) - 512 < 1024 < int(r[0])) for r in rows]
    assert any(r[3] == "1" for r in rows)
    # malformed or inconsistent --boxes / --order / --window is a usage
    # problem, found before the input is read
    for bad in (["--boxes", "nope"], ["--boxes", "8:8:5"], ["--boxes", "0:100:10"],
                ["--boxes", "8:100:-3"], ["--boxes", "2:200:10", "--order", "2"],
                ["--order", "0"], ["--window", "20"], ["--boxes", "8:300:10"],
                ["--boxes", "64:8:5"]):  # MIN above MAX, not run as 8:64:5
        for series in (src / "series.csv", tmp_path / "absent.csv"):
            assert cli.run(
                ["hurst", "--input", str(series), "--window", "512",
                 *bad, "--out", str(tmp_path / "c")]
            ) == 1, bad


def test_hurst_summary_is_the_avg_hurst_vs_scale_row(tmp_path):
    src = tmp_path / "src"
    cli.run(["synth", "--model", "fbm", "--n", "4096", "--seed", "4", "--hurst", "0.6", "--out", str(src)])
    series = parse_regular_series((src / "series.csv").read_text())
    for flags, config in ((["--order", "2"], DfaConfig.for_length(511, poly_order=2)),
                          (["--boxes", "8:64:6"], DfaConfig(box_sizes=(8, 12, 18, 28, 42, 64)))):
        out = tmp_path / "_".join(flags).strip("-")
        assert cli.run(["hurst", "--input", str(src / "series.csv"), "--window", "512",
                        "--shift", "96", *flags, "--out", str(out)]) == 0
        (row,) = avg_hurst_vs_scale(series, (512,), 96, config)
        summary = json.loads((out / "summary.json").read_text())
        assert summary == {"mean": row.mean_h, "sd": row.sd_h, "n_windows": row.n_windows}


@pytest.mark.parametrize("clock", ["tick", "wall"])
def test_invstat_fits_are_the_horizon_scaling_rows(tmp_path, clock):
    """``fit_R*.json`` and ``scaling.csv`` are ``horizon_scaling``'s rows on
    the same series and flags; on the wall clock the walk moves every
    0.3 s over two days."""
    walk = np.cumsum(np.random.default_rng(8).integers(-3, 4, 40_000)).astype(float)
    series = RegularSeries(start_ns=0, interval_ns=300_000_000, values=walk, session_boundaries=(0, 25_000))
    (tmp_path / "walk.csv").write_text(serialize_regular_series(series))
    out = tmp_path / "art"
    assert cli.run(
        ["invstat", "--input", str(tmp_path / "walk.csv"), "--target", "4,8,16",
         "--clock", clock, "--bins-per-decade", "8", "--min-samples", "50", "--out", str(out)]
    ) == 0
    rows = horizon_scaling(series, (4, 8, 16), clock=clock, bins_per_decade=8, min_samples=50)
    for row in rows:
        fit = row.fit
        assert json.loads((out / f"fit_R{row.threshold}.json").read_text()) == {
            "alpha": fit.alpha, "nu": fit.nu, "beta": fit.beta, "tau0": fit.tau0, "sse": fit.sse,
            "tau_star": row.tau_star, "n_resolved": row.n_resolved, "n_censored": row.n_censored,
        }
    scaling = (out / "scaling.csv").read_text().splitlines()[1:]
    assert scaling == [f"{row.threshold},{row.tau_star!r}" for row in rows]


def test_invstat_artifacts(tmp_path):
    src = tmp_path / "src"
    cli.run(["synth", "--model", "tickwalk", "--n", "20000", "--seed", "11", "--out", str(src)])
    out = tmp_path / "art"
    rc = cli.run(
        ["invstat", "--input", str(src / "series.csv"), "--target", "1,2",
         "--bins-per-decade", "8", "--min-samples", "50", "--out", str(out)]
    )
    assert rc == 0
    for r in (1, 2):
        fit = json.loads((out / f"fit_R{r}.json").read_text())
        assert set(fit) == {
            "alpha", "nu", "beta", "tau0", "sse", "tau_star", "n_resolved", "n_censored",
        }
        assert fit["alpha"] > 0 and fit["tau_star"] >= 0
        pdf = (out / f"pdf_R{r}.csv").read_text().splitlines()
        assert pdf[0] == "# columns: tau_lo,tau_hi,density"
        assert len(pdf) > 8
        entry = (out / f"entry_R{r}.csv").read_text().splitlines()
        assert entry[0] == "# columns: start_s,end_s,count,rate_per_hour"
    scaling = (out / "scaling.csv").read_text().splitlines()
    assert scaling[0] == "# columns: R,tau_star"
    assert len(scaling) == 3
    # a binning no histogram can have is a usage problem, found before the
    # input is read
    for bad in (["--bins-per-decade", "0"], ["--bins-per-decade", "-3"], ["--entry-bin-seconds", "0"],
                ["--entry-bin-seconds", "-5"], ["--entry-bin-seconds", "nan"],
                ["--entry-bin-seconds", "inf"], ["--min-samples", "0"], ["--min-samples", "-5"]):
        for series in (src / "series.csv", tmp_path / "absent.csv"):
            assert cli.run(
                ["invstat", "--input", str(series), "--target", "1", *bad, "--out", str(tmp_path / "c")]
            ) == 1, bad


def test_non_empty_out_is_refused_before_the_input_is_read(tmp_path, capsys):
    src = tmp_path / "src"
    cli.run(["synth", "--model", "tickwalk", "--n", "20000", "--seed", "11", "--out", str(src)])
    out = tmp_path / "art"
    argv = ["invstat", "--input", str(src / "series.csv"), "--bins-per-decade", "8",
            "--min-samples", "50", "--out", str(out)]
    assert cli.run(argv[:1] + ["--target", "8,16"] + argv[1:]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert {"pdf_R16.csv", "fit_R16.json", "entry_R16.csv"} <= set(before)
    capsys.readouterr()
    # a rerun with fewer targets would leave the R16 files beside the new ones
    assert cli.run(argv[:1] + ["--target", "8"] + argv[1:]) == 1
    assert "--out" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    # refused before the input is read: an absent input still exits 1
    absent = ["--input", str(tmp_path / "absent.csv")]
    assert cli.run(["invstat", *absent, "--target", "8", "--out", str(out)]) == 1
    assert cli.run(["hurst", *absent, "--window", "64", "--out", str(out)]) == 1
    assert cli.run(["relax", *absent, "--kappa", "0.2", "--depth", "1", "--out", str(out)]) == 1
    assert cli.run(["synth", "--model", "tickwalk", "--n", "10", "--seed", "1", "--out", str(out)]) == 1
    assert cli.run(["selftest", "--criterion", "10", "--out", str(src / "series.csv")]) == 1
    empty = tmp_path / "empty"
    empty.mkdir()
    assert cli.run(argv[:1] + ["--target", "8"] + argv[1:-1] + [str(empty)]) == 0


def test_out_under_a_file_is_refused_before_the_input_is_read(tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    out = str(afile / "sub" / "x")
    absent = ["--input", str(tmp_path / "absent.csv")]
    for argv in (
        ["synth", "--model", "tickwalk", "--n", "10", "--seed", "1"],
        ["hurst", *absent, "--window", "64"],
        ["invstat", *absent, "--target", "8"],
        ["relax", *absent, "--kappa", "0.2", "--depth", "1"],
        ["selftest", "--criterion", "10"],
    ):
        capsys.readouterr()
        assert cli.run(argv + ["--out", out]) == 1, argv
        assert "cannot be created" in capsys.readouterr().err
    assert afile.read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]


def test_a_failed_write_leaves_no_output(tmp_path, monkeypatch):
    write_text = Path.write_text
    written = []

    def second_write_fails(self, *args, **kwargs):
        written.append(self.name)
        if len(written) == 2:
            raise OSError("disk full")
        return write_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", second_write_fails)
    empty = tmp_path / "empty"
    empty.mkdir()
    for out in (tmp_path / "absent", empty):
        written.clear()
        with pytest.raises(OSError, match="disk full"):
            cli.run(["synth", "--model", "tickwalk", "--n", "200", "--seed", "1", "--out", str(out)])
        assert written == ["series.csv", "manifest.json"]
    assert not (tmp_path / "absent").exists()
    assert list(empty.iterdir()) == []
    assert [p.name for p in tmp_path.iterdir()] == ["empty"]  # no temp dir left


def test_invstat_bad_series_are_data_errors(tmp_path, capsys):
    cases = {
        "nan.csv": ("0,1.0\n1,nan\n2,3.0\n", "line 2"),
        "grid.csv": ("0,1.0\n10,2.0\n11,3.0\n500,4.0\n", "line 3"),
        "wide.csv": (f"0,0.0\n1,{float(2**32)!r}\n2,1.0\n3,2.0\n", "int64 keys"),
        "inexact.csv": (f"0,{float(2**61)!r}\n1,0.0\n2,1.0\n3,2.0\n", "2**53"),
        "span.csv": ("-6000000000000000000,0\n0,1\n6000000000000000000,2\n", "2**63 ns"),
        "step.csv": (f"{-2**63},1.0\n{2**63 - 1},2.0\n", "2**63 ns"),
    }
    for name, (text, message) in cases.items():
        (tmp_path / name).write_text(text)
        capsys.readouterr()
        assert cli.run(
            ["invstat", "--input", str(tmp_path / name), "--target", "1",
             "--out", str(tmp_path / f"out_{name}")]
        ) == 2, name
        assert message in capsys.readouterr().err, name
        assert not (tmp_path / f"out_{name}").exists()


# SHA-256 of invstat artifacts on a seeded tick walk, as the fits produced
# them when their objective still went through the checked density.
INVSTAT_SHA256 = {
    "fit_R16.json": "df00f0b6522f0b83cd821a4101be809b6abcf0620fa4d0209d68056ab1cb0f9b",
    "fit_R8.json": "8bc203f5085afd5a32d0ee2799a6e44ade1666e25698baad8052c4ed62be52ef",
    "scaling.csv": "ac2e1d7257f47a8a451ad36e7d79794f889e4f94eea60eca0e2809d8441e7bd5",
}


def test_invstat_fits_are_unchanged(tmp_path):
    src = tmp_path / "src"
    cli.run(["synth", "--model", "tickwalk", "--n", "20000", "--seed", "11", "--out", str(src)])
    out = tmp_path / "art"
    assert cli.run(
        ["invstat", "--input", str(src / "series.csv"), "--target", "8,16",
         "--bins-per-decade", "8", "--min-samples", "50", "--out", str(out)]
    ) == 0
    for name, digest in INVSTAT_SHA256.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


# SHA-256 of series.csv from the README's two synth commands: the walk's
# whole values are written by the digit kernel, the fBm's by repr.
SYNTH_SHA256 = {
    "tickwalk --n 20000 --seed 11": "141335bc99196d9b21762048f542b23b678053dba468fcdd9979a438ff09b1c4",
    "fbm --n 65536 --seed 7 --hurst 0.7": "22fc418158ec6156a6450e018de9268b5d07698a6cc7c3cedf5693364a356d22",
}


@pytest.mark.parametrize("model", SYNTH_SHA256)
def test_synth_series_bytes_are_unchanged(tmp_path, model):
    assert cli.run(["synth", "--model", *model.split(), "--out", str(tmp_path / "out")]) == 0
    assert hashlib.sha256((tmp_path / "out" / "series.csv").read_bytes()).hexdigest() == SYNTH_SHA256[model]


def test_inputs_are_read_once_as_text_files(tmp_path, capsys):
    """The manifest's digest is the sha256 of the input's bytes, which the
    parser reads as they are: \r\n line ends read as \n, while a lone \r
    ends no line and a byte sequence that is not UTF-8 is no text, each a
    data error at its line, as the library's readers give them."""
    cli.run(["synth", "--model", "tickwalk", "--n", "4000", "--seed", "2", "--out", str(tmp_path / "s")])
    series = (tmp_path / "s" / "series.csv").read_bytes()
    (tmp_path / "book.csv").write_text(_synthetic_book_text())
    book = (tmp_path / "book.csv").read_bytes()

    def spoil(data, line, tail=b"\xe9"):  # a byte that is not UTF-8 ends the line
        lines = data.split(b"\n")
        lines[line - 1] += tail
        return b"\n".join(lines)

    # a value cell, a comment, a book's cell and its header
    bad_series = [(spoil(series, 3), 3), (spoil(series, 1, b"\n# caf\xe9"), 2)]
    runs = {
        "hurst": (series, ["--window", "512", "--shift", "256"], bad_series),
        "invstat": (series, ["--target", "4", "--min-samples", "50"], bad_series),
        "relax": (book, ["--kappa", "0.2", "--depth", "3", "--min-samples", "20"],
                  [(spoil(book, 3), 3), (spoil(book, 1), 1)]),
    }
    for command, (data, flags, bad) in runs.items():
        outputs = []
        for end in (b"\n", b"\r\n"):
            path = tmp_path / f"{command}{len(outputs)}.csv"
            path.write_bytes(data.replace(b"\n", end))
            out = tmp_path / f"out_{command}{len(outputs)}"
            assert cli.run([command, "--input", str(path), *flags, "--out", str(out)]) == 0, command
            digest = json.loads((out / "manifest.json").read_text())["input_digest"]
            assert digest == hashlib.sha256(path.read_bytes()).hexdigest(), command
            outputs.append({p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"})
        assert outputs[0] == outputs[1], command
        for k, (text, line) in enumerate([(data.replace(b"\n", b"\r"), 1), *bad]):
            path, out = tmp_path / f"{command}_bad{k}.csv", tmp_path / f"out_{command}_bad{k}"
            path.write_bytes(text)
            capsys.readouterr()
            assert cli.run([command, "--input", str(path), *flags, "--out", str(out)]) == 2, (command, k)
            assert capsys.readouterr().err.startswith(f"data error: line {line}: "), (command, k)
            assert not out.exists()


def test_inputs_are_hashed_chunk_by_chunk_as_they_are_parsed(tmp_path, capsys, monkeypatch):
    """An input several chunks long gives the artifacts of one read whole,
    and its manifest's digest is the sha256 of the file.  A bad row past
    the first chunk is a data error at its line that leaves no --out, and
    an absent or directory input is a data error too."""
    cli.run(["synth", "--model", "tickwalk", "--n", "4000", "--seed", "2", "--out", str(tmp_path / "s")])
    (tmp_path / "book.csv").write_text(_synthetic_book_text())
    runs = {
        "hurst": (tmp_path / "s" / "series.csv", ["--window", "512", "--shift", "256"]),
        "invstat": (tmp_path / "s" / "series.csv", ["--target", "4", "--min-samples", "50"]),
        "relax": (tmp_path / "book.csv", ["--kappa", "0.2", "--depth", "3", "--min-samples", "20"]),
    }
    whole = cli._CHUNK_BYTES
    for command, (path, flags) in runs.items():
        data = path.read_bytes()
        lines = data.split(b"\n")
        bad = len(lines) * 3 // 4
        lines[bad - 1] += b"x"
        (tmp_path / f"{command}_bad.csv").write_bytes(b"\n".join(lines))
        outputs = []
        for chunk in (whole, 4096):
            monkeypatch.setattr(cli, "_CHUNK_BYTES", chunk)
            out = tmp_path / f"out_{command}_{chunk}"
            assert cli.run([command, "--input", str(path), *flags, "--out", str(out)]) == 0, command
            digest = json.loads((out / "manifest.json").read_text())["input_digest"]
            assert digest == hashlib.sha256(data).hexdigest(), command
            outputs.append({p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"})
        assert len(data) > 4 * 4096 and len(b"\n".join(lines[: bad - 1])) > 4096, command
        assert outputs[0] == outputs[1], command
        bad_inputs = [(tmp_path / f"{command}_bad.csv", bad), (tmp_path / "absent.csv", None), (tmp_path, None)]
        for source, line in bad_inputs:
            out = tmp_path / f"out_{command}_bad"
            capsys.readouterr()
            assert cli.run([command, "--input", str(source), *flags, "--out", str(out)]) == 2, (command, source)
            assert capsys.readouterr().err.startswith(f"data error: line {line}: " if line else "data error: ")
            assert not out.exists()


def test_bad_footer_is_a_data_error_at_its_line(tmp_path, capsys):
    for footer in ("0;x", "0;5", "1", ""):
        path = tmp_path / "series.csv"
        path.write_text(f"0,1.0\n1,2.0\n\n# session_boundaries={footer}\n")
        capsys.readouterr()
        out = tmp_path / f"out{footer}"
        assert cli.run(["hurst", "--input", str(path), "--window", "64", "--out", str(out)]) == 2
        assert "line 4" in capsys.readouterr().err, footer


# SHA-256 of the relax artifacts on _synthetic_book_text(), as the
# row-by-row parser produced them.
RELAX_SHA256 = {
    "fit_k0.2.json": "8b8727844e66e081378a9b05787ec2540baa8aba8847aed3e4a6247fd351c279",
    "fit_k0.4.json": "e6b8a7d116d4cff4fa764210309deec9bf31cea4067f75038379adf7349ed652",
    "mean_vs_kappa.csv": "e087ebcc422801048ea1acc9846b1ea8c63aebc371fd11e1b4b0118b0866da38",
    "pdf_k0.2.csv": "97839ee3126eecc6c77f5682b3e7dc5289ccaaf40dcf0575ced4d5c22b0661db",
    "pdf_k0.4.csv": "66812fe0b544596f0f286417b339dfee959e7d84693bd5bba64ca15d2f1b75d8",
}


def test_relax_artifacts(tmp_path, capsys):
    book = tmp_path / "book.csv"
    book.write_text(_synthetic_book_text())
    out = tmp_path / "art"
    rc = cli.run(
        ["relax", "--input", str(book), "--kappa", "0.2,0.4", "--depth", "3",
         "--min-samples", "20", "--out", str(out)]
    )
    assert rc == 0
    for tag in ("0.2", "0.4"):
        fit = json.loads((out / f"fit_k{tag}.json").read_text())
        assert set(fit) == {
            "tau_tilde", "alpha", "sse_stretched", "gamma", "sse_power", "mean_tau",
        }
        assert 0 < fit["alpha"] <= 1.0 and fit["mean_tau"] > 0
        assert (out / f"pdf_k{tag}.csv").exists()
    mean_lines = (out / "mean_vs_kappa.csv").read_text().splitlines()
    assert mean_lines[0] == "# columns: kappa,mean_tau,n_resolved,n_censored"
    assert len(mean_lines) == 3
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    digests.pop("manifest.json")
    assert digests == RELAX_SHA256
    # a depth the file cannot supply is a usage problem naming both depths
    capsys.readouterr()
    assert cli.run(
        ["relax", "--input", str(book), "--kappa", "0.2", "--depth", "5",
         "--out", str(tmp_path / "deep")]
    ) == 1
    err = capsys.readouterr().err
    assert "--depth 5" in err and "depth 3" in err
    assert not (tmp_path / "deep").exists()
    for bad in ("0", "-3"):
        for path in (book, tmp_path / "absent.csv"):
            assert cli.run(
                ["relax", "--input", str(path), "--kappa", "0.2", "--depth", "3",
                 "--bins-per-decade", bad, "--out", str(tmp_path / "c")]
            ) == 1, bad


# the cells after a row's timestamp: no volume at depth 2, a volume at the
# bound for depth 2, and a bad volume
EMPTY = ",0" + ",," * 4
HUGE = f",0,99.99,{2**53 // 4},99.98,1,100.01,1,100.02,1"
BAD = ",0,99.99,5,99.98,x,100.01,1,100.02,1"
BOUND = "data error: level volumes must stay below 2**53 / 4 to sum exactly"
DEPTH = "usage error: --depth 3 exceeds the depth 2 of "


@pytest.mark.parametrize(
    "faults, depth, code, message",
    [
        ({450: EMPTY}, "2", 2, "data error: snapshot 450: no volume within depth 2"),
        ({500: HUGE}, "2", 2, BOUND),
        ({}, "3", 1, DEPTH),
        ({560: BAD}, "3", 2, "data error: line 562: bad volume field"),
        ({5: EMPTY, 590: HUGE}, "2", 2, BOUND),
        ({5: EMPTY, 590: HUGE}, "3", 1, DEPTH),
    ],
    ids=["empty-snapshot", "volume-bound", "depth", "bad-row-before-depth", "bound-before-empty",
         "depth-before-bound"],
)
def test_relax_book_errors_come_in_order_wherever_the_blocks_fall(
    tmp_path, capsys, monkeypatch, faults, depth, code, message
):
    """A book is checked whole before its imbalance is judged: a bad row
    anywhere first, then a --depth beyond the file's, then the volume
    bound over every row, then the first empty snapshot, however the
    file falls into blocks and chunks."""
    rows = [f"{i + 1},1,99.99,5,99.98,6,100.01,3,100.02,4" for i in range(600)]
    for i, cells in faults.items():
        rows[i] = f"{i + 1}{cells}"
    path = tmp_path / "book.csv"
    path.write_text("# tick_size=0.01 depth=2\n" + "\n".join(rows) + "\n")
    assert path.stat().st_size > 4 * 4096
    runs = 0
    for block in (1, 2, market_data._BLOCK_LINES):
        for chunk in (cli._CHUNK_BYTES, 4096):
            monkeypatch.setattr(market_data, "_BLOCK_LINES", block)
            monkeypatch.setattr(cli, "_CHUNK_BYTES", chunk)
            out = tmp_path / f"out{runs}"
            capsys.readouterr()
            argv = ["relax", "--input", str(path), "--kappa", "0.2", "--depth", depth, "--out", str(out)]
            assert cli.run(argv) == code, (block, chunk)
            assert capsys.readouterr().err.startswith(message), (block, chunk)
            assert not out.exists()
            runs += 1


def test_two_values_that_name_one_artifact_are_refused_before_the_input_is_read(tmp_path, capsys):
    """Artifacts are named by each --kappa's 6-digit form and each
    --target's integer, so two values with one name would leave one file
    for both: a usage error before the input (absent here) is read."""
    absent = str(tmp_path / "absent.csv")
    for command, flags in (
        ("relax", ["--kappa", "0.2,0.2000001", "--depth", "1"]),
        ("relax", ["--kappa", "0.3,0.4,0.3", "--depth", "1"]),
        ("invstat", ["--target", "8,8"]),
        ("invstat", ["--target", "8,16,008"]),
    ):
        out = tmp_path / "out"
        capsys.readouterr()
        assert cli.run([command, "--input", absent, *flags, "--out", str(out)]) == 1, flags
        assert "the same artifact names" in capsys.readouterr().err, flags
        assert not out.exists()


@pytest.mark.parametrize(
    "header, message",
    [
        ("# tick_size=NaN depth=1", "line 1: bad tick size 'NaN'"),
        ("# tick_size=sNaN depth=1", "line 1: bad tick size 'sNaN'"),
        ("# tick_size=Infinity depth=1", "line 1: bad tick size 'Infinity'"),
        ("# tick_size=0.01 depth=99999999999", "line 2: expected 399999999998 fields, got 6"),
    ],
)
def test_bad_book_headers_are_data_errors(tmp_path, capsys, header, message):
    book = tmp_path / "book.csv"
    book.write_text(header + "\n1,0,99.99,5,100.01,5\n")
    assert cli.run(
        ["relax", "--input", str(book), "--kappa", "0.2", "--depth", "1", "--out", str(tmp_path / "o")]
    ) == 2
    assert capsys.readouterr().err == f"data error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_selftest_single_criterion_report(tmp_path, capsys):
    out = tmp_path / "art"
    assert cli.run(["selftest", "--criterion", "10", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert len(report["criteria"]) == 1
    row = report["criteria"][0]
    assert row["criterion"] == 10
    assert set(row) == {"criterion", "name", "measured", "expected", "tolerance", "pass"}
    assert report["all_pass"] is True
    assert "criterion 10" in capsys.readouterr().out


def test_criteria_are_registered_once_each_as_the_cli_offers_them():
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flag = next(a for a in sub.choices["selftest"]._actions if a.dest == "criterion")
    assert sorted(selftest.CRITERIA) == list(range(1, 12)) == list(flag.choices)


def test_a_criterion_that_passes_over_its_budget_fails(monkeypatch):
    monkeypatch.setattr(selftest, "CRITERIA", dict(selftest.CRITERIA))  # restored afterwards
    over = selftest._criterion(12, "over budget", "ran", "no time", budget_s=0)(lambda: ("ran", True))
    within = selftest._criterion(13, "no budget", "ran", "any time")(lambda: ("ran", True))
    assert selftest.CRITERIA[12] is over and selftest.CRITERIA[13] is within
    result = over()
    assert (result.index, result.name, result.measured, result.passed) == (12, "over budget", "ran", False)
    assert within().passed is True
    assert selftest.run_selftest([12])[0].passed is False


def test_bin_counts_over_the_bound_are_data_errors(tmp_path, capsys):
    """A histogram of more than numerics.MAX_BINS bins is refused before
    any array is made: exit 2, one "data error:" line and no --out."""
    walk = np.cumsum(np.random.default_rng(0).choice([-1.0, 1.0], 3000))
    series = tmp_path / "series.csv"
    series.write_text(serialize_regular_series(RegularSeries(start_ns=0, interval_ns=10**9, values=walk)))
    book = tmp_path / "book.csv"
    book.write_text(_synthetic_book_text())
    invstat_argv = ["invstat", "--input", str(series), "--target", "2", "--min-samples", "10"]
    relax_argv = ["relax", "--input", str(book), "--kappa", "0.2", "--depth", "3", "--min-samples", "20"]
    for argv in (
        [*invstat_argv, "--entry-bin-seconds", "1e-9"],
        [*invstat_argv, "--entry-bin-seconds", "1e-320"],
        [*invstat_argv, "--bins-per-decade", "1000000000000"],
        [*relax_argv, "--bins-per-decade", str(10**400)],
    ):
        out = tmp_path / "out"
        capsys.readouterr()
        assert cli.run([*argv, "--out", str(out)]) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1, argv
        assert not out.exists()


def test_exit_codes(tmp_path, monkeypatch, capsys):
    assert cli.run([]) == 1  # missing subcommand
    assert cli.run(["selftest", "--criterion", "12", "--out", str(tmp_path)]) == 1
    assert cli.run(
        ["relax", "--input", "x", "--kappa", "1.5", "--depth", "3", "--out", str(tmp_path)]
    ) == 1
    assert cli.run(
        ["relax", "--input", "x", "--kappa", "0.3", "--depth", "0", "--out", str(tmp_path)]
    ) == 1
    for min_samples in ("0", "-5"):  # refused before the (absent) input is read
        capsys.readouterr()
        assert cli.run(["relax", "--input", str(tmp_path / "absent.csv"), "--kappa", "0.3", "--depth", "1",
                        "--min-samples", min_samples, "--out", str(tmp_path / "o")]) == 1
        assert "--min-samples must be at least 1" in capsys.readouterr().err
    assert cli.run(
        ["hurst", "--input", str(tmp_path / "absent.csv"), "--window", "64",
         "--out", str(tmp_path / "o")]
    ) == 2
    # an input that is a directory cannot be read: a data error, for either reader
    for command, flags in (("hurst", ["--window", "64"]), ("relax", ["--kappa", "0.3", "--depth", "1"])):
        capsys.readouterr()
        assert cli.run([command, "--input", str(tmp_path), *flags, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("data error: "), command
    bad = tmp_path / "bad.csv"
    bad.write_text("not a book file\n")
    assert cli.run(
        ["relax", "--input", str(bad), "--kappa", "0.3", "--depth", "1",
         "--out", str(tmp_path / "o")]
    ) == 2

    src = tmp_path / "src"
    cli.run(["synth", "--model", "tickwalk", "--n", "5000", "--seed", "2", "--out", str(src)])

    def boom(hist, restarts=8):
        raise FitDiverged("synthetic failure")

    monkeypatch.setattr(invstat, "fit_first_passage", boom)
    assert cli.run(
        ["invstat", "--input", str(src / "series.csv"), "--target", "1",
         "--min-samples", "10", "--out", str(tmp_path / "o")]
    ) == 3


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        cli.run(["--help"])
    assert exc.value.code == 0
    # the child imports tickphys from where this process did, installed or not
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-m", "tickphys.cli", "--help"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert "synth" in proc.stdout and "selftest" in proc.stdout


def test_reruns_are_byte_identical(tmp_path):
    outs = []
    for name in ("a", "b"):
        src = tmp_path / name / "src"
        out = tmp_path / name / "art"
        cli.run(["synth", "--model", "fbm", "--n", "2048", "--seed", "9",
                 "--hurst", "0.6", "--out", str(src)])
        cli.run(["hurst", "--input", str(src / "series.csv"), "--window", "512",
                 "--shift", "128", "--out", str(out)])
        outs.append((src, out))
    (src_a, out_a), (src_b, out_b) = outs
    assert (src_a / "series.csv").read_bytes() == (src_b / "series.csv").read_bytes()
    assert (out_a / "hurst.csv").read_bytes() == (out_b / "hurst.csv").read_bytes()
    assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()
    assert manifest_sans_times(src_a / "manifest.json") == manifest_sans_times(
        src_b / "manifest.json"
    )

def _parsed_flags(argv):
    args = vars(cli._build_parser().parse_args(argv))
    return {k: v for k, v in args.items() if k not in ("subcommand", "func", "out")}


def test_manifests_record_every_flag_but_out(tmp_path):
    (tmp_path / "book.csv").write_text(_synthetic_book_text())
    series = str(tmp_path / "walk" / "series.csv")
    runs = [
        ["synth", "--model", "tickwalk", "--n", "20000", "--seed", "11", "--p-zero", "0.25"],
        ["hurst", "--input", series, "--window", "512", "--shift", "256", "--order", "2"],
        ["invstat", "--input", series, "--target", "1,2", "--min-samples", "50", "--entry-bin-seconds", "600"],
        ["relax", "--input", str(tmp_path / "book.csv"), "--kappa", "0.2", "--depth", "2",
         "--min-samples", "20", "--clock", "trades"],
        ["selftest", "--criterion", "10"],
    ]
    for argv, name in zip(runs, ("walk", "h", "inv", "rel", "self")):
        assert cli.run(argv + ["--out", str(tmp_path / name)]) == 0, argv
        doc = json.loads((tmp_path / name / "manifest.json").read_text())
        assert doc["subcommand"] == argv[0]
        assert doc["parameters"] == _parsed_flags(argv + ["--out", "x"]), argv[0]
        # every option but --out and -h is a parameter
        subparser = cli._build_parser()._subparsers._group_actions[0].choices[argv[0]]
        dests = {a.dest for a in subparser._actions} - {"help", "out"}
        assert set(doc["parameters"]) == dests, argv[0]
    # the entry binning changes entry_R*.csv, so the manifests must differ too
    assert cli.run(runs[2][:-2] + ["--out", str(tmp_path / "inv1800")]) == 0
    first, second = (json.loads((tmp_path / d / "manifest.json").read_text()) for d in ("inv", "inv1800"))
    assert (tmp_path / "inv" / "entry_R1.csv").read_bytes() != (tmp_path / "inv1800" / "entry_R1.csv").read_bytes()
    assert first["parameters"] != second["parameters"]
    assert second["parameters"]["entry_bin_seconds"] == 1800.0


def test_the_readme_command_block_runs_in_order(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = next(b for b in re.findall(r"```sh\n(.*?)```", readme, re.S) if "tickphys synth" in b)
    lines = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("tickphys ")]
    assert {argv[1] for argv in lines} == {"synth", "hurst", "invstat", "relax", "selftest"}
    outs = [argv[argv.index("--out") + 1].rstrip("/") for argv in lines]
    assert len(set(outs)) == len(outs), outs
    monkeypatch.chdir(tmp_path)
    Path("book.csv").write_text(_synthetic_book_text())
    for argv in lines:
        if argv[1] == "selftest" and "--criterion" not in argv:
            continue  # the full suite is test_acceptance.py's
        assert cli.run(argv[1:]) == 0, argv
        assert Path(argv[argv.index("--out") + 1], "manifest.json").is_file()
