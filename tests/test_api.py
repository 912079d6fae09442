"""The public names of ``tickphys``, pinned so that adding or removing one
is a reviewed change to this file, and each held to a consumer outside
the tests."""

import ast
import dataclasses
import inspect
import sys
import types
from pathlib import Path

import tickphys
from tickphys import cli
from tickphys.selftest import _synthetic_book_text

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = {
    "Book",
    "BookSnapshot",
    "CrossedBook",
    "CrossingIndex",
    "DataError",
    "DegenerateSeries",
    "DegenerateX",
    "DfaConfig",
    "EmbeddingNotDefinite",
    "EmptyDay",
    "EmptyInput",
    "EmptySide",
    "ExitTimeConfig",
    "ExitTimes",
    "FbmSpec",
    "FirstPassageFit",
    "FitDiverged",
    "FitError",
    "HurstEstimate",
    "HurstSeries",
    "ImbalanceSeries",
    "LadderOrderViolation",
    "LinFit",
    "LogBinnedPdf",
    "MalformedRow",
    "MaxDepthExceeded",
    "NonMonotonicTime",
    "ParseError",
    "PriceRangeTooWide",
    "RegularSeries",
    "RelaxationSamples",
    "SeriesTooShort",
    "Session",
    "StretchedExpFit",
    "Ticks",
    "TickSizeViolation",
    "TickphysError",
    "TooFewBins",
    "TooManyBins",
    "TooFewSamples",
    "UsageError",
    "WindowTooLarge",
    "avg_hurst_vs_scale",
    "entry_time_distribution",
    "entry_times",
    "errors",
    "exit_times",
    "first_passage_hist",
    "fit_first_passage",
    "fit_horizon_power_law",
    "fit_stretched_exp",
    "fit_tail_power_law",
    "gen_brownian",
    "gen_fbm",
    "gen_tick_walk",
    "horizon_scaling",
    "hurst",
    "hurst_exponent",
    "hurst_pdf",
    "imbalance_series",
    "invstat",
    "linfit",
    "local_hurst",
    "log_bin",
    "log_passage_density",
    "market_data",
    "mean_relaxation_from_fit",
    "minimize",
    "numerics",
    "obrelax",
    "optimal_horizon",
    "parse_book",
    "parse_regular_series",
    "parse_ticks",
    "passage_density",
    "quadrature",
    "relaxation_hist",
    "relaxation_times",
    "resample",
    "sample_first_passage",
    "sample_stretched_exp",
    "serialize_book",
    "serialize_regular_series",
    "sessionize",
    "synth",
}


def test_public_names_are_pinned():
    assert set(tickphys.__all__) == PUBLIC


MODULES = ("errors", "market_data", "synth", "hurst", "invstat", "obrelax", "numerics")


def test_each_public_name_is_declared_by_one_module_and_re_exported_as_is():
    """The package star-imports its modules in turn, so a name that two of
    them export would silently resolve to the later module's object."""
    owner = {}
    for mod_name in MODULES:
        module = getattr(tickphys, mod_name)
        exported = getattr(module, "__all__", [n for n in dir(module) if not n.startswith("_")])
        for name in exported:
            assert name not in owner, f"{name} is exported by both {owner[name]} and {mod_name}"
            owner[name] = mod_name
            assert getattr(tickphys, name) is getattr(module, name), name
    assert set(tickphys.__all__) == set(owner) | set(MODULES)


# Public names whose consumer is still to come, each with the ROADMAP item
# that brings it: the CLI outputs of item 5 and the ingest of item 2.
AWAITING_A_CONSUMER = {
    "hurst_pdf": 5,
    "avg_hurst_vs_scale": 5,
    "parse_ticks": 2,
    "sessionize": 2,
    "resample": 2,
}


def _loads(path: Path) -> set:
    """Names that ``path`` loads, attributes it reads and the string
    constants it holds (the bench tracer patches functions by name), apart
    from its own ``__all__``, which only exports."""
    tree = ast.parse(path.read_text(), str(path))
    tree.body = [
        node for node in tree.body
        if not (isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets))
    ]
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def test_every_public_name_has_a_consumer_outside_the_tests():
    sources = [p for p in (ROOT / "src" / "tickphys").glob("*.py") if p.name != "__init__.py"]
    used = set().union(*map(_loads, sources + sorted((ROOT / "bench").glob("*.py"))))
    names = {n for n in tickphys.__all__ if not isinstance(getattr(tickphys, n), types.ModuleType)}
    assert sorted(names - used) == sorted(AWAITING_A_CONSUMER)


def test_dfa_config_sets_only_its_box_sizes_and_order():
    """Every other DFA setting is a constant: ``min_boxes`` reads 4 but is
    no field, and ``for_length`` takes no size count, smallest box or
    ``min_boxes``."""
    assert [f.name for f in dataclasses.fields(tickphys.DfaConfig)] == ["box_sizes", "poly_order"]
    assert tickphys.DfaConfig((8, 16, 32)).min_boxes == 4
    params = inspect.signature(tickphys.DfaConfig.for_length).parameters
    assert [(p.name, p.default) for p in params.values()] == [("n", inspect.Parameter.empty), ("poly_order", 1)]


def test_imbalance_series_sets_only_its_columns_and_days():
    """The depth is an argument of ``imbalance_series``, not a field of
    what it returns."""
    names = [f.name for f in dataclasses.fields(tickphys.ImbalanceSeries)]
    assert names == ["values", "timestamps_ns", "trades", "session_boundaries"]


def _count_calls(monkeypatch, module, name: str) -> list:
    """Replace ``module.name`` in every loaded ``tickphys`` module that
    binds it, as the bench tracer does, with a wrapper that logs each call
    into the returned list."""
    orig, calls = getattr(module, name), []

    def counted(*args, **kwargs):
        calls.append(name)
        return orig(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "tickphys" or mod_name.startswith("tickphys."):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def test_the_fitters_run_the_public_minimizer(monkeypatch):
    """No private twin of ``minimize`` does the fitters' searches, so a
    tracer that patches the public name sees them."""
    calls = _count_calls(monkeypatch, tickphys.numerics, "minimize")
    tickphys.fit_first_passage(tickphys.log_bin(tickphys.sample_first_passage(5000, 0.5, 20.0, seed=9), 10))
    assert calls == ["minimize"]
    tickphys.fit_stretched_exp(tickphys.log_bin(tickphys.sample_stretched_exp(5000, 100.0, 0.6, seed=77), 10))
    assert calls == ["minimize"] * 2


def test_invstat_bins_through_the_public_first_passage_hist(monkeypatch, tmp_path):
    calls = _count_calls(monkeypatch, tickphys.invstat, "first_passage_hist")
    assert cli.run(["synth", "--model", "tickwalk", "--n", "4000", "--seed", "2", "--out", str(tmp_path / "s")]) == 0
    argv = ["invstat", "--input", str(tmp_path / "s" / "series.csv"), "--target", "1,4", "--min-samples", "50"]
    assert cli.run([*argv, "--out", str(tmp_path / "out")]) == 0
    assert calls == ["first_passage_hist"] * 2


def test_relax_reduces_the_book_through_the_public_imbalance_series(monkeypatch, tmp_path):
    calls = _count_calls(monkeypatch, tickphys.obrelax, "imbalance_series")
    (tmp_path / "book.csv").write_text(_synthetic_book_text())
    argv = ["relax", "--input", str(tmp_path / "book.csv"), "--kappa", "0.2", "--depth", "3", "--min-samples", "20"]
    assert cli.run([*argv, "--out", str(tmp_path / "out")]) == 0
    assert calls == ["imbalance_series"]
