"""The package's exported names."""

import types

import kcut

# what perfbench/ reads from the package
BENCHMARK_NAMES = ("MultiGraph", "brute_min_kcut", "gen_clique_reduction", "parse_graph",
                   "solve_with_stats")


def test_every_exported_name_resolves():
    assert len(set(kcut.__all__)) == len(kcut.__all__)
    for name in kcut.__all__:
        assert getattr(kcut, name) is not None, name


def test_benchmark_names_stay_exported():
    assert set(BENCHMARK_NAMES) <= set(kcut.__all__)
    assert isinstance(kcut.oracles, types.ModuleType)
    assert kcut.oracles.brute_min_kcut is kcut.brute_min_kcut
