"""tools/canonical_hashes.py --compare on synthetic printouts: a change
passes only when the commands it moves are exactly the ones its
expected-changes file lists. Last, the oracle interface the benchmark's
output checks read."""

import importlib.util
from pathlib import Path

import pytest

from hazardplan.hazard import ContaminationField
from hazardplan.planner import PlanQuery
from hazardplan.scenario import load_scenario

import oracles

TOOL = Path(__file__).resolve().parent.parent / "tools" / "canonical_hashes.py"
spec = importlib.util.spec_from_file_location("canonical_hashes", TOOL)
canonical_hashes = importlib.util.module_from_spec(spec)
spec.loader.exec_module(canonical_hashes)

BASE = {
    "allocate small.json --exact-field  [fresh]": "a" * 64,
    "plan small.json --robot b --targets i,iii": "b" * 64,
    "field small.json exact  [prob]": "c" * 64,
}


def printout(tmp_path, name, digests):
    path = tmp_path / name
    path.write_text("".join(f"{digest}  {command}\n" for command, digest in digests.items()))
    return path


def run_compare(tmp_path, monkeypatch, capsys, head, expected_text):
    base_path = printout(tmp_path, "base.txt", BASE)
    head_path = printout(tmp_path, "head.txt", head)
    expected = tmp_path / "expected.txt"
    expected.write_text(expected_text)
    monkeypatch.setattr(canonical_hashes, "EXPECTED_CHANGES", expected)
    code = canonical_hashes.main(["--compare", str(base_path), str(head_path)])
    return code, capsys.readouterr().err.splitlines()


def test_printout_keeps_double_spaces_inside_a_command(tmp_path):
    assert canonical_hashes.read_digests(printout(tmp_path, "p.txt", BASE)) == BASE


def test_comments_and_blank_lines_are_not_commands(tmp_path):
    path = tmp_path / "expected.txt"
    path.write_text("# header\n\n  plan small.json --robot b --targets i,iii  # why\n#x\n")
    assert canonical_hashes.read_expected(path) == {"plan small.json --robot b --targets i,iii"}


@pytest.mark.parametrize("moved, listed, complaints", [
    ([], [], []),
    (["field small.json exact  [prob]"], ["field small.json exact  [prob]"], []),
    (["field small.json exact  [prob]"], [],
     ["changed but not listed: field small.json exact  [prob]"]),
    ([], ["plan small.json --robot b --targets i,iii"],
     ["listed but unchanged: plan small.json --robot b --targets i,iii"]),
    (["field small.json exact  [prob]"], ["plan small.json --robot b --targets i,iii"],
     ["changed but not listed: field small.json exact  [prob]",
      "listed but unchanged: plan small.json --robot b --targets i,iii"]),
], ids=["identical", "moved-and-listed", "moved-unlisted", "listed-stale", "both"])
def test_compare_fails_on_unlisted_and_stale_lines(tmp_path, monkeypatch, capsys,
                                                    moved, listed, complaints):
    head = {command: ("f" * 64 if command in moved else digest)
            for command, digest in BASE.items()}
    text = "# expected\n" + "".join(f"{command}  # on purpose\n" for command in listed)
    code, err = run_compare(tmp_path, monkeypatch, capsys, head, text)
    assert err == complaints
    assert code == (1 if complaints else 0)


def test_a_command_printed_on_one_side_only_counts_as_changed(tmp_path, monkeypatch, capsys):
    head = {**BASE, "render small.json --what heatmap": "d" * 64}
    del head["plan small.json --robot b --targets i,iii"]
    code, err = run_compare(tmp_path, monkeypatch, capsys, head, "")
    assert code == 1
    assert err == ["changed but not listed: plan small.json --robot b --targets i,iii",
                   "changed but not listed: render small.json --what heatmap"]
    listed = "plan small.json --robot b --targets i,iii\nrender small.json --what heatmap\n"
    code, err = run_compare(tmp_path, monkeypatch, capsys, head, listed)
    assert (code, err) == (0, [])


def test_the_oracles_the_benchmark_checks_read_keep_their_interface():
    """bench/checks.py imports five oracles and unpacks their results, and
    builds a field without marginals from one of them. A renamed oracle or
    a changed arity would fail every benchmark run's checks; here it fails
    Tier-1. The calls follow the checks on small.json, over a horizon of 5
    steps to stay quick."""
    sc = load_scenario(Path(__file__).resolve().parent.parent / "scenarios" / "small.json")
    gm, sources, horizon = sc.gridmap, sc.hazard.sources, 5
    heat = oracles.contamination_marginals_oracle(gm, sources, horizon)
    assert heat.shape == (gm.n_free,)
    prob, flagged = oracles.exact_field_oracle(gm, sources, horizon)
    field = ContaminationField(horizon=horizon, n_free=gm.n_free, prob=prob,
                               flagged=flagged, kind="exact")
    f = {}
    for r in range(sc.n_robots):
        for mask in range(1 << sc.n_tasks):
            targets = tuple(sc.targets[t] for t in range(sc.n_tasks) if mask >> t & 1)
            query = PlanQuery(gridmap=gm, kernel=sc.kernel(), field=field, start=sc.starts[r],
                              targets=targets, horizon=horizon)
            f[r, mask] = oracles.value_recursion_oracle(query)
            assert 0.0 <= f[r, mask] <= 1.0
    masks, best = oracles.brute_force_partitions(lambda r, m: f[r, m], sc.n_robots, sc.n_tasks)
    assert len(masks) == sc.n_robots and 0.0 <= best <= 1.0
    alpha, gamma, _, _ = oracles.naive_ratios([f[0, m] for m in range(1 << sc.n_tasks)],
                                              sc.n_tasks)
    assert 0.0 <= alpha <= 1.0 and 0.0 <= gamma <= 1.0
