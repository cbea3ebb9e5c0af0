from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from nodalpol.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


def fixture(name: str) -> str:
    return str(FIXTURES / name)


def run(capsys, *argv: str) -> tuple[int, dict | str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    try:
        return code, json.loads(out)
    except json.JSONDecodeError:
        return code, out


class TestAnalyze:
    def test_skewed_two_component(self, capsys):
        code, report = run(
            capsys,
            "analyze",
            "--curve",
            fixture("two_genus2_one_node.json"),
            "--polarization",
            fixture("w_one_sixth.json"),
        )
        assert code == 1
        assert report["arithmetic_genus"] == 4
        assert report["lambda"] == ["-1/2", "3/2"]
        assert report["stability"]["stable"] is False
        assert report["stability"]["witness"] == {"members": [1], "value": "-1/2"}
        assert report["goodness"]["status"] == "NotGood"
        assert report["goodness"]["witness"]["ranks"] == [1, 0]
        assert report["goodness"]["witness_delta"] == "-1/2"

    def test_triangle_uniform(self, capsys):
        code, report = run(
            capsys,
            "analyze",
            "--curve",
            fixture("triangle_rational.json"),
            "--polarization",
            fixture("w_thirds.json"),
        )
        assert code == 0
        assert report["classification"]["cycle_of_rationals"] is True
        assert report["stability"]["stable"] is True
        assert report["goodness"] == {"status": "GoodCertified", "certificate_base": 1}

    def test_banana_balanced_weights(self, capsys):
        code, report = run(
            capsys,
            "analyze",
            "--curve",
            fixture("banana3_rational.json"),
            "--polarization",
            fixture("w_half.json"),
        )
        assert code == 0
        assert report["stability"]["stable"] is True
        assert report["goodness"]["status"] == "GoodCertified"

    def test_malformed_weights(self, capsys):
        code, _ = run(
            capsys,
            "analyze",
            "--curve",
            fixture("two_genus2_one_node.json"),
            "--polarization",
            fixture("w_malformed.json"),
        )
        assert code == 2

    def test_missing_file(self, capsys):
        code, _ = run(
            capsys,
            "analyze",
            "--curve",
            fixture("nope.json"),
            "--polarization",
            fixture("w_half.json"),
        )
        assert code == 2


class TestBadInputExitCode:
    """Unreadable or ill-typed input exits 2, never 1 (a negative verdict)."""

    @pytest.mark.parametrize("kind", ["directory", "binary"])
    def test_unreadable_curve(self, capsys, tmp_path, kind):
        path = tmp_path
        if kind == "binary":
            path = tmp_path / "curve.json"
            path.write_bytes(bytes(range(128, 256)))
        code = main(
            ["stability", "--curve", str(path), "--polarization", fixture("w_half.json")]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize(
        "curve, weights",
        [
            ({"vertices": [{"id": True, "genus": False}], "edges": []}, ["1"]),
            (
                {
                    "vertices": [{"id": 1, "genus": 2}, {"id": 2, "genus": 2}],
                    "edges": [{"id": 1, "ends": [True, 2]}],
                },
                ["1/2", "1/2"],
            ),
            ({"vertices": [{"id": 1, "genus": 2}], "edges": []}, [True]),
        ],
    )
    def test_booleans(self, capsys, tmp_path, curve, weights):
        curve_path = tmp_path / "curve.json"
        curve_path.write_text(json.dumps(curve))
        pol_path = tmp_path / "w.json"
        pol_path.write_text(json.dumps({"weights": weights}))
        code = main(
            ["analyze", "--curve", str(curve_path), "--polarization", str(pol_path)]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")


class TestOtherCommands:
    def test_canonical(self, capsys):
        code, obj = run(
            capsys, "canonical", "--curve", fixture("two_genus2_one_node.json")
        )
        assert code == 0
        assert obj == {"weights": ["1/2", "1/2"]}

    def test_canonical_undefined(self, capsys):
        code, _ = run(
            capsys, "canonical", "--curve", fixture("triangle_rational.json")
        )
        assert code == 2

    def test_stability_exit_codes(self, capsys):
        code, obj = run(
            capsys,
            "stability",
            "--curve",
            fixture("two_genus2_one_node.json"),
            "--polarization",
            fixture("w_half.json"),
        )
        assert code == 0 and obj["stable"] is True
        code, obj = run(
            capsys,
            "stability",
            "--curve",
            fixture("two_genus2_one_node.json"),
            "--polarization",
            fixture("w_one_sixth.json"),
        )
        assert code == 1 and obj["stable"] is False

    def test_goodness(self, capsys):
        code, obj = run(
            capsys,
            "goodness",
            "--curve",
            fixture("elliptic_plus_rational.json"),
            "--polarization",
            fixture("w_half.json"),
        )
        assert code == 1
        assert obj["status"] == "NotGood"
        assert obj["witness"]["ranks"] == [1, 0]

    def test_gamma7_level_set_certificate_exits_0(self, capsys, tmp_path):
        # O_C is stable here and no base certifies goodness, so the level-set
        # theorem does, with no rank bound and no table of rank vectors.
        ends = [(1, 2), (1, 3), (3, 4), (4, 5), (2, 6), (4, 7), (3, 6), (2, 5), (4, 7), (1, 6)]
        curve = tmp_path / "gamma7.json"
        curve.write_text(
            json.dumps(
                {
                    "vertices": [
                        {"id": k + 1, "genus": g} for k, g in enumerate((1, 1, 0, 0, 2, 2, 1))
                    ],
                    "edges": [{"id": j + 1, "ends": list(e)} for j, e in enumerate(ends)],
                }
            )
        )
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps({"weights": [f"{n}/43" for n in (9, 8, 2, 7, 9, 7, 1)]}))
        started = time.perf_counter()
        code, obj = run(capsys, "goodness", "--curve", str(curve), "--polarization", str(weights))
        assert time.perf_counter() - started < 5.0
        assert code == 0
        assert obj == {"status": "GoodCertified", "certificate_kind": "level-set"}
        # --max-rank is still accepted, and changes nothing.
        assert run(
            capsys, "conjecture", "--curve", str(curve), "--polarization", str(weights),
            "--max-rank", "1",
        )[1]["goodness"] == obj

    def test_subset_scan_limit_exits_2(self, capsys, tmp_path):
        # The balance check visits every subset; a chain of 19 genus-2
        # components has 2^19 of them, above MAX_SUBSET_MASKS.
        curve = tmp_path / "chain19.json"
        curve.write_text(
            json.dumps(
                {
                    "vertices": [{"id": k, "genus": 2} for k in range(1, 20)],
                    "edges": [{"id": k, "ends": [k, k + 1]} for k in range(1, 19)],
                }
            )
        )
        started = time.perf_counter()
        code = main(["balanced", "--curve", str(curve), "--degrees", ",".join(["2"] * 19)])
        assert code == 2
        assert time.perf_counter() - started < 5.0
        assert "subsets" in capsys.readouterr().err

    def test_failed_self_check_exits_3(self, capsys, monkeypatch):
        # A residual kernel that disagrees with the other two formulas trips
        # the witness re-check: an internal error, reported with its inputs.
        import nodalpol.goodness

        monkeypatch.setattr(nodalpol.goodness, "delta_residual_scaled", lambda *a: 1)
        curve = fixture("two_genus2_one_node.json")
        weights = fixture("w_one_sixth.json")
        code = main(["goodness", "--curve", curve, "--polarization", weights])
        assert code == 3
        err = capsys.readouterr().err
        assert f"goodness --curve {curve} --polarization {weights}" in err
        assert "residual formula" in err

    def test_balanced(self, capsys, tmp_path):
        curve = tmp_path / "genus11_banana.json"
        curve.write_text(
            json.dumps(
                {
                    "vertices": [{"id": 1, "genus": 1}, {"id": 2, "genus": 1}],
                    "edges": [
                        {"id": 1, "ends": [1, 2]},
                        {"id": 2, "ends": [1, 2]},
                    ],
                }
            )
        )
        code, obj = run(
            capsys, "balanced", "--curve", str(curve), "--degrees", "1,1"
        )
        assert code == 0
        assert obj["balanced"] is True and obj["strict"] is True
        assert obj["bridge"]["equivalent"] is True

    def test_balanced_degree_count_mismatch(self, capsys):
        code, _ = run(
            capsys,
            "balanced",
            "--curve",
            fixture("two_genus2_one_node.json"),
            "--degrees",
            "1,2,3",
        )
        assert code == 2

    def test_paths(self, capsys):
        code, obj = run(
            capsys,
            "paths",
            "--curve",
            fixture("triangle_rational.json"),
            "--base",
            "3",
            "--polarization",
            fixture("w_thirds.json"),
        )
        assert code == 0
        assert obj["marking"] == [1, 2, 3]
        assert obj["tree_edges"] == [1, 2]
        table = {row["edge"]: row for row in obj["far_side_subcurves"]}
        assert table[1]["members"] == [2]
        assert table[2]["members"] == [1]
        assert table[3]["members"] == []
        assert table[1]["delta"] == "1"

    def test_polytope(self, capsys):
        code, obj = run(
            capsys, "polytope", "--curve", fixture("two_genus2_one_node.json")
        )
        assert code == 0
        assert obj["windows"] == [{"B": [1], "lower": "1/3", "upper": "2/3"}]
        assert obj["witness"] == {"weights": ["1/2", "1/2"]}

    def test_export_dot(self, capsys):
        code, text = run(
            capsys, "export-dot", "--curve", fixture("two_genus2_one_node.json")
        )
        assert code == 0
        assert 'v1 -- v2 [label="p_1"];' in text
        code2, text2 = run(
            capsys, "export-dot", "--curve", fixture("two_genus2_one_node.json")
        )
        assert text == text2

    def test_search_conjecture(self, capsys, tmp_path):
        code, obj = run(
            capsys,
            "search-conjecture",
            "--max-vertices",
            "2",
            "--max-edges",
            "2",
            "--max-genus",
            "1",
            "--denominator",
            "4",
            "--max-rank",
            "2",
            "--csv",
            str(tmp_path / "rows.csv"),
            "--summary",
            str(tmp_path / "summary.json"),
        )
        assert code == 0
        assert obj["consistent"] is True
        assert (tmp_path / "rows.csv").exists()
        assert (tmp_path / "summary.json").exists()

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["stability", "--curve", "x.json", "--bogus"])
        assert err.value.code == 2

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2
