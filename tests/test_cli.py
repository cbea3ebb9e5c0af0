from __future__ import annotations

import hashlib
import importlib.util
import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import nodalpol.balanced
import nodalpol.cli
import nodalpol.curve
import nodalpol.pathsys
import nodalpol.polarization
from nodalpol import CurveGraph, Polarization
from nodalpol.cli import main
from nodalpol.curve import mask_members
from nodalpol.jsonio import (
    canonical_dumps,
    curve_to_obj,
    format_scaled,
    polarization_to_obj,
    subcurve_table,
)
from nodalpol.polarization import delta_structure_scaled, scaled_lambda

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

    @pytest.mark.parametrize(
        "command, curve, weights",
        [
            # Integers past Python's 4,300-digit limit on int() of a string.
            (
                "canonical",
                '{"vertices": [{"id": 1, "genus": %s}], "edges": []}' % ("9" * 5000),
                None,
            ),
            (
                "stability",
                '{"vertices": [{"id": 1, "genus": 2}], "edges": []}',
                '{"weights": ["%s/%s"]}' % ("9" * 5000, "9" * 5000),
            ),
            # Nesting deeper than the JSON decoder recurses.
            ("canonical", "[" * 200_000 + "]" * 200_000, None),
        ],
        ids=["long-genus", "long-weight", "deep-nesting"],
    )
    def test_oversized_input(self, capsys, tmp_path, command, curve, weights):
        curve_path = tmp_path / "curve.json"
        curve_path.write_text(curve)
        argv = [command, "--curve", str(curve_path)]
        if weights is not None:
            pol_path = tmp_path / "w.json"
            pol_path.write_text(weights)
            argv += ["--polarization", str(pol_path)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err


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

    def test_connected_subcurve_limit_exits_2(self, capsys, tmp_path):
        # A star of 25 genus-2 components has 2^24 + 24 connected
        # subcurves; growing them stops past MAX_SUBSET_MASKS.
        curve = tmp_path / "star25.json"
        curve.write_text(
            json.dumps(
                {
                    "vertices": [{"id": k, "genus": 2} for k in range(1, 26)],
                    "edges": [{"id": k, "ends": [1, k + 1]} for k in range(1, 25)],
                }
            )
        )
        weights = tmp_path / "uniform25.json"
        weights.write_text(json.dumps({"weights": ["1/25"] * 25}))
        started = time.perf_counter()
        code = main(["stability", "--curve", str(curve), "--polarization", str(weights)])
        assert code == 2
        assert time.perf_counter() - started < 5.0
        assert "error: " in capsys.readouterr().err

    @pytest.mark.parametrize("denominator", ["0", "-3"])
    @pytest.mark.parametrize("stable", [True, False])
    def test_polytope_denominator_below_one_exits_2(
        self, capsys, tmp_path, stable, denominator
    ):
        # The stable curve's witness is the canonical point, found before
        # any grid point; the bound is checked all the same.
        if stable:
            curve = fixture("two_genus2_one_node.json")
        else:
            path = tmp_path / "chain101.json"
            path.write_text(
                json.dumps(
                    {
                        "vertices": [{"id": k, "genus": g} for k, g in ((1, 1), (2, 0), (3, 1))],
                        "edges": [{"id": 1, "ends": [1, 2]}, {"id": 2, "ends": [2, 3]}],
                    }
                )
            )
            curve = str(path)
        code = main(["polytope", "--curve", curve, "--denominator", denominator])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: grid parameters must be positive" in captured.err

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


# sha256 of stdout and the exit code of each command on the fixtures: the
# exact bytes the serializer writes, as ``json.dumps(sort_keys=True,
# indent=2)`` writes them.  File arguments name files in ``fixtures/``.
GOLDEN_OUTPUTS = [
    (("analyze", "--curve", "multigraph5_mixed.json", "--polarization", "w_multigraph5.json"), 0, "695d77fecdd7e6a6ab94413fb07cf0052e4e76b49005f321f0ce0c0706b7e34a"),
    (("analyze", "--curve", "chain13_elliptic.json", "--polarization", "w_thirteenths.json"), 0, "8b389f365f09723fbe2b2a6ff799f18e0e43b4f0b137eb15c3643130bc1fd391"),
    (("analyze", "--curve", "two_genus2_one_node.json", "--polarization", "w_half.json"), 0, "bc16f4f82b25e70d3a4a4bc400cb207a8ffc4928a0b631b44e13b6d3a9bf9404"),
    (("analyze", "--curve", "two_genus2_one_node.json", "--polarization", "w_one_sixth.json"), 1, "f634f957da1bc42e90bbf1879a78a49f13b5158d0b9ed9f5fe1a8f2850734f71"),
    (("analyze", "--curve", "elliptic_plus_rational.json", "--polarization", "w_half.json"), 1, "2b6ad58b00b86e237d74e90a93ae96a2e0ea6b789c128e1f7acca0967b4fdcc0"),
    (("analyze", "--curve", "elliptic_plus_rational.json", "--polarization", "w_one_sixth.json"), 1, "2b6ad58b00b86e237d74e90a93ae96a2e0ea6b789c128e1f7acca0967b4fdcc0"),
    (("analyze", "--curve", "banana3_rational.json", "--polarization", "w_half.json"), 0, "a6962c7000fa5a99ce9be6c61e9ece58d9fe61400f41e3c9db189f538f675e52"),
    (("analyze", "--curve", "banana3_rational.json", "--polarization", "w_one_sixth.json"), 0, "4c738f4e6fbd12537ebbb7677326bdf47de8370e1606de2bd36f80a4c0c954cc"),
    (("analyze", "--curve", "triangle_rational.json", "--polarization", "w_thirds.json"), 0, "f802d4a9c6b10aa5ce40fefab31f8f40f959afac417e0b5762324ca7f48bee6c"),
    (("stability", "--curve", "multigraph5_mixed.json", "--polarization", "w_multigraph5.json"), 0, "dd9986f39a4f9dbd0b447764a2bb0afcf9a66db78e16349391a2a1f24d9c28c7"),
    (("stability", "--curve", "chain13_elliptic.json", "--polarization", "w_thirteenths.json"), 0, "dd9986f39a4f9dbd0b447764a2bb0afcf9a66db78e16349391a2a1f24d9c28c7"),
    (("stability", "--curve", "two_genus2_one_node.json", "--polarization", "w_half.json"), 0, "dd9986f39a4f9dbd0b447764a2bb0afcf9a66db78e16349391a2a1f24d9c28c7"),
    (("stability", "--curve", "two_genus2_one_node.json", "--polarization", "w_one_sixth.json"), 1, "6055fd13ea688e81c839bc989ba4cf6bd6807bc352d8467354831cde88d2dd8d"),
    (("stability", "--curve", "elliptic_plus_rational.json", "--polarization", "w_half.json"), 1, "56296f12d7d5af9e5d146be6ee5ab51d6c7f098e1e6e4cca10e02a89bbcc3a14"),
    (("stability", "--curve", "elliptic_plus_rational.json", "--polarization", "w_one_sixth.json"), 1, "56296f12d7d5af9e5d146be6ee5ab51d6c7f098e1e6e4cca10e02a89bbcc3a14"),
    (("stability", "--curve", "banana3_rational.json", "--polarization", "w_half.json"), 0, "dd9986f39a4f9dbd0b447764a2bb0afcf9a66db78e16349391a2a1f24d9c28c7"),
    (("stability", "--curve", "banana3_rational.json", "--polarization", "w_one_sixth.json"), 0, "dd9986f39a4f9dbd0b447764a2bb0afcf9a66db78e16349391a2a1f24d9c28c7"),
    (("stability", "--curve", "triangle_rational.json", "--polarization", "w_thirds.json"), 0, "dd9986f39a4f9dbd0b447764a2bb0afcf9a66db78e16349391a2a1f24d9c28c7"),
    (("goodness", "--curve", "multigraph5_mixed.json", "--polarization", "w_multigraph5.json"), 0, "a86277f2003f60b1b6ecbfd2725d791f3278e515a6e3ba025e1db6a5464fe529"),
    (("goodness", "--curve", "chain13_elliptic.json", "--polarization", "w_thirteenths.json"), 0, "d9002ab34c4a7c1d9449c11a55b38f05eded0f594c1fa523c4fca59d56230448"),
    (("goodness", "--curve", "two_genus2_one_node.json", "--polarization", "w_half.json"), 0, "d9002ab34c4a7c1d9449c11a55b38f05eded0f594c1fa523c4fca59d56230448"),
    (("goodness", "--curve", "two_genus2_one_node.json", "--polarization", "w_one_sixth.json"), 1, "f5d4c51a1b4fef9ee0afdfec0430ebf4e5ff72b6b368efe97a8bbe6637351fcd"),
    (("goodness", "--curve", "elliptic_plus_rational.json", "--polarization", "w_half.json"), 1, "bc56d21af2ddd7ca9de4f43f7d6ec1c4553e215336d14edc3ca7211f88c5156b"),
    (("goodness", "--curve", "elliptic_plus_rational.json", "--polarization", "w_one_sixth.json"), 1, "bc56d21af2ddd7ca9de4f43f7d6ec1c4553e215336d14edc3ca7211f88c5156b"),
    (("goodness", "--curve", "banana3_rational.json", "--polarization", "w_half.json"), 0, "d9002ab34c4a7c1d9449c11a55b38f05eded0f594c1fa523c4fca59d56230448"),
    (("goodness", "--curve", "banana3_rational.json", "--polarization", "w_one_sixth.json"), 0, "d9002ab34c4a7c1d9449c11a55b38f05eded0f594c1fa523c4fca59d56230448"),
    (("goodness", "--curve", "triangle_rational.json", "--polarization", "w_thirds.json"), 0, "d9002ab34c4a7c1d9449c11a55b38f05eded0f594c1fa523c4fca59d56230448"),
    (("conjecture", "--curve", "multigraph5_mixed.json", "--polarization", "w_multigraph5.json"), 0, "a8f67f043f6fd00af5a8e61cc4d354464a611ac8f211001d179521655ad0c68d"),
    (("conjecture", "--curve", "chain13_elliptic.json", "--polarization", "w_thirteenths.json"), 0, "ab8c6655fa885a2e3f3f8ef6fff6cdda4cda0b68aa0a6050279f46b598e53cf9"),
    (("conjecture", "--curve", "two_genus2_one_node.json", "--polarization", "w_half.json"), 0, "ab8c6655fa885a2e3f3f8ef6fff6cdda4cda0b68aa0a6050279f46b598e53cf9"),
    (("conjecture", "--curve", "two_genus2_one_node.json", "--polarization", "w_one_sixth.json"), 0, "59eb912f76f04e98bad477c1b7fead36ba0aeeffd09867d2e659499ad394a593"),
    (("conjecture", "--curve", "elliptic_plus_rational.json", "--polarization", "w_half.json"), 0, "376dbcbb179394d22de5d741f6f4149789b9868fb2166c8879dfb145257a2e48"),
    (("conjecture", "--curve", "elliptic_plus_rational.json", "--polarization", "w_one_sixth.json"), 0, "376dbcbb179394d22de5d741f6f4149789b9868fb2166c8879dfb145257a2e48"),
    (("conjecture", "--curve", "banana3_rational.json", "--polarization", "w_half.json"), 0, "ab8c6655fa885a2e3f3f8ef6fff6cdda4cda0b68aa0a6050279f46b598e53cf9"),
    (("conjecture", "--curve", "banana3_rational.json", "--polarization", "w_one_sixth.json"), 0, "ab8c6655fa885a2e3f3f8ef6fff6cdda4cda0b68aa0a6050279f46b598e53cf9"),
    (("conjecture", "--curve", "triangle_rational.json", "--polarization", "w_thirds.json"), 0, "ab8c6655fa885a2e3f3f8ef6fff6cdda4cda0b68aa0a6050279f46b598e53cf9"),
    (("canonical", "--curve", "multigraph5_mixed.json"), 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("polytope", "--curve", "multigraph5_mixed.json"), 0, "441000e13fc7416c914a3a60be2bab0aee07fa914a00f8eba4b5547c2f1dadc8"),
    (("canonical", "--curve", "two_genus2_one_node.json"), 0, "933eee02de0c56d5b885eabdf2276cb81511b9499945e2f9f53ca7b02ee3d059"),
    (("polytope", "--curve", "two_genus2_one_node.json"), 0, "111e35e2cdd6374c52de0cdbbf7e62623575bd960ebd9cbeab473d6661234670"),
    (("canonical", "--curve", "elliptic_plus_rational.json"), 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("polytope", "--curve", "elliptic_plus_rational.json"), 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("canonical", "--curve", "banana3_rational.json"), 0, "933eee02de0c56d5b885eabdf2276cb81511b9499945e2f9f53ca7b02ee3d059"),
    (("polytope", "--curve", "banana3_rational.json"), 0, "285b3e7e9c86c3de8675bcd4a6e360fda96558fe894fdf99447aef47b63a6e9a"),
    (("canonical", "--curve", "triangle_rational.json"), 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("polytope", "--curve", "triangle_rational.json"), 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("polytope", "--curve", "triangle_rational.json", "--denominator", "6"), 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("paths", "--curve", "multigraph5_mixed.json", "--base", "2"), 0, "149188f6ddd7b9b600e463e4d50898f26c5622de37d6826e8d07ad03d5fce8de"),
    (("paths", "--curve", "multigraph5_mixed.json", "--base", "2", "--polarization", "w_multigraph5.json"), 0, "431aa6359e658f7eb6ecd39b7ada84c3cf0722865fedf1b5466fc67550d79864"),
    (("paths", "--curve", "two_genus2_one_node.json", "--base", "2"), 0, "b446290377b45627e9c8b0f331333d12e6ec28407c0c07177e73893056c6756c"),
    (("paths", "--curve", "two_genus2_one_node.json", "--base", "2", "--polarization", "w_half.json"), 0, "bd702a0ce9376b91e8768e2b5e15d6ae6560b62ab0123c5a76e4f1d63b11d4b4"),
    (("paths", "--curve", "two_genus2_one_node.json", "--base", "2", "--polarization", "w_one_sixth.json"), 0, "663f827583292231f9ba62c652d2963fc78097822f6beaa5e49c71fe27734031"),
    (("paths", "--curve", "elliptic_plus_rational.json", "--base", "2"), 0, "b446290377b45627e9c8b0f331333d12e6ec28407c0c07177e73893056c6756c"),
    (("paths", "--curve", "elliptic_plus_rational.json", "--base", "2", "--polarization", "w_half.json"), 0, "3f3d083c6cc1a7f3384cba024e364538efd52c3e38689d2c81dd84bf12bb0d96"),
    (("paths", "--curve", "elliptic_plus_rational.json", "--base", "2", "--polarization", "w_one_sixth.json"), 0, "3f3d083c6cc1a7f3384cba024e364538efd52c3e38689d2c81dd84bf12bb0d96"),
    (("paths", "--curve", "banana3_rational.json", "--base", "2"), 0, "f1fbcb3e874449bad525fa4c8a5e4d64199cd14405eee3e3ea9d37cc364ccd8f"),
    (("paths", "--curve", "banana3_rational.json", "--base", "2", "--polarization", "w_half.json"), 0, "cd12f3b5182f27088c54ebd03984fee619d1daeb57eacc21beb48ab4150ef666"),
    (("paths", "--curve", "banana3_rational.json", "--base", "2", "--polarization", "w_one_sixth.json"), 0, "cb3cb7a8b761eba6e50e368de9b6874f53dc0d4f3c20499f76f33b66908b0e83"),
    (("paths", "--curve", "triangle_rational.json", "--base", "2"), 0, "0b65de0147c72892742d5d2fea0739518df96ab974a066ea959fd21108b21a55"),
    (("paths", "--curve", "triangle_rational.json", "--base", "2", "--polarization", "w_thirds.json"), 0, "79070d13d5b705ccd40d4da9eb304cbd97310a64fdf559b213f9b994b5aac39e"),
    (("paths", "--curve", "triangle_rational.json", "--base", "3"), 0, "e02ef8f0391f3a46c95fbfd0d6b539ef82d94c5702382745ebb1962260246896"),
    (("paths", "--curve", "triangle_rational.json", "--base", "3", "--polarization", "w_thirds.json"), 0, "4b283893b967dbcfdd2b7e4eb7448a3bcd07c8d5931d5a70e85a4f31c7ebaaf7"),
    (("balanced", "--curve", "two_genus2_one_node.json", "--degrees", "1,2"), 0, "2dfb491f3c07c54717a849019e8d7a411cfb04dfadcaafec2fb318759e214c2b"),
    (("balanced", "--curve", "two_genus2_one_node.json", "--degrees", "2,1"), 0, "2dfb491f3c07c54717a849019e8d7a411cfb04dfadcaafec2fb318759e214c2b"),
    (("balanced", "--curve", "two_genus2_one_node.json", "--degrees", "1,1"), 0, "c77fccaad6827951f8a4f86d9146b2e88ffa455327ce4393c90a320d8883bbc8"),
    (("balanced", "--curve", "two_genus2_one_node.json", "--degrees", "3,3"), 0, "3b47955832f6d34bcd3e67d09342b67fceb9506cca9dd4001fcb6dd0ee83916e"),
    (("balanced", "--curve", "banana3_rational.json", "--degrees", "1,1"), 0, "8d3e4f04f380006f8854ba359f9598b355fc7a05ef3785ab5d9dd9771f80bef0"),
    (("balanced", "--curve", "banana3_rational.json", "--degrees", "0,1"), 0, "c07e77753f21ded6afde8558c1f7938055fdd4888f69706533f3b1622632c78b"),
    (("balanced", "--curve", "multigraph5_mixed.json", "--degrees", "1,1,1,1,1"), 0, "f45094144102029c3721243f55771fb90473621af6f61d8819c737a0e7df429c"),
    (("balanced", "--curve", "multigraph5_mixed.json", "--degrees", "1,1,1"), 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("balanced", "--curve", "two_genus2_one_node.json", "--degrees", "0,3"), 1, "03e631ed3ccf80b0978d586c02851fe688e300ba4671ea8ae33619cddef26f59"),
    (("balanced", "--curve", "multigraph5_mixed.json", "--degrees", "0,0,0,3,0"), 1, "2606cea72acd05075ffddcbe80c2e13120c1327843d76db129386dbbdeb421f3"),
]


def _argv(case: tuple[str, ...]) -> list[str]:
    return [fixture(a) if a.endswith(".json") else a for a in case]


def _stdout(capsys, case: tuple[str, ...]) -> tuple[int, str]:
    code = main(_argv(case))
    return code, hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    "case, code, sha", GOLDEN_OUTPUTS, ids=[" ".join(c[0]) for c in GOLDEN_OUTPUTS]
)
def test_golden_stdout(capsys, case, code, sha):
    assert _stdout(capsys, case) == (code, sha)


def test_balanced_scans_subsets_once(capsys, monkeypatch):
    # The bridge reuses the strict verdict of the balance report.
    calls = []
    scan = nodalpol.balanced._balance_scan

    def counted(*args):
        calls.append(args)
        return scan(*args)

    monkeypatch.setattr(nodalpol.balanced, "_balance_scan", counted)
    case = ("balanced", "--curve", "two_genus2_one_node.json", "--degrees", "1,2")
    expected = next((c, h) for k, c, h in GOLDEN_OUTPUTS if k == case)
    assert _stdout(capsys, case) == expected
    assert len(calls) == 1


class TestParserReuse:
    """``main`` keeps one parser per process; that must change nothing."""

    SEQUENCE = [
        ("analyze", "--curve", "multigraph5_mixed.json", "--polarization", "w_multigraph5.json"),
        ("balanced", "--curve", "two_genus2_one_node.json", "--degrees", "1,2,3"),
        ("analyze", "--curve", "two_genus2_one_node.json", "--polarization", "w_one_sixth.json"),
        ("goodness", "--curve", "elliptic_plus_rational.json", "--polarization", "w_half.json"),
    ]

    def test_sequence_matches_fresh_parsers(self, capsys):
        reused = [_stdout(capsys, case) for case in self.SEQUENCE]
        fresh = []
        for case in self.SEQUENCE:
            nodalpol.cli._parser.cache_clear()
            fresh.append(_stdout(capsys, case))
        assert reused == fresh
        assert [code for code, _ in reused] == [0, 2, 1, 1]

    def test_parser_is_built_once(self, capsys):
        main(_argv(self.SEQUENCE[0]))
        parser = nodalpol.cli._parser()
        main(_argv(self.SEQUENCE[2]))
        assert nodalpol.cli._parser() is parser
        capsys.readouterr()

    def test_replaced_command_is_called(self, capsys, monkeypatch):
        case = self.SEQUENCE[0]
        main(_argv(case))
        capsys.readouterr()
        seen = []

        def spy(args):
            seen.append(args.command)
            return 7

        monkeypatch.setattr(nodalpol.cli, "_cmd_analyze", spy)
        assert main(_argv(case)) == 7
        assert seen == ["analyze"]
        assert capsys.readouterr().out == ""


# -- the subcurve table ---------------------------------------------------


def _table_rows(curve: CurveGraph, w: Polarization) -> list[dict]:
    """The subcurve table as a list of dicts, one per row, each delta summed
    over the row's members: the layout ``analyze`` prints."""
    lam, q = scaled_lambda(curve, w)
    rows = []
    s = curve.connected_subcurve_stats()
    for mask, internal, boundary, genus in zip(s.masks, s.internal, s.boundary, s.genus):
        members = mask_members(mask)
        rows.append(
            {
                "members": [curve.vertex_ids[k] for k in members],
                "boundary": boundary,
                "genus": genus,
                "delta": format_scaled(
                    delta_structure_scaled(lam, q, members, internal), q
                ),
            }
        )
    return rows


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _first_difference(text: str, expected: str) -> str:
    got, want = text.splitlines(), expected.splitlines()
    k = next(
        (k for k, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want))
    )
    return f"line {k}: {got[k:k + 1]} where {want[k:k + 1]} was expected"


def _table_case(rng: random.Random, gamma: int) -> tuple[CurveGraph, Polarization]:
    """Sparse or dense, with parallel edges, shuffled ids of one to three
    digits and weight numerators 1-20."""
    ids = rng.sample(range(1, 1000), gamma)
    edges = [(ids[rng.randrange(k)], ids[k]) for k in range(1, gamma)]
    if gamma >= 2:
        edges += [tuple(rng.sample(ids, 2)) for _ in range(rng.randint(0, 2 * gamma))]
        edges += [rng.choice(edges) for _ in range(rng.randint(0, 3))]
    curve = CurveGraph(
        [(v, rng.randint(0, 3)) for v in ids],
        [(j + 1, ends) for j, ends in enumerate(edges)],
    )
    nums = [rng.randint(1, 20) for _ in range(gamma)]
    return curve, Polarization.of([Fraction(n, sum(nums)) for n in nums])


class TestSubcurveTable:
    """The table is written as text from the integers; the list of dicts
    above, through ``json.dumps``, is the oracle."""

    # Genera (2, 1) meeting once, at w = (1/2, 1/2): delta is 0 on the
    # genus-2 component and 1 on the other.
    ZERO_AND_INTEGER = (
        CurveGraph([(305, 2), (17, 1)], [(9, (305, 17))]),
        Polarization.of(["1/2", "1/2"]),
    )

    def _analyze(self, capsys, tmp_path, curve, w) -> tuple[int, str]:
        cpath, wpath = tmp_path / "curve.json", tmp_path / "w.json"
        cpath.write_text(canonical_dumps(curve_to_obj(curve)))
        wpath.write_text(canonical_dumps(polarization_to_obj(w)))
        code = main(["analyze", "--curve", str(cpath), "--polarization", str(wpath)])
        return code, capsys.readouterr().out

    def test_report_matches_dict_rows(self, capsys, tmp_path):
        rng = random.Random(1212)
        cases = [self.ZERO_AND_INTEGER]
        cases += [_table_case(rng, gamma) for gamma in range(1, 13) for _ in range(4)]
        kinds = set()
        for curve, w in cases:
            code, out = self._analyze(capsys, tmp_path, curve, w)
            assert code in (0, 1)
            obj = json.loads(out)
            obj["subcurves"] = rows = _table_rows(curve, w)
            assert out == json.dumps(obj, sort_keys=True, indent=2) + "\n", curve
            for row in rows:
                d = Fraction(row["delta"])
                kinds.add("fraction" if d.denominator > 1 else (d > 0) - (d < 0))
        assert kinds == {-1, 0, 1, "fraction"}

    @pytest.mark.parametrize("gamma", [13, 16])
    def test_beyond_the_cli_limit(self, gamma):
        # The CLI prints the table up to 12 components; the writer takes 16.
        curve, w = _table_case(random.Random(gamma), gamma)
        lam, q = scaled_lambda(curve, w)
        defects = nodalpol.polarization.subcurve_defects_scaled(curve, lam, q)
        text = canonical_dumps(subcurve_table(curve, defects, q))
        expected = json.dumps(_table_rows(curve, w), indent=2, sort_keys=True) + "\n"
        # Digests, not the texts: pytest would diff two texts of up to
        # 2^16 rows before it reports.
        assert _sha(text) == _sha(expected), _first_difference(text, expected)

    def test_seventeen_components_refused(self):
        curve = CurveGraph.from_genera([1] * 17, [(k, k + 1) for k in range(1, 17)])
        with pytest.raises(ValueError, match="16"):
            subcurve_table(curve, [0] * len(curve.connected_subcurve_stats()), 1)

    def test_defects_computed_once(self, capsys, monkeypatch):
        calls = []
        kernel = nodalpol.polarization.subcurve_defects_scaled

        def counted(*args):
            calls.append(args)
            return kernel(*args)

        for name, module in list(sys.modules.items()):
            if name.startswith("nodalpol") and getattr(
                module, "subcurve_defects_scaled", None
            ) is kernel:
                monkeypatch.setattr(module, "subcurve_defects_scaled", counted)
        case = ("analyze", "--curve", "multigraph5_mixed.json", "--polarization", "w_multigraph5.json")
        expected = next((c, h) for k, c, h in GOLDEN_OUTPUTS if k == case)
        assert _stdout(capsys, case) == expected
        assert len(calls) == 1


def test_repeated_analyze_builds_path_systems_cold(capsys, monkeypatch):
    # Path systems and the subcurve skeleton are memoized on a curve's dual
    # graph, which each call builds afresh from its files: no cache outlives
    # a call, so repeated calls on the same files repeat the work.
    built, grown = [], []
    construct = nodalpol.pathsys._construct
    grow = nodalpol.curve._grow_subcurves

    def counted_construct(graph, base):
        built.append(graph)
        return construct(graph, base)

    def counted_grow(graph):
        grown.append(graph)
        return grow(graph)

    monkeypatch.setattr(nodalpol.pathsys, "_construct", counted_construct)
    monkeypatch.setattr(nodalpol.curve, "_grow_subcurves", counted_grow)
    case = ("analyze", "--curve", "multigraph5_mixed.json", "--polarization", "w_multigraph5.json")
    expected = next((c, h) for k, c, h in GOLDEN_OUTPUTS if k == case)
    assert _stdout(capsys, case) == expected
    first = len(built)
    assert first > 0
    assert len(grown) == 1
    assert _stdout(capsys, case) == expected
    assert len(built) == 2 * first
    assert {id(g) for g in built[:first]}.isdisjoint(id(g) for g in built[first:])
    assert len(grown) == 2 and grown[0] is not grown[1]


BENCH_RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"

# sha256 over f"{rc}\n{stdout}" of every ``wide_analyze`` call of seeds 1-10,
# in call order.
WIDE_ANALYZE_SHA = "8cd6a5427be02ac70f595c24dec7d086f9df79bb852a13f61e7778ec82a0e5cf"


def test_wide_analyze_golden(capsys, monkeypatch, tmp_path):
    # The benchmark module puts its own directory on sys.path, imports its
    # helpers from there as top-level modules and pins the BLAS thread
    # counts when it loads; all three are undone, the helpers as soon as
    # it holds them.
    monkeypatch.setattr(sys, "path", list(sys.path))
    loaded = set(sys.modules)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location("bench_run", BENCH_RUN)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    for name in set(sys.modules) - loaded:
        if Path(getattr(sys.modules[name], "__file__", None) or "/").parent == BENCH_RUN.parent:
            del sys.modules[name]
    cpath, wpath = tmp_path / "curve.json", tmp_path / "w.json"
    digest = hashlib.sha256()
    for seed in range(1, 11):
        for genera, edges, weights in bench.analyze_inputs(seed):
            cpath.write_text(json.dumps({
                "vertices": [{"id": v + 1, "genus": g} for v, g in enumerate(genera)],
                "edges": [{"id": j + 1, "ends": [a, b]} for j, (a, b) in enumerate(edges)],
            }))
            wpath.write_text(json.dumps({"weights": [str(x) for x in weights]}))
            rc = main([
                "analyze", "--curve", str(cpath), "--polarization", str(wpath),
                "--max-rank", bench.ANALYZE_MAX_RANK,
            ])
            digest.update(f"{rc}\n{capsys.readouterr().out}".encode("utf-8"))
    assert digest.hexdigest() == WIDE_ANALYZE_SHA
