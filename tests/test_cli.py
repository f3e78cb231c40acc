import json

import pytest

from msubres import cli
from msubres.cli import SweepConfig, main, report_body, run_sweep
from msubres.polyring import UniverseMismatchError, ZeroPolynomialError


def test_hilbert_text(capsys):
    assert main(["hilbert", "--n", "2", "--degrees", "3,2", "--t", "0..4"]) == 0
    out = capsys.readouterr().out
    assert [line.split(" = ")[1] for line in out.strip().splitlines()] == [
        "1", "2", "2", "1", "0"
    ]


def test_hilbert_single_value(capsys):
    assert main(["hilbert", "--n", "3", "--degrees", "2,2,2", "--t", "0..0"]) == 0
    assert capsys.readouterr().out.strip() == "H(0) = 1"


def test_hilbert_structured(capsys):
    assert main(
        ["hilbert", "--n", "3", "--degrees", "2,2,2", "--t", "0..3", "--format", "structured"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == cli.SCHEMA
    assert doc["values"] == {"0": 1, "1": 3, "2": 3, "3": 1}


def test_hilbert_malformed(capsys):
    assert main(["hilbert", "--n", "2", "--degrees", "3;2", "--t", "0..4"]) == 2


def test_delta_golden(capsys):
    code = main(["delta", "--n", "2", "--degrees", "2,2", "--nu", "2", "--S", "x1*x2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "c1_02*c2_20 - c1_20*c2_02" in out


def test_flags_registered_only_where_read(capsys):
    # --jobs is read by verify alone, --seed by verify and residual
    delta = ["delta", "--n", "2", "--degrees", "2,2", "--nu", "2", "--S", "x1*x2"]
    hilbert = ["hilbert", "--n", "2", "--degrees", "3,2", "--t", "0..4"]
    residual = ["residual", "--n", "2", "--degrees", "3,2", "--nu", "3"]
    for argv in (delta + ["--jobs", "2"], delta + ["--seed", "1"],
                 hilbert + ["--jobs", "2"], hilbert + ["--seed", "1"],
                 residual + ["--jobs", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err


def test_delta_wrong_cardinality(capsys):
    code = main(["delta", "--n", "2", "--degrees", "4,2", "--nu", "3", "--S", "x2^3"])
    assert code == 2
    assert "required cardinality is 2" in capsys.readouterr().err


def test_delta_nu_out_of_range(capsys):
    code = main(["delta", "--n", "2", "--degrees", "2,2", "--nu", "5", "--S", "x1*x2"])
    assert code == 2


def test_delta_zero_exit_code(monkeypatch, capsys):
    # identically-zero subresultants are rare; force one through the seam
    from msubres.subres import SubresultantResult, build_generic_system
    from msubres.hilbert import DegreeVector
    from msubres.polyring import Polynomial

    sys_ = build_generic_system(2, (2, 2))

    def fake(sys_arg, nu, S):
        return SubresultantResult(
            delta=Polynomial.zero(sys_.universe),
            multidegrees={"c1": 0, "c2": 0},
            content=0,
            sign=1,
            nu=nu,
            monomial_set=S,
            dv=DegreeVector(2, (2, 2)),
            in_range=True,
            is_zero=True,
        )

    monkeypatch.setattr(cli, "subresultant", fake)
    code = main(["delta", "--n", "2", "--degrees", "2,2", "--nu", "2", "--S", "x1*x2"])
    assert code == 3


@pytest.mark.parametrize(
    "error", [UniverseMismatchError, ZeroPolynomialError], ids=lambda e: e.__name__
)
def test_internal_value_errors_are_failures(monkeypatch, capsys, error):
    # these ValueError subclasses come from a fault inside the pipeline, not
    # from invalid input: exit 1, not 2
    def fake(sys_arg, nu, S):
        raise error("internal fault")

    monkeypatch.setattr(cli, "subresultant", fake)
    code = main(["delta", "--n", "2", "--degrees", "2,2", "--nu", "2", "--S", "x1*x2"])
    assert code == 1
    assert "internal fault" in capsys.readouterr().err


def test_verdict_precondition_fault_is_a_failure(monkeypatch, capsys):
    # the sweep hands the verdict a primitive part; content 2 there is a fault
    # inside the pipeline, not invalid input: exit 1, not 2
    from msubres import irred

    def doubled(p, seed):
        return irred.irreducibility_verdict(p * 2, seed)

    monkeypatch.setattr(cli, "irreducibility_verdict", doubled)
    code = main(
        ["verify", "--degrees", "2,2", "--n", "2", "--nu-mode", "above-bound",
         "--s-mode", "exhaustive", "--s-limit", "1"]
    )
    assert code == 1
    assert "content" in capsys.readouterr().err


def test_verify_exhaustive_small(capsys):
    code = main(
        ["verify", "--degrees", "2,2", "--n", "2", "--nu-mode", "above-bound",
         "--s-mode", "exhaustive", "--s-limit", "10"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "irreducible=3" in out and "reducible=0" in out


def test_verify_sample_requires_seed(capsys):
    code = main(["verify", "--degrees", "2,2", "--n", "2", "--s-mode", "sample"])
    assert code == 2


def test_verify_structured_schema(capsys):
    code = main(
        ["verify", "--degrees", "3,2", "--n", "2", "--nu-mode", "all-in-range",
         "--s-mode", "exhaustive", "--s-limit", "20", "--format", "structured"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == cli.SCHEMA
    assert doc["aggregate"]["failures"] == []
    positions = {c["position"] for c in doc["cases"]}
    assert positions == {"at-bound", "above-bound"}


def test_verify_out_file(tmp_path):
    path = tmp_path / "report.json"
    code = main(
        ["verify", "--degrees", "2,2", "--n", "2", "--s-mode", "exhaustive",
         "--s-limit", "10", "--format", "structured", "--out", str(path)]
    )
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["command"] == "verify"


def _small_cfg(jobs=1):
    return SweepConfig(
        n_values=(2,),
        d_max=3,
        degree_vectors=((2, 2), (3, 2)),
        nu_mode="all-in-range",
        s_mode="sample",
        s_limit=3,
        seed=99,
        jobs=jobs,
        max_rows=14,
    )


def test_report_determinism_and_parallel_equals_serial():
    body1 = report_body(run_sweep(_small_cfg()))
    body2 = report_body(run_sweep(_small_cfg()))
    body_par = report_body(run_sweep(_small_cfg(jobs=3)))
    assert body1 == body2 == body_par


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig((2,), 3, (), "sideways", "exhaustive", 1, None, 1, 14)
    with pytest.raises(ValueError):
        SweepConfig((2,), 3, (), "at-bound", "sample", 1, None, 1, 14)  # no seed
    with pytest.raises(ValueError):
        SweepConfig((2,), 3, (), "at-bound", "exhaustive", 0, 1, 1, 14)


def test_budget_skips_large_cases():
    cfg = SweepConfig(
        n_values=(3,),
        d_max=3,
        degree_vectors=((3, 3, 3),),
        nu_mode="all-in-range",
        s_mode="sample",
        s_limit=1,
        seed=1,
        jobs=1,
        max_rows=5,
    )
    report = run_sweep(cfg)
    assert all(c["skipped"] or c["rows"] <= 5 for c in report["cases"])
    assert report["aggregate"]["skipped_cases"] >= 1


def test_residual_command(capsys):
    code = main(
        ["residual", "--n", "2", "--degrees", "3,2", "--nu", "3", "--seed", "11",
         "--format", "structured"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["failures"] == []
    assert all(r["multidegrees"] == {"c1": 1, "c2": 2} for r in doc["results"])


def test_residual_invalid_nu(capsys):
    assert main(["residual", "--n", "2", "--degrees", "3,2", "--nu", "9"]) == 2
