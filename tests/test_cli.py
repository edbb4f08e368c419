import json
from pathlib import Path

import numpy as np
import pytest

from renyiacc import entropy as ent
from renyiacc.channel import (
    SamplingProtocol,
    TwoQubitStrategy,
    protocol_to_dict,
    strategy_to_dict,
)
from renyiacc.cli import _constraint_set, main
from renyiacc.qcore import (
    DensityOperator,
    density_to_dict,
    load_state,
    random_cq,
    random_density,
)
from qcore_reference import cq_to_dict


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCounterexampleCommand:
    def test_prints_golden_values_and_violated(self, capsys, tmp_path):
        out_json = tmp_path / "ce.json"
        code, out, _ = run(["counterexample", "--alpha", "1.5",
                            "--json", str(out_json)], capsys)
        assert code == 0
        for token in ("0.82057", "0.35295", "0.47118", "0.82413", "VIOLATED"):
            assert token in out
        doc = json.loads(out_json.read_text())
        assert doc["report"]["violated"] is True
        assert doc["schema"].startswith("renyiacc/")

    def test_grid_and_csv(self, capsys, tmp_path):
        out_csv = tmp_path / "ce.csv"
        code, out, _ = run(["counterexample", "--alpha", "1.5",
                            "--grid", "1.2:2.0:3", "--csv", str(out_csv)],
                           capsys)
        assert code == 0
        lines = out_csv.read_text().strip().splitlines()
        assert len(lines) == 5  # header + base + 3 grid rows

    def test_bad_alpha_exits_2(self, capsys):
        code, _, err = run(["counterexample", "--alpha", "0.7"], capsys)
        assert code == 2
        assert "error" in err


class TestEntropyCommand:
    def test_product_state_partial_is_up(self, capsys, tmp_path):
        st = random_cq((2, 3), (2,), 5, names=["A", "B"], qnames=["Q"])
        # quantum side information independent of everything: rho_AB x rho_Q
        rho_q = random_density((2,), 6).matrix
        for idx in np.ndindex(2, 3):
            st.conds[idx] = rho_q
        path = tmp_path / "state.json"
        path.write_text(json.dumps(cq_to_dict(st)))
        code, out, _ = run(["entropy", "--state", str(path), "--cond", "B,Q",
                            "--alpha", "2", "--kind", "partial"], capsys)
        assert code == 0
        val = float(out.strip())
        # product structure collapses the partial entropy to H_up(A|B)
        expect = ent.h_up(st.marginal(["A", "B"]), ["A"], 2.0)
        assert abs(val - expect) < 1e-9

    def test_down_on_dense_state(self, capsys, tmp_path):
        rho = random_density((2, 2), 7)
        rho = DensityOperator(rho.matrix, (2, 2), ("A", "B"))
        path = tmp_path / "dense.json"
        path.write_text(json.dumps(density_to_dict(rho)))
        code, out, _ = run(["entropy", "--state", str(path), "--cond", "B",
                            "--alpha", "2", "--kind", "down"], capsys)
        assert code == 0
        assert abs(float(out.strip()) - ent.h_down(rho, ["A"], 2.0)) < 1e-12

    @pytest.mark.parametrize("kind", ["vn", "renyi"])
    def test_vn_and_renyi_kinds(self, capsys, tmp_path, kind):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(cq_to_dict(
            random_cq((2, 3), (2,), 5, names=["A", "B"], qnames=["Q"]))))
        code, out, _ = run(["entropy", "--state", str(path), "--cond", "B,Q",
                            "--alpha", "2", "--kind", kind], capsys)
        st = load_state(str(path))
        expect = (ent.conditional_von_neumann(st, ["A"]) if kind == "vn"
                  else ent.renyi_entropy(st, 2.0))
        assert (code, out) == (0, f"{expect:.12f}\n")

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(["entropy", "--state", "/nonexistent.json"], capsys)
        assert code == 2

    @pytest.mark.parametrize("doc", [[1, 2], "x"], ids=["array", "string"])
    def test_state_file_that_is_not_an_object_exits_2(self, capsys, tmp_path,
                                                      doc):
        # AttributeError: 'list' object has no attribute 'get', exit 1
        path = tmp_path / "state.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(["entropy", "--state", str(path)], capsys)
        assert (code, out) == (2, "")
        assert f"document must be an object, got {doc!r}" in err

    def test_outcome_outside_the_alphabet_names_it(self, capsys, tmp_path):
        # was "tuple.index(x): x not in tuple"
        doc = cq_to_dict(random_cq((2, 3), (2,), 5, names=["A", "B"],
                                   qnames=["Q"]))
        doc["entries"][0]["outcome"][1] = "9"
        path = tmp_path / "state.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(["entropy", "--state", str(path), "--cond", "B"],
                             capsys)
        assert (code, out) == (2, "")
        assert "'9'" in err and "register 'B'" in err


class TestVerifyCommand:
    def test_small_suite_passes(self, capsys, tmp_path):
        out_json = tmp_path / "verify.json"
        code, out, _ = run(["verify", "--seed", "1", "--count", "3",
                            "--alpha", "1.5,2", "--json", str(out_json)],
                           capsys)
        assert code == 0
        assert "ordering" in out and "two_round" in out
        doc = json.loads(out_json.read_text())
        assert doc["report"]["all_passed"] is True
        assert doc["seed"] == 1

    def test_only_filter(self, capsys):
        code, out, _ = run(["verify", "--seed", "2", "--count", "3",
                            "--only", "ordering"], capsys)
        assert code == 0
        assert "ordering" in out and "two_round" not in out


def write_protocol(tmp_path, gamma=0.2, omega=None):
    outs = ("0", "1")
    setts = ("00", "01", "10", "11")
    score = {(a, b): a for a in outs for b in setts}
    proto = SamplingProtocol(gamma=gamma, outcomes=outs, settings=setts,
                             p_gen=[0.25] * 4, p_test=[0.25] * 4,
                             score=score, d=1)
    doc = protocol_to_dict(proto)
    if omega:
        doc["omega"] = omega
    path = tmp_path / "proto.json"
    path.write_text(json.dumps(doc))
    return path


class TestRateCommand:
    def test_rate_runs_and_reports(self, capsys, tmp_path):
        path = write_protocol(tmp_path, omega=[{"coeffs": {"1": 1.0},
                                                "min": 0.05}])
        out_json = tmp_path / "rate.json"
        code, out, _ = run(["rate", "--proto", str(path), "--alpha", "2",
                            "--n", "1000", "--pomega", "0.99",
                            "--restarts", "2", "--seed", "7",
                            "--json", str(out_json)], capsys)
        assert code == 0
        assert "upper bound" in out
        doc = json.loads(out_json.read_text())
        assert doc["report"]["kkt_residual"] < 1e-9
        assert doc["report"]["n"] == 1000


    def test_csv_without_grid_is_the_reported_row(self, capsys, tmp_path):
        # a second search with restarts // 4 wrote 0.028006 beside 0.000122
        proto = Path(__file__).resolve().parent.parent / "bench" / "protocol.json"
        out_json, out_csv = tmp_path / "rate.json", tmp_path / "rate.csv"
        code, _, _ = run(["rate", "--proto", str(proto), "--restarts", "8",
                          "--seed", "3", "--json", str(out_json),
                          "--csv", str(out_csv)], capsys)
        assert code == 0
        report = json.loads(out_json.read_text())["report"]
        header, row = out_csv.read_text().strip().splitlines()
        assert header == "alpha,h_alpha,total_bits"
        assert [float(x) for x in row.split(",")] == [
            2.0, report["h_alpha"], report["total_bits"]]


class TestBellEntry:
    def rate(self, capsys, tmp_path, bell):
        path = write_protocol(tmp_path)
        doc = json.loads(path.read_text())
        doc["bell"] = bell
        path.write_text(json.dumps(doc))
        return run(["rate", "--proto", str(path), "--alpha", "2",
                    "--restarts", "1", "--seed", "3"], capsys)

    @pytest.mark.parametrize("bell", [
        {"name": "chsh", "min": 2.2},
        {"correlators": [[1, 1], [1, -1]], "min": 2.1},
    ], ids=["name", "correlators"])
    def test_accepted_forms_run(self, capsys, tmp_path, bell):
        code, out, _ = self.rate(capsys, tmp_path, bell)
        assert code == 0 and "upper bound" in out

    @pytest.mark.parametrize("bell", [
        "chsh",                                          # was a TypeError
        [[1, 1], [1, -1]],                               # was a TypeError
        {"name": "chsh"},                                # ran unconstrained
        {"name": "chsh", "min": "2.2"},
        {"name": "chsh", "min": 2.2, "max": 3.0},
        {"name": "chsh", "correlators": [[1, 1], [1, -1]], "min": 2.2},
        {"correlators": [[{}]], "min": 2.2},
    ], ids=["name-only", "matrix-only", "no-min", "string-min", "extra-key",
            "both-forms", "bad-correlators"])
    def test_other_forms_exit_2(self, capsys, tmp_path, bell):
        code, out, err = self.rate(capsys, tmp_path, bell)
        assert (code, out) == (2, "")
        assert "bell" in err


class TestLoaders:
    def test_pgen_key_that_is_not_a_setting_exits_2(self, capsys, tmp_path):
        # {"00": 1.0, "0O": 0.7} read as p_gen = [1, 0, 0, 0]
        path = write_protocol(tmp_path)
        doc = json.loads(path.read_text())
        doc["pGen"] = {"00": 1.0, "0O": 0.7}
        path.write_text(json.dumps(doc))
        code, out, err = run(["rate", "--proto", str(path), "--restarts",
                              "1"], capsys)
        assert (code, out) == (2, "")
        assert "pGen keys ['0O'] are not settings" in err

    def test_score_key_outside_the_alphabets_exits_2(self, capsys, tmp_path):
        path = write_protocol(tmp_path)
        doc = json.loads(path.read_text())
        doc["score"]["2|00"] = "1"
        path.write_text(json.dumps(doc))
        code, out, err = run(["rate", "--proto", str(path), "--restarts",
                              "1"], capsys)
        assert (code, out) == (2, "")
        assert "'2|00'" in err

    def test_strategy_with_another_schema_exits_2(self, capsys, tmp_path):
        doc = strategy_to_dict(TwoQubitStrategy.chsh_tsirelson())
        doc["schema"] = "renyiacc/protocol/v1"
        path = tmp_path / "strategy.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(["compare", "--strategy", str(path)], capsys)
        assert (code, out) == (2, "")
        assert ("schema must be 'renyiacc/strategy/v1', got "
                "'renyiacc/protocol/v1'") in err

    @pytest.mark.parametrize("meas_a,message", [
        ([0.0, 1.0], "measA[0] must be an array, got 0.0"),
        ([[None, 1]], "measA[0][0] must be a number, got None"),
    ], ids=["meas_a0", "meas_a1"])
    def test_strategy_angles_that_are_not_pairs_exit_2(self, capsys,
                                                       tmp_path, meas_a,
                                                       message):
        # a flat list raised TypeError (cannot unpack a float), exit 1
        doc = strategy_to_dict(TwoQubitStrategy.chsh_tsirelson())
        doc["measA"] = meas_a
        path = tmp_path / "strategy.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(["compare", "--strategy", str(path)], capsys)
        assert (code, out) == (2, "")
        assert message in err

    @pytest.mark.parametrize("key", ["pGen", "pTest"])
    def test_nan_setting_law_exits_2(self, capsys, tmp_path, key):
        # exited 2 only later, with "state has no mass" or a p_C message
        law = {"00": 0.25, "01": float("nan"), "10": 0.25, "11": 0.25}
        name = {"pGen": "p_gen", "pTest": "p_test"}[key]
        for code, out, err in rate_and_simulate(capsys, tmp_path,
                                                **{key: law}):
            assert (code, out) == (2, "")
            assert f"{name} is not a distribution on B" in err


class TestWholeNumberFields:
    """Schema integers are not truncated: each ran as int(x) with exit 0."""

    def test_fractional_dims_exit_2(self, capsys, tmp_path):
        doc = density_to_dict(random_density((2, 2), 3))
        doc["dims"] = [2.5, 2]
        path = tmp_path / "state.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(["entropy", "--state", str(path), "--cond", "Q1"],
                             capsys)
        assert (code, out) == (2, "")
        assert "dims[0] must be a whole number >= 1, got 2.5" in err

    @pytest.mark.parametrize("d", [1.5, True])
    def test_protocol_d_must_be_whole_for_rate_and_simulate(self, capsys,
                                                            tmp_path, d):
        for code, out, err in rate_and_simulate(capsys, tmp_path, d=d):
            assert (code, out) == (2, "")
            assert f"d must be a whole number >= 1, got {d!r}" in err


class TestArrayFields:
    """A string or a number where a schema declares an array exits 2."""

    def write(self, tmp_path, doc):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_dims_that_is_a_number_exits_2(self, capsys, tmp_path):
        # TypeError: 'int' object is not iterable, exit 1
        doc = density_to_dict(random_density((2, 2), 3))
        doc["dims"] = 4
        code, out, err = run(["entropy", "--state", self.write(tmp_path, doc),
                              "--cond", "Q1"], capsys)
        assert (code, out) == (2, "")
        assert "dims must be an array, got 4" in err

    def test_labels_that_are_a_string_exit_2(self, capsys, tmp_path):
        # read as ("A", "B"): --cond B printed a number with exit 0
        doc = density_to_dict(random_density((2, 2), 3))
        doc["labels"] = "AB"
        code, out, err = run(["entropy", "--state", self.write(tmp_path, doc),
                              "--cond", "B"], capsys)
        assert (code, out) == (2, "")
        assert "labels must be an array, got 'AB'" in err

    def test_cq_alphabet_that_is_a_string_exits_2(self, capsys, tmp_path):
        # read as the alphabet ("0", "1")
        doc = cq_to_dict(random_cq((2,), (2,), 5, names=["B"],
                                   qnames=["E"]))
        doc["registers"][0]["alphabet"] = "01"
        code, out, err = run(["entropy", "--state", self.write(tmp_path, doc),
                              "--cond", "B"], capsys)
        assert (code, out) == (2, "")
        assert "alphabet must be an array, got '01'" in err

    def test_protocol_outcomes_that_are_a_string_exit_2(self, capsys,
                                                        tmp_path):
        # read as ("0", "1"): rate and simulate ran with exit 0
        for code, out, err in rate_and_simulate(capsys, tmp_path,
                                                outcomes="01"):
            assert (code, out) == (2, "")
            assert "outcomes must be an array, got '01'" in err

    def test_protocol_settings_that_are_a_string_exit_2(self, capsys,
                                                        tmp_path):
        # read as ("0",): rate ran with exit 0
        proto = SamplingProtocol(0.2, ("0", "1"), ("0",), [1.0], [1.0],
                                 {("0", "0"): "0", ("1", "0"): "1"})
        doc = protocol_to_dict(proto)
        doc["settings"] = "0"
        code, out, err = run(["rate", "--proto", self.write(tmp_path, doc),
                              "--restarts", "1"], capsys)
        assert (code, out) == (2, "")
        assert "settings must be an array, got '0'" in err


class TestNumberAndObjectFields:
    """A string where a schema declares a number, or a string where it
    declares an object, exits 2."""

    def test_string_gamma_exits_2(self, capsys, tmp_path):
        # read with float(): simulate printed an entropy with exit 0
        for code, out, err in rate_and_simulate(capsys, tmp_path,
                                                gamma="0.4"):
            assert (code, out) == (2, "")
            assert "gamma must be a number in [0, 1], got '0.4'" in err

    def test_string_setting_law_exits_2(self, capsys, tmp_path):
        law = {b: "0.25" for b in ("00", "01", "10", "11")}
        for code, out, err in rate_and_simulate(capsys, tmp_path, pGen=law):
            assert (code, out) == (2, "")
            assert "pGen.00 must be a number, got '0.25'" in err

    def test_register_that_is_a_string_exits_2(self, capsys, tmp_path):
        # TypeError: string indices must be integers, exit 1
        doc = cq_to_dict(random_cq((2,), (2,), 5, names=["B"],
                                   qnames=["E"]))
        doc["registers"][0] = "B"
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(["entropy", "--state", str(path), "--cond", "B"],
                             capsys)
        assert (code, out) == (2, "")
        assert "registers[0] must be an object, got 'B'" in err


def test_rate_rejects_wrong_protocol_schema(capsys, tmp_path):
    path = write_protocol(tmp_path)
    doc = json.loads(path.read_text())
    doc["schema"] = "renyiacc/protocol/v0"
    path.write_text(json.dumps(doc))
    code, out, err = run(["rate", "--proto", str(path), "--restarts", "1"],
                         capsys)
    assert code == 2
    assert ("schema must be 'renyiacc/protocol/v1', got "
            "'renyiacc/protocol/v0'") in err
    assert "upper bound" not in out


class TestCompareCommand:
    def test_compare_table(self, capsys, tmp_path):
        s = TwoQubitStrategy.chsh_tsirelson()
        path = tmp_path / "strategy.json"
        path.write_text(json.dumps(strategy_to_dict(s)))
        code, out, _ = run(["compare", "--strategy", str(path),
                            "--alpha", "1.5,2"], capsys)
        assert code == 0
        assert "h_down" in out

    def test_compare_rejects_a_state_that_is_not_a_state(self, capsys,
                                                         tmp_path):
        doc = strategy_to_dict(TwoQubitStrategy.chsh_tsirelson())
        path = tmp_path / "strategy.json"
        # not Hermitian; trace 2, where h_down read -1.000000 with exit 0
        for bad in (np.eye(4) / 4 + 0.1j * np.diag([1, 1, -1, -1]),
                    np.eye(4) / 2):
            doc["state"] = density_to_dict(DensityOperator(bad, (2, 2)))
            path.write_text(json.dumps(doc))
            code, out, _ = run(["compare", "--strategy", str(path)], capsys)
            assert (code, out) == (2, "")


def attack_doc(n_b=4, n_a=2, r_dim=2):
    k = np.zeros((r_dim, n_b, n_a, r_dim))
    rng = np.random.default_rng(3)
    for r in range(r_dim):
        for b in range(n_b):
            x = rng.exponential(size=n_a * r_dim)
            k[r, b] = (x / x.sum()).reshape(n_a, r_dim)
    return {"schema": "renyiacc/attack/v1",
            "initial": (np.ones((r_dim, 1)) / r_dim).tolist(),
            "kernels": [k.tolist(), k.tolist()]}


def rate_and_simulate(capsys, tmp_path, **edits):
    """``rate`` and ``simulate`` on ``write_protocol``'s protocol with the
    top-level keys ``edits`` replaced; one (code, out, err) each."""
    path = tmp_path / "proto.json"
    doc = json.loads(write_protocol(tmp_path).read_text())
    doc.update(edits)
    path.write_text(json.dumps(doc))
    attack = tmp_path / "attack.json"
    attack.write_text(json.dumps(attack_doc()))
    return [run(["rate", "--proto", str(path), "--restarts", "1"], capsys),
            run(["simulate", "--proto", str(path), "--attack", str(attack)],
                capsys)]


class TestSimulateCommand:
    def simulate(self, capsys, tmp_path, attack):
        proto_path = write_protocol(tmp_path, gamma=0.4)
        attack_path = tmp_path / "attack.json"
        attack_path.write_text(json.dumps(attack))
        return run(["simulate", "--proto", str(proto_path),
                    "--attack", str(attack_path), "--alpha", "2"], capsys)

    def test_simulate_passes(self, capsys, tmp_path):
        code, out, _ = self.simulate(capsys, tmp_path, attack_doc())
        assert code == 0
        assert "slack" in out

    def test_kernels_summing_to_2_8_exit_2(self, capsys, tmp_path):
        attack = attack_doc()
        attack["kernels"] = [(2.8 * np.asarray(k)).tolist()
                             for k in attack["kernels"]]
        code, out, err = self.simulate(capsys, tmp_path, attack)
        assert code == 2
        assert "error" in err and "2.8" in err
        assert "slack" not in out

    def test_initial_summing_to_1_1_exit_2(self, capsys, tmp_path):
        attack = attack_doc()
        attack["initial"] = [[0.55], [0.55]]
        code, out, err = self.simulate(capsys, tmp_path, attack)
        assert code == 2
        assert "initial sums to 1.1" in err
        assert "slack" not in out

    def test_wrong_schema_tag_exit_2(self, capsys, tmp_path):
        attack = attack_doc()
        attack["schema"] = "renyiacc/protocol/v1"
        code, out, err = self.simulate(capsys, tmp_path, attack)
        assert code == 2
        assert "schema" in err
        assert "slack" not in out

    def test_shape_mismatch_exit_2(self, capsys, tmp_path):
        # three settings against a four-setting protocol
        code, out, err = self.simulate(capsys, tmp_path, attack_doc(n_b=3))
        assert code == 2
        assert "kernel 0 has shape (2, 3, 2, 2), want (2, 4, 2, 2)" in err
        assert "slack" not in out

    def test_negative_kernel_entry_exit_2(self, capsys, tmp_path):
        attack = attack_doc()
        k = np.asarray(attack["kernels"][1])
        k[0, 0, 0, 1] += k[0, 0, 0, 0] + 0.2  # the slice still sums to 1
        k[0, 0, 0, 0] = -0.2
        attack["kernels"][1] = k.tolist()
        code, _, err = self.simulate(capsys, tmp_path, attack)
        assert code == 2
        assert "kernel 1 has a negative" in err


class TestSeedVariable:
    """RENYI_SEED is the default of --seed, read only where --seed is."""

    def test_malformed_value_leaves_counterexample_alone(self, capsys,
                                                         monkeypatch):
        monkeypatch.setenv("RENYI_SEED", "abc")
        code, out, _ = run(["counterexample", "--alpha", "1.5"], capsys)
        assert code == 0 and "VIOLATED" in out

    def test_malformed_value_is_not_read_past_an_explicit_seed(
            self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("RENYI_SEED", "abc")
        out_json = tmp_path / "verify.json"
        code, _, _ = run(["verify", "--seed", "3", "--count", "1", "--only",
                          "ordering", "--json", str(out_json)], capsys)
        assert code == 0
        assert json.loads(out_json.read_text())["seed"] == 3

    def test_malformed_value_exits_2_where_it_is_the_seed(self, capsys,
                                                          monkeypatch):
        monkeypatch.setenv("RENYI_SEED", "abc")
        code, out, err = run(["verify", "--count", "1", "--only",
                              "ordering"], capsys)
        assert (code, out) == (2, "")
        assert "--seed" in err and "'abc'" in err

    def test_value_is_the_default_seed(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("RENYI_SEED", "4")
        out_json = tmp_path / "verify.json"
        code, _, _ = run(["verify", "--count", "1", "--only", "ordering",
                          "--json", str(out_json)], capsys)
        assert code == 0
        assert json.loads(out_json.read_text())["seed"] == 4


def test_unknown_flag_exits_2(capsys):
    assert main(["counterexample", "--bogus"]) == 2


def test_verify_failure_exits_1(capsys, monkeypatch):
    import renyiacc.cli as cli_mod
    import renyiacc.verify as verify_mod
    from renyiacc.verify import PropertyReport

    def failing_check(cfg):
        return PropertyReport(name="ordering", passed=False, instances=1,
                              worst_slack=-1.0, tolerance=1e-9,
                              failures=[{"seed": (0,), "alpha": 2.0}],
                              elapsed=0.0)

    fake = {"ordering": failing_check}
    monkeypatch.setattr(verify_mod, "ALL_CHECKS", fake)
    monkeypatch.setattr(cli_mod, "ALL_CHECKS", fake)
    code = main(["verify", "--seed", "0", "--count", "1"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out and "reproduce" in out


def test_roundtrip_precision(tmp_path):
    # serialized then parsed states compare to 1e-12
    st = random_cq((2, 2), (3,), 11, names=["B", "C"], qnames=["E"])
    path = tmp_path / "state.json"
    path.write_text(json.dumps(cq_to_dict(st)))
    back = load_state(str(path))
    assert np.abs(back.to_density().matrix
                  - st.to_density().matrix).max() < 1e-12


def _invalid_cq_doc():
    # weights sum to 1.6 and block 0 has the eigenvalue -0.5
    pair = lambda m: [[float(x), 0.0] for x in np.asarray(m).reshape(-1)]
    return {"schema": "renyiacc/cqstate/v1",
            "registers": [{"kind": "classical", "name": "B",
                           "alphabet": ["0", "1"]},
                          {"kind": "quantum", "name": "A", "dim": 2}],
            "entries": [{"outcome": ["0"], "weight": 0.8,
                         "matrix": pair(np.diag([1.5, -0.5]))},
                        {"outcome": ["1"], "weight": 0.8,
                         "matrix": pair(np.eye(2) / 2)}]}


class TestValidationAtLoad:
    def _run_on(self, doc, kind, capsys, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(doc))
        return run(["entropy", "--state", str(path), "--cond", "B",
                    "--alpha", "2", "--kind", kind], capsys)

    def test_invalid_cq_file_exits_2(self, capsys, tmp_path):
        for kind in ("up", "partial", "down"):
            code, out, err = self._run_on(_invalid_cq_doc(), kind, capsys,
                                          tmp_path)
            assert code == 2
            assert out == ""
            assert err.startswith("error:")

    def test_negative_block_alone_exits_2(self, capsys, tmp_path):
        doc = _invalid_cq_doc()
        for e in doc["entries"]:
            e["weight"] = 0.5
        code, out, err = self._run_on(doc, "up", capsys, tmp_path)
        assert (code, out) == (2, "")
        assert "negative eigenvalue" in err

    def test_nan_weight_exits_2(self, capsys, tmp_path):
        doc = _invalid_cq_doc()
        doc["entries"][0]["weight"] = float("nan")
        doc["entries"][1]["weight"] = 1.0
        code, out, err = self._run_on(doc, "down", capsys, tmp_path)
        assert (code, out) == (2, "")
        assert "not finite" in err

    def test_unnormalized_dense_file_exits_2(self, capsys, tmp_path):
        rho = DensityOperator(2.0 * random_density((2, 2), 7).matrix, (2, 2),
                              ("A", "B"))
        path = tmp_path / "dense.json"
        path.write_text(json.dumps(density_to_dict(rho)))
        code, out, err = run(["entropy", "--state", str(path), "--cond", "B",
                              "--kind", "down"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error:")

    @staticmethod
    def _classical_doc(entries):
        """Classical registers B and C, one (outcome, weight) per entry."""
        regs = [{"kind": "classical", "name": n, "alphabet": ["0", "1"]}
                for n in ("B", "C")]
        return {"schema": "renyiacc/cqstate/v1", "registers": regs,
                "entries": [{"outcome": o, "weight": w,
                             "matrix": [[1.0, 0.0]]} for o, w in entries]}

    def test_short_outcome_exits_2(self, capsys, tmp_path):
        # was broadcast over C: read 2.000000000000 with exit 0
        doc = self._classical_doc([(["0"], 0.25), (["1"], 0.25)])
        code, out, err = self._run_on(doc, "down", capsys, tmp_path)
        assert (code, out) == (2, "")
        assert "one symbol per classical register" in err

    def test_repeated_outcome_exits_2(self, capsys, tmp_path):
        # the later entry overwrote the earlier one: read 1.000000000000
        doc = self._classical_doc([(["0", "0"], 0.5), (["0", "0"], 0.5),
                                   (["1", "1"], 0.5)])
        code, out, err = self._run_on(doc, "down", capsys, tmp_path)
        assert (code, out) == (2, "")
        assert "appears twice" in err

    def test_long_outcome_exits_2(self, capsys, tmp_path):
        # raised IndexError with a traceback
        doc = self._classical_doc([(["0", "0", "0"], 0.5),
                                   (["1", "1"], 0.5)])
        code, out, err = self._run_on(doc, "down", capsys, tmp_path)
        assert (code, out) == (2, "")
        assert "one symbol per classical register" in err


def test_verify_rejects_count_below_one(capsys):
    for count in ("-1", "0"):
        code, out, err = run(["verify", "--count", count], capsys)
        assert code == 2
        assert "pass" not in out
        assert "--count" in err


def test_entropy_rejects_unknown_cond_register(capsys, tmp_path):
    st = random_cq((2,), (2, 2), 3, names=["B"], qnames=["A", "E"])
    path = tmp_path / "state.json"
    path.write_text(json.dumps(cq_to_dict(st)))
    code, out, err = run(["entropy", "--state", str(path), "--cond", "B,X",
                          "--kind", "down"], capsys)
    assert (code, out) == (2, "")
    assert "'X'" in err


def test_entropy_rejects_empty_a_on_dense_state(capsys, tmp_path):
    rho = DensityOperator(random_density((2, 2), 7).matrix, (2, 2), ("A", "B"))
    path = tmp_path / "dense.json"
    path.write_text(json.dumps(density_to_dict(rho)))
    for kind in ("down", "up"):
        code, out, err = run(["entropy", "--state", str(path), "--cond", "A,B",
                              "--kind", kind], capsys)
        assert (code, out) == (2, "")
        assert "empty" in err


class TestRateRoundCount:
    def test_rejects_non_integral_counts(self, capsys, tmp_path):
        path = write_protocol(tmp_path)
        for n in ("inf", "1e400", "1.5", "nan", "0"):
            code, out, err = run(["rate", "--proto", str(path), "--n", n,
                                  "--restarts", "1"], capsys)
            assert (code, out) == (2, "")
            assert "--n" in err

    def test_accepts_float_spelling(self, capsys, tmp_path):
        path = write_protocol(tmp_path)
        out_json = tmp_path / "rate.json"
        code, _, _ = run(["rate", "--proto", str(path), "--n", "1e6",
                          "--restarts", "1", "--json", str(out_json)], capsys)
        assert code == 0
        assert json.loads(out_json.read_text())["report"]["n"] == 10 ** 6


BAD_GRIDS = ("1.5:2", "1.5:2:0", "1.5:2:x", "1.5:2:-1", "0.5:2:3",
             "1.5:inf:2", "1.5:2:3:4")


class TestAlphaGridSpec:
    def test_counterexample_rejects_bad_grid(self, capsys, tmp_path):
        out_csv, out_json = tmp_path / "ce.csv", tmp_path / "ce.json"
        for spec in BAD_GRIDS:
            code, out, err = run(["counterexample", "--grid", spec,
                                  "--csv", str(out_csv),
                                  "--json", str(out_json)], capsys)
            assert (code, out) == (2, ""), spec
            assert "--grid" in err
            assert not out_csv.exists() and not out_json.exists()

    def test_rate_rejects_bad_alpha_grid(self, capsys, tmp_path):
        path = write_protocol(tmp_path)
        out_csv = tmp_path / "rate.csv"
        for spec in BAD_GRIDS:
            code, out, err = run(["rate", "--proto", str(path),
                                  "--restarts", "1", "--alpha-grid", spec,
                                  "--csv", str(out_csv)], capsys)
            assert (code, out) == (2, ""), spec
            assert "--alpha-grid" in err
            assert not out_csv.exists()

    def test_descending_grid_still_works(self, capsys, tmp_path):
        out_csv = tmp_path / "ce.csv"
        code, _, _ = run(["counterexample", "--grid", "2:1.1:3",
                          "--csv", str(out_csv)], capsys)
        assert code == 0
        rows = out_csv.read_text().strip().splitlines()[2:]
        assert [float(r.split(",")[0]) for r in rows] == [2.0, 1.55, 1.1]
        path = write_protocol(tmp_path)
        rate_csv = tmp_path / "rate.csv"
        code, _, _ = run(["rate", "--proto", str(path), "--restarts", "1",
                          "--n", "1000", "--alpha-grid", "2:1.1:3",
                          "--csv", str(rate_csv)], capsys)
        assert code == 0
        rows = rate_csv.read_text().strip().splitlines()[1:]
        assert [float(r.split(",")[0]) for r in rows] == [2.0, 1.55, 1.1]


class TestOmegaEntries:
    def test_entry_with_both_bounds_gives_two_rows(self):
        cset = _constraint_set(
            [{"coeffs": {"1": 1.0}, "min": 0.04, "max": 0.3}], ("0", "1"))
        assert np.array_equal(cset.mat, [[0.0, 1.0], [-0.0, -1.0]])
        assert np.array_equal(cset.rhs, [0.04, -0.3])

    def test_single_bounds_are_one_row_each(self):
        cset = _constraint_set([{"coeffs": {"1": 1.0}, "min": 0.04},
                                {"coeffs": {"0": 2.0}, "max": 0.5}],
                               ("0", "1"))
        assert np.array_equal(cset.mat, [[0.0, 1.0], [-2.0, -0.0]])
        assert np.array_equal(cset.rhs, [0.04, -0.5])

    def test_empty_set_exits_2(self, capsys, tmp_path):
        path = write_protocol(tmp_path, omega=[{"coeffs": {"1": 1.0},
                                                "min": 0.04, "max": 0.01}])
        code, out, err = run(["rate", "--proto", str(path), "--n", "1000",
                              "--restarts", "1"], capsys)
        assert (code, out) == (2, "")
        assert "feasible" in err

    def test_pinned_entries_met_between_grid_points_run(self, capsys,
                                                        tmp_path):
        # the two entries meet only at v = (0.802, 0.193, 0.005), within 1e-9
        # of no point of a 40-grid: a grid probe exited 2 on "no feasible
        # distribution"
        omega = [{"coeffs": {"0": -0.2, "1": 0.8, "⊥": 0.9},
                  "min": -0.0015, "max": -0.0015},
                 {"coeffs": {"0": 2.0, "1": 1.1, "⊥": -1.7},
                  "min": 1.8078, "max": 1.8078}]
        code, out, err = TestSettingCounts._rate(capsys, tmp_path,
                                                 omega=omega)
        assert (code, err) == (0, "")
        kkt = out.split("KKT residual of the certified inner solution:")[1]
        assert float(kkt.split()[0]) <= 1e-9

    def test_unknown_symbol_exits_2(self, capsys, tmp_path):
        path = write_protocol(tmp_path, omega=[{"coeffs": {"1": 1, "x": 5},
                                                "min": 0.04}])
        code, out, err = run(["rate", "--proto", str(path), "--restarts", "1"],
                             capsys)
        assert (code, out) == (2, "")
        assert "'x'" in err


    @pytest.mark.parametrize("omega", [
        {"coeffs": {"1": 1.0}, "min": 0.04}, ["x"], [["1", 0.04]],
        [{"coeffs": ["1"], "min": 0.04}], [{"min": 0.04}], "omega",
    ], ids=["dict", "string-entry", "list-entry", "list-coeffs",
            "no-coeffs", "string"])
    def test_malformed_omega_exits_2(self, capsys, tmp_path, omega):
        # a dict or a non-object entry raised TypeError, exit 1
        for code, out, err in rate_and_simulate(capsys, tmp_path, omega=omega):
            assert (code, out) == (2, "")
            assert "omega" in err

    @pytest.mark.parametrize("entry,message", [
        ({"coeffs": {"1": float("nan")}, "min": 0.04}, "finite numbers"),
        ({"coeffs": {"1": 1.0}, "min": float("nan")}, "finite numbers"),
        ({"coeffs": {"1": 1.0}, "max": float("inf")}, "finite numbers"),
        ({"coeffs": {"1": 1.0}, "min": "0.04"},
         "omega[0].min must be a number, got '0.04'"),
        ({"coeffs": {"1": True}, "min": 0.04},
         "omega[0].coeffs.1 must be a number, got True"),
    ], ids=["nan-coeff", "nan-min", "inf-max", "string-min", "bool-coeff"])
    def test_non_finite_bound_exits_2(self, capsys, tmp_path, entry, message):
        # a NaN bound was reported as an empty constraint set
        for code, out, err in rate_and_simulate(capsys, tmp_path,
                                                omega=[entry]):
            assert (code, out) == (2, "")
            assert message in err and "feasible" not in err


class TestSettingCounts:
    """``nA`` / ``nB`` of the README protocol, whose settings are 00-11."""

    @staticmethod
    def _rate(capsys, tmp_path, **extra):
        doc = json.loads((Path(__file__).resolve().parent.parent / "bench"
                          / "protocol.json").read_text())
        doc.update(extra)
        path = tmp_path / "proto.json"
        path.write_text(json.dumps(doc))
        return run(["rate", "--proto", str(path), "--restarts", "1",
                    "--n", "1000"], capsys)

    @pytest.mark.parametrize("key,value", [
        ("nA", 1), ("nA", 0), ("nA", 2.5), ("nA", -1), ("nA", "2"),
        ("nA", True), ("nB", 0), ("nB", 1.5), ("nB", float("inf")),
    ])
    def test_bad_count_exits_2(self, capsys, tmp_path, key, value):
        # nA 1 or 0 raised IndexError (exit 1); nA 2.5 ran as 2 (exit 0)
        code, out, err = self._rate(capsys, tmp_path, **{key: value})
        assert (code, out) == (2, "")
        assert key in err

    def test_bob_digit_is_needed_for_pair_outputs_and_bell(self, capsys,
                                                           tmp_path):
        for extra in ({"outputs": "pair"}, {"bell": {"name": "chsh",
                                                     "min": 2.0}}):
            code, out, err = self._rate(capsys, tmp_path, nB=1, **extra)
            assert (code, out) == (2, ""), extra
            assert "nB" in err and ">= 2" in err

    def test_counts_that_cover_the_labels_run(self, capsys, tmp_path):
        # Alice's outputs alone read no Bob digit, so one Bob setting will do
        code, out, _ = self._rate(capsys, tmp_path, nA=3, nB=1)
        assert code == 0
        assert "upper bound" in out


class TestParseTimeChecks:
    def test_rate_rejects_bad_pomega(self, capsys, tmp_path):
        path = write_protocol(tmp_path)
        for spec in ("1.5", "0", "-0.2", "nan", "x"):
            code, out, err = run(["rate", "--proto", str(path),
                                  "--pomega", spec], capsys)
            assert (code, out) == (2, ""), spec
            assert "--pomega" in err

    def test_rate_rejects_bad_restarts(self, capsys, tmp_path):
        path = write_protocol(tmp_path)
        for spec in ("0", "-3", "1.5"):
            code, out, err = run(["rate", "--proto", str(path),
                                  "--restarts", spec], capsys)
            assert (code, out) == (2, ""), spec
            assert "--restarts" in err

    def test_order_lists_use_the_order_check(self, capsys, tmp_path):
        strategy = tmp_path / "s.json"
        strategy.write_text(json.dumps(strategy_to_dict(
            TwoQubitStrategy.chsh_tsirelson())))
        for spec in ("1.5,inf", "1,2", "nan", "2,x"):
            for args in (["verify", "--alpha", spec],
                         ["compare", "--strategy", str(strategy),
                          "--alpha", spec]):
                code, out, err = run(args, capsys)
                assert (code, out) == (2, ""), (args, spec)
                assert "--alpha" in err
