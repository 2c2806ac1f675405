"""Harness and CLI: end-to-end runs, sweeps, the independent verifier,
serialization formats, and exit codes."""
import csv
import hashlib
import itertools
import json
import re
from types import SimpleNamespace

import pytest

from hamdecomp import cli, harness
from hamdecomp.cli import EXIT_VERIFY_FAIL, main
from hamdecomp.graph import Graph, cycle_cover_edges
from hamdecomp.harness import CSV_HEADER, _reverify, run, sweep, verify_result
from hamdecomp.rotation import GammaView
from hamdecomp.sampler import Params, sample_gnp
from hamdecomp.twofactor import TwoFactorSet


class TestRun:
    def test_dense_small_sanity(self, tmp_path):
        out = tmp_path / "r.json"
        graph_out = tmp_path / "g.txt"
        result = run(Params(n=50, p0=0.9, eta=0.3, seed=1),
                     out_path=str(out), graph_out=str(graph_out))
        assert result.achieved_cycles >= 1
        assert result.phase_failed is None
        doc = json.loads(out.read_text())
        assert doc["schema"] == 1
        assert doc["achieved_cycles"] == result.achieved_cycles
        g0 = Graph.from_text(graph_out.read_text())
        for cyc in result.hamilton_cycles:
            assert g0.verify_hamilton_cycle(cyc)

    def test_reproducible(self):
        p = Params(n=60, p0=0.5, eta=0.3, seed=7)
        a = run(p)
        b = run(p)
        assert a.hamilton_cycles == b.hamilton_cycles
        assert a.csv_row()[:-1] == b.csv_row()[:-1]  # all but wall_ms

    # SHA-256 of the result file of an audited run at n=60, p0=0.6, eta=0.3,
    # seed 0 whose phase clock ticks by 0.25 s per read, recorded while the
    # file was written by json.dump
    RESULT_FILE_SHA256 = "c5d951a8ca2c023dcfd236812694ec4f54cf5e18678ae5340776eaddd211a768"

    def test_result_file_bytes_pinned(self, tmp_path, monkeypatch):
        ticks = itertools.count()
        monkeypatch.setattr(harness, "time", SimpleNamespace(perf_counter=lambda: next(ticks) / 4))
        out = tmp_path / "r.json"
        run(Params(n=60, p0=0.6, eta=0.3, seed=0), out_path=str(out), audit=True)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.RESULT_FILE_SHA256

    def test_phase_failure_records_partial_result(self, tmp_path):
        out = tmp_path / "fail.json"
        # p0=0 gives an empty graph: extraction must fail but a result is
        # still written
        result = run(Params(n=20, p0=0.0, eta=0.3, seed=0), out_path=str(out))
        assert result.phase_failed == "extract"
        doc = json.loads(out.read_text())
        assert doc["phase_failed"] == "extract"
        assert doc["achieved_cycles"] == 0


def _convert_with_bad_cycles(monkeypatch):
    """Make conversion hand back one corrupted and one duplicated cycle
    after the real ones."""
    real = harness.convert_all

    def convert(*args, **kwargs):
        conv = real(*args, **kwargs)
        good = conv.hamilton_cycles[0]
        conv.hamilton_cycles += [good[:-1] + [good[0]], list(good)]
        return conv

    monkeypatch.setattr(harness, "convert_all", convert)


def _peel_to_a_non_edge(monkeypatch, params):
    """Make peeling hand conversion one factor: a spanning cycle of G0's
    vertices with one non-edge of G0.  Breaking it removes its smallest
    edge, from 0 to a neighbour u, and conversion closes it again at once,
    so the non-edge stays in the converted cycle."""
    g0 = sample_gnp(params.n, params.p0, params.seed)
    u, v = next((u, v) for u in g0.adj(0) for v in range(1, g0.n)
                if v != u and not g0.has_edge(u, v))
    cycle = [0, u, v] + [w for w in range(1, g0.n) if w not in (u, v)]
    monkeypatch.setattr(harness, "peel_all",
                        lambda h, r: TwoFactorSet(host=h, factors=[[cycle]]))
    return cycle


class TestDroppedCycles:
    def test_reverify_drops_corrupted_and_duplicated_cycles(self):
        g0 = Graph.complete(5)
        first, second = [0, 1, 2, 3, 4], [0, 2, 4, 1, 3]
        corrupted = [0, 1, 2, 3, 0]
        kept = _reverify(g0, [first, corrupted, list(first), second])
        assert kept == [first, second]

    def test_reverify_drops_a_cycle_reusing_an_edge_reversed(self):
        # the second cycle walks first's edge 0 -> 1 as 1 -> 0 and shares no
        # other edge with it; the third shares nothing with first
        g0 = Graph.complete(7)
        first, reuses, third = [0, 1, 2, 3, 4, 5, 6], [1, 0, 3, 5, 2, 6, 4], [0, 2, 4, 6, 1, 3, 5]
        assert cycle_cover_edges([first]) & cycle_cover_edges([reuses]) == {(0, 1)}
        assert _reverify(g0, [first, reuses, third]) == [first, third]

    def test_run_counts_dropped_cycles(self, monkeypatch):
        _convert_with_bad_cycles(monkeypatch)
        result = run(Params(n=40, p0=0.9, eta=0.3, seed=1))
        assert result.rotation_stats["dropped"] == 2
        assert result.achieved_cycles == len(result.conversion.hamilton_cycles) - 2

    def test_a_converted_non_cycle_is_dropped_not_raised(self, monkeypatch):
        params = Params(n=40, p0=0.9, eta=0.3, seed=1)
        cycle = _peel_to_a_non_edge(monkeypatch, params)
        result = run(params)
        (converted,) = result.conversion.hamilton_cycles
        assert cycle_cover_edges([converted]) == cycle_cover_edges([cycle])
        assert result.rotation_stats["dropped"] == 1
        assert result.hamilton_cycles == [] and result.achieved_cycles == 0

    def test_cli_run_fails_verification_on_a_converted_non_cycle(self, monkeypatch, capsys):
        _peel_to_a_non_edge(monkeypatch, Params(n=40, p0=0.9, eta=0.3, seed=1))
        code = main(["run", "--n", "40", "--p0", "0.9", "--eta", "0.3", "--seed", "1"])
        assert code == EXIT_VERIFY_FAIL
        assert "1 converted cycles" in capsys.readouterr().err

    def test_clean_run_drops_nothing(self):
        assert run(Params(n=40, p0=0.9, eta=0.3, seed=1)).rotation_stats["dropped"] == 0

    def test_cli_run_fails_verification_on_a_drop(self, monkeypatch, tmp_path, capsys):
        _convert_with_bad_cycles(monkeypatch)
        code = main(["run", "--n", "40", "--p0", "0.9", "--eta", "0.3",
                     "--seed", "1", "--out", str(tmp_path / "r.json")])
        assert code == EXIT_VERIFY_FAIL
        assert "2 converted cycles" in capsys.readouterr().err


class TestAuditExit:
    ARGS = ["run", "--n", "40", "--p0", "0.9", "--eta", "0.3", "--seed", "1", "--audit"]

    def test_clean_audited_run_passes(self, capsys):
        assert main(self.ARGS) == 0
        assert capsys.readouterr().err == ""

    def test_cli_run_fails_when_the_audit_fails(self, monkeypatch, capsys):
        # a reservoir that never gets edges back drifts from the audit's
        # recomputation
        monkeypatch.setattr(GammaView, "give", lambda self, edges: None)
        assert main(self.ARGS) == EXIT_VERIFY_FAIL
        err = capsys.readouterr().err
        assert "audit failure" in err and "persistent reservoir differs" in err


class TestSweep:
    def test_csv_shape(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rows = sweep([Params(n=40, p0=0.8, eta=0.3, seed=0)], 2, str(out))
        assert len(rows) == 2
        with open(out) as fh:
            reader = csv.reader(fh)
            header = next(reader)
            body = list(reader)
        assert header == CSV_HEADER
        assert len(body) == 2
        assert body[0][0] == "40"

    def test_failed_cell_keeps_its_traceback(self, monkeypatch, tmp_path):
        real = harness.run

        def run_or_raise(params):
            if params.seed == 1:
                raise RuntimeError("cell exploded")
            return real(params)

        monkeypatch.setattr(harness, "run", run_or_raise)
        out = tmp_path / "sweep.csv"
        rows = sweep([Params(n=40, p0=0.8, eta=0.3, seed=0)], 2, str(out))
        assert rows[1][4:6] == ["error", "cell exploded"]
        assert len(rows[1]) == len(CSV_HEADER)
        with open(out) as fh:
            assert next(csv.reader(fh)) == CSV_HEADER
        errors = (tmp_path / "sweep.csv.errors.txt").read_text()
        assert errors.startswith("# n=40 p0=0.8 eta=0.3 seed=1\nTraceback")
        assert "in run_or_raise" in errors and "RuntimeError: cell exploded" in errors

    @pytest.mark.parametrize("stale", [False, True], ids=["fresh", "stale"])
    def test_clean_sweep_writes_no_error_file(self, tmp_path, stale):
        # a clean sweep also removes the causes an earlier sweep left there
        if stale:
            (tmp_path / "s.csv.errors.txt").write_text("# n=40 seed=0\nTraceback\n")
        sweep([Params(n=40, p0=0.8, eta=0.3, seed=0)], 1, str(tmp_path / "s.csv"))
        assert not (tmp_path / "s.csv.errors.txt").exists()

    def test_empty_grid_rejected(self, tmp_path):
        import pytest

        with pytest.raises(ValueError):
            sweep([], 1, str(tmp_path / "x.csv"))

    def test_parallel_sweep_writes_the_serial_rows(self, tmp_path):
        # the worker pool gives the header and rows of the serial loop; only
        # the wall time may differ
        grid = [Params(n=40, p0=0.9, eta=0.3, seed=0)]
        wall = CSV_HEADER.index("wall_ms")
        tables = []
        for jobs in (1, 2):
            out = tmp_path / f"sweep{jobs}.csv"
            sweep(grid, 2, str(out), jobs=jobs)
            with open(out) as fh:
                header, *body = list(csv.reader(fh))
            assert header == CSV_HEADER and len(body) == 2
            tables.append([row[:wall] + row[wall + 1:] for row in body])
        assert tables[0] == tables[1]

    def test_pool_has_no_more_workers_than_cells(self, tmp_path, monkeypatch):
        sizes = []

        class FakePool:
            """Runs the cells in this process and records its size."""

            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, cells):
                return [fn(c) for c in cells]

        monkeypatch.setattr(harness, "Pool", FakePool)
        grid = [Params(n=40, p0=0.9, eta=0.3, seed=0)]
        assert len(sweep(grid, 2, str(tmp_path / "two.csv"), jobs=8)) == 2
        # one cell runs in this process, without a pool
        assert len(sweep(grid, 1, str(tmp_path / "one.csv"), jobs=8)) == 1
        assert sizes == [2]


class TestVerify:
    def _fixture(self, tmp_path):
        out = tmp_path / "r.json"
        graph_out = tmp_path / "g.txt"
        run(Params(n=40, p0=0.9, eta=0.3, seed=2),
            out_path=str(out), graph_out=str(graph_out))
        return out, graph_out

    def test_valid_result_passes(self, tmp_path):
        out, graph_out = self._fixture(tmp_path)
        verdict = verify_result(str(out), str(graph_out))
        assert verdict["ok"]
        assert verdict["cycles"] >= 1

    def test_detects_shared_edge(self, tmp_path):
        out, graph_out = self._fixture(tmp_path)
        doc = json.loads(out.read_text())
        if len(doc["hamilton_cycles"]) < 2:
            doc["hamilton_cycles"].append(doc["hamilton_cycles"][0])
        else:
            doc["hamilton_cycles"][1] = doc["hamilton_cycles"][0]
        out.write_text(json.dumps(doc))
        verdict = verify_result(str(out), str(graph_out))
        assert not verdict["ok"]
        assert "reused" in verdict["reason"]

    def test_detects_missing_vertex(self, tmp_path):
        out, graph_out = self._fixture(tmp_path)
        doc = json.loads(out.read_text())
        cyc = doc["hamilton_cycles"][0]
        doc["hamilton_cycles"][0] = cyc[:-1]
        out.write_text(json.dumps(doc))
        verdict = verify_result(str(out), str(graph_out))
        assert not verdict["ok"]
        assert "missing" in verdict["reason"]

    def test_detects_cycle_count_mismatch(self, tmp_path):
        out, graph_out = self._fixture(tmp_path)
        doc = json.loads(out.read_text())
        doc["achieved_cycles"] += 1
        out.write_text(json.dumps(doc))
        verdict = verify_result(str(out), str(graph_out))
        assert not verdict["ok"]
        assert "achieved_cycles" in verdict["reason"]

    def test_detects_a_cycle_count_that_is_not_a_number(self, tmp_path):
        out, graph_out = self._fixture(tmp_path)
        doc = json.loads(out.read_text())
        doc["hamilton_cycles"] = doc["hamilton_cycles"][:1]
        doc["achieved_cycles"] = True
        out.write_text(json.dumps(doc))
        verdict = verify_result(str(out), str(graph_out))
        assert not verdict["ok"]
        assert "achieved_cycles" in verdict["reason"]

    def test_detects_vertex_count_mismatch(self, tmp_path):
        out, graph_out = self._fixture(tmp_path)
        doc = json.loads(out.read_text())
        doc["params"]["n"] += 1
        out.write_text(json.dumps(doc))
        verdict = verify_result(str(out), str(graph_out))
        assert not verdict["ok"]
        assert "params.n" in verdict["reason"]

    def test_detects_non_edge(self, tmp_path):
        out, graph_out = self._fixture(tmp_path)
        g0 = Graph.from_text(graph_out.read_text())
        non_edge = next(
            (u, v)
            for u in range(g0.n)
            for v in range(u + 1, g0.n)
            if not g0.has_edge(u, v)
        )
        u, v = non_edge
        rest = [x for x in range(g0.n) if x not in non_edge]
        doc = json.loads(out.read_text())
        doc["hamilton_cycles"] = [[u, v] + rest]
        out.write_text(json.dumps(doc))
        verdict = verify_result(str(out), str(graph_out))
        assert not verdict["ok"]

    def test_detects_a_repeated_vertex(self, tmp_path):
        out, graph_out = self._fixture(tmp_path)
        doc = json.loads(out.read_text())
        cyc = doc["hamilton_cycles"][0]
        doc["hamilton_cycles"][0] = cyc[:-1] + [cyc[0]]
        out.write_text(json.dumps(doc))
        verdict = verify_result(str(out), str(graph_out))
        assert verdict == {"ok": False, "cycle": 0, "reason": f"repeated vertex {cyc[0]}"}

    @pytest.mark.parametrize("cycle,reason", [
        # reuses (0, 1) first, and (2, 4) is no edge further on
        ([0, 1, 4, 2, 3], "edge (0, 1) reused"),
        # (2, 4) is no edge, and (0, 1) is reused further on
        ([2, 4, 1, 0, 3], "missing edge (2, 4)"),
        # walks the first cycle's edge 2 -> 3 as 3 -> 2
        ([3, 2, 0, 4, 1], "edge (2, 3) reused"),
    ])
    def test_names_the_first_bad_edge_in_cycle_order(self, tmp_path, cycle, reason):
        # K5 minus (2, 4); the first cycle is valid
        result, graph = tmp_path / "r.json", tmp_path / "g.txt"
        edges = [e for e in sorted(Graph.complete(5).edges) if e != (2, 4)]
        graph.write_text(f"5 {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
        result.write_text(json.dumps({"params": {"n": 5}, "achieved_cycles": 2,
                                      "hamilton_cycles": [[0, 1, 2, 3, 4], cycle]}))
        assert verify_result(str(result), str(graph)) == {"ok": False, "cycle": 1,
                                                          "reason": reason}

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_no_cycle_is_certified_below_three_vertices(self, tmp_path, n):
        # a Hamilton cycle needs at least 3 vertices, whatever is listed
        result, graph = tmp_path / "r.json", tmp_path / "g.txt"
        graph.write_text(Graph.complete(n).to_text())
        for cycles in ([list(range(n))], [list(range(n))] * 3, [[], [0]]):
            result.write_text(json.dumps({"params": {"n": n}, "achieved_cycles": len(cycles),
                                          "hamilton_cycles": cycles}))
            verdict = verify_result(str(result), str(graph))
            assert verdict == {"ok": False, "cycle": 0,
                               "reason": f"no Hamilton cycle on {n} < 3 vertices"}
        result.write_text(json.dumps({"params": {"n": n}, "achieved_cycles": 0,
                                      "hamilton_cycles": []}))
        assert verify_result(str(result), str(graph)) == {"ok": True, "cycles": 0}


class TestCliExitCodes:
    def test_run_ok(self, tmp_path, capsys):
        code = main(["run", "--n", "40", "--p0", "0.9", "--eta", "0.3",
                     "--seed", "1", "--out", str(tmp_path / "r.json")])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["achieved_cycles"] >= 1

    def test_param_error(self, capsys):
        assert main(["run", "--n", "10", "--p0", "1.5", "--eta", "0.3"]) == 2

    def test_phase_failure(self, tmp_path):
        code = main(["run", "--n", "10", "--p0", "0.0", "--eta", "0.3",
                     "--out", str(tmp_path / "r.json")])
        assert code == 3

    def test_verify_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["run", "--n", "40", "--p0", "0.9", "--eta", "0.3",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["verify", str(out), str(out) + ".graph.txt"]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["ok"]

    def test_verify_failure_exit_code(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        main(["run", "--n", "40", "--p0", "0.9", "--eta", "0.3", "--out", str(out)])
        doc = json.loads(out.read_text())
        doc["hamilton_cycles"][0] = doc["hamilton_cycles"][0][:-1]
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", str(out), str(out) + ".graph.txt"]) == 1

    @pytest.mark.parametrize("doc", [
        [],
        {"params": [6], "achieved_cycles": 0, "hamilton_cycles": []},
        {"params": {"n": 6}, "achieved_cycles": 1, "hamilton_cycles": [5]},
        {"params": {"n": 6}, "achieved_cycles": 1, "hamilton_cycles": [[0, [1], 2]]},
        # JSON true is no vertex, though Python reads it as 1
        {"params": {"n": 6}, "achieved_cycles": 1, "hamilton_cycles": [[0, True, 2, 3, 4, 5]]},
    ])
    def test_verify_malformed_result(self, tmp_path, capsys, doc):
        result, graph = tmp_path / "r.json", tmp_path / "g.txt"
        result.write_text(json.dumps(doc))
        graph.write_text(Graph.cycle(6).to_text())
        assert main(["verify", str(result), str(graph)]) == 2
        assert "parameter error" in capsys.readouterr().err

    @pytest.mark.parametrize("cut,message", [(1, "header claims"), (7, "no header")])
    def test_verify_truncated_graph(self, tmp_path, capsys, cut, message):
        # the cycle C6 with its last `cut` lines gone, under a result that
        # verifies against the whole file
        result, graph = tmp_path / "r.json", tmp_path / "g.txt"
        result.write_text(json.dumps({"params": {"n": 6}, "achieved_cycles": 1,
                                      "hamilton_cycles": [[0, 1, 2, 3, 4, 5]]}))
        lines = Graph.cycle(6).to_text().splitlines()
        graph.write_text("".join(ln + "\n" for ln in lines[: len(lines) - cut]))
        assert main(["verify", str(result), str(graph)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("edges,cycle,message", [
        # 9 is no vertex of a 5-vertex graph, and 4 is never visited
        ([(0, 1), (1, 2), (2, 3), (3, 9), (0, 9)], [0, 1, 2, 3, 9], "out of range"),
        ([(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 1)], [0, 1, 2, 3, 4], "self-loop"),
    ])
    def test_verify_rejects_an_edge_line_off_the_vertex_set(
            self, tmp_path, capsys, edges, cycle, message):
        result, graph = tmp_path / "r.json", tmp_path / "g.txt"
        result.write_text(json.dumps({"params": {"n": 5}, "achieved_cycles": 1,
                                      "hamilton_cycles": [cycle]}))
        graph.write_text(f"5 {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
        assert main(["verify", str(result), str(graph)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("cycle", [[0, 1, 2, 3, 9], [0, 1, 2, 3, -1]])
    def test_verify_rejects_a_cycle_off_the_vertex_set(self, tmp_path, cycle):
        result, graph = tmp_path / "r.json", tmp_path / "g.txt"
        result.write_text(json.dumps({"params": {"n": 5}, "achieved_cycles": 1,
                                      "hamilton_cycles": [cycle]}))
        graph.write_text(Graph.cycle(5).to_text())
        verdict = verify_result(str(result), str(graph))
        assert not verdict["ok"]
        assert verdict["reason"] == f"vertices outside 0..4: {[cycle[-1]]}"

    @pytest.mark.parametrize("text,n,cycles,message", [
        # the header claims fewer edges than the file lists
        ("3 1\n0 1\n1 2\n0 2\n", 3, [], "header claims 1 edges, parsed 3"),
        ("3 1\n0 1\n1 2\n0 2\n", 3, [[0, 1, 2]], "header claims 1 edges, parsed 3"),
        ("3 1\n0 1\n0 1\n", 3, [], "but 2 edge lines follow"),
        ("-4 0\n", -4, [], "nonnegative"),
    ])
    def test_verify_rejects_a_malformed_header(self, tmp_path, capsys, text, n, cycles, message):
        result, graph = tmp_path / "r.json", tmp_path / "g.txt"
        result.write_text(json.dumps({"params": {"n": n}, "achieved_cycles": len(cycles),
                                      "hamilton_cycles": cycles}))
        graph.write_text(text)
        assert main(["verify", str(result), str(graph)]) == 2
        assert message in capsys.readouterr().err

    def test_verify_fails_on_an_empty_graph_with_cycles(self, tmp_path, capsys):
        result, graph = tmp_path / "r.json", tmp_path / "g.txt"
        result.write_text(json.dumps({"params": {"n": 0}, "achieved_cycles": 3,
                                      "hamilton_cycles": [[], [], []]}))
        graph.write_text("0 0\n")
        assert main(["verify", str(result), str(graph)]) == EXIT_VERIFY_FAIL
        assert json.loads(capsys.readouterr().out)["ok"] is False

    def test_diag_without_trials(self, capsys):
        assert main(["diag", "--n", "30", "--p0", "0.3", "--eta", "0.25",
                     "--trials", "0"]) == 2

    def test_sweep_without_seeds(self, tmp_path):
        out = tmp_path / "s.csv"
        grid = json.dumps([{"n": 40, "p0": 0.8, "eta": 0.3, "seed": 0}])
        assert main(["sweep", "--grid", grid, "--seeds", "0", "--out", str(out)]) == 2
        assert not out.exists()

    def test_sweep_cli(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        grid = json.dumps([{"n": 40, "p0": 0.8, "eta": 0.3, "seed": 0}])
        assert main(["sweep", "--grid", grid, "--seeds", "1", "--out", str(out)]) == 0
        with open(out) as fh:
            assert next(csv.reader(fh)) == CSV_HEADER

    def test_sweep_empty_grid(self, tmp_path):
        assert main(["sweep", "--grid", "[]", "--out", str(tmp_path / "s.csv")]) == 2

    @pytest.mark.parametrize("grid, message", [
        ([1], "grid cell 1 is not an object"),
        ({"n": 40, "p0": 0.8, "eta": 0.3}, "grid is not a JSON list"),
        ([{"n": "40", "p0": 0.8, "eta": 0.3}], "grid cell n='40' is not an integer"),
        ([{"n": 40.0, "p0": 0.8, "eta": 0.3}], "grid cell n=40.0 is not an integer"),
        ([{"n": 40, "p0": 0.8, "eta": 0.3, "seed": "x"}],
         "grid cell seed='x' is not an integer"),
        ([{"n": 40, "p0": "0.8", "eta": 0.3}], "grid cell p0='0.8' is not a number"),
        ([{"n": 40, "p0": 0.8, "eta": True}], "grid cell eta=True is not a number"),
    ])
    def test_sweep_malformed_cell(self, tmp_path, capsys, grid, message):
        spec = tmp_path / "grid.json"
        spec.write_text(json.dumps(grid))
        out = tmp_path / "s.csv"
        assert main(["sweep", "--grid", str(spec), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"parameter error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_sweep_without_jobs(self, tmp_path, capsys, jobs):
        out = tmp_path / "s.csv"
        grid = json.dumps([{"n": 40, "p0": 0.8, "eta": 0.3}])
        assert main(["sweep", "--grid", grid, "--jobs", jobs, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "parameter error: --jobs must be at least 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, option", [
        (["run", "--n", "60", "--p0", "0.5", "--eta", "0.25"], "--out"),
        (["run", "--n", "60", "--p0", "0.5", "--eta", "0.25"], "--graph-out"),
        (["sweep", "--grid", '[{"n": 40, "p0": 0.8, "eta": 0.3}]'], "--out"),
        (["diag", "--n", "30", "--p0", "0.3", "--eta", "0.25"], "--out"),
        (["oracle"], "--out"),
    ])
    def test_unwritable_output_is_a_parameter_error(
            self, tmp_path, monkeypatch, capsys, argv, option):
        # reported before any sampling, not as a traceback after the work
        sampled = []
        monkeypatch.setattr(harness, "sample_gnp", lambda *args: sampled.append(args))
        monkeypatch.setattr(cli, "sample_gnp", lambda *args: sampled.append(args))
        path = tmp_path / "missing" / "x"
        assert main(argv + [option, str(path)]) == 2
        assert capsys.readouterr().err == f"parameter error: cannot write {path}\n"
        assert sampled == [] and not path.parent.exists()

    @pytest.mark.parametrize("argv, option", [
        (["run", "--n", "60", "--p0", "0.5", "--eta", "0.25"], "--out"),
        (["run", "--n", "60", "--p0", "0.5", "--eta", "0.25"], "--graph-out"),
        (["sweep", "--grid", '[{"n": 40, "p0": 0.8, "eta": 0.3}]'], "--out"),
        (["diag", "--n", "30", "--p0", "0.3", "--eta", "0.25"], "--out"),
        (["oracle"], "--out"),
    ])
    def test_empty_output_path_is_a_parameter_error(
            self, tmp_path, monkeypatch, capsys, argv, option):
        # an empty path names no file: refused before any sampling, not
        # written nowhere or failed at the sweep's last write
        monkeypatch.chdir(tmp_path)
        sampled = []
        monkeypatch.setattr(harness, "sample_gnp", lambda *args: sampled.append(args))
        monkeypatch.setattr(cli, "sample_gnp", lambda *args: sampled.append(args))
        assert main(argv + [option, ""]) == 2
        assert capsys.readouterr().err == "parameter error: cannot write \n"
        assert sampled == [] and list(tmp_path.iterdir()) == []

    def test_run_has_no_floor_r(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--n", "40", "--p0", "0.9", "--eta", "0.3", "--floor-r", "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["run", "--n", "40", "--p0", "0.9", "--eta", "0.3", "--mode", "enforce"],
        ["sweep", "--grid", "[]", "--out", "s.csv", "--mode", "report"],
    ])
    def test_run_and_sweep_have_no_mode(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --mode" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("cmd, options", [
        ("run", {"-h", "--help", "--n", "--p0", "--eta", "--seed", "--out", "--graph-out",
                 "--audit"}),
        ("sweep", {"-h", "--help", "--grid", "--seeds", "--jobs", "--out"}),
    ])
    def test_options_are_pinned(self, capsys, cmd, options):
        # a new option has to be added here too, as a visible test change
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        assert set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", capsys.readouterr().out)) == options

    def test_oracle_suite(self, capsys):
        assert main(["oracle"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["census_k5"]["total"] == 12
        assert report["census_k6"]["total"] == 70
        assert report["fracsum_bound"]["ok"]
        assert report["perm_bound"]["ok"]

    def test_diag(self, capsys):
        assert main(["diag", "--n", "100", "--p0", "0.3", "--eta", "0.25",
                     "--trials", "50"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "degrees" in report and "deviation" in report and "budgets" in report
