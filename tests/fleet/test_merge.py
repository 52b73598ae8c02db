"""Fleet merge layer: launcher end-to-end, ingest shapes, pack/query.

The load-bearing contracts:

* the local launcher produces per-node traces + anchor sidecars that
  ``merge_paths`` aligns into one view (both fork and spawn),
* per-node tool output over the merged view is byte-identical to
  running the tool on that node's trace alone (all four ported tools),
* a packed fleet store round-trips to the same unified batch and
  prunes whole nodes' shards on ``Predicate(nodes=...)``, and
* every decode path agrees on the per-node traces feeding the merge
  (the ``assert_all_paths_identical`` contract, extended to fleets).
"""

import numpy as np
import pytest

from repro.core.clockmap import ClockAnchors, ClockMap, measured_skew
from repro.core.majors import Major
from repro.core.registry import default_registry
from repro.core.writer import load_records
from repro.fleet import (
    NodeSource,
    ingest_path,
    merge_paths,
    merge_traces,
    pack_fleet_view,
    read_anchor_sidecar,
    write_anchor_sidecar,
)
from repro.cli import build_parser, fleet_report, main
from repro.fleet.launch import fleet_run
from repro.reports import FLEET_TOOLS, REPORTS
from repro.store import Predicate, TraceStore
from repro.store.query import select

from tests.core.test_parallel import assert_all_paths_identical
from tests.live.test_pipeline import table_report


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    """A launched 2-node fleet (local processes, default start method)."""
    out = str(tmp_path_factory.mktemp("fleet"))
    return fleet_run(out, nodes=2, iterations=12)


class TestLauncher:
    def test_end_to_end_artifacts(self, fleet):
        import os

        assert [r.node for r in fleet.node_results] == [0, 1]
        for r in fleet.node_results:
            assert os.path.exists(r.trace_path)
            assert os.path.exists(r.anchors_path)
        view = fleet.view
        assert view.nodes == [0, 1]
        assert len(view) > 0
        s = view.summary()
        assert all(s["per_node"][str(n)]["aligned"] for n in view.nodes)
        assert s["skew_bound"] == view.skew_bound()

    def test_spawn_start_method(self, tmp_path):
        result = fleet_run(str(tmp_path / "sp"), nodes=2, iterations=5,
                           start_method="spawn")
        assert result.view.nodes == [0, 1]
        assert len(result.view) > 0

    def test_distinct_node_clocks(self, fleet):
        a = {n: fleet.view.clock_map.anchors[n] for n in fleet.view.nodes}
        assert a[0].local_start != a[1].local_start
        assert a[0].rate != a[1].rate

    def test_node_times_land_on_fleet_axis(self, fleet):
        """Re-based spans overlap near the true (staggered) run times,
        not at the nodes' wildly different local offsets."""
        b = fleet.view.batch()
        node = b.node_column()
        for n in fleet.view.nodes:
            t = b.time[(node == n) & b.timed]
            local = fleet.view.node_trace(n).batch()
            lt = local.time[local.timed]
            assert int(t.min()) < 10**7        # staggered start, ~small
            assert int(lt.min()) > 10**5       # local offset is huge

    def test_every_decode_path_identical_per_node(self, fleet):
        for r in fleet.node_results:
            assert_all_paths_identical(load_records(r.trace_path))


class TestMerge:
    def test_sidecar_roundtrip(self, tmp_path):
        path = str(tmp_path / "n.k42")
        anchors = ClockAnchors(100, 0, 1100, 990)
        side = write_anchor_sidecar(path, 7, anchors, meta={"seed": 3})
        assert side.endswith(".anchors.json")
        got = read_anchor_sidecar(path)
        assert got == (7, anchors)
        assert read_anchor_sidecar(str(tmp_path / "missing.k42")) is None

    def test_duplicate_node_rejected(self, fleet):
        t = fleet.view.node_trace(0)
        with pytest.raises(ValueError, match="duplicate node id 0"):
            merge_traces([NodeSource(0, t), NodeSource(0, t)])

    def test_merge_nothing_rejected(self):
        with pytest.raises(ValueError, match="nothing to merge"):
            merge_traces([])

    def test_sidecarless_paths_get_identity_positions(self, fleet,
                                                      tmp_path):
        import shutil

        bare = []
        for r in fleet.node_results:
            dst = str(tmp_path / f"bare-{r.node}.k42")
            shutil.copy(r.trace_path, dst)
            bare.append(dst)
        view = merge_paths(bare)
        assert view.nodes == [0, 1]
        assert view.skew_bound() == 0           # identity maps only
        s = view.summary()
        assert not any(s["per_node"][str(n)]["aligned"]
                       for n in view.nodes)

    def test_store_and_file_ingest_agree(self, fleet, tmp_path):
        """A node packed into a plain store merges identically to its
        .k42 file."""
        from repro.store.writer import pack_trace

        r = fleet.node_results[0]
        trace = ingest_path(r.trace_path)
        store_dir = str(tmp_path / "node0.store")
        pack_trace(trace, store_dir)
        via_store = ingest_path(store_dir)
        a = trace.batch().to_arrays()
        b = via_store.batch().to_arrays()
        assert sorted(a) == sorted(b)
        for key in a:
            assert np.array_equal(a[key], b[key]), key

    def test_shm_ingest_scheme(self):
        from repro.shm import ShmTraceRegion

        region = ShmTraceRegion.create(ncpus=2, buffer_words=64,
                                       num_buffers=4)
        name = region.name
        try:
            for cpu in range(2):
                logger = region.logger(cpu)
                for i in range(20):
                    logger.log_words(Major.TEST, 1 + cpu, [i])
            trace = ingest_path(f"shm:{name}")
            b = trace.batch()
            test_rows = b.major == int(Major.TEST)
            assert int(test_rows.sum()) == 40
        finally:
            region.close()
            region.unlink()

    def test_measured_skew_edge_cases(self):
        cmap = ClockMap([0], {})
        assert cmap.skew_bound() == 0
        assert measured_skew(cmap, {0: [1, 2, 3]}) == 0
        two = ClockMap([0, 1], {})
        with pytest.raises(ValueError, match="index-aligned"):
            measured_skew(two, {0: [1, 2], 1: [1]})

    def test_aligner_rejects_uncovered_nodes(self, fleet):
        from repro.fleet.merge import FleetView

        with pytest.raises(ValueError, match="no map for nodes \\[1\\]"):
            FleetView({n: fleet.view.node_trace(n)
                       for n in fleet.view.nodes}, ClockMap([0], {}))


def _port_case(tool):
    # kmon keeps the non-default width its hand-written case used.
    flags = ("--width", "60") if tool == "kmon" else ()
    # What only this tool's rollup prints.
    mark = {"kmon": "lanes:", "locks": "fleet-wide"}.get(tool, "")

    def case(self, fleet):
        alone_report = table_report(tool, *flags)
        opts = build_parser().parse_args(
            ["merge", "TRACE", "--tool", tool, *flags])
        out = fleet_report(opts, fleet.view)
        for r in fleet.node_results:
            alone = alone_report(ingest_path(r.trace_path))
            assert alone_report(fleet.view.node_trace(r.node)) == alone
            assert alone in out
        assert "=== fleet rollup ===" in out
        assert mark in out
    return case


class TestToolPortIdentity:
    """Per-node sections of every ported tool == standalone output.

    One case per ``merge --tool`` row of the CLI table, named after the
    row's tool module (``test_kmon``, ``test_lockstats``, ...), so a row
    added to the table is covered without an edit here.
    """

    for _tool in FLEET_TOOLS:
        locals()[f"test_{REPORTS[_tool].module}"] = _port_case(_tool)
    del _tool

    def test_rollup_lanes_cover_fleet(self, fleet):
        roll = fleet.view.rollup_trace()
        legend = fleet.view.lane_legend()
        assert [lane for lane, _n, _c in legend] == roll.cpus
        assert len(roll.batch()) == len(fleet.view)


class TestFleetStore:
    @pytest.fixture(scope="class")
    def packed(self, fleet, tmp_path_factory):
        out = str(tmp_path_factory.mktemp("store") / "fleet.store")
        res = pack_fleet_view(fleet.view, out, shard_events=256)
        return out, res

    def test_manifest_declares_fleet(self, packed, fleet):
        store = TraceStore(packed[0], registry=default_registry())
        assert store.nodes == [0, 1]
        assert store.fleet_info["skew_bound"] == fleet.view.skew_bound()
        assert sorted(store.fleet_info["cpus_by_node"]) == ["0", "1"]

    def test_store_roundtrip_is_bit_identical(self, packed, fleet):
        store = TraceStore(packed[0], registry=default_registry())
        a = store.trace().batch().to_arrays()
        b = fleet.view.batch().to_arrays()
        assert sorted(a) == sorted(b)
        for key in a:
            assert np.array_equal(a[key], b[key]), key

    def test_node_predicate_prunes_whole_nodes(self, packed, fleet):
        store = TraceStore(packed[0], registry=default_registry())
        qr = store.query(Predicate(nodes=(1,)))
        assert qr.shards_pruned > 0
        assert qr.shards_read < qr.shards_total
        read0, total0 = qr.node_shards[0]
        read1, total1 = qr.node_shards[1]
        assert read0 == 0 and total0 > 0
        assert read1 == total1 > 0
        # Parity against an unpruned scan of the unified view.
        b = fleet.view.batch()
        brute = select(b, Predicate(nodes=(1,)))
        assert len(qr) == int(brute.sum())

    def test_node_trace_extraction(self, packed, fleet):
        store = TraceStore(packed[0], registry=default_registry())
        for n in fleet.view.nodes:
            nt = store.node_trace(n)
            assert len(nt.batch()) == len(fleet.view.node_trace(n).batch())
        with pytest.raises(ValueError, match="no node 9"):
            store.node_trace(9)

    def test_pack_refuses_overwrite_without_force(self, packed, fleet):
        with pytest.raises(FileExistsError):
            pack_fleet_view(fleet.view, packed[0])
        pack_fleet_view(fleet.view, packed[0], shard_events=256,
                        force=True)

    def test_anomaly_node_column(self, packed, fleet):
        import json
        import os

        with open(os.path.join(packed[0], "manifest.json")) as fh:
            doc = json.load(fh)
        an = doc["anomalies"]
        assert len(an["node"]) == len(an["kind"])
        assert set(an["node"]) <= {0, 1}


def _tree(root):
    """Every file under ``root`` by relative path, with its bytes."""
    import os

    out = {}
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, root)] = f.read()
    return out


def test_stores_do_not_depend_on_where_their_inputs_were(
        fleet, tmp_path, capsys):
    """The same node traces, packed and merged from two directories,
    give identical stores (``diff -r``): a manifest names each input by
    its basename, not by an absolute path."""
    import os
    import shutil

    made = []
    for where in ("a", os.path.join("b", "deeper")):
        d = tmp_path / where
        d.mkdir(parents=True)
        traces = []
        for r in fleet.node_results:
            for src in (r.trace_path, r.anchors_path):
                shutil.copy(src, d / os.path.basename(src))
            traces.append(str(d / os.path.basename(r.trace_path)))
        assert main(["pack", traces[0], str(d / "node.store")]) == 0
        assert main(["merge", *traces, "-o", str(d / "fleet.store")]) == 0
        made.append(d)
    capsys.readouterr()
    for store in ("node.store", "fleet.store"):
        first, second = (_tree(d / store) for d in made)
        assert first and first == second, store
