"""Scale sweep: knee detection, registry wiring, parallel identity."""

import pytest

from repro.experiments import scale_sweep
from repro.experiments.base import SeriesResult
from repro.experiments.parallel import ParallelSweep
from repro.experiments.registry import REGISTRY

#: A tiny two-point sweep that still straddles the knee at scale 0.02:
#: 400 records against 500 vs 200k clients.
TINY_CLIENTS = (500, 200_000)
TINY_TECHNIQUES = ("segm", "for")


@pytest.fixture(scope="module")
def tiny_result():
    return scale_sweep.run(
        scale=0.02, clients=TINY_CLIENTS, techniques=TINY_TECHNIQUES
    )


class TestRun:
    def test_result_shape(self, tiny_result):
        assert tiny_result.exp_id == "scale_sweep"
        assert tiny_result.x_values == list(TINY_CLIENTS)
        assert len(tiny_result.get("offered_req_s")) == len(TINY_CLIENTS)
        for key in TINY_TECHNIQUES:
            assert len(tiny_result.get(f"p99_ms[{key}]")) == len(TINY_CLIENTS)
            assert len(tiny_result.get(f"mb_s[{key}]")) == len(TINY_CLIENTS)

    def test_offered_rate_tracks_population(self, tiny_result):
        offered = tiny_result.get("offered_req_s")
        assert offered[1] == pytest.approx(
            offered[0] * TINY_CLIENTS[1] / TINY_CLIENTS[0], rel=1e-6
        )

    def test_latency_rises_with_population(self, tiny_result):
        """400x the clients must push p99 up for every technique."""
        for key in TINY_TECHNIQUES:
            series = tiny_result.get(f"p99_ms[{key}]")
            assert series[1] > series[0]

    def test_deterministic(self):
        a = scale_sweep.run(scale=0.02, clients=(500,), techniques=("segm",))
        b = scale_sweep.run(scale=0.02, clients=(500,), techniques=("segm",))
        assert a.to_json() == b.to_json()


class TestKnees:
    def synthetic_result(self, p99s):
        result = SeriesResult(
            exp_id="scale_sweep", title="t", x_label="clients",
            x_values=[1_000, 10_000, 100_000],
        )
        for p in p99s:
            result.add_point("p99_ms[segm]", p)
        return result

    def test_knee_at_first_blowup(self):
        result = self.synthetic_result([2.0, 3.0, 50.0])
        assert scale_sweep.find_knees(result, ["segm"]) == {"segm": 100_000}

    def test_no_knee_within_sweep(self):
        result = self.synthetic_result([2.0, 3.0, 4.0])
        assert scale_sweep.find_knees(result, ["segm"]) == {"segm": None}
        table = scale_sweep.knee_table(result, ["segm"])
        assert "> 100000" in table

    def test_knee_table_renders(self, tiny_result):
        table = scale_sweep.knee_table(tiny_result, TINY_TECHNIQUES)
        assert "knee_clients" in table
        assert "Segm" in table and "FOR" in table  # technique labels

    def test_hdc_extends_the_knee(self):
        """The headline claim at tiny scale: caching techniques keep
        p99 lower at the overloaded point than plain Segm."""
        result = scale_sweep.run(
            scale=0.02, clients=(200_000,), techniques=("segm", "segm+hdc")
        )
        plain = result.get("p99_ms[segm]")[0]
        hdc = result.get("p99_ms[segm+hdc]")[0]
        assert hdc <= plain


class TestRegistry:
    def test_registered_everywhere(self):
        exp = REGISTRY["scale_sweep"]
        assert exp.run is scale_sweep.run
        assert exp.axis == "clients"
        assert exp.values == scale_sweep.CLIENT_COUNTS
        assert exp.render is scale_sweep.render

    def test_parallel_matches_serial(self):
        """Each cell sees one population size; the merged result must be
        byte-identical to the serial sweep (knee detection is a pure
        post-merge step, so it can't diverge)."""
        serial = scale_sweep.run(
            scale=0.02, clients=TINY_CLIENTS, techniques=TINY_TECHNIQUES
        )
        par = ParallelSweep(
            "scale_sweep", scale=0.02, jobs=2, values=list(TINY_CLIENTS)
        ).run()
        # The parallel runner sweeps all registered techniques; compare
        # the series the serial run produced.
        assert par.x_values == serial.x_values
        for series, values in serial.series.items():
            assert par.get(series) == values
        assert scale_sweep.knee_table(par, TINY_TECHNIQUES).splitlines()[0]
