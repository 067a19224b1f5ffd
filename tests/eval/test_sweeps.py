"""Parameter-sweep utility tests."""

import pytest

from repro.core.config import MACConfig
from repro.eval.sweeps import sweep_grid


class TestSweepGrid:
    def test_grid_shape(self):
        pts = sweep_grid(
            {"arq_entries": [8, 32], "latency_hiding": [True, False]},
            workloads=("SG",),
            ops_per_thread=300,
        )
        assert len(pts) == 4
        combos = {p.params for p in pts}
        assert len(combos) == 4

    def test_multiple_workloads(self):
        pts = sweep_grid({"arq_entries": [16]}, workloads=("SG", "IS"), ops_per_thread=300)
        assert {p.workload for p in pts} == {"SG", "IS"}

    def test_efficiency_monotone_in_entries(self):
        pts = sweep_grid(
            {"arq_entries": [4, 64]}, workloads=("MG",), ops_per_thread=400
        )
        by_entries = {dict(p.params)["arq_entries"]: p.efficiency for p in pts}
        assert by_entries[64] >= by_entries[4]

    def test_row_bytes_axis_adjusts_max_request(self):
        pts = sweep_grid({"row_bytes": [256, 1024]}, workloads=("SG",), ops_per_thread=300)
        assert len(pts) == 2  # no validation error from max > row

    @staticmethod
    def _cell_configs(monkeypatch, **kwargs):
        """Run a sweep, capturing each cell's resolved MACConfig kwargs."""
        import repro.eval.sweeps as sweeps_mod

        seen = []
        original = sweeps_mod._run_sweep_task

        def capture(task):
            seen.append(dict(task.config_kwargs))
            return original(task)

        monkeypatch.setattr(sweeps_mod, "_run_sweep_task", capture)
        sweep_grid(workloads=("SG",), ops_per_thread=200, **kwargs)
        return seen

    def test_small_row_clamps_default_max_request(self, monkeypatch):
        # Default max_request_bytes (256) exceeds a 128 B row; the sweep
        # shrinks it just enough to keep the config valid.
        configs = self._cell_configs(monkeypatch, axes={"row_bytes": [128]})
        assert configs[0]["max_request_bytes"] == 128

    def test_explicit_small_max_request_preserved(self, monkeypatch):
        # Regression: the row-coupling used to clobber a deliberately
        # small base max_request_bytes with the (larger) row size.
        configs = self._cell_configs(
            monkeypatch,
            axes={"row_bytes": [1024]},
            base=MACConfig(max_request_bytes=64),
        )
        assert configs[0]["max_request_bytes"] == 64
        assert configs[0]["row_bytes"] == 1024

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            sweep_grid({"bogus_field": [1]})

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError):
            sweep_grid({})

    def test_base_config_respected(self):
        base = MACConfig(latency_hiding=False)
        pts = sweep_grid(
            {"arq_entries": [8]}, workloads=("SG",), ops_per_thread=300, base=base
        )
        assert pts  # runs without error under a custom base
