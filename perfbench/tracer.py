"""Layer tracing for the benchmark's traced run.

The tracer wraps the public functions at each layer boundary by patching
module attributes: every attribute of every ``epgw`` module that refers to
a traced function is replaced, so calls made inside the library (say
``splitting`` calling ``eigenvalues_general``, or ``spectral`` calling
``core.require_positive``) are seen as well as the benchmark's own calls.
Nothing in the library is edited; ``uninstall`` puts the originals back.

Each call is a span: name, start, end and the span that caused it, tagged
with the job it belongs to. The first ``SPAN_CAP`` spans of a run are kept
in memory and written out on request; later ones are counted as dropped
(one ``sweep`` job makes about 1.4 million traced calls). Counts and
times are aggregated per function for every call, dropped or not, so a
layer's self time is its spans' durations minus the part their child spans
cover.
"""

from __future__ import annotations

import json
import os
import sys
import time

# Layer -> traced functions, all defined in epgw.<layer>. Every traced core
# function is a validation step.
TRACED = {
    "core": [
        "require_positive",
        "require_nonnegative",
        "validate_resonator",
        "validate_cavity",
        "system_violations",
        "validate_system",
    ],
    "spectral": ["eigenvalues_general", "ep_photon_number", "splitting", "sweep_photon_number", "sweep_strain"],
    "sensitivity": ["min_detectable_strain", "thermal_frequency_noise", "sensitivity_curve", "read_overlay_csv"],
    "dynamics": ["mode_matrix", "propagate_exact", "propagate_rk", "estimate_spectrum"],
    "cli": ["main", "build_parser", "parse_config", "render_csv", "render_json"],
}

# Spans kept in memory per run, about 40 MB of tuples.
SPAN_CAP = 200_000

_EP_LOCATE = "spectral.ep_photon_number"
_EIG = "spectral.eigenvalues_general"


def _trajectory_bytes(trajectory) -> int:
    return trajectory.times.nbytes + trajectory.a1.nbytes + trajectory.a2.nbytes


def _output_bytes(argv) -> int:
    argv = list(argv)
    if "--output" in argv:
        path = argv[argv.index("--output") + 1]
        if os.path.exists(path):
            return os.path.getsize(path)
    return 0


def _rendered_rows(args) -> int:
    rows, overlays = args[4], (args[5] if len(args) > 5 else None) or {}
    return len(rows) + sum(len(table) for table in overlays.values())


# Work counts taken from a traced call's arguments and result.
_MEASURES = {
    "dynamics.propagate_exact": lambda args, result: {
        "samples": len(result),
        "traj_bytes": _trajectory_bytes(result),
    },
    "dynamics.propagate_rk": lambda args, result: {
        "rk_steps": len(result) - 1,
        "traj_bytes": _trajectory_bytes(result),
    },
    "dynamics.estimate_spectrum": lambda args, result: {"fft_points": len(args[0])},
    "cli.render_csv": lambda args, result: {"rendered_rows": _rendered_rows(args)},
    "cli.render_json": lambda args, result: {"rendered_rows": _rendered_rows(args)},
    "cli.main": lambda args, result: {"bytes_written": _output_bytes(args[0])},
}


class Tracer:
    """Collects spans and per-function aggregates while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.dropped = 0
        self.job = 0
        self._stack: list[list] = []
        self._next_id = 0
        self._ep_depth = 0
        self.stats: dict[str, list] = {}
        self.counters: dict[str, float] = {}
        self._patches = self._plan()

    def _plan(self) -> list[tuple]:
        modules = [m for name, m in sys.modules.items() if name == "epgw" or name.startswith("epgw.")]
        patches = []
        for layer, names in TRACED.items():
            home = sys.modules[f"epgw.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(original, f"{layer}.{name}")
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            patches.append((module, attr, original, wrapper))
        return patches

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def _wrap(self, fn, key: str):
        measure = _MEASURES.get(key)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][1] if stack else -1
            if key == _EIG and self._ep_depth:
                self._count("ep_locate_eig_calls", 1)
            elif key == _EP_LOCATE:
                self._ep_depth += 1
            frame = [0.0, span_id]
            stack.append(frame)
            failed = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = clock()
                stack.pop()
                if key == _EP_LOCATE:
                    self._ep_depth -= 1
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                entry = self.stats.get(key)
                if entry is None:
                    entry = self.stats[key] = [0, 0.0, 0.0, 0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[0]
                entry[3] += failed
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((self.job, span_id, parent, key, start, end))
                else:
                    self.dropped += 1
                if measure is not None and not failed:
                    for name, value in measure(args, result).items():
                        self._count(name, value)

        traced.__wrapped__ = fn
        return traced

    def _count(self, name: str, value: float) -> None:
        if name == "fft_points":
            self.counters["fft_len"] = max(self.counters.get("fft_len", 0), value)
        else:
            self.counters[name] = self.counters.get(name, 0) + value

    def take_job(self) -> dict[str, float]:
        """Per-layer metrics of the job traced since the last call; resets."""
        metrics = layer_metrics(self.stats, self.counters)
        self.stats = {}
        self.counters = {}
        self.job += 1
        return metrics

    def write_spans(self, path: str) -> None:
        """Write the kept spans as JSON lines; warn when some were dropped."""
        if self.dropped:
            print(f"perfbench: {path} holds the first {len(self.spans)} spans; "
                  f"{self.dropped} later spans were dropped", file=sys.stderr)
        with open(path, "w", encoding="utf-8") as fh:
            for job, span_id, parent, key, start, end in self.spans:
                fh.write(json.dumps({"job": job, "id": span_id, "parent": parent, "name": key,
                                     "start": start, "end": end}) + "\n")


def layer_metrics(stats: dict[str, list], counters: dict[str, float]) -> dict[str, float]:
    """Derive the per-layer metrics of one job from its aggregates.

    A ratio whose denominator is zero (the layer did no such work on this
    workload) reads 0.
    """

    def calls(key):
        return stats.get(key, (0, 0.0, 0.0, 0))[0]

    def total(key):
        return stats.get(key, (0, 0.0, 0.0, 0))[1]

    def layer_self(layer):
        return sum(entry[2] for key, entry in stats.items() if key.startswith(layer + "."))

    def per(numerator, denominator, scale):
        return numerator / denominator * scale if denominator else 0.0

    count = counters.get
    render_s = total("cli.render_csv") + total("cli.render_json")
    return {
        "core.validate_calls": sum(calls(f"core.{name}") for name in TRACED["core"]),
        "core.validate_s": layer_self("core"),
        "spectral.eig_calls": calls(_EIG),
        "spectral.eig_us_per_call": per(total(_EIG), calls(_EIG), 1e6),
        "spectral.self_s": layer_self("spectral"),
        "spectral.ep_locate_s": total(_EP_LOCATE),
        "spectral.ep_locate_eig_calls": count("ep_locate_eig_calls", 0),
        "sensitivity.self_s": layer_self("sensitivity"),
        "sensitivity.mds_calls": calls("sensitivity.min_detectable_strain"),
        "sensitivity.overlay_read_s": total("sensitivity.read_overlay_csv"),
        "dynamics.propagate_ns_per_sample": per(total("dynamics.propagate_exact"), count("samples", 0), 1e9),
        "dynamics.readout_s": total("dynamics.estimate_spectrum"),
        "dynamics.fft_len": count("fft_len", 0),
        "dynamics.traj_bytes_computed": count("traj_bytes", 0),
        "dynamics.rk_ns_per_step": per(total("dynamics.propagate_rk"), count("rk_steps", 0), 1e9),
        "cli.self_s": layer_self("cli"),
        "cli.render_ns_per_row": per(render_s, count("rendered_rows", 0), 1e9),
        "cli.bytes_written": count("bytes_written", 0),
        "cli.parse_s": total("cli.build_parser") + total("cli.parse_config"),
    }
