"""Per-layer spans and counters recorded from outside hdlab.

``Tracer.install`` wraps public functions of the layers and puts each wrapper
where its caller looks the name up: a module that does ``from .x import f``
holds its own reference, so ``decomposition._offset_table``,
``counting.sphere_fourier_radial``, ``cli.find_copy`` and the like are
patched in the importing module as well as in the defining one.
``remove`` restores every original, so untraced passes run the unpatched
code.  Times are inclusive (a span contains the spans of its callees).
"""

from __future__ import annotations

import time
from collections import defaultdict

from hdlab import (_kernels, cli, counting, decomposition, embedding, grid,
                   sphere, spectral)

# metric name -> unit; the order is the order of the report
PER_LAYER = {
    "kernels.sharp_sum.s": "s",
    "kernels.sharp_sum.calls": "count",
    "kernels.shift_grid.calls": "count",
    "kernels.sharp_tuples": "count",
    "kernels.tuples_per_s": "1/s",
    "kernels.scan_bitmap.s": "s",
    "spectral.build_offset_table.s": "s",
    "spectral.build_offset_table.calls": "count",
    "spectral.table_mb": "MB",
    "spectral.ring_tents.s": "s",
    "spectral.ring_tents.calls": "count",
    "spectral.ball_tents.s": "s",
    "spectral.ball_tents.calls": "count",
    "spectral.assemble.s": "s",
    "spectral.assemble.calls": "count",
    "spectral.assemble.gb": "GB",
    "spectral.pair_spectrum.s": "s",
    "sphere.sphere_fourier_radial.s": "s",
    "sphere.sphere_fourier_radial.calls": "count",
    "counting.counting_sharp.s": "s",
    "counting.counting_smooth.s": "s",
    "counting.table_builds": "count",
    "counting.table_hits": "count",
    "decomposition.L_form.s": "s",
    "decomposition.theta_form.s": "s",
    "decomposition.unconverged": "count",
    "embedding.find_copy.s": "s",
    "embedding.find_copy.calls": "count",
    "embedding.candidates": "count",
    "embedding.candidates_per_s": "1/s",
    "embedding.read_pgm.s": "s",
    "grid.make_indicator.s": "s",
    "cli.run.s": "s",
    "cli.command.s": "s",
    "cli.overhead.s": "s",
    "cli.cache_hit.s": "s",
    "proc.cpu_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Inclusive wall time and call counts per wrapped function, plus counters."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(float)
        self._saved = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        seconds, calls = self.seconds, self.calls

        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds[name] += time.perf_counter() - t0
                calls[name] += 1
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    def _count_only(self, name, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, wrapper, *sites):
        for module, attr in sites:
            self._saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)

    def install(self):
        c = self.counters

        def sharp_after(result, args, kwargs):
            cos_t, n = args[3], args[5]
            c["kernels.sharp_tuples"] += len(cos_t) ** n

        def table_after(result, args, kwargs):
            c["spectral.table_mb"] = max(c["spectral.table_mb"], result.power.nbytes / 1e6)

        def assemble_after(result, args, kwargs):
            c["spectral.assemble.gb"] += args[0].power.nbytes / 1e9

        def form_after(result, args, kwargs):
            c["decomposition.unconverged"] += 0 if result.converged else 1

        def scan_after(result, args, kwargs):
            c["embedding.candidates"] += result.examined

        k, sp = _kernels, spectral
        self._patch(self._count_only("kernels.shift_grid", k.shift_grid), (k, "shift_grid"))
        for name in ("sharp_sum", "scan_bitmap"):
            after = sharp_after if name == "sharp_sum" else None
            self._patch(self._wrap(f"kernels.{name}", getattr(k, name), after), (k, name))
        self._patch(self._wrap("spectral.build_offset_table", sp.build_offset_table, table_after),
                    (sp, "build_offset_table"))
        self._patch(self._wrap("spectral.assemble", sp.assemble, assemble_after), (sp, "assemble"))
        for name in ("ring_tents", "ball_tents", "pair_spectrum"):
            self._patch(self._wrap(f"spectral.{name}", getattr(sp, name)), (sp, name))
        self._patch(self._wrap("sphere.sphere_fourier_radial", sphere.sphere_fourier_radial),
                    (sphere, "sphere_fourier_radial"), (counting, "sphere_fourier_radial"))
        for name in ("counting_sharp", "counting_smooth"):
            self._patch(self._wrap(f"counting.{name}", getattr(counting, name)),
                        (counting, name), (decomposition, name), (cli, name))
        self._patch(self._offset_table_wrapper(counting._offset_table),
                    (counting, "_offset_table"), (decomposition, "_offset_table"))
        for name in ("L_form", "theta_form"):
            self._patch(self._wrap(f"decomposition.{name}", getattr(decomposition, name), form_after),
                        (decomposition, name))
        self._patch(self._wrap("embedding.find_copy", embedding.find_copy, scan_after),
                    (embedding, "find_copy"), (cli, "find_copy"))
        self._patch(self._wrap("embedding.read_pgm", embedding.read_pgm),
                    (embedding, "read_pgm"), (cli, "read_pgm"))
        self._patch(self._wrap("grid.make_indicator", grid.make_indicator), (grid, "make_indicator"))
        self._patch(self._wrap("cli.run", cli.run), (cli, "run"))
        for command, fn in list(cli.COMMANDS.items()):
            self._saved.append((cli.COMMANDS, command, fn))
            cli.COMMANDS[command] = self._wrap("cli.command", fn)

    def _offset_table_wrapper(self, fn):
        calls, c = self.calls, self.counters

        def offset_table(*args, **kwargs):
            before = calls["spectral.build_offset_table"]
            result = fn(*args, **kwargs)
            built = calls["spectral.build_offset_table"] - before
            c["counting.table_builds"] += built
            c["counting.table_hits"] += 0 if built else 1
            return result

        return offset_table

    def remove(self):
        while self._saved:
            target, attr, original = self._saved.pop()
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)

    # -- report ------------------------------------------------------------

    def layer_values(self) -> dict:
        """Per-layer metrics of what ran while installed (no run-level ones)."""
        s, n, c = self.seconds, self.calls, self.counters
        out = {}
        for name in PER_LAYER:
            base, _, kind = name.rpartition(".")
            if kind == "s":
                out[name] = s.get(base, 0.0)
            elif kind == "calls":
                out[name] = n.get(base, 0)
            else:
                out[name] = c.get(name, 0)
        out["kernels.tuples_per_s"] = _rate(c.get("kernels.sharp_tuples", 0), s.get("kernels.sharp_sum", 0.0))
        out["embedding.candidates_per_s"] = _rate(c.get("embedding.candidates", 0),
                                                  s.get("embedding.find_copy", 0.0))
        out["cli.overhead.s"] = s.get("cli.run", 0.0) - s.get("cli.command", 0.0)
        for name in ("cli.cache_hit.s", "proc.cpu_s", "trace.overhead_s"):
            out.pop(name)
        return out


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0
