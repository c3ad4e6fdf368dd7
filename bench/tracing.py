"""Span tracing around the public functions of each spinbeam layer.

The tracer replaces each traced function at every module binding that
refers to it (``beams.integrate``, ``polarization.integrate``,
``beams.bessel_j``, ``topology.closed_form_polarization``, the names
``cli`` imports, ...), so calls between layers are recorded without
touching the package's source.  Each span records its name, start, end,
parent span and request id; spans are kept in flat arrays in memory and
written out once, at the end of the run.

A span's self time is its duration minus the time covered by its
children.  ``quadrature.integrate`` self time therefore excludes the
integrand, which is timed by a ``quadrature.integrand`` span around the
integrand the tracer passes on in place of the caller's; the time inside
the integrand counts only the outermost of nested integrand spans.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# the quadrature evaluates panels of 15 + 7 nodes
_NODES_PER_PANEL = 22

# (module, function) pairs whose calls become spans
TRACED = (
    ("specfun", "bessel_j"),
    ("specfun", "bessel_i_scaled"),
    ("quadrature", "integrate"),
    ("beams", "evaluate_finite"),
    ("beams", "evaluate_nondiffractive"),
    ("beams", "reconstruct_from_momentum"),
    ("beams", "spectral_profile"),
    ("polarization", "spin_polarization"),
    ("polarization", "closed_form_polarization"),
    ("polarization", "spin_expectation"),
    ("topology", "charge_boundary"),
    ("topology", "charge_integral"),
    ("verify", "run_suite"),
)

# spans that evaluate whole beam profiles at one (r, z), with the number of
# profile integrals one distinct call needs
_BEAM_LEVEL = {"beams.evaluate_finite": 2, "beams.spectral_profile": 1}


class Tracer:
    """Collects spans and per-layer counters for one benchmark run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[list] = []  # [span index, start, time covered by children]
        self.request_id = -1
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._integrals = 0          # integrate calls so far
        self._integrand_depth = 0
        self._beam_depth = 0
        self._request_keys: set = set()
        self._installed: list[tuple] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin_request(self, request_id: int) -> None:
        self.request_id = request_id
        self._request_keys = set()

    def open(self, nid: int) -> None:
        index = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.request.append(self.request_id)
        now = time.perf_counter()
        self.start.append(now)
        self.end.append(now)
        self._stack.append([index, now, 0.0])

    def close(self) -> float:
        """Close the innermost open span and return its duration."""
        now = time.perf_counter()
        index, start, covered = self._stack.pop()
        self.end[index] = now
        duration = now - start
        name = self.names[self.name[index]]
        self.calls[name] += 1
        self.self_s[name] += duration - covered
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` inside a span; ``before(args, kwargs)`` may replace the
        arguments and returns ``(args, kwargs, state)``, and
        ``after(state, result, exc)`` sees how the call ended."""
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = None
            if before is not None:
                args, kwargs, state = before(args, kwargs)
            self.open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close()
                if after is not None:
                    after(state, None, exc)
                raise
            self.close()
            if after is not None:
                after(state, result, None)
            return result

        return traced

    # ------------------------------------------------------------------
    # per-layer hooks

    def _bessel_j_before(self, args, kwargs):
        x = args[1] if len(args) > 1 else kwargs["x"]
        self.counts["specfun.bessel_j.elements"] += np.size(x)
        if np.ndim(x) == 0:
            self.counts["specfun.bessel_j.scalar_calls"] += 1
        return args, kwargs, None

    def _integrand(self, f):
        """``f`` inside a ``quadrature.integrand`` span.  Integrands nest when
        an integrand itself integrates, so quadrature.integrand_s adds up only
        the outermost ones."""
        nid = self.name_id("quadrature.integrand")

        def traced(*args, **kwargs):
            self._integrand_depth += 1
            self.open(nid)
            try:
                return f(*args, **kwargs)
            finally:
                duration = self.close()
                self._integrand_depth -= 1
                if not self._integrand_depth:
                    self.counts["quadrature.integrand_s"] += duration

        return traced

    def _integrate_before(self, args, kwargs):
        self._integrals += 1
        if args:
            args = (self._integrand(args[0]),) + tuple(args[1:])
        else:
            kwargs = dict(kwargs, f=self._integrand(kwargs["f"]))
        a = args[1] if len(args) > 1 else kwargs["a"]
        b = args[2] if len(args) > 2 else kwargs["b"]
        panels = args[6] if len(args) > 6 else kwargs.get("initial_panels", 1)
        return args, kwargs, (0 if a == b else max(1, int(panels)))

    def _integrate_after(self, initial_panels, result, exc):
        if exc is not None:
            self.counts["quadrature.integrate.failures"] += 1
            result = getattr(exc, "result", None)
        if result is None or initial_panels == 0:
            return
        self.counts["quadrature.integrate.evaluations"] += result.evaluations
        # every split replaces one panel by two
        panels = result.evaluations // _NODES_PER_PANEL
        self.counts["quadrature.integrate.splits"] += (panels - initial_panels) // 2

    def _beam_before(self, name):
        weight = _BEAM_LEVEL[name]

        def before(args, kwargs):
            if name == "beams.evaluate_finite":
                spec, x = args[0], args[1]
                key = (spec, x.r, x.z) + tuple(args[2:]) + tuple(sorted(kwargs.items()))
            else:
                key = tuple(args) + tuple(sorted(kwargs.items()))
            self._beam_depth += 1
            return args, kwargs, (key, weight, self._integrals)

        return before

    def _beam_after(self, state, result, exc):
        key, weight, integrals_before = state
        self._beam_depth -= 1
        made = self._integrals - integrals_before
        if self._beam_depth or not made:
            return
        self.counts["beams.integrals_under_beam_spans"] += made
        if key not in self._request_keys:
            self._request_keys.add(key)
            self.counts["beams.useful_integrals"] += weight

    def _charge_after(self, ill_converged):
        def after(state, result, exc):
            if isinstance(exc, ill_converged):
                self.counts["topology.failures"] += 1
        return after

    def _suite_after(self, state, outcomes, exc):
        for outcome in outcomes or ():
            number = int(outcome.name.split()[0])
            self.counts[f"verify.check_{number}_s"] += outcome.elapsed

    # ------------------------------------------------------------------

    def install(self) -> None:
        """Replace every traced function at each spinbeam module binding."""
        from spinbeam.errors import IllConvergedLimitError

        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "spinbeam" or name.startswith("spinbeam.")}
        for module_name, attr in TRACED:
            original = getattr(modules[f"spinbeam.{module_name}"], attr)
            name = f"{module_name}.{attr}"
            before = after = None
            if name == "specfun.bessel_j":
                before = self._bessel_j_before
            elif name == "quadrature.integrate":
                before, after = self._integrate_before, self._integrate_after
            elif name in _BEAM_LEVEL:
                before, after = self._beam_before(name), self._beam_after
            elif module_name == "topology":
                after = self._charge_after(IllConvergedLimitError)
            elif name == "verify.run_suite":
                after = self._suite_after
            traced = self.wrap(name, original, before, after)
            for mod in modules.values():
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, binding, traced)
                        self._installed.append((mod, binding, original))

    def uninstall(self) -> None:
        for mod, binding, original in reversed(self._installed):
            setattr(mod, binding, original)
        self._installed.clear()

    def save(self, path, t0: float) -> None:
        """Write every span, with times relative to ``t0``, as a compressed npz."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            request=np.frombuffer(self.request, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64) - t0,
            end=np.frombuffer(self.end, dtype=np.float64) - t0,
        )

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-layer figures for one pass over the deck."""
        out: dict[str, float] = {}
        for module_name, attr in TRACED:
            name = f"{module_name}.{attr}"
            if name != "verify.run_suite":
                out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for key in ("specfun.bessel_j.scalar_calls", "specfun.bessel_j.elements",
                    "quadrature.integrate.evaluations", "quadrature.integrate.splits",
                    "quadrature.integrate.failures", "quadrature.integrand_s",
                    "topology.failures"):
            out[key] = self.counts[key]
        made = self.counts["beams.integrals_under_beam_spans"]
        out["beams.useful_integral_fraction"] = (
            self.counts["beams.useful_integrals"] / made if made else 1.0)
        for number in range(1, 13):
            out[f"verify.check_{number}_s"] = self.counts[f"verify.check_{number}_s"]
        out["cli.main.calls"] = self.calls["cli.main"]
        out["cli.main.self_s"] = self.self_s["cli.main"]
        for key in ("cli.rows", "cli.bytes_out"):
            out[key] = self.counts[key]
        for key, value in out.items():
            if key != "beams.useful_integral_fraction":
                out[key] = value / passes
        return out
