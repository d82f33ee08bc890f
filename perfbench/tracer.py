"""Outside-in span tracer for the secants benchmark.

The tracer times each layer at calls into its public functions and
properties.  It never edits the library: `install()` rebinds each listed
name, in every `secants.*` namespace that holds the same object, to a
timing wrapper, and `uninstall()` puts the originals back.  Names that a
module no longer defines are skipped, so the tracer keeps working when a
later version deletes or renames a helper.

Spans are kept in memory as records [id, name, start, end, parent, job, attrs]
and written out by the benchmark when it exits.  A span's self time is its
duration minus the time covered by its child spans; the benchmark runs one
thread, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import weakref

# (module, public name, span name).  A dotted name is Class.attribute; a
# property is wrapped as a property.  Hot per-element helpers (field
# arithmetic, point coordinate maps, per-line accessors) are deliberately
# absent: their cost lands in the calling span's self time.
WRAPPED = (
    ("field", "make_field", "field.make_field"),
    ("field", "inverse_table", "field.tables"),
    ("field", "legendre_table", "field.tables"),
    ("plane", "build_plane", "plane.build"),
    ("plane", "ProjectivePlane.points", "plane.triples"),
    ("plane", "ProjectivePlane.lines", "plane.triples"),
    ("plane", "ProjectivePlane.line_bitmaps", "plane.incidence"),
    ("plane", "ProjectivePlane.line_points_matrix", "plane.incidence"),
    ("plane", "ProjectivePlane.point_lines_matrix", "plane.incidence"),
    ("plane", "ProjectivePlane.frame", "plane.frame"),
    ("plane", "AffineFrame.coords_arrays", "plane.frame"),
    ("plane", "AffineFrame.point_index_table", "plane.frame"),
    ("plane", "AffineFrame.line_index_table", "plane.frame"),
    ("construct", "build_construction", "construct"),
    ("construct", "random_set", "construct"),
    ("construct", "parabola_region", "construct"),
    ("construct", "parabola_family", "construct"),
    ("construct", "ec_region", "construct"),
    ("construct", "pointset_from_json", "construct"),
    ("construct", "pointset_to_json", "construct.to_json"),
    ("spectrum", "compute_spectrum", "spectrum"),
    ("spectrum", "verify_counting_identities", "spectrum.identities"),
    ("spectrum", "bounds_report", "spectrum.bounds"),
    ("charwalk", "verify_projection_laws", "charwalk.laws"),
    ("charwalk", "projection_profile", "charwalk.profile"),
    ("charwalk", "psi_walk", "charwalk.walk"),
    ("charwalk", "level_stats", "charwalk.walk"),
    ("ecurve", "ec_spectrum_scan", "ecurve.scan"),
    ("ecurve", "curve_count", "ecurve.count"),
    ("ecurve", "line_curve_check", "ecurve.count"),
    ("legit", "generate_linear_hypergraph", "legit.generate"),
    ("legit", "two_phase_coloring", "legit.color"),
    ("legit", "verify_legitimate", "legit.verify"),
    ("harness", "run_sweep", "harness.sweep"),
    ("harness", "local_search", "harness.search"),
    ("harness", "exhaustive_minmax", "harness.exhaustive"),
    ("harness", "sweep_to_csv", "harness.csv"),
    ("cli", "main", "cli"),
)

PACKAGE = "secants"
LAYERS = ("field", "plane", "construct", "spectrum", "charwalk", "ecurve",
          "legit", "harness", "cli")

# Properties that return the plane's incidence caches: the first
# successful access on a plane builds them.
_INCIDENCE = ("line_bitmaps", "line_points_matrix", "point_lines_matrix")
_INDEX_MATRICES = ("line_points_matrix", "point_lines_matrix")


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def package_modules():
    """The loaded modules of the library, the package itself included."""
    return [mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]


class Tracer:
    """Records spans while installed; one instance per benchmark run."""

    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = []
        self._next_id = 0
        self._undo = []
        self._built = weakref.WeakSet()    # planes whose incidence exists
        self._getters = {}                 # original incidence getters
        self.skipped = []                  # listed names absent in this version

    # -- spans --------------------------------------------------------------

    def span(self, name, fn, *args, **kwargs):
        """Run fn inside a span; returns (result, span record)."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        attrs = {}
        rec = [sid, name, 0.0, 0.0, parent, self.job, attrs]
        self._stack.append(sid)
        rec[2] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec[3] = time.perf_counter()
            attrs["error"] = True
            self.spans.append(rec)
            raise
        finally:
            self._stack.pop()
        rec[3] = time.perf_counter()
        self.spans.append(rec)
        return result, rec

    def is_built(self, plane) -> bool:
        return plane in self._built

    # -- wrappers -----------------------------------------------------------

    def _wrap_function(self, fn, name):
        tracer = self
        post = _POST.get(name)
        info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            hits = info().hits if info is not None else 0
            result, rec = tracer.span(name, fn, *args, **kwargs)
            if info is not None:
                rec[6]["hit"] = info().hits > hits
            if post is not None:
                post(tracer, rec[6], args, result)
            return result

        for attr in ("cache_info", "cache_clear"):   # keep lru_cache's API
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def _wrap_property(self, prop, attr, name):
        tracer = self
        fget = prop.fget
        if attr in _INCIDENCE:
            self._getters[attr] = fget

        def traced_get(obj):
            result, rec = tracer.span(name, fget, obj)
            if attr in _INCIDENCE:
                tracer._note_incidence(obj, result, rec[6])
            return result

        return property(traced_get, prop.fset, prop.fdel, prop.__doc__)

    def _note_incidence(self, plane, result, attrs):
        q = plane.q
        attrs["q"] = q
        attrs["ext"] = plane.field.k > 1
        if result is None or plane in self._built:
            attrs["build"] = False
            return
        self._built.add(plane)
        attrs["build"] = True
        nbytes = 0
        for attr in _INDEX_MATRICES:
            getter = self._getters.get(attr)
            if getter is not None:
                nbytes += int(getattr(getter(plane), "nbytes", 0))
        attrs["bytes"] = nbytes

    # -- install / uninstall ------------------------------------------------

    def install(self):
        if self._undo:
            return
        namespaces = package_modules()
        self.skipped = []
        for modname, qualname, span_name in WRAPPED:
            module = sys.modules.get(f"{PACKAGE}.{modname}")
            owner_name, _, attr = qualname.rpartition(".")
            if module is None:
                self.skipped.append(f"{modname}.{qualname}")
                continue
            if owner_name:
                cls = getattr(module, owner_name, None)
                orig = None if cls is None else cls.__dict__.get(attr)
                if orig is None:
                    self.skipped.append(f"{modname}.{qualname}")
                    continue
                if isinstance(orig, property):
                    new = self._wrap_property(orig, attr, span_name)
                else:
                    new = self._wrap_function(orig, span_name)
                setattr(cls, attr, new)
                self._undo.append((cls, attr, orig))
                continue
            orig = getattr(module, attr, None)
            if orig is None or not callable(orig):
                self.skipped.append(f"{modname}.{qualname}")
                continue
            new = self._wrap_function(orig, span_name)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is orig and not key.startswith("_"):
                        setattr(ns, key, new)
                        self._undo.append((ns, key, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo = []

    def write(self, path):
        with open(path, "w") as fh:
            for sid, name, start, end, parent, job, attrs in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent, "job": job,
                                     **attrs}, sort_keys=True) + "\n")


# -- per-span attributes read from arguments and results --------------------

def _post_construct(tracer, attrs, args, result):
    size = getattr(result, "size", None)
    if size is not None:
        attrs["points"] = int(size)


def _post_spectrum(tracer, attrs, args, result):
    plane = args[0] if args else None
    if plane is not None:
        attrs["lines"] = int(plane.N)
        attrs["q"] = int(plane.q)
        attrs["cached"] = tracer.is_built(plane)


def _post_search(tracer, attrs, args, result):
    attrs["flips"] = int(getattr(result, "subsets_examined", 0))


_POST = {
    "construct": _post_construct,
    "spectrum": _post_spectrum,
    "harness.search": _post_search,
}
