"""Outside-in tracing of koszul-lab: wrappers around the calls into each layer.

No file of the program changes.  `install()` replaces, in every loaded
koszul_lab module, each binding of the functions a layer offers the others
(its `__all__`, the private helpers other modules import) with a wrapper, and
wraps the methods of Poly, FreeMap, SubmoduleBasis and IdealBasis on the
class.  Callers bind names with `from .x import f`, so a wrapper must replace
every module's binding, not only the defining one.

Each wrapped call counts once under its name.  Self time is a call's
duration minus the time its wrapped callees cover, summed per layer.  A span
(name, start, end, parent span, op id) is kept in memory for every call that
enters a layer other than its caller's, except arith calls: those are leaf
calls numbering in the hundreds of thousands, so they are counted and timed
but not logged one by one.  `Recorder.dump` writes all of it out at exit.

Run the CLI under tracing (one invocation, in-process):

    python3 perfbench/tracer.py --out FILE -- admissible --input doc.json
"""

import json
import sys
import time
from array import array

LAYERS = ("arith", "groebner", "modcalc", "cube", "koszul", "resolve", "cli")
CLASSES = {"arith": ("Poly",), "groebner": ("SubmoduleBasis", "IdealBasis"),
           "modcalc": ("FreeMap",)}
PRIVATE = {"modcalc": ("_graph_coordinates",), "cube": ("_h0_modcube", "_mod_injective"),
           "resolve": ("_lift_cube",)}

# Named groups of calls whose count and inclusive time are reported.
GROUPS = {
    "groebner.syzygies": ("groebner.syzygies",),
    "groebner.nf": ("groebner.IdealBasis.nf", "groebner.SubmoduleBasis.nf_vector",
                    "groebner.IdealBasis.contains", "groebner.SubmoduleBasis.contains_vector",
                    "groebner.IdealBasis.contains_one", "groebner.normal_form",
                    "groebner.ideal_membership"),
    "groebner.ideal_ops": ("groebner.ideal_quotient", "groebner.module_quotient",
                           "groebner.ideal_intersection", "groebner.radical_membership",
                           "groebner.grade"),
    "arith.parse": ("arith.parse_poly",),
    "modcalc.graph_coords": ("modcalc._graph_coordinates",),
    "modcalc.compose": ("modcalc.FreeMap.compose", "modcalc.FreeMap.__matmul__"),
    "modcalc.homology": ("modcalc.homology",),
    "modcalc.fitting": ("modcalc.fitting_ideal",),
    "cube.mod_injective": ("cube._mod_injective",),
    "cube.h0": ("cube._h0_modcube",),
    "cube.total_complex": ("cube.total_complex",),
    "koszul.a_sequence": ("koszul.is_A_sequence",),
    "resolve.lift": ("resolve._lift_cube",),
    "resolve.check": ("resolve.check_resolution",),
    "cli.main": ("cli.main",),
}


class Recorder:
    """Counts, self times and spans of wrapped calls, all kept in memory."""

    def __init__(self):
        self.names = []
        self.layer_of = []
        self.group_of = []
        self.calls = []
        self.self_s = [0.0] * len(LAYERS)
        self.groups = list(GROUPS)
        self.group_calls = [0] * len(self.groups)
        self.group_s = [0.0] * len(self.groups)
        self.group_depth = [0] * len(self.groups)
        # open frames: [name id, start, time covered by wrapped callees, span index]
        self.stack = []
        self.op = -1
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_op = array("l")

    def register(self, name):
        layer = name.split(".", 1)[0]
        self.names.append(name)
        self.layer_of.append(LAYERS.index(layer))
        group = next((i for i, g in enumerate(self.groups) if name in GROUPS[g]), -1)
        self.group_of.append(group)
        self.calls.append(0)
        return len(self.names) - 1

    def wrap(self, fn, name):
        nid = self.register(name)
        layer = self.layer_of[nid]
        group = self.group_of[nid]
        logged = LAYERS[layer] != "arith"
        stack = self.stack
        calls = self.calls
        clock = time.perf_counter
        rec = self

        def traced(*args, **kwargs):
            calls[nid] += 1
            parent = stack[-1] if stack else None
            span = -1
            if logged and (parent is None or rec.layer_of[parent[0]] != layer):
                span = len(rec.span_name)
                rec.span_name.append(nid)
                rec.span_parent.append(_enclosing_span(stack))
                rec.span_op.append(rec.op)
                rec.span_start.append(0.0)
                rec.span_end.append(0.0)
            if group >= 0:
                rec.group_depth[group] += 1
            frame = [nid, 0.0, 0.0, span]
            stack.append(frame)
            frame[1] = start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                rec.self_s[layer] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if span >= 0:
                    rec.span_start[span] = start
                    rec.span_end[span] = end
                if group >= 0:
                    rec.group_depth[group] -= 1
                    if rec.group_depth[group] == 0:
                        rec.group_calls[group] += 1
                        rec.group_s[group] += dur

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def summary(self):
        """Per-name call counts, per-layer self time and per-group figures."""
        return {
            "calls": {n: c for n, c in zip(self.names, self.calls) if c},
            "layer_calls": {lay: sum(c for c, li in zip(self.calls, self.layer_of) if li == i)
                            for i, lay in enumerate(LAYERS)},
            "self_s": dict(zip(LAYERS, self.self_s)),
            "group_calls": dict(zip(self.groups, self.group_calls)),
            "group_s": dict(zip(self.groups, self.group_s)),
        }

    def dump(self, path, extra=None):
        doc = dict(self.summary(), **(extra or {}))
        doc["span_names"] = self.names
        doc["spans"] = [list(t) for t in zip(self.span_name, self.span_start, self.span_end,
                                             self.span_parent, self.span_op)]
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _enclosing_span(stack):
    for frame in reversed(stack):
        if frame[3] >= 0:
            return frame[3]
    return -1


def install(rec):
    """Wrap every layer boundary of the loaded koszul_lab modules."""
    import importlib
    modules = {lay: importlib.import_module(f"koszul_lab.{lay}") for lay in LAYERS
               if lay != "cli" or "koszul_lab.cli" in sys.modules}
    replace = {}
    for lay, mod in modules.items():
        names = [n for n in getattr(mod, "__all__", ()) if callable(getattr(mod, n))
                 and not isinstance(getattr(mod, n), type)]
        names += PRIVATE.get(lay, ())
        for n in names:
            fn = getattr(mod, n)
            replace[id(fn)] = (fn, rec.wrap(fn, f"{lay}.{n}"))
        for cname in CLASSES.get(lay, ()):
            _wrap_class(rec, getattr(mod, cname), f"{lay}.{cname}")
    holders = [m for name, m in sys.modules.items()
               if m is not None and (name == "koszul_lab" or name.startswith("koszul_lab."))]
    for m in holders:
        for attr, value in list(vars(m).items()):
            hit = replace.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(m, attr, hit[1])


def _wrap_class(rec, cls, prefix):
    for attr, value in list(vars(cls).items()):
        name = f"{prefix}.{attr}"
        if isinstance(value, staticmethod):
            setattr(cls, attr, staticmethod(rec.wrap(value.__func__, name)))
        elif isinstance(value, classmethod):
            setattr(cls, attr, classmethod(rec.wrap(value.__func__, name)))
        elif isinstance(value, property):
            setattr(cls, attr, property(rec.wrap(value.fget, name), value.fset, value.fdel,
                                        value.__doc__))
        elif callable(value) and not isinstance(value, type):
            setattr(cls, attr, rec.wrap(value, name))


def run_cli(out, argv):
    """One traced CLI invocation: time the import, wrap, call the click entry
    point in-process, and write the recorder out before exiting with its code."""
    t0 = time.perf_counter()
    import koszul_lab.cli as cli
    import_s = time.perf_counter() - t0
    rec = Recorder()
    install(rec)
    main = rec.wrap(cli.main.main, "cli.main")
    rec.op = 0
    code = 0
    try:
        main(args=argv, prog_name="koszul-lab", standalone_mode=True)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else (0 if e.code is None else 1)
    finally:
        sys.stdout.flush()
        rec.dump(out, {"import_s": import_s})
    return code


if __name__ == "__main__":
    args = sys.argv[1:]
    if len(args) < 3 or args[0] != "--out" or args[2] != "--":
        sys.exit("usage: tracer.py --out FILE -- CLI-ARGS...")
    sys.exit(run_cli(args[1], args[3:]))
