"""Per-layer tracing of the bfunc pipeline from outside the package.

Tracer.install() replaces every binding of the traced functions with a timing
wrapper: the module attribute, every `from .x import f` copy in another bfunc
module, and every default argument that captured the function when its module
was imported (groebner's `mul=op_mul`).  Patching only the defining module
would miss those calls.  uninstall() puts the originals back.

Spans nest: a span's self time is its duration minus the time of the traced
spans it directly encloses.  Spans are aggregated by name in memory; writing
every op_mul span out would cost more than the calls themselves.
"""

import functools
import sys
import time
import types

# module -> public functions traced in it.  Small helpers called once per
# loop iteration (ecart, mono_div, accuracy_schedule) are left out: their
# time lands in the caller's self time.
TRACED = {
    "weyl": ("op_mul", "apply_to_fs"),
    "groebner": ("buchberger_global", "reduce_global", "buchberger_mora",
                 "groebner_lazard", "mora_div", "spair"),
    "localb": ("local_b_function", "ann_fs", "find_generator", "approx_nf",
               "dependency_kernel", "rational_roots"),
    "opdiv": ("op_approx_div",),
    "staircase": ("series_approx_div",),
    "linalg": ("nullspace",),
}


def _span_name(module, func, parent):
    """mora_div is split by caller: certification inside find_generator, or
    S-pair reduction inside Buchberger."""
    if func == "mora_div":
        return "groebner.mora_div." + ("cert" if parent == "localb.find_generator" else "gb")
    return f"{module}.{func}"


class Stat:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Call counts, total and self time per span name, plus work counters.

    They accumulate over every install() until reset()."""

    def __init__(self):
        self._stack = []
        self._swap = {}
        self._restore = []
        self.reset()

    def reset(self):
        self.stats = {}
        self.counts = dict.fromkeys(
            ("weyl.op_mul.term_pairs", "linalg.nullspace.cells", "opdiv.levels",
             "localb.n_final", "localb.nf_needed", "groebner.pair_attempts",
             "groebner.pair_useful"), 0)
        self._stack.clear()
        self._last_spair = None

    # -- work counters, called after each traced call ------------------------

    def _count(self, func, args, kwargs, result):
        counts = self.counts
        if func == "op_mul":
            counts["weyl.op_mul.term_pairs"] += len(args[0].terms) * len(args[1].terms)
        elif func == "nullspace":
            ncols = args[1] if len(args) > 1 else kwargs["ncols"]
            counts["linalg.nullspace.cells"] += len(args[0]) * ncols
        elif func == "op_approx_div":
            counts["opdiv.levels"] += len(result.schedule)
        elif func == "find_generator":
            coeffs, n_final, _ = result
            counts["localb.n_final"] += n_final
            # normal forms of 1, s, ..., s^deg at the final bound
            counts["localb.nf_needed"] += len(coeffs)
        elif func == "spair":
            self._last_spair = result
        elif func in ("reduce_global", "mora_div") and args[0] is self._last_spair:
            self._last_spair = None
            rem = result if func == "reduce_global" else result.remainder
            counts["groebner.pair_attempts"] += 1
            counts["groebner.pair_useful"] += bool(rem.terms)

    def _wrap(self, module, func, fn):
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            name = _span_name(module, func, parent[0] if parent else None)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if parent is not None:
                    parent[1] += dt
                st = tracer.stats.get(name)
                if st is None:
                    st = tracer.stats[name] = Stat()
                st.calls += 1
                st.total_s += dt
                st.self_s += dt - frame[1]
            tracer._count(func, args, kwargs, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    # -- installing over every binding ---------------------------------------

    def _swapped(self, value):
        if isinstance(value, types.FunctionType):
            return self._swap.get(value, value)
        return value

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        self._stack.clear()
        self._swap = {}
        for module, funcs in TRACED.items():
            mod = sys.modules[f"bfunc.{module}"]
            for func in funcs:
                fn = getattr(mod, func)
                self._swap[fn] = self._wrap(module, func, fn)
        # defaults first: once a namespace entry is swapped, the original
        # function is no longer reachable from the module.
        for fn in _all_functions(self._swap):
            for attr in ("__defaults__", "__kwdefaults__"):
                old = getattr(fn, attr)
                if not old:
                    continue
                if attr == "__defaults__":
                    new = tuple(self._swapped(v) for v in old)
                else:
                    new = {k: self._swapped(v) for k, v in old.items()}
                if new != old:
                    setattr(fn, attr, new)
                    self._restore.append((fn.__setattr__, attr, old))
        for mod in _bfunc_modules():
            ns = vars(mod)
            for key, value in list(ns.items()):
                new = self._swapped(value)
                if new is not value:
                    ns[key] = new
                    self._restore.append((ns.__setitem__, key, value))

    def uninstall(self):
        for setter, key, old in reversed(self._restore):
            setter(key, old)
        self._restore = []

    def missed_bindings(self):
        """Places that still hold an unwrapped traced function (should be none)."""
        def original(v):
            return isinstance(v, types.FunctionType) and v in self._swap

        missed = []
        for mod in _bfunc_modules():
            missed += [f"{mod.__name__}.{key}" for key, value in vars(mod).items()
                       if original(value)]
        for fn in _all_functions(self._swap):
            values = list(fn.__defaults__ or ()) + list((fn.__kwdefaults__ or {}).values())
            if any(original(v) for v in values):
                missed.append(f"{fn.__module__}.{fn.__qualname__} default")
        return missed

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def _bfunc_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "bfunc" or name.startswith("bfunc.")]


def _all_functions(extra=()):
    """Functions defined at module level and as methods of classes in bfunc,
    plus `extra`."""
    seen = set(extra)
    out = list(extra)
    for mod in _bfunc_modules():
        for value in list(vars(mod).values()):
            members = [value]
            if isinstance(value, type) and value.__module__ == mod.__name__:
                members = [getattr(m, "__func__", m) for m in vars(value).values()]
            for fn in members:
                if isinstance(fn, types.FunctionType) and fn not in seen:
                    seen.add(fn)
                    out.append(fn)
    return out
