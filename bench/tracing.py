"""Per-layer measurement from outside the package.

Two instruments, used in separate passes over the same inputs:

* ``Spans`` wraps hopfon's public functions at run time and records,
  per span name, the wall time inside the outermost call (inclusive),
  the part of it no other span covers (self time) and the call count.
  Nothing under ``src/`` changes: the wrappers replace module and class
  attributes and are removed by ``uninstall``.
* ``profile_counts`` reads call counts of chosen functions from a
  ``cProfile`` run.  Counts repeat exactly for the same inputs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pstats
import sys
import time

# span name -> the functions it wraps, as "module:qualname"
SPAN_TARGETS = {
    "scalars.relation_search": ["hopfon.scalars:find_relations",
                                "hopfon.normalform:eigenvalue_relation_lattice"],
    "group.compose": ["hopfon.group:GroupElt.compose"],
    "group.inverse": ["hopfon.group:GroupElt.inverse"],
    "group.eq": ["hopfon.group:GroupElt.__eq__"],
    "hopf.surface": ["hopfon.hopf:HopfSurface.diagonal", "hopfon.hopf:classify_surface"],
    "sections.line": ["hopfon.sections:line_bundle_sections"],
    "sections.proj": ["hopfon.sections:proj_bundle_sections"],
    "normalform.normal_form": ["hopfon.normalform:normal_form"],
    "devmaps.admissible": ["hopfon.devmaps:is_semiadmissible", "hopfon.devmaps:is_admissible"],
    "classify.enumerate": ["hopfon.classify:enumerate_structures"],
    "classify.brute_force": ["hopfon.classify:brute_force_admissible"],
    "verify.group_axioms": ["hopfon.verify:check_group_axioms"],
    "verify.equivariance": ["hopfon.verify:check_equivariance"],
    "verify.immersion": ["hopfon.verify:check_immersion"],
    "cli.main": ["hopfon.cli:main"],
}

# count name -> the functions whose calls it sums
COUNT_TARGETS = {
    "scalars.mul": ["hopfon.scalars:Scalar.__mul__"],
    "scalars.add": ["hopfon.scalars:Scalar.__add__"],
    "scalars.gauss_new": ["hopfon.scalars:GaussRat.__init__", "hopfon.scalars:GaussRat._raw"],
    "group.compose": ["hopfon.group:GroupElt.compose"],
    "group.precompose": ["hopfon.group:HomogPoly.precompose"],
    "normalform.normal_form": ["hopfon.normalform:normal_form"],
    "devmaps.admissible": ["hopfon.devmaps:is_semiadmissible", "hopfon.devmaps:is_admissible"],
    "devmaps.gcd": ["hopfon.devmaps:UniPoly.gcd"],
    "verify.eval": ["hopfon.devmaps:eval_devmap"],
}

# candidate maps the oracle tries: DevMap constructions made by the oracle itself
CANDIDATE = ("hopfon.devmaps:DevMap.__init__", "hopfon.classify:brute_force_admissible")


def _resolve(target):
    """(owner, attribute name, raw attribute, plain function) for "module:qualname"."""
    modname, qual = target.split(":")
    owner = importlib.import_module(modname)
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part)
    raw = inspect.getattr_static(owner, attr)
    func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
    return owner, attr, raw, func


def code_key(target):
    """The pstats key (file, first line, name) of a target function."""
    code = _resolve(target)[3].__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


class Spans:
    """Wall time per layer, from wrappers around the layer's public functions."""

    def __init__(self):
        self.total = dict.fromkeys(SPAN_TARGETS, 0.0)
        self.self_time = dict.fromkeys(SPAN_TARGETS, 0.0)
        self.calls = dict.fromkeys(SPAN_TARGETS, 0)
        self.oracle_classes = 0
        self._stack = []  # [span name, time covered by child spans]
        self._active = set()
        self._patched = []

    def _wrap(self, name, func):
        stack, active = self._stack, self._active
        clock = time.perf_counter

        @functools.wraps(func)
        def span(*args, **kwargs):
            if name in active:  # a layer calling itself is one span
                return func(*args, **kwargs)
            frame = [name, 0.0]
            active.add(name)
            stack.append(frame)
            t0 = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                active.discard(name)
                self.total[name] += dt
                self.self_time[name] += dt - frame[1]
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += dt
            if name == "classify.brute_force":
                self.oracle_classes += len(result)
            return result

        return span

    def install(self):
        for name, targets in SPAN_TARGETS.items():
            for target in targets:
                owner, attr, raw, func = _resolve(target)
                wrapped = self._wrap(name, func)
                if inspect.isclass(owner):
                    new = type(raw)(wrapped) if isinstance(raw, (classmethod, staticmethod)) else wrapped
                    self._patched.append((owner, attr, raw))
                    setattr(owner, attr, new)
                    continue
                # a module-level function is bound wherever it was imported
                for mod in list(sys.modules.values()):
                    if getattr(mod, "__dict__", {}).get(attr) is func:
                        self._patched.append((mod, attr, func))
                        setattr(mod, attr, wrapped)

    def uninstall(self):
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()


def profile_counts(profile):
    """Call counts from a cProfile.Profile: every COUNT_TARGETS entry, plus
    ``python.calls`` (all calls) and ``classify.candidates``."""
    stats = pstats.Stats(profile).stats
    calls = {key: entry[1] for key, entry in stats.items()}
    out = {
        name: sum(calls.get(code_key(t), 0) for t in targets)
        for name, targets in COUNT_TARGETS.items()
    }
    out["python.calls"] = sum(calls.values())
    callee, caller = (code_key(t) for t in CANDIDATE)
    # a callers entry is (calls, primitive calls, own time, total time)
    out["classify.candidates"] = stats.get(callee, (0, 0, 0, 0, {}))[4].get(caller, (0,))[0]
    return out
