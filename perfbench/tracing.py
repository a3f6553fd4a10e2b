"""Span and count wrappers for a traced benchmark run.

Installed from the benchmark's own files, never from hermkq: each wrapped
function is rebound in every `hermkq.*` namespace (and module-level dict, such
as the CLI's dispatch table) that holds the same object, because `from .linalg
import invert` copies the binding.  Methods are wrapped on their class.

Kinds of wrapper:
  span   timed, kept on the call stack, and recorded as (name, start, end,
         parent) in memory; written out when the run ends;
  timed  timed and kept on the stack, but not recorded (hot methods, where a
         record per call would dominate the run);
  count  only counted;
  scan   counts what the all_matrices generator yields, and which of it a
         group search asked for;
  cap    keeps the largest size / cap that check_cap saw for each label.

Self time is a call's duration minus the time of the timed calls nested in it.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

perf = time.perf_counter

# (module, qualified name, kind); a qualified name with a dot is a method
TARGETS = [
    ("rings", "Ring.__eq__", "timed"),
    ("rings", "Ring.key", "count"),
    ("linalg", "Mat.__init__", "count"),
    ("linalg", "Mat.__eq__", "count"),
    ("linalg", "Mat.__mul__", "timed"),
    ("linalg", "invert", "span"),
    ("linalg", "all_matrices", "scan"),
    ("additive", "solve_affine", "span"),
    ("additive", "_solve_mod_p", "count"),
    ("additive", "MatSubgroup.__init__", "span"),
    ("additive", "MatSubgroup.contains", "count"),
    ("snf", "solve_mod", "span"),
    ("snf", "smith_normal_form", "span"),
    ("forms", "shift_subgroup", "span"),
    ("forms", "min_equal", "span"),
    ("groups", "enumerate_unitary", "span"),
    ("groups", "enumerate_orthogonal_min", "span"),
    ("groups", "el_elements", "span"),
    ("groups", "verify_group_axioms", "span"),
    ("groups", "extension_check", "span"),
    ("groups", "enumerate_group", "span"),
    ("groups", "check_min", "span"),
    ("groups", "whitehead_factorization", "span"),
    ("invariants", "witt_classify", "span"),
    ("invariants", "grothendieck_witt_monoid", "span"),
    ("invariants", "_min_class_reps", "span"),
    ("invariants", "_max_class_reps", "span"),
    ("invariants", "_orbits", "span"),
    ("invariants", "xi_group", "span"),
    ("invariants", "xi_char2_field", "span"),
    ("invariants", "gamma_lambda", "span"),
    ("invariants", "arf", "span"),
    ("invariants", "dickson", "span"),
    ("clauwens", "PolyQuadForm.nondegenerate", "span"),
    ("clauwens", "MatPoly.__mul__", "timed"),
    ("clauwens", "cup_product", "span"),
    ("clauwens", "kappa_nondegenerate", "span"),
    ("clauwens", "lemma2_shift", "span"),
    ("clauwens", "linearize", "span"),
    ("clauwens", "linearize_cup_soundness", "span"),
    ("clauwens", "lemma4_recursion", "span"),
    ("clauwens", "sqrt_one_plus_nu_t", "span"),
    ("clauwens", "_generated_subring", "span"),
    ("clauwens", "projector_conjugator", "span"),
    ("caps", "check_cap", "cap"),
    ("cli", "main", "span"),
    ("cli", "_emit", "span"),
] + [("cli", f"cmd_{c}", "span") for c in (
    "ring_check", "form_check", "group", "witt", "gw", "arf", "dickson", "xi",
    "whitehead", "clauwens")]

# metric -> span names whose self time it sums
SELF_TIMES = {
    "rings.eq_self_s": ["rings.Ring.__eq__"],
    "linalg.mat_mul_self_s": ["linalg.Mat.__mul__"],
    "linalg.invert_self_s": ["linalg.invert"],
    "additive.solve_self_s": ["additive.solve_affine"],
    "snf.self_s": ["snf.solve_mod", "snf.smith_normal_form"],
    "groups.enumerate_self_s": ["groups.enumerate_unitary", "groups.enumerate_orthogonal_min",
                                "groups.el_elements"],
    "groups.axioms_self_s": ["groups.verify_group_axioms"],
    "groups.extension_self_s": ["groups.extension_check"],
    "invariants.witt_self_s": ["invariants.witt_classify", "invariants.grothendieck_witt_monoid",
                               "invariants._min_class_reps", "invariants._max_class_reps",
                               "invariants._orbits"],
    "invariants.xi_self_s": ["invariants.xi_group", "invariants.xi_char2_field",
                             "invariants.gamma_lambda"],
    "clauwens.cup_product_self_s": ["clauwens.cup_product", "clauwens.kappa_nondegenerate"],
    "clauwens.linearize_self_s": ["clauwens.linearize", "clauwens.linearize_cup_soundness"],
    "clauwens.sqrt_self_s": ["clauwens.sqrt_one_plus_nu_t", "clauwens._generated_subring"],
    "clauwens.projector_self_s": ["clauwens.projector_conjugator"],
    "cli.emit_self_s": ["cli._emit"],
    "cli.dispatch_self_s": ["cli.main"] + [f"cli.{t[1]}" for t in TARGETS if t[1].startswith("cmd_")],
}
# metric -> span names whose inclusive time it sums
TOTAL_TIMES = {
    "additive.subgroup_build_s": ["additive.MatSubgroup.__init__"],
    "forms.shift_subgroup_build_s": ["forms.shift_subgroup"],
}
# metric -> call counter names
CALLS = {
    "rings.eq_calls": "rings.Ring.__eq__",
    "rings.key_calls": "rings.Ring.key",
    "linalg.mat_new": "linalg.Mat.__init__",
    "linalg.mat_mul_calls": "linalg.Mat.__mul__",
    "linalg.mat_eq_calls": "linalg.Mat.__eq__",
    "additive.contains_calls": "additive.MatSubgroup.contains",
    "snf.solve_mod_calls": "snf.solve_mod",
    "forms.shift_subgroup_calls": "forms.shift_subgroup",
    "forms.min_equal_calls": "forms.min_equal",
    "invariants.arf_calls": "invariants.arf",
    "invariants.dickson_calls": "invariants.dickson",
    "clauwens.nondegenerate_calls": "clauwens.PolyQuadForm.nondegenerate",
    "clauwens.matpoly_mul_calls": "clauwens.MatPoly.__mul__",
}
# check_cap labels reported as caps.peak_ratio.<label>
CAP_LABELS = ["matrix enumeration", "additive basis", "solution enumeration",
              "subgroup enumeration", "coset representative enumeration", "unit scan",
              "gamma_lambda scan", "xi generators"]
# scans attributed to the group searches when the innermost span is one of these
SCAN_OWNERS = ("groups.", "invariants.")
# solve_affine's path, told by which solver it actually called
SOLVE_PATHS = {"prime": "additive._solve_mod_p", "composite": "snf.solve_mod",
               "brute": "linalg.all_matrices"}
# metrics that are not sums of one table above -> the targets they are read off
DERIVED = {
    **{f"linalg.invert_calls.{p}": ["linalg.invert"] for p in ("field", "adjugate", "additive")},
    **{f"additive.solve_calls.{p}": ["additive.solve_affine", t] for p, t in SOLVE_PATHS.items()},
    "additive.solutions_enumerated": ["additive.solve_affine"],
    "linalg.scan_yielded": ["linalg.all_matrices"],
    "groups.candidates_scanned": ["linalg.all_matrices"],
    "groups.elements_accepted": ["groups.enumerate_unitary", "groups.enumerate_orthogonal_min",
                                 "invariants._max_class_reps"],
    "groups.accept_ratio": ["linalg.all_matrices", "groups.enumerate_unitary",
                            "groups.enumerate_orthogonal_min", "invariants._max_class_reps"],
    "clauwens.nondegenerate_per_form": ["clauwens.PolyQuadForm.nondegenerate"],
    **{"caps.peak_ratio." + label.replace(" ", "_"): ["caps.check_cap"] for label in CAP_LABELS},
}


def unit(metric):
    """The unit of a per-layer metric, read off its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_share", "_per_form")) or ".peak_ratio." in metric:
        return "ratio"
    return "count"


class Tracer:
    """Collects spans, self times and counts for one process."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.stack = []  # [name, start, child time, span index or None]
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = Counter()
        self.cap_peak = {}
        self.missing = []

    # -- wrappers ---------------------------------------------------------

    def _timed(self, name, fn, record):
        stack, spans = self.stack, self.spans
        counts, self_s, total_s = self.counts, self.self_s, self.total_s

        def wrapper(*args, **kwargs):
            counts[name] += 1
            idx = None
            if record:
                idx = len(spans)
                parent = next((f[3] for f in reversed(stack) if f[3] is not None), -1)
                spans.append([name, 0.0, 0.0, parent])
            frame = [name, perf(), 0.0, idx]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - frame[1]
                self_s[name] += dur - frame[2]
                total_s[name] += dur
                if stack:
                    stack[-1][2] += dur
                if idx is not None:
                    spans[idx][1] = frame[1]
                    spans[idx][2] = end
        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _scan(self, name, fn):
        counts, stack = self.counts, self.stack

        def wrapper(*args, **kwargs):
            counts[name] += 1
            for item in fn(*args, **kwargs):
                counts["linalg.scan_yielded"] += 1
                owner = next((f[0] for f in reversed(stack) if f[3] is not None), "")
                if owner.startswith(SCAN_OWNERS):
                    counts["groups.candidates_scanned"] += 1
                yield item
        return wrapper

    def _cap(self, name, fn, global_cap):
        peaks, counts = self.cap_peak, self.counts

        def wrapper(size, what, cap=None):
            counts[name] += 1
            limit = cap if cap is not None else global_cap()
            ratio = size / limit
            if ratio > peaks.get(what, 0.0):
                peaks[what] = ratio
            return fn(size, what, cap)
        return wrapper

    # -- installation -----------------------------------------------------

    def install(self, package):
        """Wrap every target in the imported `package` (hermkq) and its modules."""
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == package.__name__ or k.startswith(package.__name__ + "."))]
        for mod_name, qual, kind in TARGETS:
            module = sys.modules.get(f"{package.__name__}.{mod_name}")
            owner_name, _, attr = qual.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            orig = getattr(owner, attr, None) if owner is not None else None
            if orig is None:
                self.missing.append(f"{mod_name}.{qual}")
                continue
            name = f"{mod_name}.{qual}"
            if kind == "span":
                wrapped = self._timed(name, orig, record=True)
            elif kind == "timed":
                wrapped = self._timed(name, orig, record=False)
            elif kind == "scan":
                wrapped = self._scan(name, orig)
            elif kind == "cap":
                wrapped = self._cap(name, orig, getattr(module, "global_cap"))
            else:
                wrapped = self._count(name, orig)
            wrapped = self._extra(name, wrapped)
            if owner_name:
                setattr(owner, attr, wrapped)
                continue
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)
                    elif isinstance(val, dict):
                        for k2, v2 in list(val.items()):
                            if v2 is orig:
                                val[k2] = wrapped

    def _extra(self, name, wrapped):
        """Counters that read a call's arguments or result."""
        counts = self.counts
        if name == "linalg.invert":
            def invert(m, *args, **kwargs):
                ring = m.ring
                path = "field" if ring.is_field else "adjugate" if ring.is_commutative else "additive"
                counts[f"linalg.invert_calls.{path}"] += 1
                return wrapped(m, *args, **kwargs)
            return invert
        if name == "additive.solve_affine":
            def solve_affine(*args, **kwargs):
                before = {path: counts[t] for path, t in SOLVE_PATHS.items()}
                out = wrapped(*args, **kwargs)
                for path, t in SOLVE_PATHS.items():
                    if counts[t] != before[path]:
                        counts[f"additive.solve_calls.{path}"] += 1
                        break
                counts["additive.solutions_enumerated"] += len(out)
                return out
            return solve_affine
        if name in ("groups.enumerate_unitary", "groups.enumerate_orthogonal_min",
                    "invariants._max_class_reps"):
            def accepted(*args, **kwargs):
                out = wrapped(*args, **kwargs)
                counts["groups.elements_accepted"] += len(out)
                return out
            return accepted
        if name == "clauwens.PolyQuadForm.nondegenerate":
            def nondegenerate(form):
                if not getattr(form, "_perfbench_seen", False):
                    form._perfbench_seen = True
                    counts["clauwens.distinct_forms"] += 1
                return wrapped(form)
            return nondegenerate
        return wrapped

    # -- results ----------------------------------------------------------

    def needs(self):
        """Each per-layer metric -> the targets it is read off."""
        out = {m: names for table in (SELF_TIMES, TOTAL_TIMES) for m, names in table.items()}
        out.update((m, [name]) for m, name in CALLS.items())
        out.update(DERIVED)
        return out

    def dropped(self):
        """Metrics that rest on a target this hermkq no longer has."""
        return sorted(m for m, names in self.needs().items() if set(names) & set(self.missing))

    def metrics(self):
        """Per-layer metric values, by the names the benchmark declares; a
        metric whose target is missing is left out, not reported as 0."""
        out = {}
        for metric, names in SELF_TIMES.items():
            out[metric] = sum(self.self_s.get(n, 0.0) for n in names)
        for metric, names in TOTAL_TIMES.items():
            out[metric] = sum(self.total_s.get(n, 0.0) for n in names)
        for metric, name in CALLS.items():
            out[metric] = self.counts.get(name, 0)
        for path in ("field", "adjugate", "additive"):
            out[f"linalg.invert_calls.{path}"] = self.counts.get(f"linalg.invert_calls.{path}", 0)
        for path in ("prime", "brute", "composite"):
            out[f"additive.solve_calls.{path}"] = self.counts.get(f"additive.solve_calls.{path}", 0)
        out["additive.solutions_enumerated"] = self.counts.get("additive.solutions_enumerated", 0)
        out["linalg.scan_yielded"] = self.counts.get("linalg.scan_yielded", 0)
        scanned = self.counts.get("groups.candidates_scanned", 0)
        accepted = self.counts.get("groups.elements_accepted", 0)
        out["groups.candidates_scanned"] = scanned
        out["groups.elements_accepted"] = accepted
        out["groups.accept_ratio"] = accepted / scanned if scanned else 0.0
        forms = self.counts.get("clauwens.distinct_forms", 0)
        out["clauwens.nondegenerate_per_form"] = (
            self.counts.get("clauwens.PolyQuadForm.nondegenerate", 0) / forms if forms else 0.0)
        for label in CAP_LABELS:
            out["caps.peak_ratio." + label.replace(" ", "_")] = self.cap_peak.get(label, 0.0)
        dropped = set(self.dropped())
        return {m: v for m, v in out.items() if m not in dropped}

    def dump(self, path):
        """Write the spans and raw counters, one JSON document per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"counts": dict(self.counts), "self_s": dict(self.self_s),
                                 "cap_peak": self.cap_peak, "missing": self.missing},
                                sort_keys=True) + "\n")
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")
