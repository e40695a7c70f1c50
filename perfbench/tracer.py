"""Per-layer spans and counts, recorded from outside factoreq.

``Tracer.install`` replaces each public function of every factoreq module,
at every name it is bound to (``lattices`` holds ``from .intmat import
mat_mul``, so patching ``factoreq.intmat`` alone would miss those calls),
plus a few methods, with a wrapper that records a span.  ``uninstall``
puts the originals back.  Nothing under ``src/`` changes.

A span's self time is its duration minus the durations of its direct
children; self times are summed into one bucket per (layer, kind), so the
buckets of a pass add up to the time spent inside ``cli.run``.
"""

import inspect
import json
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "factoreq"
LAYERS = ("groups", "relations", "intmat", "lattices", "factorisable",
          "checker", "cli")

# Bucket of each wrapped callable, by "module.qualname".  Public functions
# not listed here go to "<layer>.other_s".
BUCKETS = {
    "groups.Group.__init__": "groups.build_s",
    "groups.group_from_generators": "groups.build_s",
    "groups.cyclic_group": "groups.build_s",
    "groups.elementary_abelian_group": "groups.build_s",
    "groups.dihedral_group": "groups.build_s",
    "groups.quaternion_group": "groups.build_s",
    "groups.heisenberg_group": "groups.build_s",
    "groups.direct_product": "groups.build_s",
    "groups.semidirect_product": "groups.build_s",
    "groups.standard_group": "groups.build_s",
    "groups.quotient_group": "groups.build_s",
    "groups.subgroup_as_group": "groups.build_s",
    "groups.Group.all_subgroups": "groups.subgroups_s",
    "groups.Group.subgroup_classes": "groups.subgroups_s",
    "groups.subquotients_of_type": "groups.subquotients_s",
    "groups.make_subquotient": "groups.subquotients_s",
    "relations.permutation_character": "relations.perm_char_s",
    "relations.relation_basis": "relations.basis_s",
    "relations.bouc_generators": "relations.bouc_gen_s",
    "relations.induce_inflate": "relations.bouc_gen_s",
    "relations.induce_relation": "relations.bouc_gen_s",
    "relations.spans_match": "relations.span_s",
    "relations.relation_span_basis": "relations.span_s",
    "intmat.hermite_normal_form": "intmat.hnf_s",
    "intmat.kernel_basis": "intmat.kernel_s",
    "intmat.bareiss_determinant": "intmat.det_s",
    "intmat.fraction_determinant": "intmat.det_s",
    "intmat.is_positive_definite": "intmat.det_s",
    "intmat.mat_mul": "intmat.matmul_s",
    "intmat.solve_exact": "intmat.solve_s",
    "intmat.sublattice_index": "intmat.solve_s",
    "lattices.GLattice.__init__": "lattices.construct_s",
    "lattices.trivial_lattice": "lattices.construct_s",
    "lattices.coset_lattice": "lattices.construct_s",
    "lattices.regular_lattice": "lattices.construct_s",
    "lattices.cyclic_quotient_lattice": "lattices.construct_s",
    "lattices.augmentation_lattice": "lattices.construct_s",
    "lattices.direct_sum": "lattices.construct_s",
    "lattices.inflate_lattice": "lattices.construct_s",
    "lattices.restrict_lattice": "lattices.construct_s",
    "lattices.GLattice.materialized": "lattices.materialize_s",
    "lattices.averaged_pairing": "lattices.pairing_s",
    "lattices.Pairing.__init__": "lattices.pairing_s",
    "lattices.fixed_sublattice": "lattices.fixed_s",
    "lattices.regulator_constant": "lattices.regconst_s",
    "lattices.tower_target_constant": "lattices.regconst_s",
    "lattices.index_ratio_check": "lattices.index_s",
    "factorisable.abelian_characters": "factorisable.characters_s",
    "factorisable.character_kernel": "factorisable.characters_s",
    "factorisable.function_from_character_data": "factorisable.characters_s",
    "factorisable.divisions": "factorisable.quotient_s",
    "factorisable.division_transform": "factorisable.quotient_s",
    "factorisable.factorisable_quotient": "factorisable.quotient_s",
    "factorisable.is_factorisable_abelian": "factorisable.decide_s",
    "checker.ArithmeticProfile.__init__": "checker.profile_s",
    "checker.minkowski_factor_check": "checker.verdict_s",
    "checker.p_part_factor_check": "checker.verdict_s",
    "checker.bouc_condition_check": "checker.verdict_s",
    "checker.brauer_kuroda_residual": "checker.verdict_s",
    "checker.unit_regulator_constant": "checker.verdict_s",
    "cli.parse_group_spec": "cli.parse_s",
    "cli.parse_lattice_expr": "cli.parse_s",
    "cli.parse_profile": "cli.parse_s",
    "cli.profile_from_data": "cli.parse_s",
    "cli._load_value_table": "cli.parse_s",
    "cli.Report.render": "cli.render_s",
    "cli.run": "cli.run_s",
}

# Methods and private functions wrapped besides the public functions.
EXTRA = {
    "groups": ("Group.__init__", "Group.all_subgroups",
               "Group.subgroup_classes", "Group.element_classes"),
    "lattices": ("GLattice.__init__", "GLattice.materialized",
                 "Pairing.__init__"),
    "factorisable": ("SubgroupFunction.__init__",),
    "checker": ("ArithmeticProfile.__init__",),
    "cli": ("_load_value_table", "Report.render"),
}

# Cached getters: a call that finds the cache full does no work and opens
# no span.  Maps the wrapped name to the attribute that holds the cache.
CACHED = {
    "groups.Group.subgroup_classes": "_subgroup_classes",
    "groups.Group.element_classes": "_element_classes",
    "lattices.GLattice.materialized": "_materialized",
}

TIME_METRICS = sorted(set(BUCKETS.values()) | {
    f"{layer}.other_s" for layer in LAYERS})
COUNT_METRICS = (
    "groups.all_subgroups_calls", "groups.subgroup_classes_total",
    "relations.perm_char_calls", "relations.generators",
    "intmat.hnf_calls", "intmat.hnf_max_rows",
    "intmat.hnf_discarded_transform_cells", "intmat.det_calls",
    "intmat.matmul_calls", "lattices.materialized_matrices",
    "lattices.max_rank")


def _targets():
    """(layer, qualified name, owner, attribute, original) to wrap."""
    out = []
    for layer in LAYERS:
        module = sys.modules[f"{PACKAGE}.{layer}"]
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == module.__name__):
                out.append((layer, name, module, name, obj))
        for dotted in EXTRA.get(layer, ()):
            owner, _, attr = dotted.rpartition(".")
            holder = getattr(module, owner) if owner else module
            out.append((layer, dotted, holder, attr, vars(holder)[attr]))
    return out


class Tracer:
    """Records spans while installed; one instance per traced pass."""

    def __init__(self):
        self.spans = []            # (command, span id, parent id, name, start, end)
        self.buckets = defaultdict(float)
        self.counts = Counter()
        self.command = None
        self._stack = []           # [span id, start, child seconds, name]
        self._perm_keys = set()
        self._alive = {}           # keeps keyed groups alive for one command
        self._patches = []

    # -- installation ---------------------------------------------------------

    def install(self):
        wrappers = {}
        for layer, name, holder, attr, original in _targets():
            key = f"{layer}.{name}"
            bucket = BUCKETS.get(key, f"{layer}.other_s")
            wrappers[original] = self._wrap(key, bucket, original)
            if inspect.isclass(holder):
                self._patches.append((holder, attr, original))
                setattr(holder, attr, wrappers[original])
        # Every binding site: rebind the same function object wherever a
        # factoreq module (or the package itself) imported it.
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self):
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches = []

    def begin_command(self, index):
        self.command = index
        self._alive = {}

    # -- spans ----------------------------------------------------------------

    def _wrap(self, key, bucket, original):
        tracer = self
        cache_attr = CACHED.get(key)
        enter = getattr(self, "_enter_" + key.replace(".", "_"), None)
        leave = getattr(self, "_leave_" + key.replace(".", "_"), None)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if cache_attr and getattr(args[0], cache_attr) is not None:
                return original(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else (None, 0.0, 0.0, None)
            span_id = len(tracer.spans)
            tracer.spans.append(None)
            if enter:
                enter(args, parent[3])
            frame = [span_id, clock(), 0.0, key]
            stack.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                tracer.buckets[bucket] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                tracer.spans[span_id] = (tracer.command, span_id, parent[0],
                                         key, frame[1], end)
            if leave:
                leave(args, result)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = original.__name__
        return wrapper

    # -- counts at the boundaries -------------------------------------------

    def _leave_groups_Group_all_subgroups(self, args, result):
        self.counts["groups.all_subgroups_calls"] += 1

    def _leave_groups_Group_subgroup_classes(self, args, result):
        self.counts["groups.subgroup_classes_total"] += len(result)

    def _leave_relations_permutation_character(self, args, result):
        group, spec = args[0], args[1]
        if isinstance(spec, str):
            spec = group.class_by_label(spec)
        index = spec if isinstance(spec, int) else spec.index
        # a live group's id is not reused, so (command, id) names one group
        self._alive[id(group)] = group
        self.counts["relations.perm_char_calls"] += 1
        self._perm_keys.add((self.command, id(group), index))

    def _leave_relations_bouc_generators(self, args, result):
        self.counts["relations.generators"] += len(result)

    def _enter_intmat_hermite_normal_form(self, args, parent):
        rows = len(args[0])
        self.counts["intmat.hnf_calls"] += 1
        self.counts["intmat.hnf_max_rows"] = max(
            self.counts["intmat.hnf_max_rows"], rows)
        if parent == "intmat.row_span_basis":
            # row_span_basis keeps H and throws the m x m transform away
            self.counts["intmat.hnf_discarded_transform_cells"] += rows * rows

    def _leave_intmat_bareiss_determinant(self, args, result):
        self.counts["intmat.det_calls"] += 1

    _leave_intmat_is_positive_definite = _leave_intmat_bareiss_determinant

    def _leave_intmat_mat_mul(self, args, result):
        self.counts["intmat.matmul_calls"] += 1

    def _leave_lattices_GLattice_materialized(self, args, result):
        lattice = args[0]
        self.counts["lattices.materialized_matrices"] += len(result)
        self.counts["lattices.max_rank"] = max(
            self.counts["lattices.max_rank"], lattice.rank)

    # -- results ----------------------------------------------------------------

    def metrics(self):
        out = {name: self.buckets.get(name, 0.0) for name in TIME_METRICS}
        for layer in LAYERS:
            out[f"{layer}.total_s"] = sum(
                value for name, value in self.buckets.items()
                if name.startswith(layer + "."))
        for name in COUNT_METRICS:
            out[name] = self.counts.get(name, 0)
        out["trace.spans"] = len(self.spans)
        calls = self.counts["relations.perm_char_calls"]
        out["relations.perm_char_distinct_ratio"] = (
            len(self._perm_keys) / calls if calls else 1.0)
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                command, span_id, parent, name, start, end = span
                handle.write(json.dumps(
                    {"command": command, "id": span_id, "parent": parent,
                     "name": name, "start": start, "end": end}) + "\n")
