"""Transfer systems on the subgroup lattice of a finite abelian group.

A transfer system is stored as per-target bitmasks: into[h] is the set of k
with an arrow k -> h.  Closure, validation, disk-likeness, inseparability
classes and the disk-like enumeration all operate on these masks.
"""

from __future__ import annotations

from .groups import GroupError
from .posets import FinitePoset

__all__ = [
    "TransferError",
    "NotDiskLikeError",
    "Violation",
    "TransferSystem",
    "InseparabilityPartition",
    "close",
    "validate",
    "is_disk_like",
    "inseparability_classes",
    "class_poset",
    "enumerate_disk_like",
    "parse_generator_lines",
    "generator_file_text",
]


class TransferError(GroupError):
    pass


class NotDiskLikeError(TransferError):
    pass


class Violation:
    """First failing axiom instance found by validate()."""

    def __init__(self, kind, triple, message):
        self.kind = kind
        self.triple = triple
        self.message = message

    def __repr__(self):
        return f"Violation({self.kind}: {self.message})"


def _meet_table(lattice):
    P = lattice.poset
    n = P.n
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            common = P.down[a] & P.down[b]
            # lattice: the common down-set has a unique maximal element
            m = common
            best = -1
            while m:
                j = (m & -m).bit_length() - 1
                m &= m - 1
                if common & ~P.down[j] == 0:
                    best = j
                    break
            if best < 0:
                raise TransferError("ambient poset is not a meet-semilattice")
            table[a][b] = table[b][a] = best
    return table


class TransferSystem:
    """Validated-by-construction family of arrows refining inclusion."""

    __slots__ = ("lattice", "into", "_meets")

    def __init__(self, lattice, into, meets=None):
        self.lattice = lattice
        self.into = tuple(into)
        self._meets = meets

    def meets(self):
        if self._meets is None:
            self._meets = _meet_table(self.lattice)
        return self._meets

    def has_arrow(self, k, h):
        return (self.into[h] >> k) & 1 == 1

    def arrows(self):
        out = []
        for h in range(len(self.into)):
            m = self.into[h]
            while m:
                k = (m & -m).bit_length() - 1
                m &= m - 1
                out.append((k, h))
        return out

    def nontrivial_arrows(self):
        return [(k, h) for (k, h) in self.arrows() if k != h]

    def generators_into_top(self):
        top = self.lattice.top_index()
        return [(k, top) for k in _bits(self.into[top]) if k != top]

    def key(self):
        return self.into

    def contains(self, other):
        return all(o & ~s == 0 for s, o in zip(self.into, other.into))

    def is_complete(self):
        P = self.lattice.poset
        return all(self.into[h] == P.down[h] for h in range(P.n))

    def __eq__(self, other):
        return (
            isinstance(other, TransferSystem)
            and self.lattice is other.lattice
            and self.into == other.into
        )

    def __hash__(self):
        return hash(self.into)

    def __repr__(self):
        return f"TransferSystem({len(self.nontrivial_arrows())} arrows)"


def _bits(mask):
    out = []
    while mask:
        j = (mask & -mask).bit_length() - 1
        mask &= mask - 1
        out.append(j)
    return out


def close(lattice, generator_pairs, meets=None):
    """Smallest transfer system containing the generators.

    Fixed-point iteration over reflexivity, transitivity and restriction
    (K -> H and L <= H force K ^ L -> L); conjugation is trivial for the
    abelian ambients this lattice type represents.
    """
    P = lattice.poset
    n = P.n
    into = [1 << h for h in range(n)]
    for (k, h) in generator_pairs:
        if not P.leq(k, h):
            raise TransferError(
                f"generator {lattice.label(k)} -> {lattice.label(h)} violates containment"
            )
        into[h] |= 1 << k
    meets = meets if meets is not None else _meet_table(lattice)
    down_lists = [_bits(P.down[h]) for h in range(n)]
    changed = True
    while changed:
        changed = False
        # transitivity: k -> h and j -> k give j -> h
        for h in range(n):
            row = into[h]
            acc = row
            m = row
            while m:
                k = (m & -m).bit_length() - 1
                m &= m - 1
                acc |= into[k]
            if acc != row:
                into[h] = acc
                changed = True
        # restriction
        for h in range(n):
            row = into[h] & ~(1 << h)
            if not row:
                continue
            ks = _bits(row)
            for l in down_lists[h]:
                if l == h:
                    continue
                add = 0
                ml = meets[l]
                for k in ks:
                    add |= 1 << ml[k]
                if add & ~into[l]:
                    into[l] |= add
                    changed = True
    system = TransferSystem(lattice, into, meets)
    report = validate(system)
    if report is not None:
        raise TransferError(f"closure produced an invalid system: {report}")
    return system


def validate(T):
    """None when all axioms hold, else the first Violation found."""
    P = T.lattice.poset
    n = P.n
    lab = T.lattice.label
    for h in range(n):
        if not (T.into[h] >> h) & 1:
            return Violation("reflexivity", (h,), f"missing {lab(h)} -> {lab(h)}")
        extra = T.into[h] & ~P.down[h]
        if extra:
            k = _bits(extra)[0]
            return Violation(
                "refinement", (k, h), f"{lab(k)} -> {lab(h)} but {lab(k)} is not a subgroup of {lab(h)}"
            )
    for h in range(n):
        for k in _bits(T.into[h]):
            if k != h and (T.into[k] >> h) & 1:
                return Violation("antisymmetry", (k, h), f"{lab(k)} <-> {lab(h)}")
            missing = T.into[k] & ~T.into[h]
            if missing:
                j = _bits(missing)[0]
                return Violation(
                    "transitivity",
                    (j, k, h),
                    f"{lab(j)} -> {lab(k)} -> {lab(h)} but no {lab(j)} -> {lab(h)}",
                )
    meets = T.meets()
    for h in range(n):
        ks = [k for k in _bits(T.into[h]) if k != h]
        if not ks:
            continue
        for l in _bits(P.down[h]):
            if l == h:
                continue
            for k in ks:
                kl = meets[k][l]
                if not (T.into[l] >> kl) & 1:
                    return Violation(
                        "restriction",
                        (k, h, l),
                        f"{lab(k)} -> {lab(h)} and {lab(l)} <= {lab(h)} force "
                        f"{lab(kl)} -> {lab(l)}, which is missing",
                    )
    return None


def is_disk_like(T):
    """True iff T is the closure of its own arrows into the full group."""
    report = validate(T)
    if report is not None:
        raise TransferError(f"system does not validate: {report.message}")
    regenerated = close(T.lattice, T.generators_into_top(), meets=T.meets())
    return regenerated.into == T.into


class InseparabilityPartition:
    """Subgroups grouped by identical up-sets inside Sub_G^O."""

    def __init__(self, system, classes, representatives):
        self.system = system
        self.classes = classes  # list of sorted index lists
        self.representatives = representatives  # class -> index of max element
        self._rep_to_class = {r: i for i, r in enumerate(representatives)}

    def class_of_representative(self, rep):
        try:
            return self._rep_to_class[rep]
        except KeyError:
            raise TransferError(
                f"{self.system.lattice.label(rep)} is not a class representative"
            ) from None

    def __len__(self):
        return len(self.classes)


def inseparability_classes(T):
    """Partition by containment fingerprints over Sub_G^O = arrows into G.

    For abelian ambients |(G/L)^J| = |G/L| . [J <= L], so two subgroups are
    inseparable exactly when they lie below the same members of Sub_G^O.
    The literal coset count survives as a test oracle.
    """
    report = validate(T)
    if report is not None:
        raise TransferError(f"system does not validate: {report.message}")
    P = T.lattice.poset
    n = P.n
    top = T.lattice.top_index()
    sub_o = T.into[top]
    groups = {}
    for j in range(n):
        fp = P.up[j] & sub_o
        groups.setdefault(fp, []).append(j)
    classes = [sorted(v) for v in groups.values()]
    classes.sort()
    reps = []
    for members in classes:
        mask = 0
        for j in members:
            mask |= 1 << j
        maximal = [j for j in members if mask & ~P.down[j] == 0]
        if len(maximal) != 1:
            raise TransferError(
                "inseparability class lacks a unique maximal element"
            )
        rep = maximal[0]
        if not (T.into[top] >> rep) & 1:
            raise TransferError(
                f"class representative {T.lattice.label(rep)} has no arrow into the full group"
            )
        reps.append(rep)
    order = sorted(range(len(classes)), key=lambda c: reps[c])
    classes = [classes[c] for c in order]
    reps = [reps[c] for c in order]
    return InseparabilityPartition(T, classes, reps)


def class_poset(partition, rep):
    """Induced inclusion poset on the class with the given representative."""
    c = partition.class_of_representative(rep)
    members = partition.classes[c]
    lattice = partition.system.lattice
    return lattice.poset.restrict(members)


def enumerate_disk_like(lattice, max_subgroups=16):
    """All disk-like systems, with their inclusion poset.

    Closures of all subsets of {H -> G : H < G}, deduplicated by the arrow
    masks; by definition of disk-likeness this is exhaustive.
    """
    n = lattice.n
    if n > max_subgroups:
        raise TransferError(
            f"disk-like enumeration budget exceeded: {n} > {max_subgroups} subgroups"
        )
    top = lattice.top_index()
    proper = [h for h in range(n) if h != top]
    meets = _meet_table(lattice)
    seen = {}
    from itertools import combinations

    for r in range(len(proper) + 1):
        for subset in combinations(proper, r):
            gens = [(k, top) for k in subset]
            system = close(lattice, gens, meets=meets)
            seen.setdefault(system.key(), system)
    systems = [seen[k] for k in sorted(seen)]
    labels = [f"O{i}" for i in range(len(systems))]
    up = []
    for a, sa in enumerate(systems):
        row = 0
        for b, sb in enumerate(systems):
            if sb.contains(sa):
                row |= 1 << b
        up.append(row)
    poset = FinitePoset(len(systems), labels, up, validate=False)
    return systems, poset


# ---------------------------------------------------------------------------
# Generator file format
# ---------------------------------------------------------------------------


def parse_generator_lines(text, lattice):
    """Lines `gen: <label> -> <label>`, labels as printed by the lattice."""
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not line.startswith("gen:"):
            raise TransferError(f"line {lineno}: expected `gen: K -> H`")
        body = line[len("gen:") :]
        parts = [p.strip() for p in body.split("->")]
        if len(parts) != 2 or not all(parts):
            raise TransferError(f"line {lineno}: expected `gen: K -> H`")
        k = lattice.index_of_label(parts[0])
        h = lattice.index_of_label(parts[1])
        pairs.append((k, h))
    return pairs


def generator_file_text(lattice, pairs):
    lines = [f"gen: {lattice.label(k)} -> {lattice.label(h)}" for k, h in pairs]
    return "\n".join(lines) + ("\n" if lines else "")


def fixed_point_count_oracle(T, j, l):
    """|(G/L)^J| computed literally from cosets (element-set engine)."""
    from .groups import subgroup_elements

    lattice = T.lattice
    G = lattice.group
    J = lattice.subgroups[j]
    L = lattice.subgroups[l]
    j_elems = subgroup_elements(J)
    l_elems = subgroup_elements(L)
    from .groups import group_elements

    k = G.k
    cosets = set()
    for g in group_elements(G):
        coset = frozenset(
            tuple((g[i] + x[i]) % G.moduli[i] for i in range(k)) for x in l_elems
        )
        cosets.add(coset)
    count = 0
    for coset in cosets:
        rep = next(iter(coset))
        fixed = all(
            tuple((rep[i] + a[i]) % G.moduli[i] for i in range(k)) in coset
            for a in j_elems
        )
        if fixed:
            count += 1
    return count
