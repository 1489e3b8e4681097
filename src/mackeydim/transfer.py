"""Transfer systems on the subgroup lattice of a finite abelian group.

A transfer system is stored as per-target bitmasks: into[h] is the set of k
with an arrow k -> h.  Closure, validation, disk-likeness, inseparability
classes and the disk-like enumeration all operate on these masks.  Each
meet is read where it is used, off the lattice's down masks (_meet).

A disk-like system is the one generated by its arrows into G.  The sources
of those arrows form a family S of subgroups that contains G and is closed
under meets; every such S arises, and the system is read off S in closed
form: into[h] = {s ^ h : s in S} (system_of_family).  The enumeration walks
these families; `close` serves generator files, which may name any arrow.
The walk and the enumerated systems read each meet image {h ^ s : s in S}
off one table per lattice (_meet_images): two list lookups, one per half
of the mask S, in place of a loop over the members of S.  The inclusion
order of the enumerated systems is read the same way, off the mask of the
systems whose family lacks h, for each subgroup h.
"""

from __future__ import annotations

from .groups import BudgetExceededError, GroupError
from .posets import FinitePoset, mask_indices, union_lookup

__all__ = [
    "TransferError",
    "NotDiskLikeError",
    "Violation",
    "TransferSystem",
    "InseparabilityPartition",
    "close",
    "validate",
    "system_of_family",
    "require_disk_like",
    "inseparability_classes",
    "class_poset",
    "enumerate_disk_like",
    "parse_generator_lines",
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


def _meet(down, a, b):
    """a ^ b: the highest set bit of down[a] & down[b].

    Subgroups are sorted by order, so the meet, which lies above the whole
    common down-set, is its highest-index member.
    """
    common = down[a] & down[b]
    best = common.bit_length() - 1
    if best < 0 or common & ~down[best]:
        raise TransferError("ambient poset is not a meet-semilattice")
    return best


class TransferSystem:
    """Validated-by-construction family of arrows refining inclusion.

    `validated` is set once validate() has passed on the system (close does
    it), so require_disk_like does not repeat it.
    """

    __slots__ = ("lattice", "into", "validated")

    def __init__(self, lattice, into):
        self.lattice = lattice
        self.into = tuple(into)
        self.validated = False

    def arrows(self):
        return [(k, h) for h, row in enumerate(self.into) for k in mask_indices(row)]

    def nontrivial_arrows(self):
        return [(k, h) for (k, h) in self.arrows() if k != h]

    def generators_into_top(self):
        top = self.lattice.top_index()
        return [(k, top) for k in mask_indices(self.into[top]) if k != top]

    def contains(self, other):
        return all(o & ~s == 0 for s, o in zip(self.into, other.into))

    def is_complete(self):
        return self.into == self.lattice.poset.down

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


def _mask(indices):
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def close(lattice, generator_pairs):
    """Smallest transfer system containing the generators.

    Conjugation is trivial for the abelian ambients this lattice type
    represents, so two passes suffice.  First each generator k -> h gives
    k ^ l -> l for every l <= h; with the identities these arrows are closed
    under restriction (k ^ l -> l restricts to k ^ l' -> l' for l' <= l).
    Then one ascending pass over the targets closes under transitivity:
    subgroups are sorted by order, so every source is closed before its
    target.  The transitive closure of a restriction-closed relation is
    restriction-closed: restrict a chain j -> k -> h to l <= h link by link,
    j ^ l -> k ^ l -> l.  So this is the closure; validate still checks it.
    """
    P = lattice.poset
    down = P.down
    into = [1 << h for h in range(P.n)]
    for (k, h) in generator_pairs:
        if not P.leq(k, h):
            raise TransferError(
                f"generator {lattice.label(k)} -> {lattice.label(h)} violates containment"
            )
        for l in mask_indices(down[h]):
            into[l] |= 1 << _meet(down, k, l)
    for h, row in enumerate(into):
        for k in mask_indices(row):
            into[h] |= into[k]
    system = TransferSystem(lattice, into)
    report = validate(system)
    if report is not None:
        raise TransferError(f"closure produced an invalid system: {report}")
    system.validated = True
    return system


def validate(T):
    """None when all axioms hold, else the first Violation found."""
    down = T.lattice.poset.down
    n = len(down)
    lab = T.lattice.label
    for h in range(n):
        if not (T.into[h] >> h) & 1:
            return Violation("reflexivity", (h,), f"missing {lab(h)} -> {lab(h)}")
        extra = T.into[h] & ~down[h]
        if extra:
            k = mask_indices(extra)[0]
            return Violation(
                "refinement", (k, h), f"{lab(k)} -> {lab(h)} but {lab(k)} is not a subgroup of {lab(h)}"
            )
    for h in range(n):
        for k in mask_indices(T.into[h]):
            if k != h and (T.into[k] >> h) & 1:
                return Violation("antisymmetry", (k, h), f"{lab(k)} <-> {lab(h)}")
            missing = T.into[k] & ~T.into[h]
            if missing:
                j = mask_indices(missing)[0]
                return Violation(
                    "transitivity",
                    (j, k, h),
                    f"{lab(j)} -> {lab(k)} -> {lab(h)} but no {lab(j)} -> {lab(h)}",
                )
    for h in range(n):
        ks = [k for k in mask_indices(T.into[h]) if k != h]
        if not ks:
            continue
        for l in mask_indices(down[h]):
            if l == h:
                continue
            for k in ks:
                kl = _meet(down, k, l)
                if not (T.into[l] >> kl) & 1:
                    return Violation(
                        "restriction",
                        (k, h, l),
                        f"{lab(k)} -> {lab(h)} and {lab(l)} <= {lab(h)} force "
                        f"{lab(kl)} -> {lab(l)}, which is missing",
                    )
    return None


def system_of_family(lattice, family):
    """The disk-like system whose arrows into G are the family S (a mask).

    S must contain G and be closed under meets; then into[h] = {s ^ h : s in
    S} is reflexive (G ^ h = h), restriction-closed and transitive
    ((s' ^ s ^ h) with s' ^ s in S), so it is the closure of S -> G.  Each
    meet is read off the down masks.
    """
    down = lattice.poset.down
    members = mask_indices(family)
    into = [_mask(_meet(down, h, s) for s in members) for h in range(lattice.n)]
    return TransferSystem(lattice, into)


def require_disk_like(T):
    """Raise NotDiskLikeError unless T validates and is generated by its
    arrows into the full group."""
    if not T.validated:
        report = validate(T)
        if report is not None:
            raise NotDiskLikeError(f"system does not validate: {report.message}")
        T.validated = True
    lat = T.lattice
    # into[top] of a valid system is meet-closed and holds top
    generated = system_of_family(lat, T.into[lat.top_index()])
    for h in range(lat.n):
        extra = T.into[h] & ~generated.into[h]
        if extra:
            k = (extra & -extra).bit_length() - 1
            raise NotDiskLikeError(
                f"not disk-like: arrow {lat.label(k)} -> {lat.label(h)} is not "
                "generated by the arrows into the full group"
            )


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

    T must already be validated (require_disk_like does it); it is not
    checked again here.  For abelian ambients |(G/L)^J| = |G/L| . [J <= L],
    so two subgroups are inseparable exactly when they lie below the same
    members of Sub_G^O.  The literal coset count survives as a test oracle.
    """
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
    down = P.down
    for members in classes:
        mask = _mask(members)
        maximal = [j for j in members if mask & ~down[j] == 0]
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


_ENUMERATION_LIMIT = 16


def _meet_images(down):
    """Lookup lists for the meet images {h ^ s : s in S} of family masks S.

    A mask is split into its low `width` bits and the rest.  For each h,
    lo[m] and hi[m] are the images of the members in the low and the high
    half, so the image of S is lo[S & (2^width - 1)] | hi[S >> width].
    Under the 16-subgroup limit a half is at most a byte.
    """
    n = len(down)
    width = (n + 1) // 2

    def halves(h):
        image = [1 << _meet(down, h, s) for s in range(n)]
        return union_lookup(image[:width]), union_lookup(image[width:])

    return width, [halves(h) for h in range(n)]


def enumerate_disk_like(lattice):
    """All disk-like systems, sorted by their arrow masks, with their
    inclusion poset.

    Walks the meet-closed families S containing G from {G}: adding s to a
    meet-closed S and closing under meets gives S | {s ^ f : f in S}.
    Each meet image, in the walk and in every system's into[h] = {h ^ s : s
    in S} (as system_of_family builds it), is read off _meet_images; each
    row is built once and is its system's sort key.  Inclusion of disk-like
    systems is inclusion of their families, so the up-set of S is the set
    of systems whose family lacks no member of S: the complement of the
    union, over the members h of S, of the systems lacking h, read with two
    list lookups per family as the meet images are.
    """
    n = lattice.n
    if n > _ENUMERATION_LIMIT:
        raise BudgetExceededError(
            f"disk-like enumeration budget exceeded: {n} > {_ENUMERATION_LIMIT} subgroups"
        )
    width, images = _meet_images(lattice.poset.down)
    low = (1 << width) - 1
    top = lattice.top_index()
    seen = {1 << top}
    todo = list(seen)
    while todo:
        family = todo.pop()
        a, b = family & low, family >> width
        for lo, hi in images:
            grown = family | lo[a] | hi[b]
            if grown not in seen:
                seen.add(grown)
                todo.append(grown)
    rows = sorted(tuple([lo[f & low] | hi[f >> width] for lo, hi in images]) for f in seen)
    systems = [TransferSystem(lattice, row) for row in rows]
    families = [row[top] for row in rows]
    # lacks[h]: the mask of the systems whose family lacks h.  Write the
    # complements of the families as n-digit binary numerals, from the last
    # system to the first: digit n - 1 - h of each is bit h, so every n-th
    # digit from there, read as one numeral, is lacks[h]
    every = (1 << n) - 1
    digits = "".join([format(f ^ every, f"0{n}b") for f in reversed(families)])
    lacks = [int(digits[n - 1 - h::n], 2) for h in range(n)]
    lacks_lo, lacks_hi = union_lookup(lacks[:width]), union_lookup(lacks[width:])
    full = (1 << len(families)) - 1
    up = [full ^ (lacks_lo[f & low] | lacks_hi[f >> width]) for f in families]
    labels = [f"O{i}" for i in range(len(systems))]
    return systems, FinitePoset(len(systems), labels, up, validate=False)


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

