"""Root systems of types A and C, finite and affine Weyl groups.

Everything combinatorial here is exact: roots and coroots are integer
vectors, group elements are signed permutations, and reduced words are
found by greedy descent on the inversion count.  Type A is taken in the
GL(n) convention (ambient dimension n, roots e_i - e_j, lattice Z^n);
type C_n has roots {±2e_i} ∪ {±e_i±e_j}.
"""

from __future__ import annotations

WEYL_SIZE_GUARD = 10**6


class ConfigError(ValueError):
    """A configuration laxkit cannot build or run (unknown system, root-system
    type or parameter, a rank out of range, a Weyl group above the size
    guard); the CLI reports it with exit status 2."""


class UnsupportedElementError(ValueError):
    """Element lies outside the group covered by reduced-word search."""


def replace(record, **changes):
    """A copy of ``record`` with the attributes ``changes`` set.  Its
    ``__init__`` does not run: every other attribute, a cache included, is
    the source's, and a record re-derives what depends on a changed
    attribute when it is read (``VDParams.rs``)."""
    unknown = changes.keys() - vars(record).keys()
    if unknown:
        raise TypeError(f"{type(record).__name__} has no field {sorted(unknown)}")
    out = object.__new__(type(record))
    out.__dict__.update(vars(record), **changes)
    return out


# the one SignedPerm of each image
_PERMS: dict = {}


class SignedPerm:
    """Signed permutation of basis vectors: w(e_i) = sign * e_j.

    ``img[i]`` is the 1-based signed index j of the image of e_i.  There is
    one object per image (hash-consing): ``SignedPerm(img)`` returns the
    object first made for ``tuple(img)``, and so do ``copy``, ``deepcopy``
    and ``pickle`` (``__reduce__``).  Equality is identity, so a dict keyed
    by perms hashes and compares them at C speed.  The inverse is computed
    once and kept.
    """

    __slots__ = ("img", "_inv")

    def __new__(cls, img):
        img = tuple(img)
        out = _PERMS.get(img)
        if out is None:
            out = _PERMS[img] = object.__new__(cls)
            out.img, out._inv = img, None
        return out

    def __reduce__(self):
        return SignedPerm, (self.img,)

    @staticmethod
    def identity(n):
        return SignedPerm(range(1, n + 1))

    @staticmethod
    def transposition(n, i, j):
        """s_ij: e_i <-> e_j (0-based i, j)."""
        img = list(range(1, n + 1))
        img[i], img[j] = j + 1, i + 1
        return SignedPerm(img)

    @staticmethod
    def neg_transposition(n, i, j):
        """s^+_ij: e_i -> -e_j, e_j -> -e_i (0-based i, j)."""
        img = list(range(1, n + 1))
        img[i], img[j] = -(j + 1), -(i + 1)
        return SignedPerm(img)

    @staticmethod
    def sign_flip(n, i):
        """s_i: e_i -> -e_i (0-based i)."""
        img = list(range(1, n + 1))
        img[i] = -(i + 1)
        return SignedPerm(img)

    @staticmethod
    def block(a, w):
        """a ⊕ w: a on the first a.n coordinates and w on the w.n after them."""
        k = a.n
        return SignedPerm(a.img + tuple(t + k if t > 0 else t - k for t in w.img))

    @property
    def n(self):
        return len(self.img)

    def is_identity(self):
        i = 0
        for t in self.img:
            i += 1
            if t != i:
                return False
        return True

    def __mul__(self, other):
        """Composition (self*other)(x) = self(other(x))."""
        out = []
        for o in other.img:
            t = self.img[abs(o) - 1]
            out.append(t if o > 0 else -t)
        return SignedPerm(out)

    def inverse(self):
        inv = self._inv
        if inv is None:
            out = [0] * self.n
            for i, t in enumerate(self.img):
                j = abs(t) - 1
                out[j] = (i + 1) if t > 0 else -(i + 1)
            inv = self._inv = SignedPerm(out)
            inv._inv = self
        return inv

    def apply_vec(self, v):
        """Image of a coordinate vector (works for ints, complex, Dual)."""
        out = [0] * self.n
        for i, t in enumerate(self.img):
            j = abs(t) - 1
            out[j] = v[i] if t > 0 else -v[i]
        return tuple(out)

    def basis_image(self, i):
        """(j, sign) with w(e_i) = sign * e_j, all 0-based."""
        t = self.img[i]
        return abs(t) - 1, (1 if t > 0 else -1)

    def __repr__(self):
        return f"SignedPerm{self.img}"


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def ext_coord(n, i):
    """Integer coefficients of the coordinate x_i, 0-based.

    Indices run over 0..2n-1 with the extended coordinates x_{n+i} = -x_i,
    which index the BC_n, Koornwinder and van Diejen Lax matrices; for
    i < n this is the unit vector e_i.  Every system module reads its
    coordinate forms from here.
    """
    out = [0] * n
    out[i % n] = 1 if i < n else -1
    return tuple(out)


def ext_form(n, i, j, sign=-1):
    """Integer coefficients of x_i + sign * x_j (extended, 0-based indices)."""
    return tuple(a + sign * b for a, b in zip(ext_coord(n, i), ext_coord(n, j)))


def same_coord(n, i, j):
    """Whether the extended indices i and j name one coordinate up to sign."""
    return (i - j) % n == 0


def _norm_key(pt):
    return tuple(0.0 if v == 0 else v for v in pt)


class AffineRoot:
    """alpha + k*delta as an affine-linear function <alpha,x> + k c; equal
    and hashed by value."""

    __slots__ = ("alpha", "k")

    def __init__(self, alpha, k):
        self.alpha, self.k = alpha, k

    def __eq__(self, other):
        return (isinstance(other, AffineRoot) and self.alpha == other.alpha
                and self.k == other.k)

    def __hash__(self):
        return hash((self.alpha, self.k))

    def __repr__(self):
        return f"AffineRoot(alpha={self.alpha!r}, k={self.k!r})"

    def is_negative(self):
        if self.k != 0:
            return self.k < 0
        for v in self.alpha:
            if v != 0:
                return v < 0
        raise ValueError("zero affine root")

    def __neg__(self):
        return AffineRoot(tuple(-v for v in self.alpha), -self.k)


class AffineElement:
    """Normal form w * t(lam); acts on V by x -> w(x - c*lam)."""

    __slots__ = ("w", "lam")

    def __init__(self, w, lam):
        self.w = w
        self.lam = tuple(lam)

    @staticmethod
    def identity(n):
        return AffineElement(SignedPerm.identity(n), (0,) * n)

    @staticmethod
    def translation(lam):
        return AffineElement(SignedPerm.identity(len(lam)), lam)

    @staticmethod
    def from_linear(w):
        return AffineElement(w, (0,) * w.n)

    def is_identity(self):
        return self.w.is_identity() and all(v == 0 for v in self.lam)

    def __mul__(self, other):
        # w1 t(l1) w2 t(l2) = (w1 w2) t(w2^-1 l1 + l2)
        w2inv = other.w.inverse()
        lam = tuple(a + b for a, b in zip(w2inv.apply_vec(self.lam), other.lam))
        return AffineElement(self.w * other.w, lam)

    def inverse(self):
        winv = self.w.inverse()
        return AffineElement(winv, tuple(-v for v in self.w.apply_vec(self.lam)))

    def apply_point(self, x, c):
        shifted = tuple(v - c * l for v, l in zip(x, self.lam))
        return self.w.apply_vec(shifted)

    def inv_apply_point(self, x, c):
        """Action of the inverse: x -> w^-1(x) + c*lam."""
        y = self.w.inverse().apply_vec(x)
        return tuple(v + c * l for v, l in zip(y, self.lam))

    def apply_affine_root(self, ar: AffineRoot) -> AffineRoot:
        return AffineRoot(self.w.apply_vec(ar.alpha), ar.k + dot(ar.alpha, self.lam))

    def __eq__(self, other):
        return (isinstance(other, AffineElement) and self.w == other.w
                and self.lam == other.lam)

    def __hash__(self):
        return hash((self.w, self.lam))

    def __repr__(self):
        return f"AffineElement({self.w!r}, {self.lam})"


def reflection(alpha, n):
    """s_alpha as a signed permutation (types A/C only)."""
    aa = dot(alpha, alpha)
    img = []
    for i in range(n):
        e = [0] * n
        e[i] = 1
        coeff = 2 * alpha[i] // aa if (2 * alpha[i]) % aa == 0 else None
        if coeff is None:
            raise ConfigError(f"reflection of e_{i} not a signed basis vector")
        v = tuple(e[j] - coeff * alpha[j] for j in range(n))
        nz = [(j, val) for j, val in enumerate(v) if val != 0]
        if len(nz) != 1 or abs(nz[0][1]) != 1:
            raise ConfigError("reflection leaves the signed-permutation class")
        j, val = nz[0]
        img.append((j + 1) * val)
    # img currently lists images indexed by source; build SignedPerm directly
    return SignedPerm(img)


def affine_reflection(ar: AffineRoot) -> AffineElement:
    """s_{alpha+k delta} = (s_alpha, -k alpha^vee) in normal form."""
    n = len(ar.alpha)
    s = reflection(ar.alpha, n)
    aa = dot(ar.alpha, ar.alpha)
    coroot = tuple(2 * v // aa for v in ar.alpha)
    return AffineElement(s, tuple(-ar.k * v for v in coroot))


class RootSystemData:
    def __init__(self, kind, rank, dim, roots, pos_roots, simple, highest):
        self.kind, self.rank, self.dim, self.roots = kind, rank, dim, roots
        self.pos_roots, self.simple, self.highest = pos_roots, simple, highest
        self._weyl = None           # weyl_enumerate's list, kept on first use

    def coroot(self, alpha):
        aa = dot(alpha, alpha)
        return tuple(2 * v // aa for v in alpha)

    def reflection(self, alpha) -> SignedPerm:
        return reflection(alpha, self.dim)

    def simple_reflections(self):
        return [self.reflection(a) for a in self.simple]

    def affine_simple_roots(self):
        """a_0 = delta - highest, then the finite simple roots."""
        a0 = AffineRoot(tuple(-v for v in self.highest), 1)
        return [a0] + [AffineRoot(a, 0) for a in self.simple]

    def fundamental_coweights(self):
        """b_j with <a_i, b_j> = delta_ij (may be half-integral for C)."""
        n = self.dim
        out = []
        for j in range(len(self.simple)):
            if self.kind == "A":
                b = tuple(1 if i <= j else 0 for i in range(n))
            else:
                if j < n - 1:
                    b = tuple(1 if i <= j else 0 for i in range(n))
                else:
                    b = tuple(0.5 for _ in range(n))
            out.append(b)
        return out


def weyl_order(kind, n):
    """|W| of type A in the GL(n) convention (n!) or of type C_n (2^n n!)."""
    out = 1 if kind == "A" else 2 ** n
    for k in range(2, n + 1):
        out *= k
    return out


def check_weyl_size(kind, n):
    """``ConfigError`` if |W| of type ``kind`` at rank n exceeds the guard."""
    order = weyl_order(kind, n)
    if order > WEYL_SIZE_GUARD:
        raise ConfigError(f"|W| = {order} exceeds guard {WEYL_SIZE_GUARD}")


def build_root_system(kind: str, rank: int) -> RootSystemData:
    """Roots, positive roots, simple roots for A_(n-1) (GL_n) or C_n."""
    if rank < 1:
        raise ConfigError(f"rank must be >= 1, got {rank}")
    n = rank
    if kind == "A":
        pos = []
        for i in range(n):
            for j in range(i + 1, n):
                a = [0] * n
                a[i], a[j] = 1, -1
                pos.append(tuple(a))
        simple = []
        for i in range(n - 1):
            a = [0] * n
            a[i], a[i + 1] = 1, -1
            simple.append(tuple(a))
        highest = None
        if n >= 2:
            h = [0] * n
            h[0], h[-1] = 1, -1
            highest = tuple(h)
    elif kind == "C":
        pos = []
        for i in range(n):
            a = [0] * n
            a[i] = 2
            pos.append(tuple(a))
        for i in range(n):
            for j in range(i + 1, n):
                a = [0] * n
                a[i], a[j] = 1, -1
                pos.append(tuple(a))
                a = [0] * n
                a[i], a[j] = 1, 1
                pos.append(tuple(a))
        simple = []
        for i in range(n - 1):
            a = [0] * n
            a[i], a[i + 1] = 1, -1
            simple.append(tuple(a))
        a = [0] * n
        a[-1] = 2
        simple.append(tuple(a))
        h = [0] * n
        h[0] = 2
        highest = tuple(h)
    else:
        raise ConfigError(f"unsupported root system type {kind!r}")
    roots = pos + [tuple(-v for v in a) for a in pos]
    rs = RootSystemData(kind=kind, rank=rank, dim=n, roots=roots,
                        pos_roots=pos, simple=simple, highest=highest)
    return rs


def weyl_enumerate(rs: RootSystemData):
    """All elements of W by breadth-first closure over simple reflections."""
    check_weyl_size(rs.kind, rs.dim)
    if rs._weyl is not None:
        return rs._weyl
    gens = rs.simple_reflections()
    seen = {SignedPerm.identity(rs.dim)}
    frontier = list(seen)
    order = list(seen)
    while frontier:
        new = []
        for w in frontier:
            for s in gens:
                u = s * w
                if u not in seen:
                    seen.add(u)
                    new.append(u)
                    order.append(u)
        frontier = new
    rs._weyl = order
    return order


def reduced_word(rs: RootSystemData, w: AffineElement):
    """Reduced word over {0..n} of w = s_{i1} ... s_{il} pi, by greedy descent.

    Repeatedly strips the smallest i with w^{-1}(a_i) negative and stops at
    the remainder pi of length 0: the identity on W ⋉ t(Q^vee), a nontrivial
    element of Omega for an extended element such as t(e_i) of GL_n.
    """
    simples = rs.affine_simple_roots()
    refl = [affine_reflection(a) for a in simples]
    word = []
    cur = w
    guard = 100000
    while True:
        if guard == 0:
            raise UnsupportedElementError("reduced-word search did not terminate")
        guard -= 1
        inv = cur.inverse()
        for i, a in enumerate(simples):
            if inv.apply_affine_root(a).is_negative():
                word.append(i)
                cur = refl[i] * cur
                break
        else:
            return word


class CosetTable:
    """Representatives r_1..r_m of W' \\ W for the stabilizer W' of xi.

    Cosets are indexed by the orbit points r_i^{-1} xi; ``index_of`` sends a
    group element to its coset index, so e' r_i r_j = e' r_{k(i,j)}.
    """

    def __init__(self, xi, reps, orbit, stabilizer):
        self.xi, self.reps, self.orbit, self.stabilizer = xi, reps, orbit, stabilizer
        self._lookup = {_norm_key(p): i for i, p in enumerate(orbit)}

    @property
    def m(self):
        return len(self.reps)

    def index_of(self, g: SignedPerm) -> int:
        pt = g.inverse().apply_vec(self.xi)
        key = _norm_key(pt)
        if key not in self._lookup:
            raise KeyError(f"{pt} not in the orbit of {self.xi}")
        return self._lookup[key]

    def k(self, i, j):
        """Index k with e' r_i r_j = e' r_k (1-based in, 1-based out)."""
        return self.index_of(self.reps[i - 1] * self.reps[j - 1]) + 1


def orbit_stabilizer(rs: RootSystemData, xi) -> CosetTable:
    """The coset table of xi, holding its orbit and its stabilizer W'.

    For xi = e_1 the representatives follow the paper conventions:
    type A uses {id, s_{1i}}; type C uses {s_{1i}} ∪ {s^+_{1i}} with
    s^+_{11} the sign flip of x_1.
    """
    xi = tuple(xi)
    if all(v == 0 for v in xi):
        raise ValueError("xi must be nonzero")
    n = rs.dim
    elements = weyl_enumerate(rs)
    stab = [w for w in elements if _norm_key(w.apply_vec(xi)) == _norm_key(xi)]

    if _norm_key(xi) == _norm_key(ext_coord(n, 0)):
        # s_11 is the identity and s^+_11 the sign flip of x_1
        reps = [SignedPerm.transposition(n, 0, i) for i in range(n)]
        if rs.kind != "A":
            reps += [SignedPerm.neg_transposition(n, 0, i) for i in range(n)]
        orbit = [r.inverse().apply_vec(xi) for r in reps]
        return CosetTable(xi=xi, reps=reps, orbit=orbit, stabilizer=stab)

    # generic xi: BFS over the orbit; minimal-length reps found by BFS depth.
    # Track u with u(xi) = pt; the coset rep for pt is u^{-1}.
    gens = rs.simple_reflections()
    orbit = [xi]
    seen = {_norm_key(xi): 0}
    reps = [SignedPerm.identity(n)]
    frontier = [(xi, SignedPerm.identity(n))]
    while frontier:
        new = []
        for pt, u in frontier:
            for s in gens:
                q = s.apply_vec(pt)
                key = _norm_key(q)
                if key not in seen:
                    seen[key] = len(orbit)
                    orbit.append(q)
                    uq = s * u
                    reps.append(uq.inverse())
                    new.append((q, uq))
        frontier = new
    return CosetTable(xi=xi, reps=reps, orbit=orbit, stabilizer=stab)
