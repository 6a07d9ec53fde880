"""Scalar fields on C^n, their derivatives by rule, and the tapes that
evaluate them.

A field is a small expression DAG over leaf kernels.  The workhorse leaf
is ``LinArg``, a kernel of an affine-linear form, which is closed under
composition with x -> w x + v: exactly the substitutions generated by
group-algebra arithmetic.

Derivatives.  ``derivative(f, dirs)`` builds D_dirs f as a field, one
direction d at a time: a ``Const`` gives ``ZERO``, ``Scale`` and ``NSum``
are linear, ``Prod`` takes Leibniz and ``Quot`` the rule (a' - q b')/b with
q the quotient node, and fn(<k, x> + c0) gives <k, d> times fn' on the same
form (``ZERO`` when <k, d> = 0, the constant <k, d> for a linear form).
fn' is one kernel per kernel (``_dkernel``): ``d_exp`` is its own, any
other gets the eps of fn on Dual(z, 1.0), which a kernel with a pair reads
from its pair's slope at a plain z.  ``LinArg.dz`` is that kernel on
the same form and the one way to write a kernel's derivative, so sigma'
and v' in a Lax matrix and the derivative leaves of a product are one node
kind on one kernel, and equal forms share a tape instruction.  ``BiArg``
has no rule and raises ``TypeError``.

Points.  A form of length n reads the first n coordinates of the point, so
an x-space field is read on phase points (x_1..x_n, p_1..p_n) as it stands:
fn(<k, x> + c0) there is its pullback along (x, p) -> x, and an x-space
coefficient times a momentum or e^{<lam, p>} leaf is a phase-space field.

Evaluation contract.  A ``Tape`` compiles root fields once into a flat
post-order list of instructions, in the order in which a left-to-right walk
of the roots first finishes each node.  Equal nodes share an instruction:
composites by identity, ``LinArg`` and ``BiArg`` by kernel and affine form,
so the equal copies that ``o_affine`` makes share one kernel call.  Kernels
are equal by value: ``kernel_family`` returns one kernel object per family
and bit-exact parameters.  ``Tape.__call__`` interprets the list, doing the
operations of a recursive walk in its order (a sum folds from 0j, a scaling
is c * v), so values are the walk's bit for bit and the first ``PoleError``
is the one the walk would raise; nothing is kept from one point to the
next.  The package calls tapes at complex points only; the same loop on
Duals is how the tests' directional-derivative oracle differentiates a
field.
``Tape.gradient`` runs straight-line code generated for its tape
(``_gradient_source``), compiled once per point length: the forward loop
on plain numbers and one adjoint sweep, in their order, so it matches an
interpreted sweep bit for bit (the tests keep one as the oracle).  The
forward section computes each value once, by three rules: a slot on
constants alone is folded when the source is generated, by the same
operation (a fold that raises keeps its line); a slot equal to an earlier
one in kind, constant (type and repr) and operand values reads that one's
value; and a line that no adjoint and no kept line reads is not written,
except a leaf's, so the first ``PoleError`` is the interpreter's.  The
sweep writes one statement per live adjoint, that of a slot with a leaf
below it that reads a coordinate, and the root's adjoint is the function's
argument ``seed``; equal adjoints and repeated products are computed
once.  A ``LinArg`` leaf calls its kernel's pair (f(z), f'(z)), which
builds no Dual; a kernel without a pair runs once on a Dual of tangent 1.
A ``BiArg`` has no adjoint: its gradient raises ``TypeError``.
``Field.gradient`` runs the field's own tape, except at a
``Scale`` root: its operand's function seeded with 0j + c * (1+0j), the
adjoint that the scaled tape's sweep hands the operand's root, gives that
tape's partials bit for bit, so a time-scaled Hamiltonian compiles nothing
more.  A verify tape, thousands of instructions at about ten points, is
interpreted.  A field called directly compiles its own tape once.

Composition with an affine map, ``o_affine``, is structural: every node
kind pushes the map down to its leaves.

Sharing contract.  The identity map returns the node itself, and
``o_affine`` (so ``o_group``) is memoized on the source node under a key
that tells maps apart bit for bit, so a subtree shared by two parents stays
shared in their images.  A map with no shift is keyed by its ``SignedPerm``,
which is hash-consed (equal perms are one object), so the key hashes and
compares at C speed; a shifted map is keyed by the repr of (perm image,
shift), since a shift of -0.0 is not one of 0.0 though the two are ==.
``derivative`` is memoized on the source node per direction, so mixed
partials share nodes.  A direction of plain floats with no -0.0 is its own
key (== on it is bit-exact); any other is keyed by its repr
(``_direction_key``).  The key is made once per direction and handed down
the rules, as a map's key is.  Both memos live in slots of the source node;
nodes are immutable, so a shared node is indistinguishable from a copy
except by identity.
"""

from __future__ import annotations

import math

from .dual import Dual, d_exp, extract, value


class PoleError(ArithmeticError):
    """Evaluation too close to a pole; the message names the factor."""


class Field:
    # filled on first use: images under affine maps, derivative nodes and
    # the field's own tape
    __slots__ = ("_images", "_derivs", "_tape")

    def __call__(self, x):
        """Value at the point x, from this field's tape."""
        return self.tape()(x)[0]

    def tape(self):
        """This field alone compiled to a ``Tape``, on first use."""
        try:
            return self._tape
        except AttributeError:
            out = self._tape = Tape([self])
            return out

    def gradient(self, x):
        """The partials of this field at x along every coordinate of x, from
        its tape's generated gradient (``Tape.gradient``)."""
        return self.tape().gradient(x)

    def _emit(self, tape):
        """Append this node's instruction to ``tape``; returns its slot."""
        raise NotImplementedError

    def __add__(self, other):
        return nsum([self, as_field(other)])

    def __radd__(self, other):
        return nsum([as_field(other), self])

    def __sub__(self, other):
        return nsum([self, -as_field(other)])

    def __rsub__(self, other):
        return nsum([as_field(other), -self])

    def __neg__(self):
        return Scale(-1.0, self)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return Scale(other, self)
        return Prod(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return Scale(other, self)
        return Prod(as_field(other), self)

    def __truediv__(self, other):
        if isinstance(other, (int, float, complex)):
            return Scale(1.0 / other, self)
        return Quot(self, other)

    def __rtruediv__(self, other):
        return Quot(as_field(other), self)

    def o_affine(self, w, v):
        """The field x -> f(w x + v); w is a SignedPerm or None.  The identity
        map (no shift, w None or the identity) returns the field itself; a map
        equal bit for bit to an earlier one returns the image built then."""
        if v is None:
            return self if w is None or w.is_identity() else self._image(w, None, w)
        return self._image(w, v, repr((None if w is None else w.img, v)))

    def _image(self, w, v, key):
        """``o_affine`` under the map's bit-exact ``key``, memoized on self;
        each node kind's ``_o_affine`` builds the image, moving its children
        by ``_image``."""
        try:
            images = self._images
        except AttributeError:
            images = self._images = {}
        out = images.get(key)
        if out is None:
            out = images[key] = self._o_affine(w, v, key)
        return out

    def o_group(self, w):
        return self.o_affine(w, None)

    def deriv(self, direction):
        """Directional derivative field along the vector ``direction``."""
        return derivative(self, (direction,))

    def _derived(self, d, key):
        """The derivative along the direction tuple ``d``, memoized on self
        under ``_direction_key(d)``, which the caller gives as ``key``."""
        try:
            derivs = self._derivs
        except AttributeError:
            derivs = self._derivs = {}
        out = derivs.get(key)
        if out is None:
            out = derivs[key] = self._derivative(d, key)
        return out

    def _derivative(self, d, key):
        """The derivative along d by this node's rule; children by ``_derived``."""
        raise TypeError(f"{type(self).__name__} has no derivative rule")


def as_field(x):
    if isinstance(x, Field):
        return x
    return Const(complex(x))


# instruction kinds of a Tape
_LEAF, _CALL, _SUM, _SCALE, _PROD, _QUOT, _CONST = range(7)


class Tape:
    """Root fields compiled to a flat post-order list of instructions.

    Instruction i computes slot i of a point's values and is a tuple
    ``(kind, a, b)``: ``_LEAF`` calls the ``LinArg`` a and ``_CALL`` the
    ``BiArg`` a at the point (b is None); ``_SUM`` adds the slots a;
    ``_SCALE`` is a * slot b; ``_PROD`` and ``_QUOT`` combine slots a and
    b; ``_CONST`` is the constant a.  Every instruction reads the one point
    the tape is called at, a form of length n its first n coordinates.
    Calling the tape interprets the list; ``gradient`` runs the function
    generated for it, kept per point length in ``_grads``.
    """

    __slots__ = ("code", "out", "_slots", "_grads")

    def __init__(self, roots):
        self.code = []
        self._slots = {}
        self._grads = {}
        self.out = [self.slot(f) for f in roots]
        del self._slots

    def slot(self, f):
        """The slot of node f, compiling it on the first visit."""
        out = self._slots.get(f)
        if out is None:
            out = self._slots[f] = f._emit(self)
        return out

    def push(self, kind, a, b=None):
        self.code.append((kind, a, b))
        return len(self.code) - 1

    def shared(self, key, kind, node):
        """The slot of the leaf ``node``, shared under ``key``."""
        out = self._slots.get(key)
        if out is None:
            out = self._slots[key] = self.push(kind, node)
        return out

    def __call__(self, x):
        """Values of the roots at the point x."""
        vals = []
        push = vals.append
        PROD, SCALE, SUM, CALL, QUOT = _PROD, _SCALE, _SUM, _CALL, _QUOT
        for kind, a, b in self.code:
            if kind == PROD:
                push(vals[a] * vals[b])
            elif kind == SCALE:
                push(a * vals[b])
            elif kind == SUM:
                s = 0j
                for i in a:
                    s = s + vals[i]
                push(s)
            elif kind <= CALL:
                push(a(x))
            elif kind == QUOT:
                push(vals[a] / vals[b])
            else:
                push(a)
        return [vals[i] for i in self.out]

    def gradient(self, x, seed=1 + 0j):
        """The partials of the first root at x along every coordinate of x,
        times ``seed``, the adjoint of the root, from a function generated
        for this tape and the length of x (``_gradient_source``), compiled
        on first use and kept."""
        fn = self._grads.get(len(x))
        if fn is None:
            src, names = _gradient_source(self, len(x))
            exec(compile(src, "<laxkit tape gradient>", "exec"), names)
            # popped, so that the function and its globals make no cycle
            fn = self._grads[len(x)] = names.pop("grad")
        return fn(x, seed)


# terms per line of a generated sum: one line of thousands would overflow the
# compiler's recursion
_TERMS_PER_LINE = 64


def _gradient_source(tape, dim):
    """The source of ``def grad(p0, seed)``, the gradient of the tape's first
    root times ``seed`` at points p0 of ``dim`` coordinates, and the names it
    reads.

    The function does the operations of an interpreted forward loop and
    adjoint sweep in their order, so every partial is theirs bit for bit.  A
    leaf reads its form ``c0 + k_j*x_j`` over its nonzero ``k_j`` and calls
    its kernel's pair on it (``kernel_family``; a kernel without one runs
    once on a Dual of tangent 1), or is the form itself with slope 1.0.  A
    sum folds from 0j; the adjoint of a slot is 0j (``seed`` at the root)
    plus its contributions in sweep order, the quotient's subtracted, and a
    gradient coordinate is 0j plus its leaves' contributions in sweep order.

    The forward section computes each value once, by three rules:
    - a slot whose operands are all constants is computed here, by the same
      Python operation on the same numbers, and read as a constant; a fold
      that raises keeps its line;
    - a slot that matches an earlier one in kind, constant (type and repr)
      and operand values reads that one's value;
    - a line whose value no adjoint and no kept line reads is not written;
      leaf lines are always written, in tape order, so the first
      ``PoleError`` is the interpreter's.
    The sweep writes one statement per live adjoint: only a slot with a leaf
    below it that reads a coordinate gets an adjoint or is sent a
    contribution (Griewank & Walther's active variables), since no other
    adjoint reaches a partial.  A slot whose one contribution is a sum's
    adjoint takes that adjoint's name, and the root with none takes
    ``seed``'s: 0j + a is a bit for bit, because an adjoint folded from 0j,
    or a seed folded so, holds no -0.0.  A quotient's q is never taken so.
    A slot whose contributions are an earlier adjoint's, term for term,
    takes that adjoint's name, and a product that two terms of the sweep
    make is computed by the first, bound to a name u (``(u0 := w * v)``),
    and read by the others.
    A ``_CALL`` has no adjoint and raises ``TypeError`` naming its node's
    class.  Constants the source cannot spell with their type and bits, and
    kernels, are read from the names.
    """
    code = tape.code
    names = {}
    bound, pairs = {}, {}

    def name(obj, prefix):
        out = bound.get(id(obj))
        if out is None:
            out = bound[id(obj)] = f"{prefix}{len(names)}"
            names[out] = obj
        return out

    def lit(c):
        if type(c) is int or type(c) is float and math.isfinite(c) or repr(c) == "0j":
            return repr(c)
        return name(c, "c")

    def total(out, target, head, terms):
        # target = head + terms..., folded left to right over as many lines
        # as keep the compiler's nesting shallow
        for i in range(0, max(len(terms), 1), _TERMS_PER_LINE):
            out.append(f"    {target} = {head}{''.join(terms[i:i + _TERMS_PER_LINE])}")
            head = target

    coords = [f"x{j}" for j in range(dim)]

    # val[i]: slot i's value as the source reads it (a name or a literal);
    # known[i]: its number, for a slot known here; forward: per line written
    # in tape order, (its name, its lines, the values it reads), the name
    # None for a line always kept
    val, slope, known = [None] * len(code), {}, {}
    first, forward = {}, []
    for i, (kind, a, b) in enumerate(code):
        if kind == _CONST:
            val[i], known[i] = lit(a), a
            continue
        if kind == _CALL:
            raise TypeError(f"{type(a).__name__} has no adjoint rule")
        v = f"v{i}"
        if kind == _LEAF:
            form = lit(a.c0) + "".join(f" + {lit(kj)}*{xj}"
                                       for kj, xj in zip(a.k, coords) if kj != 0)
            if a.fn is None:
                forward.append((None, [f"    {v} = {form}"], ()))
                slope[i] = "1.0"
            else:
                pair = pairs.get(id(a.fn))
                if pair is None:
                    pair = pairs[id(a.fn)] = name(
                        getattr(a.fn, "pair", None) or _dual_pair(a.fn), "f")
                forward.append((None, [f"    {v}, s{i} = {pair}({form})"], ()))
                slope[i] = f"s{i}"
            val[i] = v
            continue
        ops = a if kind == _SUM else (b,) if kind == _SCALE else (a, b)
        reads = [val[j] for j in ops]
        key = (kind, type(a), repr(a), *reads) if kind == _SCALE else (kind, *reads)
        j = first.get(key)
        if j is not None:
            val[i] = val[j]
            if j in known:
                known[i] = known[j]
            continue
        first[key] = i
        on_constants = all(j in known for j in ops)
        if on_constants:
            try:
                known[i] = _fold(kind, a, [known[j] for j in ops])
            except ArithmeticError:
                pass
            else:
                val[i] = lit(known[i])
                continue
        lines = []
        if kind == _PROD:
            lines.append(f"    {v} = {reads[0]} * {reads[1]}")
        elif kind == _SCALE:
            lines.append(f"    {v} = {lit(a)} * {reads[0]}")
        elif kind == _SUM:
            total(lines, v, "0j", [f" + {r}" for r in reads])
        else:
            lines.append(f"    {v} = {reads[0]} / {reads[1]}")
        # a line on constants is one whose fold raised: always kept
        forward.append((None if on_constants else v, lines, reads))
        val[i] = v

    # live[i]: slot i has a leaf below it that reads a coordinate; no other
    # slot's adjoint can reach a partial, so none is written
    live = []
    for kind, a, b in code:
        if kind == _LEAF:
            live.append(any(kj != 0 for kj in a.k))
        elif kind == _SUM:
            live.append(any(live[j] for j in a))
        elif kind == _SCALE:
            live.append(live[b])
        elif kind == _CONST:
            live.append(False)
        else:
            live.append(live[a] or live[b])

    # adj[i]: the contributions to slot i's adjoint in sweep order, each a
    # sign, an expression and, for a _SUM parent's, that parent's adjoint
    # name; sweep: (target, head, terms) per line; same: the name of the
    # first adjoint of each list of terms; read: the forward values that the
    # sweep reads
    adj = [[] for _ in code]
    grads = [[] for _ in coords]
    sweep, same, read = [], {}, set()
    for i in range(len(code) - 1, -1, -1):
        if not live[i]:
            continue
        kind, a, b = code[i]
        terms = adj[i]
        if i == tape.out[0]:
            w = "seed"
            if terms:
                w = f"a{i}"
                sweep.append((w, "seed", terms))
        elif len(terms) == 1 and terms[0][2] is not None:
            w = terms[0][2]
        else:
            key = tuple(terms)
            w = same.get(key)
            if w is None:
                w = same[key] = f"a{i}"
                sweep.append((w, "0j", terms))
        if kind == _PROD:
            if live[a]:
                adj[a].append((" + ", f"{w} * {val[b]}", None))
                read.add(val[b])
            if live[b]:
                adj[b].append((" + ", f"{w} * {val[a]}", None))
                read.add(val[a])
        elif kind == _SCALE:
            adj[b].append((" + ", f"{lit(a)} * {w}", None))
        elif kind == _SUM:
            for j in a:
                if live[j]:
                    adj[j].append((" + ", w, w))
        elif kind == _QUOT:
            sweep.append((f"q{i}", f"{w} / {val[b]}", ()))
            read.add(val[b])
            if live[a]:
                adj[a].append((" + ", f"q{i}", None))
            if live[b]:
                adj[b].append((" - ", f"q{i} * {val[i]}", None))
                read.add(val[i])
        else:
            ks = [(j, kj) for j, kj in enumerate(a.k) if kj != 0]
            t = f"{w} * {slope[i]}"
            if len(ks) > 1:
                sweep.append((f"t{i}", t, ()))
                t = f"t{i}"
            for j, kj in ks:
                grads[j].append((" + ", f"{t} * {lit(kj)}", None))
    for j, terms in enumerate(grads):
        sweep.append((f"g{j}", "0j", terms))
    # a product that two terms make is computed once: the first binds it to
    # a name u (u := ...), which the later ones read
    uses, uname = {}, {}
    for _target, _head, terms in sweep:
        for _s, e, _w in terms:
            uses[e] = uses.get(e, 0) + 1
    body = []
    for target, head, terms in sweep:
        parts = []
        for s, e, _w in terms:
            if uses[e] > 1 and " * " in e:
                u = uname.get(e)
                if u is None:
                    u = uname[e] = f"u{len(uname)}"
                    e = f"({u} := {e})"
                else:
                    e = u
            parts.append(s + e)
        total(body, target, head, parts)
    body.append(f"    return [{', '.join(f'g{j}' for j in range(dim))}]")

    # the forward lines that some kept line or the sweep reads, found from
    # the last one back
    kept = []
    for v, lines, reads in reversed(forward):
        if v is None or v in read:
            kept.extend(reversed(lines))
            read.update(reads)
    out = ["def grad(p0, seed):", f"    [{', '.join(coords)}] = p0"]
    out += reversed(kept)
    out += body
    return "\n".join(out) + "\n", names


def _fold(kind, a, xs):
    """The value of a ``_SCALE``, ``_SUM``, ``_PROD`` or ``_QUOT`` instruction
    (constant a) on its operand values xs, by the interpreter's operations."""
    if kind == _SCALE:
        return a * xs[0]
    if kind == _PROD:
        return xs[0] * xs[1]
    if kind == _QUOT:
        return xs[0] / xs[1]
    s = 0j
    for x in xs:
        s = s + x
    return s


class Const(Field):
    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

    def __call__(self, x):
        return self.c

    def _emit(self, tape):
        return tape.push(_CONST, self.c)

    def o_affine(self, w, v):
        return self

    def _image(self, w, v, key):
        return self

    def _derived(self, d, key):
        return ZERO


ZERO = Const(0j)
ONE = Const(1.0 + 0j)


def _form(k, c, x):
    """c + <k, x>, skipping the zero entries of k."""
    for ki, xi in zip(k, x):
        if ki != 0:
            c = c + ki * xi
    return c


def _moved(k, w):
    """The form of <k, w x>, i.e. w^{-1} k."""
    if w is None or w.is_identity():
        return k
    return w.inverse().apply_vec(k + (0,) * (w.n - len(k)))


class LinArg(Field):
    """fn(<k, x> + c0); fn=None means the linear form itself."""

    __slots__ = ("fn", "k", "c0")

    def __init__(self, fn, k, c0=0j):
        self.fn = fn
        self.k = tuple(k)
        self.c0 = c0

    def __call__(self, x):
        z = self.c0
        for ki, xi in zip(self.k, x):
            if ki != 0:
                z = z + ki * xi
        return z if self.fn is None else self.fn(z)

    def _emit(self, tape):
        return tape.shared((LinArg, self.fn, self.k, self.c0), _LEAF, self)

    def _o_affine(self, w, v, key):
        c0 = self.c0 if v is None else _form(self.k, self.c0, v)
        return LinArg(self.fn, _moved(self.k, w), c0)

    def _derivative(self, d, key):
        # <k, d>, summed as the tangent of the form at a seeded point
        kd = 0
        for ki, di in zip(self.k, d, strict=True):
            if ki != 0:
                kd = kd + ki * di
        if kd == 0:
            return ZERO
        if self.fn is None:
            return Const(complex(kd))
        return Scale(kd, self.dz())

    def dz(self):
        """fn'(<k, x> + c0): the kernel's derivative (``_dkernel``) on the
        same form."""
        return LinArg(_dkernel(self.fn), self.k, self.c0)


def exp_lin(k):
    """e^{<k,x>}."""
    return LinArg(d_exp, k)


def kernel_family(make):
    """The kernel maker ``make`` memoized on the repr of its parameters:
    separate calls with parameters equal bit for bit return one kernel
    object, so a tape shares their leaves (a parameter of -0.0 is not one of
    0.0, as in the key of ``o_affine``).  ``make`` attaches the kernel's
    ``pair``: z -> (f(z), f'(z)) at a plain z, equal bit for bit to the value
    and slope of the kernel on Dual(z, 1.0) and raising the same
    ``PoleError``.  A kernel's derivative is no family: it is
    ``LinArg.dz``'s ``_dkernel``."""
    memo = {}

    def family(*params):
        key = repr(params)
        out = memo.get(key)
        if out is None:
            out = memo[key] = make(*params)
        return out
    return family


def _dual_pair(fn):
    """(f(z), f'(z)) at a plain z from one run of ``fn`` on Dual(z, 1.0)."""
    def pair(z):
        r = fn(Dual(z, 1.0))
        return value(r), extract(r)
    return pair


def _dkernel(fn):
    """The one derivative kernel of the kernel ``fn``, kept on it as ``dz``:
    ``d_exp`` is its own, and any other kernel gets z -> the eps of fn on
    Dual(z, 1.0), which is Dual-safe, so it nests for higher orders, and
    raises fn's ``PoleError``.  At a plain z a kernel with a pair reads the
    slope of its pair, which is that eps bit for bit (``kernel_family``)."""
    try:
        return fn.dz
    except AttributeError:
        pair = getattr(fn, "pair", None)

        def dz(z):
            if pair is None or isinstance(z, Dual):
                return extract(fn(Dual(z, 1.0)))
            return pair(z)[1]
        fn.dz = dz
        return dz


def _inv_pole(z, guard):
    return PoleError(f"|linear form| = {abs(z):.2e} below pole guard {guard}")


def _inv_maker(guard):
    """z -> 1/z with a pole guard on |z|, and its pair."""
    def kernel(z):
        if abs(z) < guard:
            raise _inv_pole(z, guard)
        return 1.0 / z

    def pair(z):
        if abs(z) < guard:
            raise _inv_pole(z, guard)
        q = 1.0 / z
        return q, (0j - q * 1.0) / z
    kernel.pair = pair
    return kernel


_inv_kernel = kernel_family(_inv_maker)


def inv_form(k, c0=0j, guard=1e-3):
    """1/(<k,x> + c0) with a pole guard on the denominator: one kernel per
    guard, whatever the form, so the pole message names no form."""
    return LinArg(_inv_kernel(guard), k, c0)


def linear_form(k, c0=0j):
    return LinArg(None, k, c0)


def momentum(n, i):
    """p_i as a field on phase points (x_1..x_n, p_1..p_n)."""
    k = [0.0] * (2 * n)
    k[n + i] = 1.0
    return LinArg(None, tuple(k))


class BiArg(Field):
    """fn(<ka,x> + ca, <kb,x> + cb) for a two-argument kernel.

    Used for dynamical R-matrix coefficients, where both the spectral
    argument and the spatial argument are affine-linear in the combined
    (xi, x) coordinates.  It has neither a derivative nor a gradient.
    """

    __slots__ = ("fn", "ka", "ca", "kb", "cb")

    def __init__(self, fn, ka, kb, ca=0j, cb=0j):
        self.fn = fn
        self.ka = tuple(ka)
        self.kb = tuple(kb)
        self.ca = ca
        self.cb = cb

    def __call__(self, x):
        return self.fn(_form(self.ka, self.ca, x), _form(self.kb, self.cb, x))

    def _emit(self, tape):
        return tape.shared((BiArg, self.fn, self.ka, self.kb, self.ca, self.cb),
                           _CALL, self)

    def _o_affine(self, w, v, key):
        ca, cb = self.ca, self.cb
        if v is not None:
            ca, cb = _form(self.ka, ca, v), _form(self.kb, cb, v)
        return BiArg(self.fn, _moved(self.ka, w), _moved(self.kb, w), ca, cb)


class Scale(Field):
    __slots__ = ("c", "f")

    def __init__(self, c, f):
        if isinstance(f, Scale):
            c, f = c * f.c, f.f
        self.c = c
        self.f = f

    def _emit(self, tape):
        return tape.push(_SCALE, self.c, tape.slot(self.f))

    def gradient(self, x):
        # f's own generated gradient, seeded with the adjoint that a sweep of
        # this node's tape hands to f's root, so the partials are that
        # tape's bit for bit and no second function is compiled
        return self.f.tape().gradient(x, 0j + self.c * (1 + 0j))

    def _o_affine(self, w, v, key):
        return Scale(self.c, self.f._image(w, v, key))

    def _derivative(self, d, key):
        df = self.f._derived(d, key)
        return ZERO if df is ZERO else Scale(self.c, df)


class NSum(Field):
    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = parts

    def _emit(self, tape):
        return tape.push(_SUM, tuple([tape.slot(p) for p in self.parts]))

    def _o_affine(self, w, v, key):
        return NSum([p._image(w, v, key) for p in self.parts])

    def _derivative(self, d, key):
        return nsum([p._derived(d, key) for p in self.parts])


def nsum(parts):
    flat = []
    const = 0j
    for p in parts:
        if isinstance(p, NSum):
            flat.extend(p.parts)
        elif isinstance(p, Const):
            const += p.c
        else:
            flat.append(p)
    if const != 0:
        flat.append(Const(const))
    if not flat:
        return ZERO
    if len(flat) == 1:
        return flat[0]
    return NSum(flat)


class Prod(Field):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def _emit(self, tape):
        a = tape.slot(self.a)
        return tape.push(_PROD, a, tape.slot(self.b))

    def _o_affine(self, w, v, key):
        return Prod(self.a._image(w, v, key), self.b._image(w, v, key))

    def _derivative(self, d, key):
        # a b' + a' b, in the order of a Dual product
        da, db = self.a._derived(d, key), self.b._derived(d, key)
        return nsum([Prod(a, b) for a, b in ((self.a, db), (da, self.b))
                     if a is not ZERO and b is not ZERO])


class Quot(Field):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def _emit(self, tape):
        a = tape.slot(self.a)
        return tape.push(_QUOT, a, tape.slot(self.b))

    def _o_affine(self, w, v, key):
        return Quot(self.a._image(w, v, key), self.b._image(w, v, key))

    def _derivative(self, d, key):
        # (a' - q b') / b, q this quotient, as a Dual quotient does it
        da, db = self.a._derived(d, key), self.b._derived(d, key)
        if db is not ZERO:
            da = nsum([da, -Prod(self, db)])
        return ZERO if da is ZERO else Quot(da, self.b)


def derivative(f, dirs):
    """D_{dirs} f for a sequence of directions, by rule, one direction at a
    time; each single-direction derivative is memoized on its source node,
    so mixed partials share nodes."""
    for d in dirs:
        d = tuple(d)
        f = f._derived(d, _direction_key(d))
    return f


def _direction_key(d):
    """The derivative memo's key of the direction tuple d: d itself when ==
    on it tells directions apart bit for bit (every component a float and
    none of them -0.0), else its repr."""
    for x in d:
        if type(x) is not float or (not x and math.copysign(1.0, x) < 0):
            return repr(d)
    return d


def symmetrized(field, group_elements):
    """Average of f over x -> w^{-1} x, i.e. the W-invariant projection."""
    parts = [field.o_group(w.inverse()) for w in group_elements]
    return Scale(1.0 / len(parts), nsum(parts))
