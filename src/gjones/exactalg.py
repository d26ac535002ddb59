"""Exact sparse arithmetic substrate.

Three value types, each immutable and exact:

``LaurentPoly``
    Sparse Laurent polynomials with arbitrary-precision integer
    coefficients in the fixed variable set q, t1, t2, t3, t4, U, X, x, lam.

``QFraction``
    A Laurent polynomial divided by a multiset of q-braces
    {m} = q^m - q^-m.  These are the only denominators the library ever
    needs, so no general rational-function field is built; reduction
    removes brace factors by exact trial division and never changes the
    value.  A fraction equals, and hashes as, the int or LaurentPoly of
    the same value.

``TruncatedSeries``
    Power series in lam to a fixed order with LaurentPoly coefficients:
    every series the library builds is integral, so no brace denominator
    enters one, and inversion needs a +-1 monomial as constant term.
    lam^-1 never appears in a stored series: every equation involving
    lam + lam^-1 is multiplied through by lam before it reaches this type.

Beside them, ``PackedPoly`` holds a polynomial in q, t1 and t2 with each
t-monomial's q-polynomial packed into one integer (Kronecker substitution)
over its own q window, so that a product is one integer product per pair of
slices and multiplying by a two-term monomial sum (``PackedBinomial``) is a
shift and an add.  Each value starts at 64-bit digits and carries a bound on
its coefficients; before an operation could overflow its digits, it re-reads
its operands' bounds from their digits, exactly at every width, and widens
only if they still could.

There are two exact polynomial divisions, each returning None on a
remainder.  ``divide_binomial`` divides a LaurentPoly by a sum of two
+1 / -1 monomials, such as a brace {m} or 1 - X^2, by synthetic division.
``divide_braces`` divides a PackedPoly by a product of braces with one
``divmod`` per slice and certifies the quotient it returns.

All values are immutable after construction and every operation is a pure
function, so values may be shared between threads freely.

Monomials are packed into a single integer key, one 20-bit biased field
per variable with q in the most significant position, so that monomial
multiplication is one integer addition and sorting keys numerically gives
the canonical term order (ascending lexicographic on the exponents of
q, t1, t2, ..., module variable).  Each polynomial carries an upper bound
on its largest |exponent|; an operation whose result could leave the
field raises OverflowError instead of carrying into the next variable.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from typing import Iterable

VARS = ("q", "t1", "t2", "t3", "t4", "U", "X", "x", "lam")
_VIDX = {v: i for i, v in enumerate(VARS)}
_NV = len(VARS)

_FIELD = 20
_BIAS = 1 << (_FIELD - 1)
_MASK = (1 << _FIELD) - 1
_EXP_LIMIT = 1 << 17        # construction-time guard, leaves product headroom
_SHIFTS = tuple(_FIELD * (_NV - 1 - i) for i in range(_NV))
_OFFSET = sum(_BIAS << s for s in _SHIFTS)
# q = 2 and a distinct prime for each other variable, in VARS order
_HASH_POINT = (2, 3, 5, 7, 11, 13, 17, 19, 23)

# JSON term lists expose exponents for the public variables, in this order.
JSON_VARS = ("q", "t1", "t2", "U", "X", "x", "lam")

_LATEX_NAMES = {"q": "q", "t1": "t_1", "t2": "t_2", "t3": "t_3", "t4": "t_4",
                "U": "U", "X": "X", "x": "x", "lam": "\\lambda"}


class NonUnitConstantTerm(ArithmeticError):
    """Series inversion requires a single-monomial unit constant term."""


class IntegralityViolation(ArithmeticError):
    """A brace factor that must divide a numerator exactly left a remainder."""


def _pack(mono: tuple[int, ...]) -> int:
    return sum((e + _BIAS) << s for e, s in zip(mono, _SHIFTS))


def _unpack(key: int) -> tuple[int, ...]:
    return tuple(((key >> s) & _MASK) - _BIAS for s in _SHIFTS)


def _require_int(value, what: str) -> None:
    """Raise TypeError unless ``value`` is an int; a bool is not one here."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{what} must be an int, not {type(value).__name__} {value!r}")


def _shift(name: str) -> int:
    """The offset of variable ``name``'s field in a packed key; ValueError for a name
    outside ``VARS``."""
    if name not in _VIDX:
        raise ValueError(f"unknown variable {name!r}; allowed: {', '.join(VARS)}")
    return _SHIFTS[_VIDX[name]]


def _mono_key(**exps: int) -> tuple[int, int]:
    """The packed key of a monomial and its largest |exponent|."""
    key = _OFFSET
    bound = 0
    for name, e in exps.items():
        sh = _shift(name)
        _require_int(e, f"the exponent of {name}")
        if abs(e) >= _EXP_LIMIT:
            raise ValueError(f"exponent {e} out of supported range")
        bound = max(bound, abs(e))
        key += e << sh
    return key, bound


class LaurentPoly:
    """Sparse exact Laurent polynomial with integer coefficients.

    The public face of a term is a tuple of exponents, one slot per
    variable in ``VARS``; internally terms are keyed by packed integers.
    ``_e`` bounds every |exponent| of every term from above.
    """

    __slots__ = ("_t", "_e")

    def __init__(self, terms: dict[tuple[int, ...], int] | None = None):
        """Terms keyed by exponent tuples with one int per variable of ``VARS``."""
        for mono, c in (terms or {}).items():
            if len(mono) != _NV:
                raise ValueError(f"a monomial needs {_NV} exponents, one per variable of VARS, "
                                 f"got {mono!r}")
            _require_int(c, "a coefficient")
            for e in mono:
                _require_int(e, "an exponent")
        terms = {mono: c for mono, c in (terms or {}).items() if c}
        self._e = max((abs(e) for mono in terms for e in mono), default=0)
        if self._e >= _EXP_LIMIT:
            raise ValueError(f"exponent of magnitude {self._e} out of supported range")
        self._t: dict[int, int] = {_pack(mono): c for mono, c in terms.items()}

    @classmethod
    def _raw(cls, packed: dict[int, int], e: int) -> LaurentPoly:
        p = cls.__new__(cls)
        p._t = packed
        p._e = e
        return p

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> LaurentPoly:
        return cls._raw({}, 0)

    @classmethod
    def one(cls) -> LaurentPoly:
        return cls._raw({_OFFSET: 1}, 0)

    @classmethod
    def const(cls, c: int) -> LaurentPoly:
        _require_int(c, "a coefficient")
        return cls._raw({_OFFSET: c} if c else {}, 0)

    @classmethod
    def term(cls, coeff: int, **exps: int) -> LaurentPoly:
        """Single term ``coeff * prod(var^exp)``, e.g. ``term(-3, q=2, t1=-1)``."""
        _require_int(coeff, "a coefficient")
        key, bound = _mono_key(**exps)
        return cls._raw({key: coeff} if coeff else {}, bound)

    @classmethod
    def var(cls, name: str, exp: int = 1) -> LaurentPoly:
        return cls.term(1, **{name: exp})

    # -- inspection ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._t

    def __len__(self) -> int:
        return len(self._t)

    def terms_sorted(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms in the canonical order: ascending lexicographic exponents."""
        return [(_unpack(k), self._t[k]) for k in sorted(self._t)]

    def coeff(self, **exps: int) -> int:
        return self._t.get(_mono_key(**exps)[0], 0)

    def as_single_term(self) -> tuple[tuple[int, ...], int]:
        if len(self._t) != 1:
            raise ValueError("not a single-term polynomial")
        k, c = next(iter(self._t.items()))
        return _unpack(k), c

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: LaurentPoly) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if len(self._t) < len(other._t):      # loop over the smaller operand
            self, other = other, self
        if not other._t:
            return self
        out = dict(self._t)
        get = out.get
        for k, c in other._t.items():
            s = get(k, 0) + c
            if s:
                out[k] = s
            else:
                del out[k]
        return LaurentPoly._raw(out, self._e if self._e > other._e else other._e)

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly._raw({k: -c for k, c in self._t.items()}, self._e)

    def __sub__(self, other: LaurentPoly) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + -other

    def __mul__(self, other: LaurentPoly | int) -> LaurentPoly:
        if isinstance(other, int):
            if other == 0:
                return LaurentPoly._raw({}, 0)
            return LaurentPoly._raw({k: c * other for k, c in self._t.items()}, self._e)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self._t, other._t
        if not a or not b:
            return LaurentPoly._raw({}, 0)
        e = self._e + other._e
        if e >= _BIAS:
            raise OverflowError(f"exponents up to {e} exceed the supported range")
        if len(a) > len(b):
            a, b = b, a
        out: dict[int, int] = {}
        get = out.get
        off = _OFFSET
        items_b = list(b.items())
        for ka, ca in a.items():
            base = ka - off
            for kb, cb in items_b:
                k = base + kb
                s = get(k, 0) + ca * cb
                if s:
                    out[k] = s
                else:
                    del out[k]
        return LaurentPoly._raw(out, e)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> LaurentPoly:
        if n < 0:
            mono, c = self.as_single_term()
            if c not in (1, -1):
                raise ValueError("negative powers only for unit monomials")
            e = self._e * -n
            if e >= _BIAS:
                raise OverflowError(f"exponents up to {e} exceed the supported range")
            return LaurentPoly._raw({_pack(tuple(x * n for x in mono)): c ** -n}, e)
        if n == 0:
            return LaurentPoly.one()
        out, base = None, self
        while True:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if not n:
                return out
            base = base * base

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self._t == ({} if other == 0 else {_OFFSET: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._t == other._t

    def __hash__(self) -> int:
        return hash(_value_at_hash_point(self))

    # -- substitution -------------------------------------------------

    def substitute(self, name: str, image: LaurentPoly | int) -> LaurentPoly:
        """Replace ``name`` by a signed monomial image, exactly.

        ``image`` must be a single term with coefficient +1 or -1 (ints 1
        and -1 are accepted); its exponents may be negative, so inversions
        like U -> U^-1 and evaluations like U -> -q^2 are all covered.
        """
        sh = _shift(name)
        if isinstance(image, int):
            image = LaurentPoly.const(image)
        if len(image._t) != 1:
            raise ValueError("substitution image must be a single term")
        ikey, ic = next(iter(image._t.items()))
        if ic not in (1, -1):
            raise ValueError("substitution image must have coefficient +1 or -1")
        delta = ikey - _OFFSET
        # each exponent moves by at most (exponent of name) * (largest image exponent)
        bound = self._e * (1 + image._e)
        if bound >= _BIAS:
            raise OverflowError(f"exponents up to {bound} exceed the supported range")
        out: dict[int, int] = {}
        get = out.get
        for k, c in self._t.items():
            e = ((k >> sh) & _MASK) - _BIAS
            if e:
                k = k - (e << sh) + e * delta
                if ic == -1 and e % 2:
                    c = -c
            s = get(k, 0) + c
            if s:
                out[k] = s
            else:
                del out[k]
        return LaurentPoly._raw(out, bound)

    # -- rendering ----------------------------------------------------

    def render(self, fmt: str = "text") -> str:
        if not self._t:
            return "0"
        parts = []
        for mono, c in self.terms_sorted():
            if fmt == "latex":
                body = "".join(
                    _LATEX_NAMES[VARS[i]] + (f"^{{{e}}}" if e != 1 else "")
                    for i, e in enumerate(mono) if e
                )
                sep = ""
            else:
                body = "*".join(
                    VARS[i] + (f"^{e}" if e != 1 else "")
                    for i, e in enumerate(mono) if e
                )
                sep = "*"
            if not body:
                s = str(c)
            elif c == 1:
                s = body
            elif c == -1:
                s = "-" + body
            else:
                s = f"{c}{sep}{body}"
            parts.append(s)
        out = parts[0]
        for s in parts[1:]:
            out += " - " + s[1:] if s.startswith("-") else " + " + s
        return out

    def json_terms(self) -> list[list[int]]:
        """Term list ``[[e_q, e_t1, e_t2, e_U, e_X, e_x, e_lam, coeff], ...]``."""
        idx = [_VIDX[v] for v in JSON_VARS]
        hidden = [i for i in range(_NV) if VARS[i] not in JSON_VARS]
        rows = []
        for mono, c in self.terms_sorted():
            if any(mono[i] for i in hidden):
                raise ValueError("polynomial uses variables outside the JSON schema")
            rows.append([mono[i] for i in idx] + [c])
        return rows

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"LaurentPoly({self.render()})"


def _value_at_hash_point(p: LaurentPoly) -> Fraction:
    """The exact value of ``p`` at ``_HASH_POINT``, which every exact type hashes."""
    val = Fraction(0)
    for mono, c in p.terms_sorted():
        for v, e in zip(_HASH_POINT, mono):
            c *= Fraction(v) ** e
        val += c
    return val


def qbrace_poly(m: int) -> LaurentPoly:
    """The q-brace {m} = q^m - q^-m as a polynomial; {0} = 0."""
    if m == 0:
        return LaurentPoly.zero()
    return LaurentPoly._raw({_mono_key(q=m)[0]: 1, _mono_key(q=-m)[0]: -1}, abs(m))


def divide_binomial(p: LaurentPoly, b: LaurentPoly) -> LaurentPoly | None:
    """Exact division of ``p`` by ``b``, a sum of two +1 / -1 monomials, or None
    if not exact; any other ``b`` raises ValueError.

    Synthetic division along the most significant variable in which the two
    monomials of ``b`` differ: the higher one has a unit coefficient there,
    so scanning that variable's exponents downward fixes the quotient a
    bucket at a time, and whatever cannot be absorbed is a remainder.
    """
    if len(b._t) != 2 or not {1, -1}.issuperset(b._t.values()):
        raise ValueError("a binomial divisor is two +1 / -1 monomials")
    if p.is_zero:
        return p
    (k_lo, c_lo), (k_hi, c_hi) = sorted(b._t.items())
    sh = ((k_hi ^ k_lo).bit_length() - 1) // _FIELD * _FIELD    # the lead variable's field
    step = ((k_hi >> sh) & _MASK) - ((k_lo >> sh) & _MASK)
    hi, lo = _unpack(k_hi), _unpack(k_lo)
    # In each variable, p = b * quotient puts the quotient's exponents inside
    # p's range when b's two exponents there are of opposite signs or 0, and
    # within b's largest |exponent| of it otherwise.
    extra = 0 if all(x * y <= 0 for x, y in zip(hi, lo)) else max(map(abs, hi + lo))
    drift = max(abs(x - y) for x, y, s in zip(hi, lo, _SHIFTS) if s != sh)
    buckets: dict[int, dict[int, int]] = {}
    for k, c in p._t.items():
        buckets.setdefault(((k >> sh) & _MASK) - _BIAS, {})[k] = c
    emax = max(buckets)
    emin = min(buckets)
    # the quotient, and each remainder term as it moves by k_hi - k_lo past
    # the buckets, must stay inside the exponent fields
    if p._e + max(extra, (emax - emin) // step * drift) >= _BIAS:
        raise OverflowError("binomial division could leave the supported exponent range")
    gain = -c_lo * c_hi
    lead, delta = k_hi - _OFFSET, k_hi - k_lo
    quot: dict[int, int] = {}
    for e in range(emax, emin + step - 1, -1):
        cur = buckets.pop(e, None)
        if not cur:
            continue
        low = buckets.setdefault(e - step, {})
        get = low.get
        for k, c in cur.items():
            quot[k - lead] = c_hi * c
            kl = k - delta
            s = get(kl, 0) + gain * c
            if s:
                low[kl] = s
            else:
                del low[kl]
    for rest in buckets.values():
        if rest:
            return None
    return LaurentPoly._raw(quot, p._e + extra)


def divide_brace(p: LaurentPoly, m: int) -> LaurentPoly | None:
    """Exact division by {m} = q^m - q^-m, or None if not exact."""
    return divide_binomial(p, qbrace_poly(m))


def brace_product(ms: Iterable[int], p: LaurentPoly | None = None) -> LaurentPoly:
    """``p`` (default 1) times {m} for each m in ``ms``."""
    # one brace at a time: multiplying by the expanded product would cost
    # 2^k times more on large polynomials
    out = LaurentPoly.one() if p is None else p
    for m in ms:
        out = out * qbrace_poly(m)
    return out


# ---------------------------------------------------------------------------
# q-packed polynomials in q, t1, t2
# ---------------------------------------------------------------------------

_SH_Q, _SH_T1, _SH_T2 = _SHIFTS[_VIDX["q"]], _SHIFTS[_VIDX["t1"]], _SHIFTS[_VIDX["t2"]]
_QT_FIELDS = sum(_MASK << s for s in (_SH_Q, _SH_T1, _SH_T2))
_NOT_QT = ~_QT_FIELDS
_NOT_QT_OFFSET = _OFFSET & _NOT_QT     # the other fields of a monomial in q, t1, t2
_BELOW_Q, _Q_ZERO = (1 << _SH_Q) - 1, _BIAS << _SH_Q
_LITTLE_ENDIAN = sys.byteorder == "little"     # 64-bit digits can be read as native words


def _width(bound: int) -> int:
    """The least multiple of 64, W, with bound < 2^(W-1)."""
    return 64 * ((bound.bit_length() + 64) // 64)


def _balanced(v: int, width: int) -> bytes:
    """The balanced base-2^W digits of ``v``, lowest first, each as one little-endian
    W-bit two's complement field; every int has them, and the top field may be a zero
    digit.  Adding 2^(W-1) to every field lifts each digit into [0, 2^W) with no carry,
    and flipping each field's top bit turns it into the digit's two's complement."""
    step = width // 8
    nd = (v.bit_length() + 1) // width + 1
    bias = int.from_bytes((1 << (width - 1)).to_bytes(step, "little") * nd, "little")
    return ((v + bias) ^ bias).to_bytes(nd * step, "little")


def _digits(raw: bytes, width: int):
    """The digits of ``_balanced(v, width)``, lowest first, as signed ints: at W = 64 its
    native words cast with no Python loop, above that one int read per W-bit field."""
    if width == 64:
        if _LITTLE_ENDIAN:
            return memoryview(raw).cast("q")
        words = array("q", raw)
        words.byteswap()
        return words
    step = width // 8
    return [int.from_bytes(raw[j:j + step], "little", signed=True) for j in range(0, len(raw), step)]


def _digit_bounds(vs: Iterable[int], width: int) -> tuple[int, int]:
    """The largest |digit| of the ints ``vs`` in base 2^W, exactly, and an upper bound
    on the sum of all their |digits|: per int, its largest |digit| times its digit count."""
    top = norm = 0
    for v in vs:
        digits = _digits(_balanced(v, width), width)
        digit = max(max(digits), -min(digits))
        top, norm = max(top, digit), norm + digit * len(digits)
    return top, norm


def _t_degree(tkey: int) -> int:
    """max(|e_t1|, |e_t2|) of a packed monomial key."""
    return max(abs(((tkey >> _SH_T1) & _MASK) - _BIAS), abs(((tkey >> _SH_T2) & _MASK) - _BIAS))


class PackedPoly:
    """A polynomial in q, t1, t2 with each t-monomial's q-polynomial packed into
    one int; immutable.

    ``_v`` maps a t-monomial key to the slice's value at q = 2^W divided by
    q^low, sum c * 2^(W * (e_q - low)), with balanced digits.  ``low`` is the
    value's q window, shared by its slices.  ``bound`` and ``norm`` bound the
    largest |coefficient| and the sum of all of them from above.

    Integer adds, shifts and products give exactly the packed image of the
    true sum or product whatever the size of its digits, so only reading the
    digits needs bound < 2^(W-1).  Every operation keeps that true through
    ``_fit``: one whose result could reach it first re-reads its operands'
    largest |digit| exactly, at any width, then widens them if the result
    still could, so every digit of every value is a coefficient.
    """

    __slots__ = ("_v", "low", "width", "bound", "norm")

    @classmethod
    def _raw(cls, v: dict[int, int], low: int, width: int, bound: int, norm: int) -> PackedPoly:
        p = cls.__new__(cls)
        p._v, p.low, p.width, p.bound, p.norm = v, low, width, bound, norm
        return p

    @classmethod
    def pack(cls, p: LaurentPoly, width: int = 64) -> PackedPoly:
        """``p`` packed with at least ``width``-bit digits, wider if a coefficient
        needs it; ValueError unless p is a polynomial in q, t1 and t2."""
        t = p._t
        bound = max(map(abs, t.values()), default=0)
        width = max(width, _width(bound))
        # the biased low end of the q window: q is the top field, so the least key has it
        base = min(t, default=_OFFSET) >> _SH_Q
        out: dict[int, int] = {}
        get = out.get
        for key, c in t.items():
            if key & _NOT_QT != _NOT_QT_OFFSET:
                raise ValueError("only polynomials in q, t1 and t2 can be packed")
            tkey = key & _BELOW_Q | _Q_ZERO
            out[tkey] = get(tkey, 0) + (c << width * ((key >> _SH_Q) - base))
        return cls._raw(out, base - _BIAS, width, bound, sum(map(abs, t.values())))

    @property
    def is_zero(self) -> bool:
        return not self._v

    def unpack(self) -> LaurentPoly:
        """The LaurentPoly this value packs, with the true bound on its exponents;
        OverflowError if a q exponent leaves the monomial fields."""
        width = self.width
        out: dict[int, int] = {}
        e_max = 0
        for tkey, v in self._v.items():
            lo = ((v & -v).bit_length() - 1) // width     # the lowest nonzero digit
            digits = _digits(_balanced(v >> width * lo, width), width)
            base = tkey + ((self.low + lo) << _SH_Q)
            top = 0
            for j, d in enumerate(digits):
                if d:
                    out[base + (j << _SH_Q)] = d
                    top = j
            e_max = max(e_max, _t_degree(tkey), abs(self.low + lo), abs(self.low + lo + top))
        if e_max >= _BIAS:
            raise OverflowError(f"packed exponents up to {e_max} exceed the supported range")
        return LaurentPoly._raw(out, e_max)

    def _widened(self, width: int) -> PackedPoly:
        return PackedPoly.pack(self.unpack(), width)

    def _reread(self) -> PackedPoly:
        """This value with ``bound`` and ``norm`` read from its digits where that is tighter."""
        top, norm = _digit_bounds(self._v.values(), self.width)
        return PackedPoly._raw(self._v, self.low, self.width, min(self.bound, top),
                               min(self.norm, norm))

    def _merge(self, other: PackedPoly, sign: int) -> PackedPoly:
        if not other._v:
            return self
        if not self._v:
            return other if sign > 0 else -other
        (a, b), bound = _fit((self, other), lambda a, b: a.bound + b.bound)
        width, low = a.width, min(a.low, b.low)
        if a.low == low:
            out = dict(a._v)
        else:
            out = {k: v << width * (a.low - low) for k, v in a._v.items()}
        get = out.get
        sh = width * (b.low - low)
        for k, v in b._v.items():
            if sh:
                v <<= sh
            s = get(k, 0) + v if sign > 0 else get(k, 0) - v
            if s:
                out[k] = s
            else:
                del out[k]
        return PackedPoly._raw(out, low, width, bound, a.norm + b.norm)

    def __add__(self, other: PackedPoly) -> PackedPoly:
        return self._merge(other, 1)

    def __radd__(self, other: int) -> PackedPoly:
        return self if other == 0 else NotImplemented      # sum() starts from 0

    def __sub__(self, other: PackedPoly) -> PackedPoly:
        return self._merge(other, -1)

    def __neg__(self) -> PackedPoly:
        return PackedPoly._raw({k: -v for k, v in self._v.items()}, self.low, self.width,
                               self.bound, self.norm)

    def __mul__(self, other: PackedPoly) -> PackedPoly:
        """The product: one integer product per pair of slices."""
        if not isinstance(other, PackedPoly):
            return NotImplemented
        (a, b), bound = _fit((self, other), lambda a, b: min(a.bound * b.norm, a.norm * b.bound))
        out: dict[int, int] = {}
        get = out.get
        items_b = [(kb - _OFFSET, vb) for kb, vb in b._v.items()]
        for ka, va in a._v.items():
            for kb, vb in items_b:
                k = ka + kb
                s = get(k, 0) + va * vb
                if s:
                    out[k] = s
                else:
                    del out[k]
        return PackedPoly._raw(out, a.low + b.low, a.width, bound, a.norm * b.norm)

    def specialize(self, t1_one: bool, t2_one: bool) -> PackedPoly:
        """This value with t1 and/or t2 set to 1: each slice key loses its t1 / t2
        exponent, and the slices whose keys then agree add as ints, since they share
        the q window.  A merge of g slices at most multiplies the largest |coefficient|
        by g and never lifts it past ``norm``."""
        mask = (_MASK << _SH_T1 if t1_one else 0) | (_MASK << _SH_T2 if t2_one else 0)
        if not mask:
            return self
        keep, fill = ~mask, _OFFSET & mask
        sizes: dict[int, int] = {}
        for k in self._v:
            k = k & keep | fill
            sizes[k] = sizes.get(k, 0) + 1
        group = max(sizes.values(), default=1)
        (p,), bound = _fit((self,), lambda p: min(p.norm, p.bound * group))
        out: dict[int, int] = {}
        get = out.get
        for k, v in p._v.items():
            k = k & keep | fill
            s = get(k, 0) + v
            if s:
                out[k] = s
            else:
                del out[k]
        return PackedPoly._raw(out, p.low, p.width, bound, p.norm)


def _fit(ops: tuple[PackedPoly, ...], bound_of) -> tuple[tuple[PackedPoly, ...], int]:
    """The one widening rule, and the only code that compares a bound with a width:
    ``ops``, one or two values, at one width whose digits hold ``bound_of(*ops)``, the
    bound of a result made from them, and that bound.  Where the tracked bounds could
    overflow, they are re-read from the digits first, exactly at every width, and the
    operands widen only if the re-read bound still could."""
    bound = bound_of(*ops)
    width = ops[0].width
    if ops[-1].width == width and not bound >> (width - 1):
        return ops, bound
    width = max(width, ops[-1].width)
    if bound >> (width - 1):
        ops = tuple(p._reread() for p in ops)
        bound = bound_of(*ops)
        width = max(width, _width(bound))
    return tuple(p if p.width == width else p._widened(width) for p in ops), bound


def divide_braces(p: PackedPoly, ms: Iterable[int]) -> PackedPoly | None:
    """Exact division of ``p`` by the brace product prod {m}, each m >= 1, or None
    if it is not exact.

    With B = 2^W, {m} = q^-m (q^2m - 1), so each slice takes one ``divmod`` by
    D = prod (B^2m - 1), and the window moves up by sum m.  A remainder means
    that D(q) does not divide the slice.  A zero remainder gives an int whose
    balanced digits read as a polynomial Q with p - D Q zero at q = B.  The
    coefficients of p - D Q are at most bound(p) + 2^k max|Q|, k braces, so
    when that is below 2^(W-1) they are the digits of 0: p = D Q exactly.
    Otherwise p is refitted by ``_fit``, which re-reads bound(p) exactly, and,
    if that widens it, the division is redone, so a quotient is returned only
    when it is certified, with its largest |digit|, read exactly, as its bound.
    """
    ms = tuple(ms)
    while True:
        width = p.width
        d = 1
        for m in ms:
            d *= (1 << 2 * m * width) - 1
        out: dict[int, int] = {}
        for tkey, v in p._v.items():
            quot, rem = divmod(v, d)
            if rem:
                return None
            out[tkey] = quot
        top, norm = _digit_bounds(out.values(), width)
        (p,), _ = _fit((p,), lambda p: p.bound + (top << len(ms)))
        if p.width == width:
            return PackedPoly._raw(out, p.low + sum(ms), width, top, norm)


class PackedBinomial:
    """A sum of two +1 / -1 monomials in q, t1, t2 that multiplies PackedPoly
    values: each term is a t-key offset, a q exponent and a negation flag, and
    ``_down`` is the lower of the two q exponents, by which the window moves.
    """

    __slots__ = ("_terms", "_down")

    def __init__(self, p: LaurentPoly):
        if len(p._t) != 2:
            raise ValueError("a packed multiplier has exactly two terms")
        terms = []
        for key, c in sorted(p._t.items()):
            if c not in (1, -1) or key & _NOT_QT != _NOT_QT_OFFSET:
                raise ValueError("packed multiplier terms are +1 or -1 times a monomial "
                                 "in q, t1 and t2")
            e_q = ((key >> _SH_Q) & _MASK) - _BIAS
            terms.append((key - _OFFSET - (e_q << _SH_Q), e_q, c < 0))
        self._terms = tuple(terms)
        self._down = terms[0][1]     # terms sort by their q exponent first

    def __mul__(self, other: PackedPoly) -> PackedPoly:
        if not isinstance(other, PackedPoly):
            return NotImplemented
        (other,), bound = _fit((other,), lambda p: 2 * p.bound)
        (d1, e1, neg1), (d2, e2, neg2) = self._terms
        sh = other.width * (e2 - e1)     # the window starts at the lower term
        out: dict[int, int] = {}
        if d1 == d2:     # both terms move the same t-monomial: one slice out per slice in
            for k, v in other._v.items():
                b = v << sh
                s = v - b if neg1 != neg2 else v + b
                if s:
                    out[k + d1] = -s if neg1 else s
        else:
            get = out.get
            pair = ((d1, 0, neg1), (d2, sh, neg2))
            for k, v in other._v.items():
                for d, shift, neg in pair:
                    a = v << shift
                    s = get(k + d, 0) - a if neg else get(k + d, 0) + a
                    if s:
                        out[k + d] = s
                    else:
                        del out[k + d]
        return PackedPoly._raw(out, other.low + self._down, other.width, bound, 2 * other.norm)


class QFraction:
    """A LaurentPoly numerator over a multiset of q-brace factors.

    ``den`` is a sorted tuple of positive ints, each standing for a factor
    {m} = q^m - q^-m.  An empty den means the value is just the numerator.
    A negative index given to the constructor is folded into the sign of
    the numerator, since {-m} = -{m}; the index 0 ({0} = 0) raises
    ValueError.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly | int, den: Iterable[int] = ()):
        if isinstance(num, int):
            num = LaurentPoly.const(num)
        d = tuple(sorted(den))
        if d and d[0] <= 0:
            if 0 in d:
                raise ValueError("the brace {0} = 0 cannot be a denominator")
            if sum(m < 0 for m in d) % 2:
                num = -num
            d = tuple(sorted(map(abs, d)))
        self.num = num
        self.den = d if not num.is_zero else ()

    @classmethod
    def zero(cls) -> QFraction:
        return cls(LaurentPoly.zero())

    @classmethod
    def one(cls) -> QFraction:
        return cls(LaurentPoly.one())

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    # -- arithmetic: sums go over the least common brace multiset -------

    def __add__(self, other: QFraction) -> QFraction:
        if not isinstance(other, QFraction):
            return NotImplemented
        return qfrac_sum([self, other])

    def __sub__(self, other: QFraction) -> QFraction:
        if not isinstance(other, QFraction):
            return NotImplemented
        return qfrac_sum([self, -other])

    def __neg__(self) -> QFraction:
        return QFraction(-self.num, self.den)

    def __mul__(self, other: QFraction | LaurentPoly | int) -> QFraction:
        if isinstance(other, QFraction):
            return QFraction(self.num * other.num, self.den + other.den)
        if isinstance(other, (LaurentPoly, int)):
            return QFraction(self.num * other, self.den)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, LaurentPoly)):
            other = QFraction(other)
        if not isinstance(other, QFraction):
            return NotImplemented
        if self.den == other.den:   # no common denominator to form
            return self.num == other.num
        (a, b), _ = _over_lcm([self, other])
        return a == b

    def __hash__(self) -> int:
        # reduced() is not canonical (({9}/{3})/{9} stays as it is while
        # equal to 1/{3}), so hash the exact value
        val = _value_at_hash_point(self.num)
        for m in self.den:
            val /= Fraction(2) ** m - Fraction(2) ** -m
        return hash(val)

    def reduced(self) -> QFraction:
        """Remove every brace factor that divides the numerator exactly."""
        if self.num.is_zero or not self.den:
            return self
        # One pass is enough.  If {m} does not divide N, it divides no
        # quotient N/{m'} either (that quotient divides N), nor does any
        # {k m}, which {m} divides; so a failed index and its multiples are
        # never tried again.
        num = self.num
        kept: list[int] = []
        for m in self.den:
            qt = None if any(m % f == 0 for f in kept) else divide_brace(num, m)
            if qt is None:
                kept.append(m)
            else:
                num = qt
        return QFraction(num, kept)

    def over(self, den: Iterable[int]) -> LaurentPoly:
        """The numerator of this value over the brace multiset ``den``: braces it adds are
        multiplied in, and a brace it drops that leaves a remainder raises IntegralityViolation."""
        target = QFraction(1, den)      # folds negative indices into its sign
        num, extra = (self.num if target.num == 1 else -self.num), list(self.den)
        for m in target.den:
            if m in extra:
                extra.remove(m)
            else:
                num = num * qbrace_poly(m)
        for m in extra:
            num = divide_brace(num, m)
            if num is None:
                raise IntegralityViolation(f"the brace {{{m}}} of {self.den} does not cancel")
        return num

    def substitute(self, name: str, image: LaurentPoly | int) -> QFraction:
        if name == "q" and self.den:
            raise ValueError("cannot substitute q while brace denominators remain")
        return QFraction(self.num.substitute(name, image), self.den)

    def render(self, fmt: str = "text") -> str:
        if not self.den:
            return self.num.render(fmt)
        brace = r"\{%d\}" if fmt == "latex" else "{%d}"     # a bare {3} is a TeX group
        braces = "".join(brace % m for m in self.den)
        return f"({self.num.render(fmt)}) / {braces}"

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"QFraction({self.render()})"


def _over_lcm(terms: list[QFraction]) -> tuple[list[LaurentPoly], list[int]]:
    """Each term's numerator over the least common brace multiset of ``terms``
    (each brace as often as the term that has it most), and that multiset."""
    lcm: list[int] = []
    for t in terms:
        rest = list(lcm)
        for m in t.den:
            if m in rest:
                rest.remove(m)
            else:
                lcm.append(m)
    nums = []
    for t in terms:
        missing = list(lcm)
        for m in t.den:
            missing.remove(m)
        nums.append(brace_product(missing, t.num))
    return nums, lcm


def qfrac_sum(terms: Iterable[QFraction]) -> QFraction:
    """Sum QFractions over their least common brace multiset at once.

    The one place where fractions are summed over a common denominator:
    ``+`` and ``-`` of QFraction come here too.  Summing a whole list at
    once is cheaper than folding it pairwise.
    """
    terms = [t for t in terms if t.num._t]
    if len(terms) < 2:
        return terms[0] if terms else QFraction.zero()
    den = terms[0].den
    if all(t.den == den for t in terms):
        acc = terms[0].num
        for t in terms[1:]:
            acc = acc + t.num
        return QFraction(acc, den)
    nums, lcm = _over_lcm(terms)
    return QFraction(sum(nums, LaurentPoly.zero()), lcm)


def _dot(xs: Iterable[LaurentPoly], ys: Iterable[LaurentPoly]) -> LaurentPoly:
    """Sum of the products of paired polynomials, skipping zero factors."""
    return sum((a * b for a, b in zip(xs, ys) if a._t and b._t), LaurentPoly.zero())


class TruncatedSeries:
    """Power series in lam, truncated at a fixed order, LaurentPoly coefficients;
    an int coefficient is a constant, any other type raises TypeError."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs: Iterable[LaurentPoly | int], order: int):
        if order < 0:
            raise ValueError("order must be >= 0")
        cs = []
        for c in coeffs:
            if isinstance(c, int):
                c = LaurentPoly.const(c)
            elif not isinstance(c, LaurentPoly):
                raise TypeError(f"a series coefficient is a LaurentPoly or int, "
                                f"not {type(c).__name__}")
            cs.append(c)
        cs = cs[: order + 1]
        cs.extend(LaurentPoly.zero() for _ in range(order + 1 - len(cs)))
        self.order = order
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, order: int) -> TruncatedSeries:
        return cls([], order)

    @classmethod
    def one(cls, order: int) -> TruncatedSeries:
        return cls([1], order)

    def coeff(self, n: int) -> LaurentPoly:
        if n < 0 or n > self.order:
            raise IndexError(f"coefficient {n} outside truncation order {self.order}")
        return self.coeffs[n]

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coeffs)

    def __add__(self, other: TruncatedSeries) -> TruncatedSeries:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        k = min(self.order, other.order)
        return TruncatedSeries([a + b for a, b in zip(self.coeffs, other.coeffs)][:k + 1], k)

    def __sub__(self, other: TruncatedSeries) -> TruncatedSeries:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self + -other

    def __neg__(self) -> TruncatedSeries:
        return TruncatedSeries([-c for c in self.coeffs], self.order)

    def __mul__(self, other: TruncatedSeries) -> TruncatedSeries:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        k = min(self.order, other.order)
        return TruncatedSeries([_dot(self.coeffs[:n + 1], reversed(other.coeffs[:n + 1]))
                                for n in range(k + 1)], k)

    def scale(self, c: LaurentPoly | int) -> TruncatedSeries:
        return TruncatedSeries([a * c for a in self.coeffs], self.order)

    def shift(self, k: int = 1) -> TruncatedSeries:
        """Multiply by lam^k (k >= 0), truncating at the same order."""
        if k < 0:
            raise ValueError("shift must be nonnegative")
        return TruncatedSeries([0] * k + list(self.coeffs[: self.order + 1 - k]), self.order)

    def invert(self) -> TruncatedSeries:
        """Series inverse; the constant term must be +1 or -1 times a monomial."""
        try:
            b0 = self.coeffs[0] ** -1
        except ValueError:
            raise NonUnitConstantTerm(f"constant term {self.coeffs[0]} is not a unit") from None
        out = [b0]
        for n in range(1, self.order + 1):
            out.append(-(b0 * _dot(self.coeffs[1:n + 1], reversed(out))))
        return TruncatedSeries(out, self.order)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        k = min(self.order, other.order)
        return all(self.coeffs[n] == other.coeffs[n] for n in range(k + 1))

    def __str__(self) -> str:
        parts = [f"({c}) lam^{n}" for n, c in enumerate(self.coeffs) if not c.is_zero]
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O(lam^{self.order + 1})"

    __repr__ = __str__
