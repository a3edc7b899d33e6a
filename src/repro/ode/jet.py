"""Taylor-jet arithmetic over intervals.

A :class:`Jet` is a truncated Taylor series ``sum_k c_k * t**k`` with
*interval* coefficients. Arithmetic on jets implements the classic
recurrences for products, quotients and elementary functions, which is
how validated ODE solvers compute high-order Taylor coefficients of the
flow automatically from the right-hand-side code (interval automatic
differentiation in the sense of Moore/Lohner).

All coefficient arithmetic bottoms out in the sound
:class:`~repro.intervals.Interval` operations, so every jet coefficient
encloses the true Taylor coefficient for every point selection inside
the operand intervals.
"""

from __future__ import annotations

from typing import Sequence, Union

from ..intervals import Interval, icos, isin, isqrt

JetLike = Union["Jet", Interval, int, float]

_ZERO = Interval(0.0, 0.0)


class Jet:
    """Truncated interval Taylor series with ``order + 1`` coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Interval]):
        if not coeffs:
            raise ValueError("a jet needs at least one coefficient")
        self.coeffs = list(coeffs)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def constant(value: Interval | float, order: int) -> "Jet":
        iv = Interval.coerce(value)
        return Jet([iv] + [_ZERO] * order)

    @staticmethod
    def variable(value: Interval | float, order: int) -> "Jet":
        """Jet of the integration variable itself: ``value + t``."""
        iv = Interval.coerce(value)
        if order == 0:
            return Jet([iv])
        return Jet([iv, Interval(1.0, 1.0)] + [_ZERO] * (order - 1))

    @staticmethod
    def coerce(x: JetLike, order: int) -> "Jet":
        if isinstance(x, Jet):
            if x.order != order:
                raise ValueError(f"jet order mismatch: {x.order} vs {order}")
            return x
        return Jet.constant(Interval.coerce(x), order)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> Interval:
        """The k-th coefficient (zero beyond the truncation order)."""
        if k < 0:
            raise IndexError("negative Taylor index")
        if k >= len(self.coeffs):
            return _ZERO
        return self.coeffs[k]

    # ------------------------------------------------------------------
    # Ring operations
    # ------------------------------------------------------------------
    def __neg__(self) -> "Jet":
        return Jet([-c for c in self.coeffs])

    def __add__(self, other: JetLike) -> "Jet":
        o = Jet.coerce(other, self.order)
        return Jet([a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __sub__(self, other: JetLike) -> "Jet":
        o = Jet.coerce(other, self.order)
        return Jet([a - b for a, b in zip(self.coeffs, o.coeffs)])

    def __rsub__(self, other: JetLike) -> "Jet":
        return Jet.coerce(other, self.order) - self

    def __mul__(self, other: JetLike) -> "Jet":
        if isinstance(other, (int, float, Interval)):
            iv = Interval.coerce(other)
            return Jet([c * iv for c in self.coeffs])
        o = Jet.coerce(other, self.order)
        out = []
        for k in range(self.order + 1):
            acc = _ZERO
            for j in range(k + 1):
                acc = acc + self.coeffs[j] * o.coeffs[k - j]
            out.append(acc)
        return Jet(out)

    __rmul__ = __mul__

    def __truediv__(self, other: JetLike) -> "Jet":
        if isinstance(other, (int, float, Interval)):
            iv = Interval.coerce(other)
            return Jet([c / iv for c in self.coeffs])
        o = Jet.coerce(other, self.order)
        v0 = o.coeffs[0]
        if v0.lo <= 0.0 <= v0.hi:
            raise ZeroDivisionError(f"jet division by {v0} (contains zero)")
        out: list[Interval] = []
        for k in range(self.order + 1):
            acc = self.coeffs[k]
            for j in range(k):
                acc = acc - out[j] * o.coeffs[k - j]
            out.append(acc / v0)
        return Jet(out)

    def __rtruediv__(self, other: JetLike) -> "Jet":
        return Jet.coerce(other, self.order) / self

    def __pow__(self, n: int) -> "Jet":
        if not isinstance(n, int) or n < 0:
            raise TypeError("jet power requires a non-negative integer")
        result = Jet.constant(1.0, self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def sq(self) -> "Jet":
        return self * self

    # ------------------------------------------------------------------
    # Elementary functions (standard Taylor recurrences)
    # ------------------------------------------------------------------
    def sin_cos(self) -> tuple["Jet", "Jet"]:
        """Simultaneous sine and cosine (they share one recurrence)."""
        n = self.order
        u0 = self.coeffs[0]
        if isinstance(u0, Interval):
            s, c = [isin(u0)], [icos(u0)]
        else:  # an IntervalBatch: the batched integrator's jets
            sin0, cos0 = u0.sin_cos()
            s, c = [sin0], [cos0]
        for k in range(1, n + 1):
            acc_s = _ZERO
            acc_c = _ZERO
            for j in range(1, k + 1):
                factor = self.coeffs[j] * float(j)
                acc_s = acc_s + factor * c[k - j]
                acc_c = acc_c + factor * s[k - j]
            s.append(acc_s / float(k))
            c.append(-(acc_c / float(k)))
        return Jet(s), Jet(c)

    def sin(self) -> "Jet":
        return self.sin_cos()[0]

    def cos(self) -> "Jet":
        return self.sin_cos()[1]

    def sqrt(self) -> "Jet":
        u0 = self.coeffs[0]
        if u0.lo <= 0.0:
            raise ValueError(f"jet sqrt requires a positive leading coefficient, got {u0}")
        out = [isqrt(u0)]
        two_r0 = out[0] * 2.0
        for k in range(1, self.order + 1):
            acc = self.coeffs[k]
            for j in range(1, k):
                acc = acc - out[j] * out[k - j]
            out.append(acc / two_r0)
        return Jet(out)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, t: Interval | float) -> Interval:
        """Interval Horner evaluation at ``t``."""
        t_iv = Interval.coerce(t)
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * t_iv + c
        return acc

    def __repr__(self) -> str:
        inner = " + ".join(f"{c}*t^{k}" for k, c in enumerate(self.coeffs))
        return f"Jet({inner})"
