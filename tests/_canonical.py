"""The one form a field coefficient may take, shared by the tests that pin it."""

from fractions import Fraction


def canonical(c, char: int) -> bool:
    """Whether c is a coefficient in its field's one form: over GF(char) an
    int in [0, char); over Q an int when it is an integer and a Fraction
    with denominator > 1 otherwise.  A float, a bool or a Fraction with
    denominator 1 is not."""
    if char:
        return type(c) is int and 0 <= c < char
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)
