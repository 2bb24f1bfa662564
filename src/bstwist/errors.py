"""Exception hierarchy shared by all bstwist modules."""


class BSTwistError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "error"


class WordSyntaxError(BSTwistError):
    """Malformed word text; carries the position and offending token."""

    code = "syntax"

    def __init__(self, message, position, token):
        super().__init__(f"{message} at position {position}: {token!r}")
        self.position = position
        self.token = token


class WrongFamily(BSTwistError):
    """The group is outside the family a model or enumerator supports."""

    code = "wrong-family"


class RelationViolated(BSTwistError):
    """Generator images do not extend to an endomorphism.

    The attribute `residue` holds the nontrivial normal form of the image
    of the defining relator.
    """

    code = "relation-violated"

    def __init__(self, residue_text):
        super().__init__(f"relator image is nontrivial: {residue_text}")
        self.residue = residue_text


class NotInKernel(BSTwistError):
    """The word has nonzero a-exponent sum and is not in the kernel K."""

    code = "not-in-kernel"


class ShapeMismatch(BSTwistError):
    """Abelian maps act on groups of different shapes."""

    code = "shape-mismatch"


class GroupMismatch(BSTwistError):
    """Two endomorphism specs live on different groups."""

    code = "group-mismatch"


class UnsupportedGroup(BSTwistError):
    """Certificate operations refuse Z + Z (B(1,1), B(-1,-1)) rather than mislead."""

    code = "unsupported-group"


class BoxTooSmall(BSTwistError):
    """No twisted class is stable within the requested enumeration box."""

    code = "box-too-small"
