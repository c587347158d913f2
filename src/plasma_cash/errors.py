"""Exception hierarchy shared across the package.

Every refusal, a ``PlasmaError``, carries a short machine-readable
``code``, its class name, so drivers and tests can assert on failure kinds
without string matching.  ``IllegalTransition`` is a fault, not a refusal.

The contract names a refusal by the rule it breaks, not by the move that
broke it: a spend of another block is ``Unlinked`` whether it backs an exit,
a challenge or a response, and a spend takes its checks in one order,
``BadProof``, ``Unlinked``, ``OutOfRange``, ``BadSignature``.
"""


class PlasmaError(Exception):
    code = "PlasmaError"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.code = cls.__name__

    def __init__(self, message=""):
        super().__init__(message or self.code)


# --- sparse merkle tree ---

class SlotOutOfRange(PlasmaError):
    pass


class BadLeaf(PlasmaError):
    """A tree's leaf that is not 32 bytes, or is the empty leaf's default."""


# --- encodings ---

class MalformedEncoding(PlasmaError):
    pass


class MalformedProof(MalformedEncoding):
    """A proof with no wire form, refused when it is built or encoded."""


# --- signatures ---

class MalformedSignature(PlasmaError):
    pass


# --- coin histories ---

class MissingRoot(PlasmaError):
    pass


class WitnessUnavailable(PlasmaError):
    pass


# --- root-chain contract ---

class IllegalTransition(Exception):
    """A coin state change the lifecycle does not list: a fault of the
    contract, not a refused move, so no handler of PlasmaError hides it."""


class BadProof(PlasmaError):
    """An entry that is not the coin's transaction proven in one of its blocks."""


class Unlinked(PlasmaError):
    """A spend of another block than the one the move names."""


class OutOfRange(PlasmaError):
    """An entry whose block lies outside the move's window."""


class BadSignature(PlasmaError):
    pass


class WrongState(PlasmaError):
    """A move the coin's state, or its exit's absence, does not allow."""


class WrongCaller(PlasmaError):
    """A move made by someone other than the one party it allows."""


class NoSuchChallenge(PlasmaError):
    pass


class NotMature(PlasmaError):
    pass


class UnknownCoin(PlasmaError):
    pass


class InsufficientBalance(PlasmaError):
    pass


class BadDenomination(PlasmaError):
    pass


# --- operator ---

class UnknownBlock(PlasmaError):
    pass


# --- wallet / scenarios ---

class NotOwned(PlasmaError):
    pass


class UnknownScenario(PlasmaError):
    pass
