"""Exception hierarchy shared across the package.

Every refusal, a ``PlasmaError``, carries a short machine-readable
``code``, its class name, so drivers and tests can assert on failure kinds
without string matching.  ``IllegalTransition`` is a fault, not a refusal.
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


class NotOperator(PlasmaError):
    pass


class BadProof(PlasmaError):
    pass


class BadSignature(PlasmaError):
    pass


class ParentMismatch(PlasmaError):
    pass


class NotNewOwner(PlasmaError):
    pass


class CoinNotExitable(PlasmaError):
    pass


class WrongBond(PlasmaError):
    pass


class NoActiveExit(PlasmaError):
    pass


class NotDirectSpend(PlasmaError):
    pass


class NotBetween(PlasmaError):
    pass


class NotSameParent(PlasmaError):
    pass


class NotBefore(PlasmaError):
    pass


class NoSuchChallenge(PlasmaError):
    pass


class NotDirectSpendOfChallenge(PlasmaError):
    pass


class NotMature(PlasmaError):
    pass


class NotExited(PlasmaError):
    pass


class NotOwner(PlasmaError):
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
