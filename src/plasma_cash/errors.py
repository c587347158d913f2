"""Exception hierarchy shared across the package.

Every error carries a short machine-readable ``code`` so drivers and tests
can assert on failure kinds without string matching.
"""


class PlasmaError(Exception):
    code = "PlasmaError"

    def __init__(self, message=""):
        super().__init__(message or self.code)


# --- sparse merkle tree ---

class SlotOutOfRange(PlasmaError):
    code = "SlotOutOfRange"


class LeafEqualsDefault(PlasmaError):
    code = "LeafEqualsDefault"


class MalformedProof(PlasmaError):
    code = "MalformedProof"


class BitfieldMismatch(PlasmaError):
    code = "BitfieldMismatch"


# --- encodings ---

class MalformedEncoding(PlasmaError):
    code = "MalformedEncoding"


# --- signatures ---

class MalformedSignature(PlasmaError):
    code = "MalformedSignature"


# --- coin histories ---

class MissingRoot(PlasmaError):
    code = "MissingRoot"


class WitnessUnavailable(PlasmaError):
    code = "WitnessUnavailable"


# --- root-chain contract ---

class NotOperator(PlasmaError):
    code = "NotOperator"


class BadProof(PlasmaError):
    code = "BadProof"


class BadSignature(PlasmaError):
    code = "BadSignature"


class ParentMismatch(PlasmaError):
    code = "ParentMismatch"


class NotNewOwner(PlasmaError):
    code = "NotNewOwner"


class CoinNotExitable(PlasmaError):
    code = "CoinNotExitable"


class WrongBond(PlasmaError):
    code = "WrongBond"


class NoActiveExit(PlasmaError):
    code = "NoActiveExit"


class NotDirectSpend(PlasmaError):
    code = "NotDirectSpend"


class NotBetween(PlasmaError):
    code = "NotBetween"


class NotSameParent(PlasmaError):
    code = "NotSameParent"


class NotBefore(PlasmaError):
    code = "NotBefore"


class NoSuchChallenge(PlasmaError):
    code = "NoSuchChallenge"


class NotDirectSpendOfChallenge(PlasmaError):
    code = "NotDirectSpendOfChallenge"


class NotMature(PlasmaError):
    code = "NotMature"


class NotExited(PlasmaError):
    code = "NotExited"


class NotOwner(PlasmaError):
    code = "NotOwner"


class UnknownCoin(PlasmaError):
    code = "UnknownCoin"


class InsufficientBalance(PlasmaError):
    code = "InsufficientBalance"


# --- operator ---

class UnknownBlock(PlasmaError):
    code = "UnknownBlock"


class WrongMode(PlasmaError):
    code = "WrongMode"


# --- wallet / scenarios ---

class NotOwned(PlasmaError):
    code = "NotOwned"


class UnknownScenario(PlasmaError):
    code = "UnknownScenario"
