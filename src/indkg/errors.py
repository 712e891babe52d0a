"""Exception hierarchy shared across the package."""


class IndkgError(Exception):
    """Base class for all errors raised by this package."""


# -- dataset ingestion ------------------------------------------------------

class MissingFile(IndkgError):
    pass


class MalformedLine(IndkgError):
    def __init__(self, path, line_no):
        super().__init__(f"{path}: line {line_no} has fewer than 3 tab-separated fields")
        self.line_no = line_no


class UnknownRelation(IndkgError):
    def __init__(self, label):
        super().__init__(f"relation {label!r} does not appear in the training split")
        self.label = label


class UnknownEntity(IndkgError):
    def __init__(self, label):
        super().__init__(f"entity {label!r} not present in frozen vocabulary")
        self.label = label


class EntityOverlap(IndkgError):
    def __init__(self, labels):
        preview = sorted(labels)[:5]
        super().__init__(
            f"{len(labels)} entity label(s) appear in both the training and "
            f"inductive splits, e.g. {preview}"
        )
        self.labels = labels


class DuplicateTriple(IndkgError):
    pass


class IdOutOfBounds(IndkgError):
    pass


# -- binary formats ---------------------------------------------------------

class BadMagic(IndkgError):
    pass


class TruncatedFile(IndkgError):
    pass


class VersionMismatch(IndkgError):
    pass


class CorruptHeader(IndkgError):
    """A file header whose lengths are consistent but whose content does
    not decode: label bytes that are not UTF-8, a config that is not JSON,
    bytes after the last block."""


class CorruptRecord(IndkgError):
    def __init__(self, index):
        super().__init__(f"record {index}: checksum mismatch or malformed payload")
        self.index = index


class IndexOutOfRange(IndkgError):
    pass


class EmptyStore(IndkgError):
    pass


# -- sampling ---------------------------------------------------------------

class ExhaustedRetries(IndkgError):
    pass


class EmptyInput(IndkgError):
    pass


# -- numerics ---------------------------------------------------------------

class ShapeMismatch(IndkgError):
    pass


class UnknownCompositionOp(IndkgError):
    pass


class LengthMismatch(IndkgError):
    pass


class NonFiniteGradient(IndkgError):
    pass


class NonFiniteUpdate(IndkgError):
    pass


class NonFiniteLoss(IndkgError):
    pass


class IsolatedEntity(IndkgError):
    pass


# -- metrics ----------------------------------------------------------------

class EmptyScores(IndkgError):
    pass


class SingleClass(IndkgError):
    pass


class NonFiniteValue(IndkgError):
    pass


# -- configuration ----------------------------------------------------------

class ConfigError(IndkgError):
    pass


class UnknownKey(ConfigError):
    def __init__(self, name):
        super().__init__(f"unknown configuration key {name!r}")
        self.name = name


class ConfigTypeError(ConfigError):
    def __init__(self, key, value, expected):
        super().__init__(f"config key {key!r}: cannot parse {value!r} as {expected}")
        self.key = key


class MissingRequired(ConfigError):
    def __init__(self, key):
        super().__init__(f"missing required configuration key {key!r}")
        self.key = key
