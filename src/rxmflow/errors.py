"""Exception types shared across the engine."""


class EngineError(Exception):
    """Base class for all errors raised by this package."""


class DataLoadError(EngineError):
    """Fatal problem reading or parsing the input dataset."""


class FileMissingError(DataLoadError):
    pass


class MalformedCsvError(DataLoadError):
    pass


class EmptyFrameError(EngineError):
    pass


class UnknownToolError(EngineError):
    pass


class AmbiguousTargetError(EngineError):
    """More than one target candidate and no hint to disambiguate.

    Carries the candidates in frame column order so a caller can apply the
    documented fallback (pick the last candidate) or ask a human.
    """

    def __init__(self, candidates):
        self.candidates = list(candidates)
        super().__init__(
            "multiple target candidates: %s" % ", ".join(self.candidates)
        )


class NoFeaturesError(EngineError):
    pass


class EmptyTrainSetError(EngineError):
    pass


class MissingColumnError(EngineError):
    pass


class TooFewSamplesError(EngineError):
    pass


class ClassTooSmallError(EngineError):
    pass


class ConstantTargetError(EngineError):
    """A regression target with one value over the training rows."""


class AllModelsFailedError(EngineError):
    """Every candidate model failed to train; carries the failed attempts."""

    def __init__(self, attempts):
        self.attempts = list(attempts)
        super().__init__("every candidate failed to train")


class DegenerateStdError(EngineError):
    pass


class MissingImportancesError(EngineError):
    pass


class SinkUnwritableError(EngineError):
    pass


class PlannerGaveUpError(EngineError):
    """The planner finished before the summarize step succeeded, with no
    step failing. `stage` is the first workflow tool not yet done."""

    def __init__(self, stage, detail):
        self.stage = stage
        super().__init__(detail)


class StepCapError(PlannerGaveUpError):
    """The run reached its step cap (`max_steps`) before the summarize step
    succeeded, with no step failing."""


class StageOrderError(EngineError):
    """A stage was picked before every earlier stage succeeded."""


class BackendError(EngineError):
    """Language-model backend failure.

    kind is one of {"unavailable", "timeout", "http_error"}.
    """

    def __init__(self, kind, detail=""):
        self.kind = kind
        self.detail = detail
        super().__init__(f"backend {kind}: {detail}" if detail else f"backend {kind}")


class DecisionParseError(EngineError):
    """Planner output could not be parsed into a valid tool decision.

    code is one of {"no_json", "missing_key", "bad_type", "unknown_tool",
    "repeated_tool"}.
    """

    def __init__(self, code, detail=""):
        self.code = code
        self.detail = detail
        super().__init__(f"{code}: {detail}" if detail else code)
