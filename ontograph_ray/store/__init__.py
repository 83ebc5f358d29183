from .base import (  # noqa: F401
    GraphStore,
    TripleAlreadyExistsError,
    TripleDoesNotExistError,
)
from .dataset import DatasetGraphStore, distinct_on, write_ntriples  # noqa: F401
from .http import (  # noqa: F401
    HttpGraphStore,
    SparqlHttpEndpoint,
    SparqlHttpError,
)
from .memory import MemoryGraphStore  # noqa: F401
from .namespace import Namespace, NamespaceManager  # noqa: F401
from .turtle import parse_turtle, parse_turtle_with_base, serialize  # noqa: F401
from .versioned import StoreDroppedError, VersionedGraphStorage  # noqa: F401
