"""Mixed fractional integrals, grid variation, and box dimension in 2-D.

Each module's ``__all__`` lists its public names; the package exports their union.
"""

from . import core, fracint, variation, boxdim, verify, constructions
from .core import *  # noqa: F403
from .fracint import *  # noqa: F403
from .variation import *  # noqa: F403
from .boxdim import *  # noqa: F403
from .verify import *  # noqa: F403
from .constructions import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *core.__all__,
    *fracint.__all__,
    *variation.__all__,
    *boxdim.__all__,
    *verify.__all__,
    *constructions.__all__,
    "__version__",
]
