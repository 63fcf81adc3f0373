"""Set-up probe, run in a fresh interpreter by run.py.

    python3 perfbench/setup_probe.py

Prints the seconds taken to import ``affine_ergo`` and ``affine_ergo.cli``
and then to load and validate each bundled model.  Exits 1 if a model fails
validation.
"""

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
MODELS = ("cir_ou", "jump_cbi_ou", "gamma_imm")


def main() -> int:
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import affine_ergo
    import affine_ergo.cli  # noqa: F401
    from affine_ergo.model import load_model, validate

    models = Path(affine_ergo.__file__).parent / "models"
    for name in MODELS:
        if not validate(load_model(models / f"{name}.json")).all_pass:
            print(f"model {name} failed validation", file=sys.stderr)
            return 1
    print(time.perf_counter() - start)
    return 0


if __name__ == "__main__":
    sys.exit(main())
