"""The program under test: peelcore imported from this checkout's `src`, its
cold analytic set-up, and the one build step the benchmark needs.

The build is the default minimum-law table, `airy.min_law_tables()`, which
takes about 100 s cold on a 2-core machine.  That is longer than one run may
last, so the first run in a checkout computes it once with the program's own
function and stores it under the build directory, keyed by a hash of the
package source; a change to any peelcore file builds it again.  Each set-up
then loads that table, serves it to the program in place of the default call,
and recomputes a 5-node table cold through the same public function, so the
per-node cost that a faster Airy evaluation cuts stays inside the measured
set-up.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import pickle
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAYERS = ("ensemble", "peeling", "kernels", "ode", "airy", "scaling",
          "experiments", "cli")
COLD_TABLE = {"n_grid": 5, "u_max": 6.0}   # nodes 0, 1.5, 3, 4.5, 6
L = 3


class ProgramMissing(RuntimeError):
    pass


def build_dir() -> Path:
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "peelcore").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class Program:
    """Handle on the imported peelcore modules, by layer name."""

    def __init__(self):
        if not (SRC / "peelcore" / "__init__.py").is_file():
            raise ProgramMissing(f"no peelcore sources under {SRC}")
        sys.path.insert(0, str(SRC))
        self.modules = {name: importlib.import_module(f"peelcore.{name}")
                        for name in LAYERS}
        for mod in self.modules.values():
            if SRC.resolve() not in Path(mod.__file__).resolve().parents:
                raise ProgramMissing(f"{mod.__name__} imported from {mod.__file__}")
        for name, mod in self.modules.items():
            setattr(self, name, mod)
        self._caches = [obj for mod in self.modules.values()
                        for attr, obj in vars(mod).items()
                        if hasattr(obj, "cache_clear")
                        or (isinstance(obj, dict) and "cache" in attr)]
        self.table_path = build_dir() / f"min_law_tables-{source_hash()[:16]}.pickle"
        self._served = None
        self._default_tables = self.airy.min_law_tables
        self.airy.min_law_tables = self._min_law_tables

    def _min_law_tables(self, *args, **kwargs):
        if not args and not kwargs and self._served is not None:
            return self._served
        return self._default_tables(*args, **kwargs)

    def clear_caches(self):
        """Empty every cache the package keeps, as in a fresh process."""
        for c in self._caches:
            if isinstance(c, dict):
                c.clear()
            else:
                c.cache_clear()

    def ensure_build(self) -> float | None:
        """Compute and store the default table if this source has none yet;
        returns the seconds spent, or None when the stored table is current."""
        if self.table_path.is_file():
            return None
        self.table_path.parent.mkdir(parents=True, exist_ok=True)
        print(f"building {self.table_path.name} (cold min_law_tables)",
              file=sys.stderr, flush=True)
        t0 = time.perf_counter()
        table = self._default_tables()
        seconds = time.perf_counter() - t0
        tmp = self.table_path.with_suffix(f".tmp{os.getpid()}")
        with open(tmp, "wb") as f:
            pickle.dump({"table": table, "build_s": seconds}, f)
        os.replace(tmp, self.table_path)
        return seconds

    def build_seconds(self) -> float:
        with open(self.table_path, "rb") as f:
            return pickle.load(f)["build_s"]

    def analytic_setup(self):
        """Cold analytic constants for l = 3: load the stored default table,
        compute the 5-node table cold, then experiments.get_constants(3)."""
        with open(self.table_path, "rb") as f:
            self._served = pickle.load(f)["table"]
        self.airy.min_law_tables(**COLD_TABLE)
        return self.experiments.get_constants(L)

    def coeff_rows_cached(self) -> int:
        return self.ensemble.log_coeff_rows.cache_info().currsize
