"""Files written whole: a writer fills <name>.tmp beside the file and renames
it over the file, so a process killed while writing leaves the previous file
or none, never half of one. The run artifacts' CSV, JSON and model writers
(datasets.write_csv, datasets.write_json, models.save_model), a run's
config.yaml snapshot and the data files that gen-synthetic and inject-noise
write (datasets.write_conll and datasets._write_jsonl) go through it.
"""

import os
from contextlib import contextmanager


@contextmanager
def replacing(path, mode: str = "w", **open_kwargs):
    """<path>.tmp opened with ``mode`` for the block to write, then renamed
    over path. When the block or the rename fails, the temp file is removed
    and an OSError names path, not the temp file."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
    finally:
        # Only a failed write or rename leaves it.
        if os.path.isfile(tmp):
            os.remove(tmp)
