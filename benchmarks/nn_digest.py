"""Bit-identity digests of the NN stack, for comparing two source trees.

Prints one line each:

* ``resnet20`` / ``vgg11`` -- ``hash_arrays(model_state(...))`` of the
  victims cold-trained by ``build_victim`` at ``Scale.quick()``;
* ``fig8`` -- the sha256 of ``run_fig8("resnet20", Scale.quick())``'s
  payload, serialized as JSON with sorted keys (floats print their
  shortest round-trip repr, so equal digests mean equal bits).

Every victim is trained through a private, temporary ``VictimCache``,
so a warm cache left by another tree cannot hide a training change;
``run_fig8`` reads the ResNet-20 victim this script just trained from
that same directory.  A change to the NN forward/backward path keeps
the experiments byte-identical exactly when both trees print the same
three lines::

    PYTHONPATH=src python benchmarks/nn_digest.py
"""

import hashlib
import json
import os
import tempfile

from repro.eval import Scale
from repro.eval.experiments import build_victim, run_fig8
from repro.nn.cache import (
    CACHE_ENV_VAR,
    MEMORY_ENV_VAR,
    VictimCache,
    hash_arrays,
    model_state,
)


def payload_digest(payload: dict) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main() -> None:
    scale = Scale.quick()
    with tempfile.TemporaryDirectory(prefix="nn-digest-") as directory:
        for arch in ("resnet20", "vgg11"):
            cache = VictimCache(directory=directory)
            _, qmodel = build_victim(arch, scale, cache=cache)
            if cache.stats.hits or cache.stats.stores != 1:
                raise RuntimeError(f"{arch}: victim cache was not cold: {cache.stats}")
            print(f"{arch} {hash_arrays(model_state(qmodel.model))}", flush=True)
        # run_fig8 takes its cache from the environment.
        os.environ[CACHE_ENV_VAR] = directory
        os.environ[MEMORY_ENV_VAR] = "off"
        payload = run_fig8("resnet20", scale)
        print(f"fig8 {payload_digest(payload)}", flush=True)


if __name__ == "__main__":
    main()
