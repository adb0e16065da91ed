"""The workloads and metrics of the benchmark, read from BENCHMARK.json at the
repository root, and the layer names their per-layer metrics imply."""

import json
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

# name: why
WORKLOADS = {w["name"]: w["why"] for w in SPEC["workloads"]}
# name: unit
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# gnum.<layer>.calls, <library>.calls and src.lines.<module>
GNUM_LAYERS = tuple(n.split(".")[1] for n in PER_LAYER if n.startswith("gnum.") and n.endswith(".calls"))
LIBRARY_LAYERS = tuple(n.split(".")[0] for n in PER_LAYER if n.count(".") == 1 and n.endswith(".calls"))
SRC_MODULES = tuple(n.split(".", 2)[2] for n in PER_LAYER if n.startswith("src.lines.") and n != "src.lines.total")
