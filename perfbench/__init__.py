"""perfbench: the repo's performance benchmark (see perfbench/README.md).

Five seeded workloads over the lookup, membership and serving paths,
end-to-end metrics measured untraced, per-layer metrics from a separate
traced run.  Uses only the public ``repro`` library API.
"""
