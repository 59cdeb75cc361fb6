"""kpq-lint: project-specific concurrency static analysis for the KP queue.

Rules (docs/STATIC_ANALYSIS.md has the full grammar and policy):

  R1 explicit-order   every std::atomic access in src/ names an explicit
                      memory_order, and every non-seq_cst access in the
                      annotated dirs carries a `kpq-order:` justification
                      comment naming its pairing site.
  R2 wait-free purity no blocking primitives or unannotated unbounded loops
                      inside the wait-free hot-path dirs (src/core, src/scale,
                      src/storage); src/sync is the sanctioned blocking site.
  R3 hazard discipline a raw pointer loaded from a shared pointer-atomic must
                      flow through hazard protect() before it is
                      dereferenced in the same scope, or carry a
                      `kpq-hazard:` justification.
  R4 hub discipline   no lock held across a co_await / coroutine resume /
                      frame destroy (the PR 8 two-phase-notify shape).

Front-ends: libclang (clang.cindex) when importable — adds precise detection
of implicit (operator-form) atomic accesses — with a self-contained token
lexer as the always-available fallback. The container this repo builds in
ships no libclang, so the token front-end is the reference implementation
and the fixture suite pins its behaviour.
"""

__version__ = "1.0.0"

RULE_IDS = ("R1", "R2", "R3", "R4")

RULE_TITLES = {
    "R1": "explicit-order",
    "R2": "wait-free purity",
    "R3": "hazard discipline",
    "R4": "hub discipline",
}
