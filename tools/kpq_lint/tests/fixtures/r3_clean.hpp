// R3 clean counterexamples (analyzed under a src/core/ path).
#pragma once

namespace fix {

struct node {
  std::atomic<node*> next{nullptr};
  int value = 0;
};

struct r3_clean {
  std::atomic<node*> head_{nullptr};

  template <typename Guard>
  int protect_path(Guard& g) {
    node* p = g.protect(0, head_);  // announce+validate inside protect()
    return p->value;
  }

  int justified_quiescent() {
    // kpq-hazard: fixture is single-threaded by contract — nothing is
    // retired while this runs
    node* p = head_.load(std::memory_order_seq_cst);
    return p->value;
  }

  bool no_deref() {
    node* p = head_.load(std::memory_order_seq_cst);
    return p == nullptr;  // comparing the pointer never touches the node
  }
};

}  // namespace fix
