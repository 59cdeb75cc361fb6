// The queue's two packed words, at their extremes:
//
//   * the head word {node, claimer} (core/wf_node.hpp): one 8-byte CAS word
//     whose claimer lives in the node's three alignment bits and in bits
//     56-63. It must round-trip claimer none, the first and the last tid of
//     a 256-thread queue and the largest claimer it encodes, next to a node
//     address that uses every bit the cell leaves to it;
//   * the announce record's split load (core/announce_record.hpp): tag,
//     node, tag again, and one CAS when the two tags differ. A step hook
//     that CASes the record between the reads stands in for a peer.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>

#include "core/announce_record.hpp"
#include "core/wf_node.hpp"
#include "core/wf_queue.hpp"
#include "support/whitebox.hpp"

namespace kpq {
namespace {

using node = wf_node<std::uint64_t>;
using cell = head_cell<node>;
using word = head_word<node>;

/// An address with bit 55 set, the highest bit the cell leaves to the node,
/// and bit 3, the lowest. The cell never dereferences it.
node* far_node() {
  return reinterpret_cast<node*>((std::uintptr_t{1} << 55) |
                                 std::uintptr_t{0x1008});
}

TEST(HeadCell, RoundTripsEveryClaimerOfA256ThreadQueue) {
  node n(0, no_tid);
  cell c;
  EXPECT_EQ(c.word(), word{});
  word cur{};
  for (const std::int32_t claimer : {no_tid, 0, 255}) {
    const word next{&n, claimer};
    ASSERT_TRUE(c.cas(cur, next));
    EXPECT_EQ(c.word(), next) << "claimer " << claimer;
    cur = next;
  }
}

TEST(HeadCell, RoundTripsAnAddressWithBit55Set) {
  cell c;
  word cur{};
  const auto last = static_cast<std::int32_t>(cell::max_claimers - 1);
  for (const std::int32_t claimer : {no_tid, 0, 7, 8, 255, last}) {
    const word next{far_node(), claimer};
    ASSERT_TRUE(c.cas(cur, next));
    const word got = c.word();
    EXPECT_EQ(got.node, far_node()) << "claimer " << claimer;
    EXPECT_EQ(got.claimer, claimer);
    cur = next;
  }
}

TEST(HeadCell, CasComparesTheClaimerAsWellAsTheNode) {
  cell c;
  ASSERT_TRUE(c.cas({}, {far_node(), no_tid}));
  EXPECT_FALSE(c.cas({far_node(), 0}, {nullptr, no_tid}));
  EXPECT_FALSE(c.cas({nullptr, no_tid}, {far_node(), 1}));
  EXPECT_EQ(c.word(), (word{far_node(), no_tid}));
  EXPECT_TRUE(c.cas({far_node(), no_tid}, {far_node(), 255}));
  EXPECT_EQ(c.word(), (word{far_node(), 255}));
}

TEST(HeadCell, QueueOf256ThreadsCarriesClaimer255) {
  wf_queue_opt<std::uint64_t> q(max_registered_threads);
  q.enqueue(1, 0);
  ASSERT_TRUE(testing::whitebox::claim(q, 255));
  EXPECT_EQ(testing::whitebox::claimer(q), 255);
  EXPECT_FALSE(testing::whitebox::claim(q, 0));  // the claim stands
  // Tid 255's record is not pending, so finishing the claim only swings
  // the head: the item goes to no one and the queue is empty again.
  testing::whitebox::help_finish_deq(q, 0);
  EXPECT_EQ(testing::whitebox::claimer(q), no_tid);
  EXPECT_EQ(q.dequeue(255), std::nullopt);
}

TEST(HeadCell, QueueAtTheLargestEncodableMaxThreadsRuns) {
  // The last tid's slow dequeue claims the head as that tid.
  wf_queue_opt<std::uint64_t> q(cell::max_claimers);
  const std::uint32_t last = cell::max_claimers - 1;
  q.enqueue(5, last);
  EXPECT_EQ(q.dequeue(last), std::optional<std::uint64_t>(5));
  EXPECT_EQ(q.dequeue(last), std::nullopt);
}

using record = announce_record<node>;

/// Runs r.word(step) where step CASes the record to its next version on
/// call `at` (1-based), standing in for a peer; returns the word and
/// counts the steps.
record::word_type load_with_peer_cas(record& r, int at, node* n,
                                     int* steps) {
  *steps = 0;
  return r.word([&] {
    if (++*steps == at) {
      const record::word_type cur = r.word();
      ASSERT_TRUE(r.cas(cur, cur.next(true, true, n)));
    }
  });
}

TEST(AnnounceRecord, LoadIsThreeStepsWhenNoCasLands) {
  record r;
  node n(0, no_tid);
  ASSERT_TRUE(r.cas({}, record::word_type{}.next(true, true, &n)));
  int steps = 0;
  const record::word_type w = load_with_peer_cas(r, 0, nullptr, &steps);
  EXPECT_EQ(steps, 3);
  EXPECT_EQ(w.version(), 1u);
  EXPECT_TRUE(w.pending());
  EXPECT_TRUE(w.enqueue());
  EXPECT_EQ(w.node, &n);
}

TEST(AnnounceRecord, CasBetweenTagAndNodeFallsBackToOneCas) {
  // Without the second tag read this load would pair version 0's tag with
  // version 1's node, a word the record never held.
  record r;
  node n(0, no_tid);
  int steps = 0;
  const record::word_type w = load_with_peer_cas(r, 2, &n, &steps);
  EXPECT_EQ(steps, 4);
  EXPECT_EQ(w, record::word_type{}.next(true, true, &n));
}

TEST(AnnounceRecord, CasBetweenNodeAndSecondTagFallsBackToOneCas) {
  record r;
  node n(0, no_tid);
  int steps = 0;
  const record::word_type w = load_with_peer_cas(r, 3, &n, &steps);
  EXPECT_EQ(steps, 4);
  EXPECT_EQ(w, record::word_type{}.next(true, true, &n));
  EXPECT_EQ(r.word(), w);  // the fallback CAS changed nothing
}

}  // namespace
}  // namespace kpq
